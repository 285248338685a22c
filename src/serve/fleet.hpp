// PhoneBit serve — heterogeneous device-fleet serving.
//
// One process, N simulated phones. A FleetServer owns N shards, each shard
// pairing an oclsim device profile (Adreno-class tiers with distinct RAM
// budgets) with its OWN Device + Engine, its own per-profile artifact
// repository (fed by `pbc compile-fleet`, one .pba per profile) and its own
// set of simulated lanes. Requests are PLACED across the fleet:
//
//   score(shard) = modeled_ms(plan on shard's profile)
//                + wait_weight * max(0, shard_lane_free - now)
//
// Big inputs route to big devices because the first term grows fastest on
// weak profiles; a loaded flagship loses to an idle mid-tier once its queue
// passes the speed gap. Shards are tried best-score-first; a full shard
// spills the request to the next candidate, and only when EVERY candidate
// is full is the request shed. The modeled term is the loaded plan's own
// price on the shard's profile (ExecutionPlan::modeled_ms over the launches
// priced at artifact load — exactly what a live run there reports, since a
// KernelCost is geometry-pure, runtime.hpp); nothing runs to learn it.
//
// The walk is serve::Scheduler (scheduler.hpp), the same one ModelServer
// runs with one shard, so placement, spill, shed, deadline and retry
// verdicts are virtual-time decisions, bit-identical across runs and real
// worker counts (tests/test_fleet.cpp's soak, `pbc fleet-check`). Outputs
// are bit-exact across profiles because oclsim kernels do real host
// arithmetic; only the modeled clock differs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "serve/batch_runner.hpp"
#include "serve/fault.hpp"
#include "serve/model_server.hpp"

namespace phonebit::serve {

/// One shard of the fleet: which simulated phone, and how many real host
/// threads its device pool gets.
struct ShardSpec {
  std::string name;     ///< display name; defaults to "<profile>/<index>"
  std::string profile;  ///< oclsim::profile_by_name key, e.g. "sd855"
  int host_threads = 2; ///< device work-item threads (<=0: hardware)
  /// Overrides the profile's RAM budget in MB (the same SoC ships in
  /// different memory SKUs); 0 keeps the profile default. Artifact loads on
  /// this shard validate against the override.
  std::int64_t ram_mb = 0;
};

/// Fleet-wide serving configuration. Per-shard knobs apply to every shard;
/// `lanes_per_shard` is the SIMULATED decision concurrency of one shard,
/// deliberately independent of `exec_workers` (real threads per shard
/// runner) — changing real parallelism never changes a placement verdict.
struct FleetConfig {
  std::vector<ShardSpec> shards;
  int exec_workers = 2;      ///< real execution threads per shard runner
  int lanes_per_shard = 2;   ///< simulated service lanes per shard
  int queue_limit = 8;       ///< per-shard admission watermark (spill past it)
  int max_retries = 2;       ///< retry budget per request
  double retry_backoff_ms = 0.25;
  double default_deadline_ms = 0.0;  ///< 0 = requests have no deadline
  /// Weight of the virtual queue-wait term in the placement score. 1.0 =
  /// one ms of waiting costs as much as one ms of compute; 0 = route purely
  /// by device speed (the flagship takes everything until it sheds).
  double wait_weight = 1.0;
};

/// Per-request outcome, FleetServer flavor: ModelServer's accounting plus
/// where the request landed and how it got there.
struct FleetRequestResult {
  RequestStatus status;
  core::ForwardResult result;  ///< engaged only when status.ok()

  int shard = -1;      ///< index into config().shards; -1 = never placed
  int spillovers = 0;  ///< better-scored shards skipped because full
  int attempts = 0;
  int retries = 0;
  std::uint64_t plan_version = 0;
  double queue_ms = 0.0;    ///< virtual wait between arrival and dispatch
  double latency_ms = 0.0;  ///< virtual end-to-end latency (0 when shed)
};

/// Per-shard accounting of one fleet run.
struct ShardStats {
  std::string shard;    ///< ShardSpec::name
  std::string profile;  ///< profile key
  int requests = 0;     ///< requests PLACED on this shard
  int ok = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;
  int max_queue_depth = 0;
  double busy_ms = 0.0;      ///< virtual lane-occupancy total
  double utilization = 0.0;  ///< busy_ms / (lanes_per_shard * makespan_ms)
  double p50_ms = 0.0;       ///< Ok-request virtual latency percentiles
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Everything one FleetServer::run produced. Accounting invariant:
/// ok + shed + deadline_exceeded + failed == requests, and
/// sum(assignment) == requests - shed - failed-before-placement.
struct FleetSummary {
  std::vector<FleetRequestResult> results;  ///< submission order

  int requests = 0;
  int ok = 0;
  int shed = 0;  ///< every candidate shard was full
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;
  int spillovers = 0;  ///< total reject-to-next-shard hops

  double makespan_ms = 0.0;  ///< latest virtual lane-busy instant, fleet-wide
  double wall_ms = 0.0;      ///< real host wall time of the whole run

  std::vector<ShardStats> shards;  ///< one entry per shard, fleet order
  /// Requests placed per shard (== shards[i].requests): the pinned
  /// histogram the soak test asserts bit-identical across worker counts.
  std::vector<int> assignment;
};

class Repository;
class Scheduler;

/// The fleet control plane. Construction builds every shard's Device +
/// Engine; load_model_on/swap_model_on manage the per-shard repositories
/// (thread-safe, also against a concurrent run()); run() places and serves
/// a workload trace.
class FleetServer {
 public:
  explicit FleetServer(FleetConfig config, FaultPlan faults = {},
                       std::string name = {});
  ~FleetServer();

  int shard_count() const noexcept { return static_cast<int>(specs_.size()); }
  const FleetConfig& config() const noexcept { return config_; }
  const FaultPlan& faults() const noexcept { return faults_; }
  const std::string& name() const noexcept { return name_; }

  /// The shard's engine / simulated device profile (shard ∈ [0, count)).
  core::Engine& engine(int shard);
  const oclsim::DeviceProfile& shard_profile(int shard) const;
  const ShardSpec& shard_spec(int shard) const;

  /// Loads one .pba per shard under one model name: per_shard_paths[i]
  /// loads on shard i (an empty string skips that shard — the model simply
  /// is not served there). Each attempted load is all-or-nothing per shard;
  /// a failure (fault seam, corrupt file, over-RAM for that profile) throws
  /// after earlier shards registered — callers wanting transactional
  /// all-shards semantics load per shard themselves.
  void load_model(const std::string& model,
                  const std::vector<std::string>& per_shard_paths);

  /// Loads the .pba at `path` into shard `shard`'s repository (version 1).
  /// Validated against THAT shard's profile: an artifact over the profile's
  /// RAM budget throws OutOfMemoryError (itemized) and registers nothing.
  void load_model_on(int shard, const std::string& model,
                     const std::string& path);

  /// Atomic per-shard hot-swap: load + validate against the shard's
  /// profile FIRST; only a fully validated artifact replaces the entry
  /// (version + 1). On failure the exception escapes and the OLD version
  /// keeps serving on that shard — rollback across profiles is the no-op.
  void swap_model_on(int shard, const std::string& model,
                     const std::string& path);

  /// Current version of `model` on `shard` (1 = initial load), 0 if absent.
  std::uint64_t version_on(int shard, const std::string& model) const;

  /// Serves a workload trace: deterministic virtual-time placement across
  /// the shards, then parallel per-shard execution of the admitted
  /// requests. One run() at a time per fleet (concurrent calls throw);
  /// swap_model_on from another thread takes effect from the next run().
  FleetSummary run(std::vector<Request> workload);

  /// Serves a workload trace through a model CASCADE across the fleet
  /// (cascade.hpp, DESIGN.md §13): every stage of a request is placed
  /// INDEPENDENTLY — stage N+1 may land on a different shard than stage N —
  /// by the same cost-plus-wait score as run(), except that the shard
  /// holding the request's filled input planes prices later stages at the
  /// split-skipped (reuse) cost, so reuse affinity emerges from scoring.
  /// The deadline budget spans all stages from the original arrival, and
  /// the per-(stage, shard) placement histogram (CascadeSummary::
  /// stage_assignment) is bit-identical across exec_workers. Requests'
  /// `model` fields are ignored (the spec routes).
  CascadeSummary run_cascade(const CascadeSpec& spec,
                             std::vector<Request> workload);

  /// Zero-compile serving surface: distinct descriptors compiled by any
  /// shard runner so far — stays 0 while every request matches its
  /// artifact's descriptor (the acceptance contract).
  std::size_t compiled_plans() const;

  /// Sum of arena growth events over every shard runner's sessions — flat
  /// in steady state (the zero-allocation serving contract).
  int total_arena_growth_events() const;

 private:
  const FleetConfig config_;
  const FaultPlan faults_;
  const std::string name_;
  std::vector<ShardSpec> specs_;  ///< names defaulted
  std::vector<std::unique_ptr<core::Engine>> engines_;
  std::unique_ptr<Repository> repo_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace phonebit::serve
