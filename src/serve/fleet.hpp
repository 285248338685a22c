// PhoneBit serve — heterogeneous device-fleet serving.
//
// One process, N simulated phones. A FleetServer owns N shards, each shard
// pairing an oclsim device profile (Adreno-class tiers with distinct RAM
// budgets) with its OWN Device + Engine, its own per-profile artifact
// repository (fed by `pbc compile-fleet`, one .pba per profile) and its own
// ModelServer-style simulated lane set. This is the sharding leg of the
// ROADMAP north star: the request stream of millions of users does not fit
// one device, so requests are PLACED across a fleet of unequal devices.
//
// Placement is cost-model aware. For every request the fleet scores each
// candidate shard (a shard serving the request's model at the right shape):
//
//   score(shard) = modeled_ms(plan on shard's profile)
//                + wait_weight * max(0, shard_lane_free - now)
//
// i.e. how long THIS device would take, plus how long the request would
// wait for one of the shard's lanes. Big inputs route to big devices
// because the first term grows fastest on weak profiles; a loaded flagship
// loses to an idle mid-tier once its queue passes the speed gap. Shards are
// tried best-score-first; a full shard (admission queue at its watermark)
// spills the request to the next candidate — reject-to-next-shard before
// rejecting the user — and only when EVERY candidate is full is the request
// shed.
//
// The modeled-latency term needs the plan's cost on every profile WITHOUT
// standing up a live run per shard: one probe forward on the lowest-index
// shard holding the model records the kernel event log, and
// oclsim::replay_modeled_ms re-prices that log for each shard's profile
// (exactly — a KernelCost is geometry-pure, see runtime.hpp). One probe per
// (model, shape) covers the whole fleet.
//
// DETERMINISM extends DESIGN.md §9 to multiple shards: placement, spill,
// shed, deadline and retry verdicts all run in virtual time against the
// per-shard lane heaps, so the per-shard assignment histogram and every
// count are bit-identical across runs and real worker counts (asserted by
// tests/test_fleet.cpp's soak and the `pbc fleet-check` smoke). Real
// forwards then execute per shard, per model version, through the same
// zero-compile / zero-allocation BatchRunner path as a single server —
// outputs are bit-exact across profiles because oclsim kernels do real
// host arithmetic; only the modeled clock differs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// The fleet control plane. Construction builds every shard's Device +
/// Engine; load_model_on/swap_model_on manage the per-shard repositories
/// (thread-safe, also against a concurrent run()); run() places and serves
/// a workload trace.
class FleetServer {
 public:
  explicit FleetServer(FleetConfig config, FaultPlan faults = {},
                       std::string name = {});

  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
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
  /// swap_model_on from OTHER threads stays legal.
  FleetSummary run(std::vector<Request> workload);

  /// Serves a workload trace through a model CASCADE across the fleet
  /// (cascade.hpp, DESIGN.md §13): every stage of a request is placed
  /// INDEPENDENTLY — stage N+1 may land on a different shard than stage N —
  /// by the same cost-plus-wait score as run(), with one cascade twist:
  /// once a stage has filled the request's input plane cache on a shard,
  /// that shard prices later stages at the split-skipped (reuse) cost, so
  /// reuse affinity emerges from scoring instead of being hard-wired. The
  /// deadline budget spans all stages from the original arrival, and the
  /// per-(stage, shard) placement histogram (CascadeSummary::
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
  /// One per-shard repository entry (ModelServer::Entry shape).
  struct Entry {
    std::string model;
    std::shared_ptr<const artifact::LoadedArtifact> artifact;
    std::shared_ptr<BatchRunner> runner;
    std::uint64_t version = 0;
  };

  /// A shard: the simulated phone, its engine, its repository and its
  /// probe session (lazily minted for cost probes).
  struct Shard {
    ShardSpec spec;
    oclsim::DeviceProfile profile;
    std::shared_ptr<oclsim::Device> device;
    std::unique_ptr<core::Engine> engine;
    std::vector<Entry> repo;
    std::unique_ptr<core::ExecSession> probe;
  };

  /// Snapshot of one shard's entry taken under the repository lock.
  struct Snapshot {
    std::shared_ptr<const artifact::LoadedArtifact> artifact;
    std::shared_ptr<BatchRunner> runner;
    std::uint64_t version = 0;
  };

  Shard& shard_at(int shard);
  const Shard& shard_at(int shard) const;
  Entry* find_entry(Shard& s, const std::string& model);
  const Entry* find_entry(const Shard& s, const std::string& model) const;
  Snapshot snapshot(int shard, const std::string& model) const;

  /// Loads + validates `path` for shard `shard` (fault seam + that shard's
  /// profile validation). Consumes one fleet-wide load-sequence number for
  /// FaultPlan::artifact_load_fails. Caller holds repo_mu_.
  std::shared_ptr<const artifact::LoadedArtifact> checked_load(
      int shard, const std::string& path);

  const FleetConfig config_;
  const FaultPlan faults_;
  const std::string name_;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex repo_mu_;
  std::uint64_t load_seq_ = 0;  ///< fleet-wide load attempts (fault keying)

  /// Probe cache (caller-thread only; guarded by one-run-at-a-time).
  struct ProbeEntry {
    const void* plan = nullptr;
    core::BlobDesc desc{};
    std::vector<double> per_shard_ms;
  };
  std::vector<ProbeEntry> probe_cache_;

  /// Cascade pricing across profiles: the probe shard runs a FILL forward
  /// (empty plane cache — same cost as plain) and, when the plan is
  /// cache-active, a REUSE forward (filled cache, split skipped); both
  /// event logs replay per profile, giving every shard's plain and reuse
  /// cost from one probe pair.
  struct CascadeProbeEntry {
    const void* plan = nullptr;
    core::BlobDesc desc{};
    std::vector<double> plain_ms;  ///< per shard
    std::vector<double> reuse_ms;  ///< per shard
    bool cache_active = false;
    ConvGeometry planes_geom{};  ///< key the filled cache holds
  };
  std::vector<CascadeProbeEntry> cascade_probe_cache_;

  std::atomic<bool> running_{false};
};

}  // namespace phonebit::serve
