// PhoneBit serve — the one virtual-time scheduler behind every serving
// entry point (DESIGN.md §9, §10, §13).
//
// ModelServer::run, ModelServer::run_cascade, FleetServer::run and
// FleetServer::run_cascade are projections of ONE walk over
// (stages × shards × a pre-resolved swap timeline):
//   - a plain run is a one-stage kAlways cascade routed by each request's
//     own `model`, fault-keyed by submission index;
//   - a ModelServer is a one-shard fleet over the engine it was given.
//
// Internal header: the public surface stays model_server.hpp / fleet.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "serve/batch_runner.hpp"
#include "serve/cascade.hpp"
#include "serve/fault.hpp"
#include "serve/model_server.hpp"

namespace phonebit::serve {

/// One repository entry as seen at one instant: the loaded artifact, the
/// runner bound to it and its version. A null artifact means "not loaded".
/// Holding a Snapshot keeps that version alive, so in-flight work finishes
/// on the plan it was routed to while a swap replaces the entry.
struct Snapshot {
  std::shared_ptr<const artifact::LoadedArtifact> artifact;
  std::shared_ptr<BatchRunner> runner;
  std::uint64_t version = 0;
};

/// The per-shard artifact repositories of one server: which model versions
/// each shard serves, the engine and device profile they run on, and the
/// load-sequence counter the FaultPlan's artifact-load seam is keyed on.
/// Thread-safe: loads, swaps and snapshots may race a running walk.
class Repository {
 public:
  /// `who` prefixes every error ("ModelServer 'x'"); runners are named
  /// "<name>[:<shard>]:<model>@v<version>".
  Repository(std::string who, std::string name, int exec_workers,
             FaultPlan faults);

  /// Registers a shard serving on `engine`, priced with `profile`.
  void add_shard(core::Engine& engine, oclsim::DeviceProfile profile,
                 std::string shard_name);

  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
  core::Engine& engine(int shard);
  const oclsim::DeviceProfile& profile(int shard) const;
  const std::string& who() const noexcept { return who_; }

  /// Loads + validates `path` as `model` version 1 on `shard`. Each call
  /// consumes one load-sequence number; on any failure nothing registers.
  void load(int shard, const std::string& model, const std::string& path);

  /// Atomic hot-swap: load + validate first, then replace the entry
  /// (version + 1), returning the new snapshot. On failure the old
  /// version keeps serving.
  Snapshot swap(int shard, const std::string& model, const std::string& path);

  std::uint64_t version(int shard, const std::string& model) const;
  Snapshot snapshot(int shard, const std::string& model) const;
  std::vector<std::string> models(int shard) const;  ///< load order

  std::size_t compiled_plans() const;
  int total_arena_growth_events() const;

  /// " on shard '<name>'" on a multi-shard repository, "" on one shard.
  std::string on_shard(int shard) const;

 private:
  struct Entry {
    std::string model;
    Snapshot snap;
  };
  struct Shard {
    core::Engine* engine = nullptr;
    oclsim::DeviceProfile profile;
    std::string name;
    std::vector<Entry> entries;
  };

  Shard& shard_at(int shard);
  const Shard& shard_at(int shard) const;
  static int find(const Shard& s, const std::string& model);  ///< -1: absent
  std::shared_ptr<BatchRunner> make_runner(
      Shard& s, int shard, const std::string& model,
      std::shared_ptr<const artifact::LoadedArtifact> art,
      std::uint64_t version);
  /// Fault seam + engine validation; caller holds mu_.
  std::shared_ptr<const artifact::LoadedArtifact> checked_load(
      int shard, const std::string& path);

  const std::string who_;
  const std::string name_;
  const int exec_workers_;
  const FaultPlan faults_;

  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  std::uint64_t load_seq_ = 0;  ///< load attempts (fault keying)
};

/// The decision knobs ServerConfig and FleetConfig share.
struct SchedulerConfig {
  int lanes = 4;  ///< simulated service lanes per shard
  int queue_limit = 8;
  int max_retries = 2;
  double retry_backoff_ms = 0.25;
  double default_deadline_ms = 0.0;
  double wait_weight = 1.0;
};

/// A hot-swap scheduled inside a trace, on one shard.
struct ShardSwap {
  int shard = 0;
  SwapEvent event;
};

/// Virtual-time load of one shard over a walk.
struct ShardLoad {
  double busy_ms = 0.0;  ///< lane occupancy
  double end_ms = 0.0;   ///< latest lane-busy instant
  int max_queue_depth = 0;
};

/// Everything one walk decided. `results` holds one record per (request,
/// stage) the request entered; the entry points project it.
struct Schedule {
  std::vector<CascadeRequestResult> results;  ///< submission order
  /// Largest admission-queue depth each request observed on a shard it
  /// tried (ModelServer's per-model depth).
  std::vector<int> queue_depth;
  std::vector<ShardLoad> shards;
  std::vector<std::vector<int>> stage_assignment;  ///< [stage][shard]
  int swaps = 0;
  int swap_rollbacks = 0;
};

/// The virtual-time walk. One run at a time per scheduler (a concurrent
/// call throws); repository loads and swaps from other threads stay legal
/// and take effect from the next run.
class Scheduler {
 public:
  Scheduler(Repository& repo, SchedulerConfig config, FaultPlan faults);

  /// Serves `workload` through `spec`, or — when `spec` is null — as a
  /// plain run routed by each request's model. Scheduled `swaps` commit
  /// to the repository up front, in timestamp order, and every decision
  /// resolves its artifact at its own virtual time. Inputs are borrowed.
  Schedule run(const CascadeSpec* spec, const std::vector<Request>& workload,
               std::vector<ShardSwap> swaps = {});

 private:
  /// Modeled cost of one (plan, input shape) on every shard: a fill
  /// forward (empty plane cache, the plain cost) and, for cache-active
  /// plans, a reuse forward, both re-priced per shard profile.
  struct ProbeCost {
    std::weak_ptr<const artifact::LoadedArtifact> artifact;
    core::BlobDesc desc{};
    std::vector<double> plain_ms;  ///< per shard
    std::vector<double> reuse_ms;  ///< per shard
    bool cache_active = false;
    ConvGeometry planes_geom{};  ///< key the filled cache holds
  };
  const ProbeCost& probe(int shard, const Snapshot& snap,
                         const core::Blob& input, const core::BlobDesc& desc);

  Repository& repo_;
  const SchedulerConfig config_;
  const FaultPlan faults_;
  std::vector<std::unique_ptr<core::ExecSession>> probe_sessions_;
  std::vector<ProbeCost> probe_cache_;
  std::atomic<bool> running_{false};
};

}  // namespace phonebit::serve
