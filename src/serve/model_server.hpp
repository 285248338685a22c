// PhoneBit serve — the fault-tolerant serving control plane.
//
// ModelServer is the layer a production deployment talks to: a repository
// of loaded .pba artifacts keyed by model name, fronted by admission
// control (bounded queue with load shedding), per-request deadlines,
// bounded retry-with-backoff for transient faults, and atomic artifact
// hot-swap on a live server. Underneath, every admitted request executes
// through a per-model-version BatchRunner (batch_runner.hpp), so the
// zero-compile / zero-allocation artifact serving path is unchanged.
//
// Failure is a value: every submitted request comes back with exactly one
// RequestStatus — Ok, Shed (rejected at admission, never executed),
// DeadlineExceeded (past its budget before execution could complete), or
// Failed{error} (bad input, exhausted retries). Nothing is lost and one
// poisoned request never destroys its neighbors.
//
// DETERMINISM is the design's organizing trick (DESIGN.md §9): admission,
// deadline, retry and shed decisions run against VIRTUAL time — the
// workload's arrival timestamps plus the engine's deterministic modeled
// device latencies — on a fixed number of simulated service lanes
// (`ServerConfig::lanes`), not against host wall time. The modeled latency
// of a plan depends only on geometry, so the entire decision sequence is a
// pure function of (workload, config, fault plan): the same seed and trace
// produce bit-identical shed/retry/failure counts whether real execution
// uses 1 worker or 16, run after run. Real forwards then execute in
// parallel for the requests that were admitted — requests that were shed
// or expired are never executed at all.
//
// Hot-swap lifecycle: swap_model loads + validates the incoming artifact
// FIRST; only a fully validated artifact replaces the repository entry
// (version bump, fresh BatchRunner). A corrupt or over-budget artifact
// throws and the old model keeps serving — rollback is the no-op. Requests
// capture a shared_ptr to their artifact at dispatch, so in-flight work
// finishes on the old plan while new requests route to the new one; every
// request runs against exactly one plan version, never a mix. Scheduled
// SwapEvents inside a run() trace apply at a virtual timestamp, making the
// version served per request deterministic too.
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

namespace phonebit::serve {

/// One request of a workload trace: which model, what input, when it
/// arrives (virtual ms since trace start) and how long it is willing to
/// wait end-to-end (0 = use ServerConfig::default_deadline_ms; negative =
/// explicitly no deadline).
struct Request {
  std::string model;
  core::Blob input;
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;
};

/// A scheduled hot-swap inside a run() trace: at virtual time `at_ms`,
/// replace `model` with the artifact at `path` (subject to load validation
/// and FaultPlan::artifact_load_fails — a failed load rolls back).
struct SwapEvent {
  double at_ms = 0.0;
  std::string model;
  std::string path;
};

/// Per-request outcome: the status, the forward result (Ok only), and the
/// virtual-time accounting every decision was made with.
struct RequestResult {
  RequestStatus status;
  core::ForwardResult result;  ///< engaged only when status.ok()

  int attempts = 0;  ///< execution attempts accounted (1 + retries), 0 if shed
  int retries = 0;   ///< retries consumed by injected transient faults
  std::uint64_t plan_version = 0;  ///< model version that served (or shed) it
  double queue_ms = 0.0;    ///< virtual wait between arrival and dispatch
  double latency_ms = 0.0;  ///< virtual end-to-end latency (0 when shed)
};

/// Per-model serving statistics, BatchSummary-style.
struct ModelStats {
  std::string model;
  int requests = 0;
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;
  /// Nearest-rank percentiles of Ok requests' virtual end-to-end latency.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Largest admission-queue depth observed at this model's arrivals.
  int max_queue_depth = 0;
};

/// Everything one run() produced: per-request results (submission order)
/// plus the aggregate and per-model accounting. The accounting invariant —
/// ok + shed + deadline_exceeded + failed == requests — is the "zero lost
/// requests" contract.
struct ServerSummary {
  std::vector<RequestResult> results;

  int requests = 0;
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;

  int swaps = 0;            ///< scheduled swaps that committed
  int swap_rollbacks = 0;   ///< scheduled swaps that failed load and rolled back
  int max_queue_depth = 0;  ///< largest admission-queue depth observed

  double wall_ms = 0.0;  ///< real host wall time of the whole run

  std::vector<ModelStats> models;  ///< one entry per model seen in the trace
};

/// Serving configuration. `lanes` is the SIMULATED service concurrency the
/// admission/deadline decisions run against — it is deliberately separate
/// from `exec_workers` (the real threads forwards execute on) so that
/// changing real parallelism never changes a single admission verdict.
struct ServerConfig {
  int exec_workers = 4;  ///< real execution threads per model runner
  int lanes = 4;         ///< simulated service lanes (decision concurrency)
  /// Admission watermark: a request arriving while this many admitted
  /// requests are still waiting (not yet dispatched to a lane) is shed —
  /// reject-newest, the arriving request gets StatusCode::kShed.
  int queue_limit = 8;
  int max_retries = 2;            ///< retry budget per request
  double retry_backoff_ms = 0.25; ///< virtual backoff added before a retry
  double default_deadline_ms = 0.0;  ///< 0 = requests have no deadline
};

/// The multi-model serving control plane. One server fronts one Engine;
/// load_model/swap_model manage the artifact repository (thread-safe, also
/// against a concurrent run()), run() serves a workload trace.
class ModelServer {
 public:
  explicit ModelServer(core::Engine& engine, ServerConfig config = {},
                       FaultPlan faults = {}, std::string name = {});

  /// Loads the .pba at `path` into the repository as `name` (version 1).
  /// Subject to FaultPlan::artifact_load_fails and the engine's device
  /// validation — on any failure the model is NOT registered and the
  /// exception escapes. Re-loading an existing name throws (use swap).
  void load_model(const std::string& name, const std::string& path);

  /// Atomic hot-swap: load + validate the artifact at `path`, then replace
  /// `name`'s entry (version + 1). On load failure the exception escapes
  /// and the OLD artifact keeps serving — a swap is all-or-nothing.
  /// In-flight requests hold their dispatch-time artifact and finish on it.
  void swap_model(const std::string& name, const std::string& path);

  /// Current version of `name` (1 = initial load), 0 if not loaded.
  std::uint64_t version(const std::string& name) const;

  /// Loaded model names, in load order.
  std::vector<std::string> models() const;

  /// Serves a workload trace: deterministic admission/deadline/retry
  /// decisions in virtual time, then parallel execution of the admitted
  /// requests. `swaps` schedules hot-swaps at virtual timestamps inside
  /// the trace. One run() at a time per server (concurrent calls throw,
  /// naming the server); swap_model from OTHER threads stays legal.
  ServerSummary run(std::vector<Request> workload,
                    std::vector<SwapEvent> swaps = {});

  /// Serves a workload trace through a model CASCADE (cascade.hpp,
  /// DESIGN.md §13): each request walks `spec`'s stages in order, every
  /// stage consuming the request's ORIGINAL input; a stage's gate decides
  /// whether the next stage runs. Stage decisions use the same virtual-time
  /// machinery as run() — per-stage shed/deadline/retry counts are
  /// bit-identical across exec_workers — and a request's deadline budget
  /// spans ALL its stages, measured from its original arrival. `swaps`
  /// schedules per-stage hot-swaps at virtual timestamps: a stage resolves
  /// its artifact at dispatch, so one stage swapping never drains the
  /// cascade. Requests' `model` fields are ignored (the spec routes).
  CascadeSummary run_cascade(const CascadeSpec& spec,
                             std::vector<Request> workload,
                             std::vector<SwapEvent> swaps = {});

  const ServerConfig& config() const noexcept { return config_; }
  const FaultPlan& faults() const noexcept { return faults_; }
  const std::string& name() const noexcept { return name_; }

 private:
  /// One repository entry: the loaded artifact, the runner bound to it,
  /// and the version counter. Runners are shared_ptr so a swap can replace
  /// the entry while an older runner finishes its in-flight batch.
  struct Entry {
    std::string model;
    std::shared_ptr<const artifact::LoadedArtifact> artifact;
    std::shared_ptr<BatchRunner> runner;
    std::uint64_t version = 0;
  };

  /// Snapshot of an entry taken under the repository lock at dispatch.
  struct Snapshot {
    std::shared_ptr<const artifact::LoadedArtifact> artifact;
    std::shared_ptr<BatchRunner> runner;
    std::uint64_t version = 0;
  };

  Entry* find_entry(const std::string& model);
  const Entry* find_entry(const std::string& model) const;
  Snapshot snapshot(const std::string& model) const;

  /// Loads + validates `path` (fault seam + device validation). Each call
  /// consumes one load-sequence number for FaultPlan::artifact_load_fails.
  std::shared_ptr<const artifact::LoadedArtifact> checked_load(
      const std::string& path);

  /// Modeled device latency of one forward of `input` through `snap`'s
  /// plan — geometry-deterministic, measured once per (artifact, desc) on
  /// the probe session and cached.
  double modeled_ms_for(const Snapshot& snap, const core::Blob& input);

  core::Engine& engine_;
  const ServerConfig config_;
  const FaultPlan faults_;
  const std::string name_;

  mutable std::mutex repo_mu_;
  std::vector<Entry> repo_;
  std::uint64_t load_seq_ = 0;  ///< artifact loads attempted (fault keying)

  /// Probe session + modeled-latency cache (caller-thread only; guarded by
  /// the one-run-at-a-time contract).
  std::unique_ptr<core::ExecSession> probe_;
  struct ProbeEntry {
    const void* plan = nullptr;
    core::BlobDesc desc{};
    double modeled_ms = 0.0;
  };
  std::vector<ProbeEntry> probe_cache_;

  /// Cascade pricing (DESIGN.md §13): a stage costs `plain_ms` on a cold
  /// request and `reuse_ms` when the request already carries filled input
  /// planes under this plan's conv1 geometry (the split kernel is
  /// skipped). `cache_active` records whether this plan participates in
  /// plane caching at all (interior-split input conv) — measured once per
  /// (plan, desc) by probing twice: a fill run against an empty cache,
  /// then a reuse run against the filled one.
  struct CascadeProbeEntry {
    const void* plan = nullptr;
    core::BlobDesc desc{};
    double plain_ms = 0.0;
    double reuse_ms = 0.0;
    bool cache_active = false;
    /// Conv geometry the plan's filled cache is keyed on; a request's
    /// planes price at reuse_ms only when they were filled under it.
    ConvGeometry planes_geom{};
  };
  std::vector<CascadeProbeEntry> cascade_probe_cache_;
  const CascadeProbeEntry& cascade_probe(const Snapshot& snap,
                                         const core::Blob& input);

  std::atomic<bool> running_{false};
};

}  // namespace phonebit::serve
