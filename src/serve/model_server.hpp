// PhoneBit serve — the fault-tolerant serving control plane.
//
// ModelServer is the layer a production deployment talks to: a repository
// of loaded .pba artifacts keyed by model name, fronted by admission
// control (bounded queue with load shedding), per-request deadlines,
// bounded retry-with-backoff for transient faults, and atomic artifact
// hot-swap on a live server. Every admitted request executes through a
// per-model-version BatchRunner (batch_runner.hpp), so the zero-compile /
// zero-allocation artifact serving path is unchanged.
//
// Failure is a value: every submitted request comes back with exactly one
// RequestStatus — Ok, Shed (rejected at admission, never executed),
// DeadlineExceeded (past its budget before execution could complete), or
// Failed{error} (bad input, exhausted retries). Nothing is lost and one
// poisoned request never costs its neighbors anything.
//
// Decisions run in VIRTUAL time (DESIGN.md §9): the trace's arrival
// timestamps plus the plans' deterministic modeled latencies, drained by
// `ServerConfig::lanes` simulated lanes, so every shed/deadline/retry
// verdict is a pure function of (workload, config, fault plan) and
// bit-identical for any exec_workers. Only admitted requests then execute
// for real. The walk itself is serve::Scheduler (scheduler.hpp), shared
// with FleetServer: a ModelServer is a one-shard fleet over its engine.
//
// Hot-swap: swap_model loads + validates FIRST, so a corrupt or over-budget
// artifact throws and the old model keeps serving. Requests hold their
// artifact from routing to completion, so in-flight work finishes on the
// old plan and every request runs against exactly one version. Scheduled
// SwapEvents commit when run() starts and take effect at their virtual
// timestamps; a swap_model from another thread during a run() takes effect
// from the next run().
#pragma once

#include <cstdint>
#include <memory>
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
  /// Model version that served it; a shed request reports the version it
  /// arrived under.
  std::uint64_t plan_version = 0;
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

class Repository;
class Scheduler;

/// The multi-model serving control plane. One server fronts one Engine;
/// load_model/swap_model manage the artifact repository (thread-safe, also
/// against a concurrent run()), run() serves a workload trace.
class ModelServer {
 public:
  explicit ModelServer(core::Engine& engine, ServerConfig config = {},
                       FaultPlan faults = {}, std::string name = {});
  ~ModelServer();

  /// Loads the .pba at `path` into the repository as `name` (version 1).
  /// Subject to FaultPlan::artifact_load_fails and the engine's device
  /// validation — on any failure the model is NOT registered and the
  /// exception escapes. Re-loading an existing name throws (use swap).
  void load_model(const std::string& name, const std::string& path);

  /// Atomic hot-swap: load + validate the artifact at `path`, then replace
  /// `name`'s entry (version + 1). On load failure the exception escapes
  /// and the OLD artifact keeps serving — a swap is all-or-nothing.
  void swap_model(const std::string& name, const std::string& path);

  /// Current version of `name` (1 = initial load), 0 if not loaded.
  std::uint64_t version(const std::string& name) const;

  /// Loaded model names, in load order.
  std::vector<std::string> models() const;

  /// Serves a workload trace: deterministic admission/deadline/retry
  /// decisions in virtual time, then parallel execution of the admitted
  /// requests. `swaps` schedules hot-swaps at virtual timestamps inside
  /// the trace. One run() at a time per server (concurrent calls throw,
  /// naming the server).
  ServerSummary run(std::vector<Request> workload,
                    std::vector<SwapEvent> swaps = {});

  /// Serves a workload trace through a model CASCADE (cascade.hpp,
  /// DESIGN.md §13): each request walks `spec`'s stages in order, every
  /// stage consuming the request's ORIGINAL input; a stage's gate decides
  /// whether the next stage runs. Stage decisions are the same virtual-time
  /// walk as run(), bit-identical across exec_workers; a request's
  /// deadline budget spans ALL its stages, measured from its original
  /// arrival, and each stage resolves its artifact at its own dispatch
  /// time, so one stage swapping never drains the cascade. Requests'
  /// `model` fields are ignored (the spec routes).
  CascadeSummary run_cascade(const CascadeSpec& spec,
                             std::vector<Request> workload,
                             std::vector<SwapEvent> swaps = {});

  const ServerConfig& config() const noexcept { return config_; }
  const FaultPlan& faults() const noexcept { return faults_; }
  const std::string& name() const noexcept { return name_; }

 private:
  const ServerConfig config_;
  const FaultPlan faults_;
  const std::string name_;
  std::unique_ptr<Repository> repo_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace phonebit::serve
