// PhoneBit serve — multi-request execution on one engine.
//
// The first real serving scenario on top of the session API: a BatchRunner
// fans N independent inputs across a private pool of request workers. Each
// worker runs its requests on its own session of the shared Engine (private
// command queue + warm arena from the engine's pool) through ONE compiled
// ExecutionPlan, a loaded artifact's — the plan (like the network) is const
// and shared, so all requests share one copy of the weights AND one set of
// ahead-of-time kernel selections. Per-request ForwardResults come back in
// input order together with an aggregate throughput/latency summary
// including p50/p95/p99 tail latency.
//
// Failure is a value here, not an exception escape: each request's outcome
// comes back as a RequestStatus next to its result, so one poisoned input
// (say, a shape the plan was not compiled for) cannot destroy its
// neighbors' finished work.
//
// Request-level parallelism is intentionally a *separate* thread pool from
// the simulated device's work-item pool: request workers block in
// CommandQueue::enqueue while device workers chew through kernel chunks, so
// nesting both on one pool would let a blocked request starve the kernels it
// is waiting on.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/plan.hpp"

namespace phonebit::artifact {
struct LoadedArtifact;  // core/artifact.hpp
}

namespace phonebit::serve {

/// Outcome classification of one served request. Every request submitted to
/// the serving layer is accounted for with exactly one of these — nothing is
/// silently dropped (DESIGN.md §9):
///   kOk               the forward ran; `results[i]` holds its output.
///   kShed             rejected at admission (queue over its watermark) —
///                     never executed.
///   kDeadlineExceeded past its deadline before execution could complete —
///                     shed at dispatch or abandoned between retries, never
///                     half-run.
///   kFailed           the request itself failed (bad input, exhausted
///                     transient-fault retries); `error` carries the text.
enum class StatusCode { kOk, kShed, kDeadlineExceeded, kFailed };

const char* status_name(StatusCode c) noexcept;

struct RequestStatus {
  StatusCode code = StatusCode::kOk;
  std::string error;  ///< kFailed only: the failing request's error text

  bool ok() const noexcept { return code == StatusCode::kOk; }
  bool operator==(const RequestStatus&) const = default;
};

/// Aggregate outcome of one batch of independent requests.
struct BatchSummary {
  /// Per-request results, in input order. A request that did not reach kOk
  /// leaves its slot default-constructed — its neighbors' results are
  /// preserved regardless.
  std::vector<core::ForwardResult> results;

  /// Per-request outcome, in input order (same length as `results`).
  std::vector<RequestStatus> statuses;

  int requests = 0;
  int ok = 0;      ///< requests with StatusCode::kOk
  int failed = 0;  ///< requests with StatusCode::kFailed
  int workers = 0;

  double wall_ms = 0.0;           ///< host wall time of the whole batch
  double throughput_rps = 0.0;    ///< requests / host wall second
  double total_modeled_ms = 0.0;  ///< sum of per-request modeled device ms
  double mean_modeled_ms = 0.0;   ///< mean per-request modeled latency (Ok)
  double max_modeled_ms = 0.0;    ///< slowest request's modeled latency

  /// Tail latency over the batch's per-request modeled latencies
  /// (nearest-rank percentiles over Ok requests; p50 <= p95 <= p99 <= max).
  double p50_modeled_ms = 0.0;
  double p95_modeled_ms = 0.0;
  double p99_modeled_ms = 0.0;

  /// Per-layer report summed across every Ok request (the plan's step
  /// order; costs merged with KernelCost::accumulate).
  std::vector<core::LayerReport> merged_layers;
};

/// Runs batches of independent inputs through one compiled plan on one
/// engine. The runner owns its worker threads AND one long-lived
/// ExecSession per worker: every request reuses its worker's slot-backed
/// activation slab and scratch arena verbatim (the plan's reserve is a
/// warm no-op), so the steady-state per-request hot path performs zero
/// arena growth and zero buffer allocations beyond each request's owned
/// output tensor, and no shape inference or kernel-variant selection.
class BatchRunner {
 public:
  /// Serves `artifact`'s plan (Engine::load_artifact, or an in-memory
  /// `LoadedArtifact{std::move(net), plan, {}}`) — serving compiles
  /// nothing. A request whose input does not match the plan's descriptor
  /// fails as a value (kFailed naming the plan's input descriptor). The
  /// runner keeps the artifact alive for its own lifetime. `workers` <= 0
  /// selects a small default (4). A runner serves one run() at a time;
  /// create one runner per concurrent batch stream. `name` tags the runner
  /// in error messages (defaults to the network's name).
  BatchRunner(core::Engine& engine,
              std::shared_ptr<const artifact::LoadedArtifact> artifact,
              int workers = 0, std::string name = {});

  /// Forwards every input, blocking until the whole batch is done. Never
  /// throws for per-request failures: each request's outcome lands in
  /// `statuses` (kOk or kFailed{error}) and a failed request leaves every
  /// neighbor's finished result intact.
  BatchSummary run(std::vector<core::Blob> inputs);

  /// Like run(), but borrowing the inputs and attaching a per-request
  /// InputPlaneCache (cascade packed-input reuse, DESIGN.md §13): the
  /// caller keeps ownership of the blobs — a cascade feeds the SAME input
  /// to several stages without copying it — and `planes[i]` (nullable) is
  /// handed to request i's plan run via RunOptions::planes, so a filled
  /// cache skips the input bitplane split and an empty one is filled for
  /// the request's later stages. `planes` may be empty (no caches) or must
  /// match `inputs` in length.
  BatchSummary run(const std::vector<const core::Blob*>& inputs,
                   const std::vector<core::InputPlaneCache*>& planes);

  int workers() const noexcept { return pool_.size(); }

  /// The tag used in this runner's error messages.
  const std::string& name() const noexcept { return name_; }

  /// True while a run() is in flight on some thread (acquire load — safe to
  /// poll from other threads; the value is advisory, a concurrent run() is
  /// still rejected atomically by run itself).
  bool busy() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Worker sessions minted so far (lazily, at most workers()): stable
  /// across batches — sessions are reused, not re-created per request.
  std::size_t sessions() const noexcept { return sessions_.size(); }

  /// Sum of ScratchArena::growth_events over the worker sessions — flat in
  /// steady state (the zero-arena-growth serving contract).
  int total_arena_growth_events() const;

 private:
  /// Shared body of both run flavors: `inputs` are borrowed (the by-value
  /// overload keeps the owning vector alive on its frame) and `planes`
  /// (empty or input-parallel) carries per-request plane caches.
  BatchSummary run_impl(const std::vector<const core::Blob*>& inputs,
                        const std::vector<core::InputPlaneCache*>& planes);

  core::Engine& engine_;
  /// Keeps the network alive that `plan_` points into.
  std::shared_ptr<const artifact::LoadedArtifact> artifact_;
  const core::ExecutionPlan& plan_;  ///< artifact_->plan
  std::string name_;
  ThreadPool pool_;
  /// One persistent session per worker, created lazily on the run() caller
  /// thread. Worker w exclusively owns sessions_[w] while a batch runs —
  /// which is why a runner serves ONE run() at a time: `running_` turns a
  /// concurrent second call (which would race two forwards onto one
  /// session's activation slab) into an InvalidArgument naming the runner
  /// instead of corruption. The flag is claimed with an acq_rel exchange
  /// and released with a release store, so the losing caller's error path
  /// synchronizes-with the winning run (clean under TSan).
  std::vector<std::unique_ptr<core::ExecSession>> sessions_;
  std::atomic<bool> running_{false};
};

}  // namespace phonebit::serve
