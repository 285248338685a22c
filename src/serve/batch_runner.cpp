#include "serve/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "core/artifact.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

namespace {

/// The artifact constructor binds net_ to the loaded network — reject a
/// null artifact before the reference member is formed.
const core::Network& artifact_network(
    const std::shared_ptr<const artifact::LoadedArtifact>& art) {
  PB_CHECK(art != nullptr && art->network != nullptr,
           "BatchRunner needs a loaded artifact");
  return *art->network;
}

/// What a status's error text shows for a non-Error exception.
std::string describe_exception(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Borrowed-input view of an owning batch (the by-value run() overloads
/// keep the vector alive on their own frame while run_impl borrows it).
std::vector<const core::Blob*> borrow_all(
    const std::vector<core::Blob>& inputs) {
  std::vector<const core::Blob*> ptrs;
  ptrs.reserve(inputs.size());
  for (const core::Blob& b : inputs) ptrs.push_back(&b);
  return ptrs;
}

}  // namespace

const char* status_name(StatusCode c) noexcept {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kShed: return "shed";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kFailed: return "failed";
  }
  return "?";
}

BatchRunner::BatchRunner(core::Engine& engine, const core::Network& net,
                         int workers, std::string name)
    : engine_(engine), net_(net),
      name_(name.empty() ? net.name() : std::move(name)),
      pool_(workers > 0 ? workers : 4) {}

BatchRunner::BatchRunner(
    core::Engine& engine,
    std::shared_ptr<const artifact::LoadedArtifact> artifact, int workers,
    std::string name)
    : engine_(engine), net_(artifact_network(artifact)),
      artifact_(std::move(artifact)),
      name_(name.empty() ? net_.name() : std::move(name)),
      pool_(workers > 0 ? workers : 4) {}

std::shared_ptr<const core::ExecutionPlan> BatchRunner::plan_for(
    const core::BlobDesc& desc) {
  // Artifact fast path: requests matching the shipped descriptor run the
  // loaded plan as-is — no compile, no cache, no options staleness
  // (the artifact IS the pinned snapshot). The aliasing shared_ptr keeps
  // the whole artifact (plan + the network its steps point into) alive.
  if (artifact_ != nullptr && desc == artifact_->plan.input()) {
    return std::shared_ptr<const core::ExecutionPlan>(artifact_,
                                                      &artifact_->plan);
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  // Plans embed the options they were compiled against; if the engine was
  // reconfigured between batches (the ablation workflow), the cache is
  // stale as a whole — drop it so requests never run an outdated snapshot.
  if (!plans_.empty() &&
      !(plans_.front().second->options() == engine_.options())) {
    plans_.clear();
  }
  for (const auto& [d, plan] : plans_) {
    if (d == desc) return plan;
  }
  // First request with this shape pays the (one-off, O(layers)) compile;
  // every later request shares the immutable plan across sessions.
  auto plan = std::make_shared<const core::ExecutionPlan>(
      net_.compile(engine_.options(), desc));
  plans_.emplace_back(desc, plan);
  return plan;
}

std::size_t BatchRunner::compiled_plans() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  return plans_.size();
}

int BatchRunner::total_arena_growth_events() const {
  int total = 0;
  for (const auto& s : sessions_) {
    if (s != nullptr) total += s->arena().growth_events();
  }
  return total;
}

BatchSummary BatchRunner::run(std::vector<core::Blob> inputs) {
  return run_impl(borrow_all(inputs), {}, nullptr);
}

BatchSummary BatchRunner::run(
    const std::vector<const core::Blob*>& inputs,
    const std::vector<core::InputPlaneCache*>& planes) {
  PB_CHECK(planes.empty() || planes.size() == inputs.size(),
           "BatchRunner '" << name_ << "': planes must be empty or match "
                           << "inputs (" << planes.size() << " vs "
                           << inputs.size() << ")");
  for (const core::Blob* b : inputs) {
    PB_CHECK(b != nullptr, "BatchRunner '" << name_ << "': null input blob");
  }
  return run_impl(inputs, planes, nullptr);
}

BatchSummary BatchRunner::run_or_throw(std::vector<core::Blob> inputs) {
  std::exception_ptr first_error;
  BatchSummary summary = run_impl(borrow_all(inputs), {}, &first_error);
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return summary;
}

BatchSummary BatchRunner::run_impl(
    const std::vector<const core::Blob*>& inputs,
    const std::vector<core::InputPlaneCache*>& planes,
    std::exception_ptr* first_error) {
  // One run() at a time per runner (documented contract): the persistent
  // worker sessions are exclusively owned per batch, so a concurrent call
  // must fail loudly rather than race two forwards onto one session. The
  // acq_rel exchange claims the runner; the guard's release store hands it
  // back, pairing with the next winner's acquire.
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           "BatchRunner '" << name_
                           << "': run called concurrently — a runner serves "
                              "one batch at a time; create one runner per "
                              "concurrent stream");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  BatchSummary summary;
  summary.requests = static_cast<int>(inputs.size());
  summary.workers = pool_.size();
  summary.results.resize(inputs.size());
  summary.statuses.resize(inputs.size());
  if (inputs.empty()) return summary;

  // Persistent worker sessions, minted once on the caller thread (at most
  // one per worker) and reused across requests AND batches: request i runs
  // on session i % workers, so each session's slot-backed activation slab
  // and scratch arena stay warm — the plan's reserve is a no-op and the
  // steady-state request path never grows an arena.
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(pool_.size()),
                            inputs.size());
  while (sessions_.size() < workers) {
    sessions_.push_back(
        std::make_unique<core::ExecSession>(engine_.create_session()));
  }

  // One task per worker owning a strided share of the requests (not
  // parallel_for: its small-n inline path would serialize the batch on
  // this thread). A local completion group keeps the runner independent of
  // anything else submitted to the pool. A request that throws records a
  // kFailed status in ITS slot and the loop moves on — neighbors keep
  // their results (first-error-wins destroyed them before PR 6).
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = workers;
  std::exception_ptr batch_error;

  const double t0 = now_ms();
  for (std::size_t w = 0; w < workers; ++w) {
    pool_.submit([this, &inputs, &planes, &summary, &mu, &cv, &pending,
                  &batch_error, w, workers] {
      std::exception_ptr error;
      core::ExecSession& session = *sessions_[w];
      for (std::size_t i = w; i < inputs.size(); i += workers) {
        try {
          const auto plan = plan_for(core::describe_blob(*inputs[i]));
          session.reset_profile();
          core::RunOptions ro;
          if (i < planes.size()) ro.planes = planes[i];
          summary.results[i] = plan->run(session, *inputs[i], ro);
        } catch (...) {
          summary.statuses[i].code = StatusCode::kFailed;
          summary.statuses[i].error =
              describe_exception(std::current_exception());
          if (error == nullptr) error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (error != nullptr && batch_error == nullptr) batch_error = error;
      if (--pending == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&pending] { return pending == 0; });
  }
  summary.wall_ms = now_ms() - t0;
  if (first_error != nullptr) *first_error = batch_error;

  // Latency/throughput aggregation plus the per-layer merge over the Ok
  // requests: requests of one plan report the same steps in the same
  // order, so slot j of every report describes the same step. Failed
  // requests are counted but contribute nothing — their result slots are
  // default-constructed.
  std::vector<double> latencies;
  latencies.reserve(summary.results.size());
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    if (!summary.statuses[i].ok()) {
      ++summary.failed;
      continue;
    }
    ++summary.ok;
    const core::ForwardResult& r = summary.results[i];
    latencies.push_back(r.modeled_ms);
    summary.total_modeled_ms += r.modeled_ms;
    summary.max_modeled_ms = std::max(summary.max_modeled_ms, r.modeled_ms);
    if (summary.merged_layers.empty() && !r.report.empty()) {
      summary.merged_layers.resize(r.report.size());
      for (std::size_t j = 0; j < r.report.size(); ++j) {
        summary.merged_layers[j].name = r.report[j].name;
        summary.merged_layers[j].launches = 0;
        summary.merged_layers[j].cost = oclsim::KernelCost::accumulator();
      }
    }
    // A request of another input shape may run a plan that fused a
    // different set of steps; its report does not line up, so it is left
    // out of the per-layer merge (it still counts in the totals above).
    if (r.report.size() != summary.merged_layers.size()) continue;
    for (std::size_t j = 0; j < r.report.size(); ++j) {
      core::LayerReport& m = summary.merged_layers[j];
      m.modeled_ms += r.report[j].modeled_ms;
      m.host_ms += r.report[j].host_ms;
      m.launches += r.report[j].launches;
      m.cost.accumulate(r.report[j].cost);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  summary.p50_modeled_ms = percentile(latencies, 50.0);
  summary.p95_modeled_ms = percentile(latencies, 95.0);
  summary.p99_modeled_ms = percentile(latencies, 99.0);
  summary.mean_modeled_ms =
      summary.ok > 0 ? summary.total_modeled_ms / summary.ok : 0.0;
  summary.throughput_rps = summary.wall_ms > 0
                               ? 1e3 * static_cast<double>(summary.requests) /
                                     summary.wall_ms
                               : 0.0;
  return summary;
}

}  // namespace phonebit::serve
