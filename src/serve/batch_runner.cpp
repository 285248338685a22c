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

/// The constructor binds plan_ to the artifact's plan — reject a null
/// artifact before the reference member is formed.
const core::ExecutionPlan& artifact_plan(
    const std::shared_ptr<const artifact::LoadedArtifact>& art) {
  PB_CHECK(art != nullptr && art->network != nullptr,
           "BatchRunner needs a loaded artifact");
  return art->plan;
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

BatchRunner::BatchRunner(
    core::Engine& engine,
    std::shared_ptr<const artifact::LoadedArtifact> artifact, int workers,
    std::string name)
    : engine_(engine), artifact_(std::move(artifact)),
      plan_(artifact_plan(artifact_)),
      name_(name.empty() ? plan_.network_name() : std::move(name)),
      pool_(workers > 0 ? workers : 4) {}

int BatchRunner::total_arena_growth_events() const {
  int total = 0;
  for (const auto& s : sessions_) {
    if (s != nullptr) total += s->arena().growth_events();
  }
  return total;
}

BatchSummary BatchRunner::run(std::vector<core::Blob> inputs) {
  return run_impl(borrow_all(inputs), {});
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
  return run_impl(inputs, planes);
}

BatchSummary BatchRunner::run_impl(
    const std::vector<const core::Blob*>& inputs,
    const std::vector<core::InputPlaneCache*>& planes) {
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
  // anything else submitted to the pool. A request that throws (its input
  // is not the plan's descriptor, say) records a kFailed status in ITS
  // slot and the loop moves on — neighbors keep their results.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = workers;

  const double t0 = now_ms();
  for (std::size_t w = 0; w < workers; ++w) {
    pool_.submit([this, &inputs, &planes, &summary, &mu, &cv, &pending, w,
                  workers] {
      core::ExecSession& session = *sessions_[w];
      for (std::size_t i = w; i < inputs.size(); i += workers) {
        try {
          session.reset_profile();
          core::RunOptions ro;
          if (i < planes.size()) ro.planes = planes[i];
          summary.results[i] = plan_.run(session, *inputs[i], ro);
        } catch (...) {
          summary.statuses[i].code = StatusCode::kFailed;
          summary.statuses[i].error =
              describe_exception(std::current_exception());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&pending] { return pending == 0; });
  }
  summary.wall_ms = now_ms() - t0;

  // Latency/throughput aggregation plus the per-layer merge over the Ok
  // requests: every request runs the one plan, so slot j of every report
  // describes the same step. Failed requests are counted but contribute
  // nothing — their result slots are default-constructed.
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
    if (summary.merged_layers.empty()) {
      summary.merged_layers.resize(r.report.size());
      for (std::size_t j = 0; j < r.report.size(); ++j) {
        summary.merged_layers[j].name = r.report[j].name;
        summary.merged_layers[j].launches = 0;
        summary.merged_layers[j].cost = oclsim::KernelCost::accumulator();
      }
    }
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
