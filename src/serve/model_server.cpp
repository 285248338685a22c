#include "serve/model_server.hpp"

#include <algorithm>
#include <utility>

#include "serve/scheduler.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

namespace {

std::vector<ShardSwap> on_shard0(std::vector<SwapEvent> swaps) {
  std::vector<ShardSwap> out;
  out.reserve(swaps.size());
  for (SwapEvent& ev : swaps) out.push_back(ShardSwap{0, std::move(ev)});
  return out;
}

}  // namespace

ModelServer::ModelServer(core::Engine& engine, ServerConfig config,
                         FaultPlan faults, std::string name)
    : config_(config), faults_(faults),
      name_(name.empty() ? "model-server" : std::move(name)) {
  repo_ = std::make_unique<Repository>("ModelServer '" + name_ + "'", name_,
                                       config_.exec_workers, faults_);
  repo_->add_shard(engine, engine.device().profile(), name_);
  SchedulerConfig sc;
  sc.lanes = config_.lanes;
  sc.queue_limit = config_.queue_limit;
  sc.max_retries = config_.max_retries;
  sc.retry_backoff_ms = config_.retry_backoff_ms;
  sc.default_deadline_ms = config_.default_deadline_ms;
  scheduler_ = std::make_unique<Scheduler>(*repo_, sc, faults_);
}

ModelServer::~ModelServer() = default;

void ModelServer::load_model(const std::string& model,
                             const std::string& path) {
  repo_->load(0, model, path);
}

void ModelServer::swap_model(const std::string& model,
                             const std::string& path) {
  (void)repo_->swap(0, model, path);
}

std::uint64_t ModelServer::version(const std::string& model) const {
  return repo_->version(0, model);
}

std::vector<std::string> ModelServer::models() const {
  return repo_->models(0);
}

ServerSummary ModelServer::run(std::vector<Request> workload,
                               std::vector<SwapEvent> swaps) {
  const double wall0 = now_ms();
  Schedule sched =
      scheduler_->run(nullptr, workload, on_shard0(std::move(swaps)));

  // Projection: one stage per request, plus per-model accounting.
  ServerSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.swaps = sched.swaps;
  summary.swap_rollbacks = sched.swap_rollbacks;
  summary.max_queue_depth = sched.shards[0].max_queue_depth;
  std::vector<std::vector<double>> ok_latency;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    CascadeRequestResult& cr = sched.results[i];
    const StageOutcome& so = cr.stages.front();
    summary.results.push_back(RequestResult{
        cr.status, std::move(cr.result), so.attempts, so.retries,
        so.plan_version, so.queue_ms, cr.latency_ms});
    const RequestResult& rr = summary.results.back();

    std::size_t k = 0;
    while (k < summary.models.size() &&
           summary.models[k].model != workload[i].model) {
      ++k;
    }
    if (k == summary.models.size()) {
      summary.models.push_back(ModelStats{});
      summary.models[k].model = workload[i].model;
      ok_latency.emplace_back();
    }
    ModelStats& m = summary.models[k];
    ++m.requests;
    m.retries += rr.retries;
    summary.retries += rr.retries;
    m.max_queue_depth = std::max(m.max_queue_depth, sched.queue_depth[i]);
    count_status(summary, rr.status.code);
    count_status(m, rr.status.code);
    if (rr.status.ok()) {
      ok_latency[k].push_back(rr.latency_ms);
      m.max_ms = std::max(m.max_ms, rr.latency_ms);
    }
  }
  for (std::size_t k = 0; k < summary.models.size(); ++k) {
    std::sort(ok_latency[k].begin(), ok_latency[k].end());
    summary.models[k].p50_ms = percentile(ok_latency[k], 50.0);
    summary.models[k].p99_ms = percentile(ok_latency[k], 99.0);
  }
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

CascadeSummary ModelServer::run_cascade(const CascadeSpec& spec,
                                        std::vector<Request> workload,
                                        std::vector<SwapEvent> swaps) {
  validate_cascade(spec, repo_->who());
  const double wall0 = now_ms();
  Schedule sched =
      scheduler_->run(&spec, workload, on_shard0(std::move(swaps)));

  // Projection: a single-server cascade reports no placement.
  CascadeSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results = std::move(sched.results);
  for (CascadeRequestResult& rr : summary.results) {
    for (StageOutcome& so : rr.stages) {
      so.shard = -1;
      so.spillovers = 0;
    }
  }
  summary.swaps = sched.swaps;
  summary.swap_rollbacks = sched.swap_rollbacks;
  finalize_cascade_summary(summary, spec);
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

}  // namespace phonebit::serve
