#include "serve/model_server.hpp"

#include <utility>

#include "serve/scheduler.hpp"

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
  return scheduler_->run(nullptr, workload, on_shard0(std::move(swaps)));
}

ServerSummary ModelServer::run_cascade(const CascadeSpec& spec,
                                       std::vector<Request> workload,
                                       std::vector<SwapEvent> swaps) {
  return scheduler_->run(&spec, workload, on_shard0(std::move(swaps)));
}

}  // namespace phonebit::serve
