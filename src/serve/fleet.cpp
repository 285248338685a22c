#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "serve/scheduler.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

FleetServer::FleetServer(FleetConfig config, FaultPlan faults,
                         std::string name)
    : config_(std::move(config)), faults_(faults),
      name_(name.empty() ? "fleet" : std::move(name)) {
  PB_CHECK(!config_.shards.empty(), "FleetServer needs at least one shard");
  repo_ = std::make_unique<Repository>("FleetServer '" + name_ + "'", name_,
                                       config_.exec_workers, faults_);
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    ShardSpec spec = config_.shards[i];
    if (spec.name.empty()) spec.name = spec.profile + "/" + std::to_string(i);
    // profile_by_name throws InvalidArgument (naming the known keys) for a
    // bad spec — the fleet fails at construction, not at first request.
    oclsim::DeviceProfile profile = oclsim::profile_by_name(spec.profile);
    if (spec.ram_mb > 0) profile.ram_mb = spec.ram_mb;
    engines_.push_back(std::make_unique<core::Engine>(
        std::make_shared<oclsim::Device>(profile, spec.host_threads)));
    repo_->add_shard(*engines_.back(), profile, spec.name);
    specs_.push_back(std::move(spec));
  }
  SchedulerConfig sc;
  sc.lanes = config_.lanes_per_shard;
  sc.queue_limit = config_.queue_limit;
  sc.max_retries = config_.max_retries;
  sc.retry_backoff_ms = config_.retry_backoff_ms;
  sc.default_deadline_ms = config_.default_deadline_ms;
  sc.wait_weight = config_.wait_weight;
  scheduler_ = std::make_unique<Scheduler>(*repo_, sc, faults_);
}

FleetServer::~FleetServer() = default;

core::Engine& FleetServer::engine(int shard) { return repo_->engine(shard); }

const oclsim::DeviceProfile& FleetServer::shard_profile(int shard) const {
  return repo_->profile(shard);
}

const ShardSpec& FleetServer::shard_spec(int shard) const {
  (void)repo_->profile(shard);  // range check
  return specs_[static_cast<std::size_t>(shard)];
}

void FleetServer::load_model(const std::string& model,
                             const std::vector<std::string>& per_shard_paths) {
  PB_CHECK(static_cast<int>(per_shard_paths.size()) == shard_count(),
           "FleetServer '" << name_ << "': load_model needs one path per "
                           << "shard (" << shard_count() << "), got "
                           << per_shard_paths.size());
  for (int i = 0; i < shard_count(); ++i) {
    if (per_shard_paths[static_cast<std::size_t>(i)].empty()) continue;
    load_model_on(i, model, per_shard_paths[static_cast<std::size_t>(i)]);
  }
}

void FleetServer::load_model_on(int shard, const std::string& model,
                                const std::string& path) {
  repo_->load(shard, model, path);
}

void FleetServer::swap_model_on(int shard, const std::string& model,
                                const std::string& path) {
  (void)repo_->swap(shard, model, path);
}

std::uint64_t FleetServer::version_on(int shard,
                                      const std::string& model) const {
  return repo_->version(shard, model);
}

std::size_t FleetServer::compiled_plans() const {
  return repo_->compiled_plans();
}

int FleetServer::total_arena_growth_events() const {
  return repo_->total_arena_growth_events();
}

FleetSummary FleetServer::run(std::vector<Request> workload) {
  const double wall0 = now_ms();
  Schedule sched = scheduler_->run(nullptr, workload);

  // Projection: one stage per request, plus per-shard accounting.
  const auto nshards = static_cast<std::size_t>(shard_count());
  FleetSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.assignment = std::move(sched.stage_assignment.front());
  summary.shards.resize(nshards);
  std::vector<std::vector<double>> ok_latency(nshards);
  for (std::size_t si = 0; si < nshards; ++si) {
    ShardStats& st = summary.shards[si];
    st.shard = specs_[si].name;
    st.profile = specs_[si].profile;
    st.max_queue_depth = sched.shards[si].max_queue_depth;
    st.busy_ms = sched.shards[si].busy_ms;
    summary.makespan_ms =
        std::max(summary.makespan_ms, sched.shards[si].end_ms);
  }
  for (CascadeRequestResult& cr : sched.results) {
    const StageOutcome& so = cr.stages.front();
    summary.results.push_back(FleetRequestResult{
        cr.status, std::move(cr.result), so.shard, so.spillovers, so.attempts,
        so.retries, so.plan_version, so.queue_ms, cr.latency_ms});
    const FleetRequestResult& rr = summary.results.back();
    summary.spillovers += rr.spillovers;
    summary.retries += rr.retries;
    count_status(summary, rr.status.code);
    if (rr.shard < 0) continue;  // never placed
    const auto si = static_cast<std::size_t>(rr.shard);
    ShardStats& st = summary.shards[si];
    ++st.requests;
    st.retries += rr.retries;
    count_status(st, rr.status.code);
    if (rr.status.ok()) {
      ok_latency[si].push_back(rr.latency_ms);
      st.max_ms = std::max(st.max_ms, rr.latency_ms);
    }
  }
  for (std::size_t si = 0; si < nshards; ++si) {
    std::sort(ok_latency[si].begin(), ok_latency[si].end());
    ShardStats& st = summary.shards[si];
    st.p50_ms = percentile(ok_latency[si], 50.0);
    st.p99_ms = percentile(ok_latency[si], 99.0);
    if (summary.makespan_ms > 0.0) {
      st.utilization =
          st.busy_ms / (static_cast<double>(config_.lanes_per_shard) *
                        summary.makespan_ms);
    }
  }
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

CascadeSummary FleetServer::run_cascade(const CascadeSpec& spec,
                                        std::vector<Request> workload) {
  validate_cascade(spec, repo_->who());
  const double wall0 = now_ms();
  Schedule sched = scheduler_->run(&spec, workload);
  CascadeSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results = std::move(sched.results);
  summary.stage_assignment = std::move(sched.stage_assignment);
  finalize_cascade_summary(summary, spec);
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

}  // namespace phonebit::serve
