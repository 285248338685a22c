#include "serve/fleet.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "core/artifact.hpp"
#include "oclsim/runtime.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

FleetServer::FleetServer(FleetConfig config, FaultPlan faults,
                         std::string name)
    : config_(std::move(config)), faults_(faults),
      name_(name.empty() ? "fleet" : std::move(name)) {
  PB_CHECK(!config_.shards.empty(), "FleetServer needs at least one shard");
  shards_.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    const ShardSpec& spec = config_.shards[i];
    auto s = std::make_unique<Shard>();
    s->spec = spec;
    if (s->spec.name.empty()) {
      s->spec.name = spec.profile + "/" + std::to_string(i);
    }
    // profile_by_name throws InvalidArgument (naming the known keys) for a
    // bad spec — the fleet fails at construction, not at first request.
    s->profile = oclsim::profile_by_name(spec.profile);
    if (spec.ram_mb > 0) s->profile.ram_mb = spec.ram_mb;
    s->device = std::make_shared<oclsim::Device>(s->profile,
                                                 spec.host_threads);
    s->engine = std::make_unique<core::Engine>(s->device);
    shards_.push_back(std::move(s));
  }
}

FleetServer::Shard& FleetServer::shard_at(int shard) {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           "FleetServer '" << name_ << "': shard index " << shard
                           << " out of range [0, " << shard_count() << ")");
  return *shards_[static_cast<std::size_t>(shard)];
}

const FleetServer::Shard& FleetServer::shard_at(int shard) const {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           "FleetServer '" << name_ << "': shard index " << shard
                           << " out of range [0, " << shard_count() << ")");
  return *shards_[static_cast<std::size_t>(shard)];
}

core::Engine& FleetServer::engine(int shard) {
  return *shard_at(shard).engine;
}

const oclsim::DeviceProfile& FleetServer::shard_profile(int shard) const {
  return shard_at(shard).profile;
}

const ShardSpec& FleetServer::shard_spec(int shard) const {
  return shard_at(shard).spec;
}

FleetServer::Entry* FleetServer::find_entry(Shard& s,
                                            const std::string& model) {
  for (Entry& e : s.repo) {
    if (e.model == model) return &e;
  }
  return nullptr;
}

const FleetServer::Entry* FleetServer::find_entry(
    const Shard& s, const std::string& model) const {
  for (const Entry& e : s.repo) {
    if (e.model == model) return &e;
  }
  return nullptr;
}

FleetServer::Snapshot FleetServer::snapshot(int shard,
                                            const std::string& model) const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  const Entry* e = find_entry(shard_at(shard), model);
  if (e == nullptr) return {};
  return Snapshot{e->artifact, e->runner, e->version};
}

std::shared_ptr<const artifact::LoadedArtifact> FleetServer::checked_load(
    int shard, const std::string& path) {
  // The fault-sequence number is consumed BEFORE the real load so an
  // injected failure is deterministic no matter how the filesystem behaves.
  const std::uint64_t seq = load_seq_++;
  Shard& s = shard_at(shard);
  PB_CHECK(!faults_.artifact_load_fails(seq),
           "FleetServer '" << name_ << "': injected artifact-load fault for '"
                           << path << "' on shard '" << s.spec.name
                           << "' (load " << seq << ")");
  // Engine::load_artifact validates against THIS shard's profile: an
  // artifact over the profile's RAM budget throws the itemized
  // OutOfMemoryError and registers nothing.
  return s.engine->load_artifact_shared(path);
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
  std::lock_guard<std::mutex> lock(repo_mu_);
  Shard& s = shard_at(shard);
  PB_CHECK(find_entry(s, model) == nullptr,
           "FleetServer '" << name_ << "': model '" << model
                           << "' is already loaded on shard '" << s.spec.name
                           << "' — use swap_model_on");
  auto art = checked_load(shard, path);
  Entry e;
  e.model = model;
  e.artifact = art;
  e.version = 1;
  e.runner = std::make_shared<BatchRunner>(
      *s.engine, art, config_.exec_workers,
      name_ + ":" + s.spec.name + ":" + model + "@v1");
  s.repo.push_back(std::move(e));
}

void FleetServer::swap_model_on(int shard, const std::string& model,
                                const std::string& path) {
  std::lock_guard<std::mutex> lock(repo_mu_);
  Shard& s = shard_at(shard);
  Entry* e = find_entry(s, model);
  PB_CHECK(e != nullptr, "FleetServer '"
                             << name_ << "': cannot swap model '" << model
                             << "' on shard '" << s.spec.name
                             << "' — not loaded");
  // Load + validate against this shard's profile FIRST: if this throws
  // (fault seam, corrupt file, over this profile's RAM budget), the entry
  // is untouched and the old version keeps serving on this shard.
  auto art = checked_load(shard, path);
  e->artifact = art;
  ++e->version;
  e->runner = std::make_shared<BatchRunner>(
      *s.engine, art, config_.exec_workers,
      name_ + ":" + s.spec.name + ":" + model + "@v" +
          std::to_string(e->version));
}

std::uint64_t FleetServer::version_on(int shard,
                                      const std::string& model) const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  const Entry* e = find_entry(shard_at(shard), model);
  return e != nullptr ? e->version : 0;
}

std::size_t FleetServer::compiled_plans() const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  std::size_t n = 0;
  for (const auto& s : shards_) {
    for (const Entry& e : s->repo) n += e.runner->compiled_plans();
  }
  return n;
}

int FleetServer::total_arena_growth_events() const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  int n = 0;
  for (const auto& s : shards_) {
    for (const Entry& e : s->repo) n += e.runner->total_arena_growth_events();
  }
  return n;
}

FleetSummary FleetServer::run(std::vector<Request> workload) {
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           "FleetServer '" << name_
                           << "': run called concurrently — a fleet serves "
                              "one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const double wall0 = now_ms();
  const int nshards = shard_count();
  FleetSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results.resize(workload.size());
  summary.assignment.assign(static_cast<std::size_t>(nshards), 0);

  // Arrivals in virtual-time order, stable in submission order for ties —
  // fault keying stays on the SUBMISSION index, so reordering equal
  // timestamps cannot change a verdict.
  std::vector<std::size_t> order(workload.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&workload](std::size_t a, std::size_t b) {
                     return workload[a].arrival_ms < workload[b].arrival_ms;
                   });

  // Per-shard virtual machinery: lane heaps + admission queues, exactly
  // ModelServer's but N of them. All times are virtual ms.
  std::vector<LaneHeap> lanes;
  lanes.reserve(static_cast<std::size_t>(nshards));
  for (int i = 0; i < nshards; ++i) lanes.emplace_back(config_.lanes_per_shard);
  std::vector<std::deque<double>> waiting(static_cast<std::size_t>(nshards));
  std::vector<double> busy_ms(static_cast<std::size_t>(nshards), 0.0);
  std::vector<double> shard_end(static_cast<std::size_t>(nshards), 0.0);
  std::vector<int> max_depth(static_cast<std::size_t>(nshards), 0);

  struct ExecGroup {
    int shard = 0;
    std::shared_ptr<BatchRunner> runner;
    std::vector<std::size_t> indices;
  };
  std::vector<ExecGroup> groups;
  std::vector<std::shared_ptr<const artifact::LoadedArtifact>> pinned;

  // Scratch reused across requests.
  std::vector<Snapshot> snaps(static_cast<std::size_t>(nshards));
  std::vector<int> candidates;

  for (const std::size_t idx : order) {
    Request& rq = workload[idx];
    FleetRequestResult& rr = summary.results[idx];
    const double t = std::max(rq.arrival_ms, 0.0);

    // Requests whose dispatch time has passed have left every queue.
    for (int si = 0; si < nshards; ++si) {
      auto& w = waiting[static_cast<std::size_t>(si)];
      while (!w.empty() && w.front() <= t) w.pop_front();
    }

    // Candidates: shards serving this model at this request's exact shape.
    const core::BlobDesc desc = core::describe_blob(rq.input);
    candidates.clear();
    bool model_anywhere = false;
    for (int si = 0; si < nshards; ++si) {
      snaps[static_cast<std::size_t>(si)] = snapshot(si, rq.model);
      const Snapshot& snap = snaps[static_cast<std::size_t>(si)];
      if (snap.artifact == nullptr) continue;
      model_anywhere = true;
      if (snap.artifact->plan.input() == desc) candidates.push_back(si);
    }
    if (candidates.empty()) {
      rr.status.code = StatusCode::kFailed;
      if (!model_anywhere) {
        rr.status.error =
            "model '" + rq.model + "' is not loaded on any shard";
      } else {
        for (int si = 0; si < nshards; ++si) {
          const Snapshot& snap = snaps[static_cast<std::size_t>(si)];
          if (snap.artifact == nullptr) continue;
          rr.status.error = "model '" + rq.model + "' serves " +
                            snap.artifact->plan.input().str() + ", got " +
                            desc.str();
          break;
        }
      }
      continue;
    }

    // Per-shard modeled latency: one probe forward on the lowest-index
    // candidate records the kernel event log; replay_modeled_ms prices it
    // for every shard's profile (exact — costs are geometry-pure). Cached
    // per (probe plan, shape); a hot-swap on the probe shard changes the
    // plan pointer and naturally re-probes.
    const int probe_shard = candidates.front();
    const Snapshot& probe_snap = snaps[static_cast<std::size_t>(probe_shard)];
    const void* key = &probe_snap.artifact->plan;
    const std::vector<double>* costs = nullptr;
    for (const ProbeEntry& p : probe_cache_) {
      if (p.plan == key && p.desc == desc) {
        costs = &p.per_shard_ms;
        break;
      }
    }
    if (costs == nullptr) {
      Shard& ps = shard_at(probe_shard);
      if (ps.probe == nullptr) {
        ps.probe =
            std::make_unique<core::ExecSession>(ps.engine->create_session());
      }
      ps.probe->reset_profile();
      (void)probe_snap.artifact->plan.run(*ps.probe, rq.input);
      const auto& events = ps.probe->queue().events();
      ProbeEntry entry;
      entry.plan = key;
      entry.desc = desc;
      entry.per_shard_ms.reserve(static_cast<std::size_t>(nshards));
      for (int si = 0; si < nshards; ++si) {
        entry.per_shard_ms.push_back(
            oclsim::replay_modeled_ms(events, shard_at(si).profile));
      }
      probe_cache_.push_back(std::move(entry));
      costs = &probe_cache_.back().per_shard_ms;
    }

    // Placement: score every candidate, try best first, spill past full
    // shards, shed only when every candidate is full.
    struct Scored {
      double score;
      int shard;
    };
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    for (const int si : candidates) {
      const double wait =
          std::max(0.0, lanes[static_cast<std::size_t>(si)].min() - t);
      scored.push_back(Scored{(*costs)[static_cast<std::size_t>(si)] +
                                  config_.wait_weight * wait,
                              si});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                if (a.score != b.score) return a.score < b.score;
                return a.shard < b.shard;
              });
    int placed = -1;
    for (const Scored& sc : scored) {
      const auto si = static_cast<std::size_t>(sc.shard);
      const int depth = static_cast<int>(waiting[si].size());
      max_depth[si] = std::max(max_depth[si], depth);
      if (depth >= config_.queue_limit) {
        ++rr.spillovers;  // reject-to-next-shard, not reject-the-user
        continue;
      }
      placed = sc.shard;
      break;
    }
    summary.spillovers += rr.spillovers;
    if (placed < 0) {
      // Every candidate is at its watermark: now, and only now, shed.
      rr.status.code = StatusCode::kShed;
      continue;
    }

    const auto pi = static_cast<std::size_t>(placed);
    const Snapshot& snap = snaps[pi];
    rr.shard = placed;
    rr.plan_version = snap.version;
    ++summary.assignment[pi];

    // Dispatch: wait for the earliest of the shard's lanes.
    const double start = std::max(t, lanes[pi].min());
    rr.queue_ms = start - t;
    waiting[pi].push_back(start);
    max_depth[pi] =
        std::max(max_depth[pi], static_cast<int>(waiting[pi].size()));

    const double deadline =
        rq.deadline_ms > 0.0
            ? rq.deadline_ms
            : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);
    // Deadline shed at dispatch, BEFORE execution: zero lane cost.
    if (deadline > 0.0 && start - t > deadline) {
      rr.status.code = StatusCode::kDeadlineExceeded;
      rr.latency_ms = start - t;
      continue;
    }

    // Attempt loop in virtual time (simulate_attempts, shared with
    // ModelServer; keyed on the submission index so fleet and
    // single-server draws line up for the same trace).
    const double modeled = (*costs)[pi];
    const AttemptOutcome at = simulate_attempts(
        faults_, idx, modeled, config_.max_retries, config_.retry_backoff_ms,
        start, t, deadline);
    rr.attempts = at.attempts;
    rr.retries = at.retries;
    if (at.ok) {
      rr.status.code = StatusCode::kOk;
    } else if (at.gave_up_deadline) {
      rr.status.code = StatusCode::kDeadlineExceeded;
    } else {
      rr.status.code = StatusCode::kFailed;
      rr.status.error = "transient fault persisted after " +
                        std::to_string(at.attempts) + " attempts";
    }
    summary.retries += rr.retries;
    lanes[pi].advance_min(start + at.dur_ms);
    busy_ms[pi] += at.dur_ms;
    shard_end[pi] = std::max(shard_end[pi], start + at.dur_ms);
    rr.latency_ms = start + at.dur_ms - t;

    if (rr.status.ok()) {
      pinned.push_back(snap.artifact);
      ExecGroup* g = nullptr;
      for (ExecGroup& cand : groups) {
        if (cand.runner == snap.runner) g = &cand;
      }
      if (g == nullptr) {
        groups.push_back(ExecGroup{placed, snap.runner, {}});
        g = &groups.back();
      }
      g->indices.push_back(idx);
    }
  }

  // --- Phase 2: real execution, per shard, per model version ------------
  //
  // Only admitted requests execute. Each group is one batch on its shard's
  // BatchRunner, so outputs are bit-exact with a standalone run of that
  // plan regardless of worker count or which profile the shard models.
  for (ExecGroup& g : groups) {
    std::vector<core::Blob> inputs;
    inputs.reserve(g.indices.size());
    for (const std::size_t idx : g.indices) {
      inputs.push_back(std::move(workload[idx].input));
    }
    BatchSummary batch = g.runner->run(std::move(inputs));
    for (std::size_t k = 0; k < g.indices.size(); ++k) {
      FleetRequestResult& rr = summary.results[g.indices[k]];
      if (batch.statuses[k].ok()) {
        rr.result = std::move(batch.results[k]);
      } else {
        rr.status = std::move(batch.statuses[k]);
      }
    }
  }

  // --- Accounting --------------------------------------------------------
  summary.makespan_ms =
      *std::max_element(shard_end.begin(), shard_end.end());
  std::vector<std::vector<double>> ok_latency(
      static_cast<std::size_t>(nshards));
  summary.shards.resize(static_cast<std::size_t>(nshards));
  for (int si = 0; si < nshards; ++si) {
    ShardStats& st = summary.shards[static_cast<std::size_t>(si)];
    st.shard = shard_at(si).spec.name;
    st.profile = shard_at(si).spec.profile;
    st.max_queue_depth = max_depth[static_cast<std::size_t>(si)];
    st.busy_ms = busy_ms[static_cast<std::size_t>(si)];
  }
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const FleetRequestResult& rr = summary.results[i];
    ShardStats* st =
        rr.shard >= 0 ? &summary.shards[static_cast<std::size_t>(rr.shard)]
                      : nullptr;
    if (st != nullptr) {
      ++st->requests;
      st->retries += rr.retries;
    }
    switch (rr.status.code) {
      case StatusCode::kOk:
        ++summary.ok;
        if (st != nullptr) {
          ++st->ok;
          ok_latency[static_cast<std::size_t>(rr.shard)].push_back(
              rr.latency_ms);
          st->max_ms = std::max(st->max_ms, rr.latency_ms);
        }
        break;
      case StatusCode::kShed:
        ++summary.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++summary.deadline_exceeded;
        if (st != nullptr) ++st->deadline_exceeded;
        break;
      case StatusCode::kFailed:
        ++summary.failed;
        if (st != nullptr) ++st->failed;
        break;
    }
  }
  for (int si = 0; si < nshards; ++si) {
    const auto s = static_cast<std::size_t>(si);
    std::sort(ok_latency[s].begin(), ok_latency[s].end());
    ShardStats& st = summary.shards[s];
    st.p50_ms = percentile(ok_latency[s], 50.0);
    st.p99_ms = percentile(ok_latency[s], 99.0);
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
  validate_cascade(spec, "FleetServer '" + name_ + "'");
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           "FleetServer '" << name_
                           << "': run called concurrently — a fleet serves "
                              "one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const double wall0 = now_ms();
  const int nshards = shard_count();
  const int nstages = static_cast<int>(spec.stages.size());
  CascadeSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results.resize(workload.size());
  summary.stage_assignment.assign(
      static_cast<std::size_t>(nstages),
      std::vector<int>(static_cast<std::size_t>(nshards), 0));

  // Per-request cascade walk state. `cache_shard` is the shard whose device
  // holds this request's filled input plane cache (-1: none yet): later
  // stages price at the split-skipped reuse cost THERE and at the plain
  // cost everywhere else, so reuse affinity competes with device speed and
  // queue wait inside the normal placement score.
  struct Walk {
    double arrive = 0.0;
    bool active = true;
    int cache_shard = -1;
    ConvGeometry planes_geom{};  ///< key of the filled planes
    core::InputPlaneCache planes;
  };
  std::vector<Walk> walks(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    walks[i].arrive = std::max(workload[i].arrival_ms, 0.0);
  }

  // Per-shard lane heaps span ALL stages (one fleet, one virtual clock);
  // admission queues are fresh per stage round, mirroring ModelServer's
  // cascade (stage rounds drain in priority order, DESIGN.md §13).
  std::vector<LaneHeap> lanes;
  lanes.reserve(static_cast<std::size_t>(nshards));
  for (int i = 0; i < nshards; ++i) lanes.emplace_back(config_.lanes_per_shard);

  struct ExecReq {
    std::size_t idx;
    bool attach_planes;
  };
  struct ExecGroup {
    std::shared_ptr<BatchRunner> runner;
    std::vector<ExecReq> reqs;
  };
  std::vector<std::shared_ptr<const artifact::LoadedArtifact>> pinned;

  std::vector<Snapshot> snaps(static_cast<std::size_t>(nshards));
  std::vector<int> candidates;
  std::vector<std::size_t> entrants;

  for (int s = 0; s < nstages; ++s) {
    const CascadeStageSpec& stage = spec.stages[static_cast<std::size_t>(s)];
    entrants.clear();
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (walks[i].active) entrants.push_back(i);
    }
    if (entrants.empty()) break;
    std::stable_sort(entrants.begin(), entrants.end(),
                     [&walks](std::size_t a, std::size_t b) {
                       return walks[a].arrive < walks[b].arrive;
                     });

    std::vector<std::deque<double>> waiting(
        static_cast<std::size_t>(nshards));
    std::vector<ExecGroup> groups;

    for (const std::size_t idx : entrants) {
      Request& rq = workload[idx];
      Walk& wk = walks[idx];
      CascadeRequestResult& rr = summary.results[idx];
      const double t = wk.arrive;
      const double t0 = std::max(rq.arrival_ms, 0.0);

      rr.stages.emplace_back();
      StageOutcome& so = rr.stages.back();

      for (int si = 0; si < nshards; ++si) {
        auto& w = waiting[static_cast<std::size_t>(si)];
        while (!w.empty() && w.front() <= t) w.pop_front();
      }

      // Candidates: shards serving this stage's model at the request's
      // exact shape (every stage consumes the ORIGINAL input).
      const core::BlobDesc desc = core::describe_blob(rq.input);
      candidates.clear();
      bool model_anywhere = false;
      for (int si = 0; si < nshards; ++si) {
        snaps[static_cast<std::size_t>(si)] = snapshot(si, stage.model);
        const Snapshot& snap = snaps[static_cast<std::size_t>(si)];
        if (snap.artifact == nullptr) continue;
        model_anywhere = true;
        if (snap.artifact->plan.input() == desc) candidates.push_back(si);
      }
      if (candidates.empty()) {
        so.status.code = StatusCode::kFailed;
        so.status.error =
            "cascade '" + spec.name + "' stage " + std::to_string(s) +
            (model_anywhere
                 ? " ('" + stage.model + "') serves a different shape"
                 : ": model '" + stage.model + "' is not loaded on any shard");
        rr.status = so.status;
        wk.active = false;
        continue;
      }

      // Cascade cost probe: one fill forward (empty plane cache — plain
      // cost) and, when the plan is cache-active, one reuse forward
      // (filled cache) on the lowest-index candidate; BOTH event logs
      // replay against every shard's profile.
      const int probe_shard = candidates.front();
      const Snapshot& probe_snap =
          snaps[static_cast<std::size_t>(probe_shard)];
      const void* key = &probe_snap.artifact->plan;
      const CascadeProbeEntry* probe = nullptr;
      for (const CascadeProbeEntry& p : cascade_probe_cache_) {
        if (p.plan == key && p.desc == desc) {
          probe = &p;
          break;
        }
      }
      if (probe == nullptr) {
        Shard& ps = shard_at(probe_shard);
        if (ps.probe == nullptr) {
          ps.probe = std::make_unique<core::ExecSession>(
              ps.engine->create_session());
        }
        core::InputPlaneCache cache;
        core::RunOptions ro;
        ro.planes = &cache;
        CascadeProbeEntry entry;
        entry.plan = key;
        entry.desc = desc;
        ps.probe->reset_profile();
        (void)probe_snap.artifact->plan.run(*ps.probe, rq.input, ro);
        entry.cache_active = cache.filled;
        entry.planes_geom = cache.geom;
        entry.plain_ms.reserve(static_cast<std::size_t>(nshards));
        for (int si = 0; si < nshards; ++si) {
          entry.plain_ms.push_back(oclsim::replay_modeled_ms(
              ps.probe->queue().events(), shard_at(si).profile));
        }
        if (entry.cache_active) {
          ps.probe->reset_profile();
          (void)probe_snap.artifact->plan.run(*ps.probe, rq.input, ro);
          entry.reuse_ms.reserve(static_cast<std::size_t>(nshards));
          for (int si = 0; si < nshards; ++si) {
            entry.reuse_ms.push_back(oclsim::replay_modeled_ms(
                ps.probe->queue().events(), shard_at(si).profile));
          }
        } else {
          entry.reuse_ms = entry.plain_ms;
        }
        cascade_probe_cache_.push_back(std::move(entry));
        probe = &cascade_probe_cache_.back();
      }

      // Placement: plain cost everywhere except the shard holding this
      // request's filled planes under this plan's conv geometry, which
      // prices the split-skipped path.
      struct Scored {
        double score;
        int shard;
      };
      std::vector<Scored> scored;
      scored.reserve(candidates.size());
      auto reuses = [&](int si) {
        return probe->cache_active && wk.cache_shard == si &&
               wk.planes_geom == probe->planes_geom;
      };
      auto stage_cost = [&](int si) {
        const auto u = static_cast<std::size_t>(si);
        return reuses(si) ? probe->reuse_ms[u] : probe->plain_ms[u];
      };
      for (const int si : candidates) {
        const double wait =
            std::max(0.0, lanes[static_cast<std::size_t>(si)].min() - t);
        scored.push_back(
            Scored{stage_cost(si) + config_.wait_weight * wait, si});
      }
      std::sort(scored.begin(), scored.end(),
                [](const Scored& a, const Scored& b) {
                  if (a.score != b.score) return a.score < b.score;
                  return a.shard < b.shard;
                });
      int placed = -1;
      for (const Scored& sc : scored) {
        const auto si = static_cast<std::size_t>(sc.shard);
        if (static_cast<int>(waiting[si].size()) >= config_.queue_limit) {
          ++so.spillovers;
          continue;
        }
        placed = sc.shard;
        break;
      }
      if (placed < 0) {
        so.status.code = StatusCode::kShed;
        rr.status = so.status;
        rr.latency_ms = t - t0;
        wk.active = false;
        continue;
      }

      const auto pi = static_cast<std::size_t>(placed);
      const Snapshot& snap = snaps[pi];
      so.shard = placed;
      so.plan_version = snap.version;
      ++summary.stage_assignment[static_cast<std::size_t>(s)][pi];

      const double start = std::max(t, lanes[pi].min());
      so.queue_ms = start - t;
      rr.queue_ms += so.queue_ms;
      waiting[pi].push_back(start);

      const double deadline =
          rq.deadline_ms > 0.0
              ? rq.deadline_ms
              : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);
      // CASCADE-level deadline: budget measured from the ORIGINAL arrival.
      if (deadline > 0.0 && start - t0 > deadline) {
        so.status.code = StatusCode::kDeadlineExceeded;
        so.latency_ms = start - t;
        rr.status = so.status;
        rr.latency_ms = start - t0;
        wk.active = false;
        continue;
      }

      const bool reuse = reuses(placed);
      const AttemptOutcome at = simulate_attempts(
          faults_, cascade_fault_key(idx, s), stage_cost(placed),
          config_.max_retries, config_.retry_backoff_ms, start, t0, deadline);
      so.attempts = at.attempts;
      so.retries = at.retries;
      so.reused_planes = reuse;
      lanes[pi].advance_min(start + at.dur_ms);
      so.latency_ms = start + at.dur_ms - t;
      if (!at.ok) {
        so.status.code = at.gave_up_deadline ? StatusCode::kDeadlineExceeded
                                             : StatusCode::kFailed;
        if (!at.gave_up_deadline) {
          so.status.error = "transient fault persisted after " +
                            std::to_string(at.attempts) + " attempts";
        }
        rr.status = so.status;
        rr.latency_ms = start + at.dur_ms - t0;
        wk.active = false;
        continue;
      }

      so.status.code = StatusCode::kOk;
      wk.arrive = start + at.dur_ms;
      // An Ok run through a cache-active plan fills the request's planes
      // ON THIS SHARD (decision-time knowledge: the probe already said the
      // plan fills the cache). The cache is attached for execution only on
      // its home shard, where a plan of another conv geometry refills it.
      if (probe->cache_active && wk.cache_shard < 0) wk.cache_shard = placed;
      const bool attach = probe->cache_active && wk.cache_shard == placed;
      if (attach) wk.planes_geom = probe->planes_geom;
      pinned.push_back(snap.artifact);
      ExecGroup* g = nullptr;
      for (ExecGroup& cand : groups) {
        if (cand.runner == snap.runner) g = &cand;
      }
      if (g == nullptr) {
        groups.push_back(ExecGroup{snap.runner, {}});
        g = &groups.back();
      }
      g->reqs.push_back(ExecReq{idx, attach});
    }

    // Stage-s phase 2: real forwards, borrowed inputs, planes attached on
    // their home shard only.
    for (ExecGroup& g : groups) {
      std::vector<const core::Blob*> inputs;
      std::vector<core::InputPlaneCache*> planes;
      inputs.reserve(g.reqs.size());
      planes.reserve(g.reqs.size());
      for (const ExecReq& er : g.reqs) {
        inputs.push_back(&workload[er.idx].input);
        planes.push_back(er.attach_planes ? &walks[er.idx].planes : nullptr);
      }
      BatchSummary batch = g.runner->run(inputs, planes);
      for (std::size_t k = 0; k < g.reqs.size(); ++k) {
        const std::size_t idx = g.reqs[k].idx;
        CascadeRequestResult& rr = summary.results[idx];
        StageOutcome& so = rr.stages.back();
        if (!batch.statuses[k].ok()) {
          so.status = batch.statuses[k];
          rr.status = std::move(batch.statuses[k]);
          walks[idx].active = false;
          continue;
        }
        rr.result = std::move(batch.results[k]);
      }
    }

    // Gates, after the stage barrier (last stage's gate is ignored).
    for (ExecGroup& g : groups) {
      for (const ExecReq& er : g.reqs) {
        Walk& wk = walks[er.idx];
        if (!wk.active) continue;
        CascadeRequestResult& rr = summary.results[er.idx];
        StageOutcome& so = rr.stages.back();
        const double t0 = std::max(workload[er.idx].arrival_ms, 0.0);
        if (s + 1 == nstages) {
          rr.latency_ms = wk.arrive - t0;
          wk.active = false;
          continue;
        }
        const GateVerdict v = evaluate_gate(stage.gate, rr.result.output);
        if (!v.ok) {
          so.status.code = StatusCode::kFailed;
          so.status.error = "cascade '" + spec.name + "' stage " +
                            std::to_string(s) + " gate: " + v.error;
          rr.status = so.status;
          rr.latency_ms = wk.arrive - t0;
          wk.active = false;
          continue;
        }
        if (v.pass) {
          so.gate_passed = true;
        } else {
          rr.gated_out = true;
          rr.latency_ms = wk.arrive - t0;
          wk.active = false;
        }
      }
    }
  }

  finalize_cascade_summary(summary, spec);
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

}  // namespace phonebit::serve
