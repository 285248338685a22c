#include "serve/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "core/artifact.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

// --- Repository ------------------------------------------------------------

Repository::Repository(std::string who, std::string name, int exec_workers,
                       FaultPlan faults)
    : who_(std::move(who)), name_(std::move(name)),
      exec_workers_(exec_workers), faults_(faults) {}

void Repository::add_shard(core::Engine& engine, oclsim::DeviceProfile profile,
                           std::string shard_name) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(Shard{&engine, std::move(profile), std::move(shard_name),
                          {}});
}

Repository::Shard& Repository::shard_at(int shard) {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           who_ << ": shard index " << shard << " out of range [0, "
                << shard_count() << ")");
  return shards_[static_cast<std::size_t>(shard)];
}

const Repository::Shard& Repository::shard_at(int shard) const {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           who_ << ": shard index " << shard << " out of range [0, "
                << shard_count() << ")");
  return shards_[static_cast<std::size_t>(shard)];
}

core::Engine& Repository::engine(int shard) { return *shard_at(shard).engine; }

const oclsim::DeviceProfile& Repository::profile(int shard) const {
  return shard_at(shard).profile;
}

std::string Repository::on_shard(int shard) const {
  if (shard_count() == 1) return {};
  return " on shard '" + shard_at(shard).name + "'";
}

int Repository::find(const Shard& s, const std::string& model) {
  for (std::size_t i = 0; i < s.entries.size(); ++i) {
    if (s.entries[i].model == model) return static_cast<int>(i);
  }
  return -1;
}

std::shared_ptr<const artifact::LoadedArtifact> Repository::checked_load(
    int shard, const std::string& path) {
  // The fault-sequence number is consumed BEFORE the real load, so an
  // injected failure is deterministic no matter how the filesystem behaves.
  const std::uint64_t seq = load_seq_++;
  PB_CHECK(!faults_.artifact_load_fails(seq),
           who_ << ": injected artifact-load fault for '" << path << "'"
                << on_shard(shard) << " (load " << seq << ")");
  // Engine::load_artifact validates against THIS shard's profile: an
  // artifact over its RAM budget throws the itemized OutOfMemoryError.
  return shard_at(shard).engine->load_artifact_shared(path);
}

std::shared_ptr<BatchRunner> Repository::make_runner(
    Shard& s, int shard, const std::string& model,
    std::shared_ptr<const artifact::LoadedArtifact> art,
    std::uint64_t version) {
  const std::string tag =
      shard_count() == 1 ? name_ : name_ + ":" + shard_at(shard).name;
  return std::make_shared<BatchRunner>(
      *s.engine, std::move(art), exec_workers_,
      tag + ":" + model + "@v" + std::to_string(version));
}

void Repository::load(int shard, const std::string& model,
                      const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shard_at(shard);
  PB_CHECK(find(s, model) < 0,
           who_ << ": model '" << model << "' is already loaded"
                << on_shard(shard) << " — swap it instead");
  auto art = checked_load(shard, path);
  auto runner = make_runner(s, shard, model, art, 1);
  s.entries.push_back(
      Entry{model, Snapshot{std::move(art), std::move(runner), 1}});
}

Snapshot Repository::swap(int shard, const std::string& model,
                          const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shard_at(shard);
  const int i = find(s, model);
  PB_CHECK(i >= 0, who_ << ": cannot swap model '" << model << "'"
                              << on_shard(shard) << " — not loaded");
  // Load + validate FIRST: if this throws, the entry is untouched and the
  // old version keeps serving (rollback is the no-op). Holders of the old
  // snapshot finish their in-flight work on the old plan.
  auto art = checked_load(shard, path);
  Snapshot& snap = s.entries[static_cast<std::size_t>(i)].snap;
  const std::uint64_t version = snap.version + 1;
  auto runner = make_runner(s, shard, model, art, version);
  snap = Snapshot{std::move(art), std::move(runner), version};
  return snap;
}

std::uint64_t Repository::version(int shard, const std::string& model) const {
  return snapshot(shard, model).version;
}

Snapshot Repository::snapshot(int shard, const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shard_at(shard);
  const int i = find(s, model);
  return i >= 0 ? s.entries[static_cast<std::size_t>(i)].snap : Snapshot{};
}

std::vector<std::string> Repository::models(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const Entry& e : shard_at(shard).entries) names.push_back(e.model);
  return names;
}

std::size_t Repository::compiled_plans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    for (const Entry& e : s.entries) n += e.snap.runner->compiled_plans();
  }
  return n;
}

int Repository::total_arena_growth_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const Shard& s : shards_) {
    for (const Entry& e : s.entries) {
      n += e.snap.runner->total_arena_growth_events();
    }
  }
  return n;
}

// --- Scheduler -------------------------------------------------------------

namespace {

/// The pre-resolved swap timeline: for every (model, shard) a run can
/// touch, the snapshot at run start plus one snapshot per committed swap.
/// A walk revisits earlier virtual times after later ones (a late stage-s
/// arrival is decided before an early stage-s+1 dispatch), so snapshots
/// resolve by timestamp instead of through a forward-only cursor.
class Timeline {
 public:
  /// Captures the base snapshot of every routed model on every shard,
  /// then commits `swaps` in timestamp order. Swaps commit up front: the
  /// same load-sequence fault keying and the same final repository as
  /// applying them while the clock passes, but every decision can look up
  /// its own instant.
  Timeline(Repository& repo, const std::vector<std::string>& routed,
           std::vector<ShardSwap> swaps, Schedule& out)
      : nshards_(repo.shard_count()) {
    std::stable_sort(swaps.begin(), swaps.end(),
                     [](const ShardSwap& a, const ShardSwap& b) {
                       return a.event.at_ms < b.event.at_ms;
                     });
    for (const std::string& m : routed) intern(m);
    for (const ShardSwap& sw : swaps) intern(sw.event.model);
    lines_.resize(models_.size() * static_cast<std::size_t>(nshards_));
    for (std::size_t m = 0; m < models_.size(); ++m) {
      for (int si = 0; si < nshards_; ++si) {
        line(static_cast<int>(m), si).base = repo.snapshot(si, models_[m]);
      }
    }
    for (const ShardSwap& sw : swaps) {
      try {
        Snapshot snap = repo.swap(sw.shard, sw.event.model, sw.event.path);
        ++out.swaps;
        line(index(sw.event.model), sw.shard)
            .points.push_back({sw.event.at_ms, std::move(snap)});
      } catch (const Error&) {
        // Injected load fault or a corrupt/over-budget artifact: the old
        // version keeps serving — the swap rolled back.
        ++out.swap_rollbacks;
      }
    }
  }

  /// Index of a model registered at construction.
  int index(const std::string& model) const {
    const auto it = std::find(models_.begin(), models_.end(), model);
    return static_cast<int>(it - models_.begin());
  }

  /// The snapshot of model `m` on `shard` at virtual time `t`.
  const Snapshot& at(int m, int shard, double t) const {
    const Line& l = lines_[static_cast<std::size_t>(m * nshards_ + shard)];
    const Snapshot* s = &l.base;
    for (const Point& p : l.points) {
      if (p.at_ms > t) break;
      s = &p.snap;
    }
    return *s;
  }

 private:
  struct Point {
    double at_ms;
    Snapshot snap;
  };
  struct Line {
    Snapshot base;
    std::vector<Point> points;
  };
  int intern(const std::string& model) {
    const int m = index(model);
    if (m == static_cast<int>(models_.size())) models_.push_back(model);
    return m;
  }
  Line& line(int m, int shard) {
    return lines_[static_cast<std::size_t>(m * nshards_ + shard)];
  }

  int nshards_;
  std::vector<std::string> models_;
  std::vector<Line> lines_;
};

}  // namespace

Scheduler::Scheduler(Repository& repo, SchedulerConfig config,
                     FaultPlan faults)
    : repo_(repo), config_(config), faults_(faults) {}

Schedule Scheduler::run(const CascadeSpec* spec,
                        const std::vector<Request>& workload,
                        std::vector<ShardSwap> swaps) {
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           repo_.who() << ": run called concurrently — one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const std::size_t n = workload.size();
  const int nshards = repo_.shard_count();
  const auto ushards = static_cast<std::size_t>(nshards);
  const int nstages = spec != nullptr ? static_cast<int>(spec->stages.size())
                                      : 1;
  Schedule out;
  out.results.resize(n);
  out.queue_depth.assign(n, 0);
  out.shards.assign(ushards, ShardLoad{});
  out.stage_assignment.assign(static_cast<std::size_t>(nstages),
                              std::vector<int>(ushards, 0));

  // A cascade routes by its stages' models, a plain run by each request's.
  std::vector<std::string> routed;
  if (spec != nullptr) {
    for (const CascadeStageSpec& st : spec->stages) routed.push_back(st.model);
  } else {
    for (const Request& rq : workload) routed.push_back(rq.model);
  }
  const Timeline timeline(repo_, routed, std::move(swaps), out);

  // Per-request walk state. `t0` is the original arrival (the deadline
  // epoch), `arrive` when the request reaches its next stage;
  // `cache_shard` is the shard whose device holds its filled input planes
  // (-1: none), priced at the split-skipped cost there only.
  struct Walk {
    double t0 = 0.0;
    double arrive = 0.0;
    bool active = true;
    int cache_shard = -1;
    ConvGeometry planes_geom{};
    core::InputPlaneCache planes;
  };
  std::vector<Walk> walks(n);
  for (std::size_t i = 0; i < n; ++i) {
    walks[i].t0 = walks[i].arrive = std::max(workload[i].arrival_ms, 0.0);
  }

  // ONE lane heap per shard spans all stages: stage s+1's dispatches
  // contend with stage s's on the same simulated device. Lane free-times
  // only move forward, which models stage rounds draining in priority
  // order (DESIGN.md §13).
  std::vector<LaneHeap> lanes(ushards, LaneHeap(config_.lanes));

  struct ExecReq {
    std::size_t idx;
    bool attach_planes;
  };
  struct ExecGroup {
    std::shared_ptr<BatchRunner> runner;
    std::vector<ExecReq> reqs;
  };
  // Routed snapshots stay pinned until the whole walk has executed.
  std::vector<Snapshot> pinned;
  std::vector<const Snapshot*> snaps(ushards);
  std::vector<int> candidates;
  std::vector<std::size_t> entrants;
  struct Scored {
    double score;
    int shard;
  };
  std::vector<Scored> scored;

  for (int s = 0; s < nstages; ++s) {
    // Stage barrier: all stage-s decisions in (stage arrival, submission)
    // order, then all stage-s forwards, then the gates. Fault keys stay on
    // the SUBMISSION index, so reordering equal timestamps changes nothing.
    entrants.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (walks[i].active) entrants.push_back(i);
    }
    if (entrants.empty()) break;
    std::stable_sort(entrants.begin(), entrants.end(),
                     [&walks](std::size_t a, std::size_t b) {
                       return walks[a].arrive < walks[b].arrive;
                     });
    const std::string where =
        spec != nullptr
            ? "cascade '" + spec->name + "' stage " + std::to_string(s) + ": "
            : std::string();

    // Fresh admission queues per stage round (the shared lanes carry the
    // cross-stage load). `waiting` holds dispatch times of admitted but
    // not yet dispatched requests — nondecreasing, so expiring the front
    // is enough.
    std::vector<std::deque<double>> waiting(ushards);
    std::vector<ExecGroup> groups;

    for (const std::size_t idx : entrants) {
      const Request& rq = workload[idx];
      Walk& wk = walks[idx];
      CascadeRequestResult& rr = out.results[idx];
      const double t = wk.arrive;
      const double t0 = wk.t0;
      const std::string& model =
          routed[spec != nullptr ? static_cast<std::size_t>(s) : idx];
      const int m = timeline.index(model);
      rr.stages.emplace_back();
      StageOutcome& so = rr.stages.back();
      auto finish = [&](StatusCode code, std::string error, double end) {
        so.status.code = code;
        so.status.error = std::move(error);
        rr.status = so.status;
        rr.latency_ms = end - t0;
        wk.active = false;
      };

      for (auto& w : waiting) {
        while (!w.empty() && w.front() <= t) w.pop_front();
      }

      // Candidates: shards serving the model at the request's exact shape,
      // judged on the version the request would dispatch to there.
      const core::BlobDesc desc = core::describe_blob(rq.input);
      candidates.clear();
      int loaded = -1;
      for (int si = 0; si < nshards; ++si) {
        const auto u = static_cast<std::size_t>(si);
        snaps[u] = &timeline.at(m, si, std::max(t, lanes[u].min()));
        if (snaps[u]->artifact == nullptr) continue;
        if (loaded < 0) loaded = si;
        if (snaps[u]->artifact->plan.input() == desc) {
          candidates.push_back(si);
        }
      }
      if (candidates.empty()) {
        // Bad input fails as a value before it costs a queue slot.
        finish(StatusCode::kFailed,
               loaded < 0
                   ? where + "model '" + model + "' is not loaded" +
                         (nshards > 1 ? " on any shard" : "")
                   : where + "model '" + model + "' serves " +
                         snaps[static_cast<std::size_t>(loaded)]
                             ->artifact->plan.input()
                             .str() +
                         ", got " + desc.str(),
               t);
        continue;
      }

      // Placement: score = modeled cost on the shard (split-skipped on
      // the shard holding the request's planes) + weighted lane wait. Try
      // best first, spill past full shards, shed only when all are full.
      // Every shard is priced with the first candidate's plan, read off
      // its stored launches (ExecutionPlan::modeled_ms): nothing runs.
      const core::ExecutionPlan& plan =
          snaps[static_cast<std::size_t>(candidates.front())]->artifact->plan;
      const std::optional<ConvGeometry> planes_geom = plan.planes_geometry();
      const bool cache_active = planes_geom.has_value();
      const auto reuses = [&](int si) {
        return cache_active && wk.cache_shard == si &&
               wk.planes_geom == *planes_geom;
      };
      const auto stage_cost = [&](int si) {
        return plan.modeled_ms(repo_.profile(si), reuses(si));
      };
      scored.clear();
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
        const auto u = static_cast<std::size_t>(sc.shard);
        const int depth = static_cast<int>(waiting[u].size());
        out.shards[u].max_queue_depth =
            std::max(out.shards[u].max_queue_depth, depth);
        out.queue_depth[idx] = std::max(out.queue_depth[idx], depth);
        if (depth >= config_.queue_limit) {
          ++so.spillovers;  // reject-to-next-shard, not reject-the-user
          continue;
        }
        placed = sc.shard;
        break;
      }
      if (placed < 0) {
        // Reject-newest: shed before it costs anything, reporting the
        // version it arrived under on its best-scored shard.
        so.plan_version = timeline.at(m, scored.front().shard, t).version;
        finish(StatusCode::kShed, {}, t);
        continue;
      }

      // Dispatch: the request waits for the shard's earliest lane.
      const auto pi = static_cast<std::size_t>(placed);
      const Snapshot& snap = *snaps[pi];
      ShardLoad& load = out.shards[pi];
      so.shard = placed;
      so.plan_version = snap.version;
      ++out.stage_assignment[static_cast<std::size_t>(s)][pi];
      const double start = std::max(t, lanes[pi].min());
      so.queue_ms = start - t;
      rr.queue_ms += so.queue_ms;
      waiting[pi].push_back(start);
      const int depth = static_cast<int>(waiting[pi].size());
      load.max_queue_depth = std::max(load.max_queue_depth, depth);
      out.queue_depth[idx] = std::max(out.queue_depth[idx], depth);

      // Deadline at dispatch, BEFORE execution: the budget runs from the
      // ORIGINAL arrival t0, so later stages inherit what earlier ones
      // left; an expired request costs its lane nothing.
      const double deadline =
          rq.deadline_ms > 0.0
              ? rq.deadline_ms
              : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);
      if (deadline > 0.0 && start - t0 > deadline) {
        so.latency_ms = start - t;
        finish(StatusCode::kDeadlineExceeded, {}, start);
        continue;
      }

      // Attempts in virtual time (virtual_time.hpp). Plain runs key faults
      // by submission index, cascades by (request, stage).
      const bool reuse = reuses(placed);
      const AttemptOutcome at = simulate_attempts(
          faults_,
          spec != nullptr ? cascade_fault_key(idx, s)
                          : static_cast<std::uint64_t>(idx),
          stage_cost(placed), config_.max_retries, config_.retry_backoff_ms,
          start, t0, deadline);
      const double end = start + at.dur_ms;
      so.attempts = at.attempts;
      so.retries = at.retries;
      so.reused_planes = reuse;
      so.latency_ms = end - t;
      lanes[pi].advance_min(end);
      load.busy_ms += at.dur_ms;
      load.end_ms = std::max(load.end_ms, end);
      if (!at.ok) {
        if (at.gave_up_deadline) {
          finish(StatusCode::kDeadlineExceeded, {}, end);
        } else {
          finish(StatusCode::kFailed,
                 "transient fault persisted after " +
                     std::to_string(at.attempts) + " attempts",
                 end);
        }
        continue;
      }

      so.status.code = StatusCode::kOk;
      wk.arrive = end;
      // An Ok run through a cache-active plan fills the request's planes
      // ON THIS SHARD (decision-time knowledge from the plan). The cache
      // is attached only on its home shard, and only when a stage can
      // read it back — plain runs execute through the session arena.
      if (cache_active && wk.cache_shard < 0) wk.cache_shard = placed;
      const bool attach = cache_active && wk.cache_shard == placed &&
                          (reuse || s + 1 < nstages);
      if (attach) wk.planes_geom = *planes_geom;
      pinned.push_back(snap);
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

    // Real forwards of this stage's admitted requests, one batch per model
    // version. Inputs are borrowed — every stage reads the same original
    // blob — and an unexpected execution failure downgrades that request
    // (and only that request) to its batch status.
    for (ExecGroup& g : groups) {
      std::vector<const core::Blob*> inputs;
      std::vector<core::InputPlaneCache*> planes;
      bool any_planes = false;
      for (const ExecReq& er : g.reqs) {
        inputs.push_back(&workload[er.idx].input);
        planes.push_back(er.attach_planes ? &walks[er.idx].planes : nullptr);
        any_planes = any_planes || er.attach_planes;
      }
      if (!any_planes) planes.clear();
      BatchSummary batch = g.runner->run(inputs, planes);
      for (std::size_t k = 0; k < g.reqs.size(); ++k) {
        const std::size_t idx = g.reqs[k].idx;
        CascadeRequestResult& rr = out.results[idx];
        if (!batch.statuses[k].ok()) {
          rr.stages.back().status = batch.statuses[k];
          rr.status = std::move(batch.statuses[k]);
          rr.latency_ms = walks[idx].arrive - walks[idx].t0;
          walks[idx].active = false;
          continue;
        }
        rr.result = std::move(batch.results[k]);
      }
    }

    // Gates, read off finished forwards. The LAST stage's gate is ignored:
    // reaching it Ok completes the request as a full run.
    for (ExecGroup& g : groups) {
      for (const ExecReq& er : g.reqs) {
        Walk& wk = walks[er.idx];
        if (!wk.active) continue;  // execution failure above
        CascadeRequestResult& rr = out.results[er.idx];
        StageOutcome& so = rr.stages.back();
        if (s + 1 < nstages) {
          const GateVerdict v = evaluate_gate(
              spec->stages[static_cast<std::size_t>(s)].gate,
              rr.result.output);
          if (v.ok && v.pass) {
            so.gate_passed = true;
            continue;
          }
          if (v.ok) {
            rr.gated_out = true;
          } else {
            so.status.code = StatusCode::kFailed;
            so.status.error = where + "gate: " + v.error;
            rr.status = so.status;
          }
        }
        rr.latency_ms = wk.arrive - wk.t0;
        wk.active = false;
      }
    }
  }
  return out;
}

}  // namespace phonebit::serve
