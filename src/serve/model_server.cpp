#include "serve/model_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <numeric>
#include <utility>

#include "core/artifact.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

ModelServer::ModelServer(core::Engine& engine, ServerConfig config,
                         FaultPlan faults, std::string name)
    : engine_(engine), config_(config), faults_(faults),
      name_(name.empty() ? "model-server" : std::move(name)) {}

ModelServer::Entry* ModelServer::find_entry(const std::string& model) {
  for (Entry& e : repo_) {
    if (e.model == model) return &e;
  }
  return nullptr;
}

const ModelServer::Entry* ModelServer::find_entry(
    const std::string& model) const {
  for (const Entry& e : repo_) {
    if (e.model == model) return &e;
  }
  return nullptr;
}

ModelServer::Snapshot ModelServer::snapshot(const std::string& model) const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  const Entry* e = find_entry(model);
  if (e == nullptr) return {};
  return Snapshot{e->artifact, e->runner, e->version};
}

std::shared_ptr<const artifact::LoadedArtifact> ModelServer::checked_load(
    const std::string& path) {
  // Every load attempt consumes one fault-sequence number BEFORE the real
  // load, so an injected failure is deterministic no matter how the real
  // filesystem behaves.
  const std::uint64_t seq = load_seq_++;
  PB_CHECK(!faults_.artifact_load_fails(seq),
           "ModelServer '" << name_ << "': injected artifact-load fault for '"
                           << path << "' (load " << seq << ")");
  return engine_.load_artifact_shared(path);
}

void ModelServer::load_model(const std::string& model,
                             const std::string& path) {
  std::lock_guard<std::mutex> lock(repo_mu_);
  PB_CHECK(find_entry(model) == nullptr,
           "ModelServer '" << name_ << "': model '" << model
                           << "' is already loaded — use swap_model");
  // checked_load throws on any validation/fault failure, in which case
  // nothing was registered.
  auto art = checked_load(path);
  Entry e;
  e.model = model;
  e.artifact = art;
  e.version = 1;
  e.runner = std::make_shared<BatchRunner>(
      engine_, art, config_.exec_workers, name_ + ":" + model + "@v1");
  repo_.push_back(std::move(e));
}

void ModelServer::swap_model(const std::string& model,
                             const std::string& path) {
  std::lock_guard<std::mutex> lock(repo_mu_);
  Entry* e = find_entry(model);
  PB_CHECK(e != nullptr, "ModelServer '" << name_ << "': cannot swap model '"
                                         << model << "' — not loaded");
  // Load + validate FIRST: if this throws, the entry is untouched and the
  // old artifact keeps serving (rollback is the no-op).
  auto art = checked_load(path);
  e->artifact = art;
  ++e->version;
  // A fresh runner bound to the new artifact; in-flight batches hold the
  // old runner via their own shared_ptr and drain on the old plan.
  e->runner = std::make_shared<BatchRunner>(
      engine_, art, config_.exec_workers,
      name_ + ":" + model + "@v" + std::to_string(e->version));
}

std::uint64_t ModelServer::version(const std::string& model) const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  const Entry* e = find_entry(model);
  return e != nullptr ? e->version : 0;
}

std::vector<std::string> ModelServer::models() const {
  std::lock_guard<std::mutex> lock(repo_mu_);
  std::vector<std::string> names;
  names.reserve(repo_.size());
  for (const Entry& e : repo_) names.push_back(e.model);
  return names;
}

double ModelServer::modeled_ms_for(const Snapshot& snap,
                                   const core::Blob& input) {
  const core::BlobDesc desc = core::describe_blob(input);
  const void* key = &snap.artifact->plan;
  for (const ProbeEntry& p : probe_cache_) {
    if (p.plan == key && p.desc == desc) return p.modeled_ms;
  }
  // First sight of this (artifact, shape): one probe forward on the
  // server's own session measures the modeled device latency every later
  // virtual-time decision uses. Modeled time is a pure function of the
  // plan and the input GEOMETRY, so one probe covers every request of the
  // shape (test_artifact pins this determinism).
  if (probe_ == nullptr) {
    probe_ = std::make_unique<core::ExecSession>(engine_.create_session());
  }
  probe_->reset_profile();
  const core::ForwardResult r = snap.artifact->plan.run(*probe_, input);
  probe_cache_.push_back(ProbeEntry{key, desc, r.modeled_ms});
  return r.modeled_ms;
}

ServerSummary ModelServer::run(std::vector<Request> workload,
                               std::vector<SwapEvent> swaps) {
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           "ModelServer '" << name_
                           << "': run called concurrently — a server serves "
                              "one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const double wall0 = now_ms();
  ServerSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results.resize(workload.size());

  // Process arrivals in virtual-time order, stable in submission order for
  // ties — fault keying stays on the SUBMISSION index, so reordering equal
  // timestamps cannot change a verdict.
  std::vector<std::size_t> order(workload.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&workload](std::size_t a, std::size_t b) {
                     return workload[a].arrival_ms < workload[b].arrival_ms;
                   });
  std::stable_sort(swaps.begin(), swaps.end(),
                   [](const SwapEvent& a, const SwapEvent& b) {
                     return a.at_ms < b.at_ms;
                   });

  // A scheduled swap applies the moment virtual time passes at_ms — either
  // at an arrival or at a dispatch, whichever the timeline reaches first.
  std::size_t swap_cursor = 0;
  auto apply_swaps_until = [this, &swaps, &swap_cursor, &summary](double t) {
    while (swap_cursor < swaps.size() && swaps[swap_cursor].at_ms <= t) {
      const SwapEvent& ev = swaps[swap_cursor++];
      try {
        swap_model(ev.model, ev.path);
        ++summary.swaps;
      } catch (const Error&) {
        // Injected load fault or a corrupt/over-budget artifact: the old
        // version keeps serving — the swap rolled back.
        ++summary.swap_rollbacks;
      }
    }
  };

  // --- Phase 1: deterministic admission/deadline/retry simulation -------
  //
  // `lanes` simulated service lanes drain a single FIFO admission queue.
  // `waiting` holds the dispatch times of admitted-but-not-yet-dispatched
  // requests (nondecreasing, so expiring the front is enough). All times
  // are virtual ms; nothing here depends on host timing or exec_workers.
  LaneHeap lanes(config_.lanes);
  std::deque<double> waiting;
  struct ExecGroup {
    std::shared_ptr<BatchRunner> runner;
    std::vector<std::size_t> indices;
  };
  std::vector<ExecGroup> groups;
  std::vector<std::shared_ptr<const artifact::LoadedArtifact>> pinned;
  struct PerModelDepth {
    std::string model;
    int max_depth = 0;
  };
  std::vector<PerModelDepth> depths;
  auto note_depth = [&depths, &summary](const std::string& model, int d) {
    summary.max_queue_depth = std::max(summary.max_queue_depth, d);
    for (PerModelDepth& e : depths) {
      if (e.model == model) {
        e.max_depth = std::max(e.max_depth, d);
        return;
      }
    }
    depths.push_back(PerModelDepth{model, d});
  };

  for (const std::size_t idx : order) {
    Request& rq = workload[idx];
    RequestResult& rr = summary.results[idx];
    const double t = std::max(rq.arrival_ms, 0.0);
    apply_swaps_until(t);

    // Requests whose dispatch time has passed have left the queue.
    while (!waiting.empty() && waiting.front() <= t) waiting.pop_front();
    const int depth = static_cast<int>(waiting.size());
    note_depth(rq.model, depth);

    Snapshot snap = snapshot(rq.model);
    if (snap.artifact == nullptr) {
      rr.status.code = StatusCode::kFailed;
      rr.status.error = "model '" + rq.model + "' is not loaded";
      continue;
    }
    rr.plan_version = snap.version;

    // Load shedding, reject-newest: past the watermark the arriving
    // request is refused before it costs anything.
    if (depth >= config_.queue_limit) {
      rr.status.code = StatusCode::kShed;
      continue;
    }

    // Dispatch: the request waits until the earliest lane frees up. A
    // swap scheduled during the wait applies before the request routes —
    // new requests route to the new plan, in-flight ones keep theirs.
    const double start = std::max(t, lanes.min());
    apply_swaps_until(start);
    snap = snapshot(rq.model);
    rr.plan_version = snap.version;
    rr.queue_ms = start - t;
    note_depth(rq.model, static_cast<int>(waiting.size()) + 1);
    waiting.push_back(start);

    const double deadline =
        rq.deadline_ms > 0.0
            ? rq.deadline_ms
            : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);

    // Deadline shed happens at dispatch, BEFORE execution: the lane pops
    // the expired request, drops it at zero cost and takes the next one.
    if (deadline > 0.0 && start - t > deadline) {
      rr.status.code = StatusCode::kDeadlineExceeded;
      rr.latency_ms = start - t;
      continue;
    }

    // Admission-time validation: a request whose blob does not match the
    // plan's descriptor can never run — fail it as a value, costing the
    // lane nothing (one poisoned input, zero collateral damage).
    const core::BlobDesc desc = core::describe_blob(rq.input);
    if (!(desc == snap.artifact->plan.input())) {
      rr.status.code = StatusCode::kFailed;
      rr.status.error = "model '" + rq.model + "' serves " +
                        snap.artifact->plan.input().str() + ", got " +
                        desc.str();
      continue;
    }

    // Attempt loop, virtual time: each attempt costs the plan's modeled
    // latency plus any injected spike; an injected transient failure
    // retries after a backoff while both the retry budget AND the
    // deadline budget allow another full attempt (simulate_attempts,
    // virtual_time.hpp — the give-up check prices the NEXT attempt,
    // backoff + spike included, BEFORE committing to it).
    const double modeled = modeled_ms_for(snap, rq.input);
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
    lanes.advance_min(start + at.dur_ms);
    rr.latency_ms = start + at.dur_ms - t;

    if (rr.status.ok()) {
      // Queue for real execution, grouped by the runner (= model version)
      // that served it. The pinned artifact keeps the version alive even
      // if a swap replaces it before phase 2 drains.
      pinned.push_back(snap.artifact);
      ExecGroup* g = nullptr;
      for (ExecGroup& cand : groups) {
        if (cand.runner == snap.runner) g = &cand;
      }
      if (g == nullptr) {
        groups.push_back(ExecGroup{snap.runner, {}});
        g = &groups.back();
      }
      g->indices.push_back(idx);
    }
  }
  // Swaps scheduled after the last arrival still apply (the server's state
  // after the trace reflects every event in it).
  if (!swaps.empty()) apply_swaps_until(swaps.back().at_ms);

  // --- Phase 2: real execution of the admitted requests -----------------
  //
  // Only now do forwards run — shed and expired requests never executed.
  // Each group runs as one batch on its version's BatchRunner, so outputs
  // are bit-exact with a standalone run of that plan regardless of worker
  // count; an unexpected execution failure downgrades that request (and
  // only that request) to kFailed.
  for (ExecGroup& g : groups) {
    std::vector<core::Blob> inputs;
    inputs.reserve(g.indices.size());
    for (const std::size_t idx : g.indices) {
      inputs.push_back(std::move(workload[idx].input));
    }
    BatchSummary batch = g.runner->run(std::move(inputs));
    for (std::size_t k = 0; k < g.indices.size(); ++k) {
      RequestResult& rr = summary.results[g.indices[k]];
      if (batch.statuses[k].ok()) {
        rr.result = std::move(batch.results[k]);
      } else {
        rr.status = std::move(batch.statuses[k]);
      }
    }
  }

  // --- Accounting: every request resolves to exactly one status ---------
  struct PerModelAgg {
    ModelStats stats;
    std::vector<double> ok_latency;
  };
  std::vector<PerModelAgg> agg;
  auto model_agg = [&agg](const std::string& model) -> PerModelAgg& {
    for (PerModelAgg& e : agg) {
      if (e.stats.model == model) return e;
    }
    agg.push_back(PerModelAgg{});
    agg.back().stats.model = model;
    return agg.back();
  };
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const RequestResult& rr = summary.results[i];
    PerModelAgg& m = model_agg(workload[i].model);
    ++m.stats.requests;
    m.stats.retries += rr.retries;
    switch (rr.status.code) {
      case StatusCode::kOk:
        ++summary.ok;
        ++m.stats.ok;
        m.ok_latency.push_back(rr.latency_ms);
        m.stats.max_ms = std::max(m.stats.max_ms, rr.latency_ms);
        break;
      case StatusCode::kShed:
        ++summary.shed;
        ++m.stats.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++summary.deadline_exceeded;
        ++m.stats.deadline_exceeded;
        break;
      case StatusCode::kFailed:
        ++summary.failed;
        ++m.stats.failed;
        break;
    }
  }
  for (PerModelAgg& m : agg) {
    std::sort(m.ok_latency.begin(), m.ok_latency.end());
    m.stats.p50_ms = percentile(m.ok_latency, 50.0);
    m.stats.p99_ms = percentile(m.ok_latency, 99.0);
    for (const PerModelDepth& d : depths) {
      if (d.model == m.stats.model) m.stats.max_queue_depth = d.max_depth;
    }
    summary.models.push_back(std::move(m.stats));
  }
  summary.wall_ms = now_ms() - wall0;
  return summary;
}

const ModelServer::CascadeProbeEntry& ModelServer::cascade_probe(
    const Snapshot& snap, const core::Blob& input) {
  const core::BlobDesc desc = core::describe_blob(input);
  const void* key = &snap.artifact->plan;
  for (const CascadeProbeEntry& p : cascade_probe_cache_) {
    if (p.plan == key && p.desc == desc) return p;
  }
  if (probe_ == nullptr) {
    probe_ = std::make_unique<core::ExecSession>(engine_.create_session());
  }
  // Two probe forwards per (plan, shape): a FILL run against an empty
  // plane cache (the split kernel's cost is unchanged, so this doubles as
  // the plain-cost probe) and — when the plan actually filled the cache,
  // i.e. it starts with an interior-split input conv — a REUSE run against
  // the filled cache, pricing the split-skipped path. Both are geometry-
  // pure, so one pair of probes covers every request of the shape.
  core::InputPlaneCache cache;
  core::RunOptions ro;
  ro.planes = &cache;
  probe_->reset_profile();
  const core::ForwardResult fill = snap.artifact->plan.run(*probe_, input, ro);
  CascadeProbeEntry e;
  e.plan = key;
  e.desc = desc;
  e.plain_ms = fill.modeled_ms;
  e.cache_active = cache.filled;
  e.planes_geom = cache.geom;
  e.reuse_ms = e.plain_ms;
  if (e.cache_active) {
    probe_->reset_profile();
    const core::ForwardResult reuse =
        snap.artifact->plan.run(*probe_, input, ro);
    e.reuse_ms = reuse.modeled_ms;
  }
  cascade_probe_cache_.push_back(e);
  return cascade_probe_cache_.back();
}

CascadeSummary ModelServer::run_cascade(const CascadeSpec& spec,
                                        std::vector<Request> workload,
                                        std::vector<SwapEvent> swaps) {
  validate_cascade(spec, "ModelServer '" + name_ + "'");
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           "ModelServer '" << name_
                           << "': run called concurrently — a server serves "
                              "one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const double wall0 = now_ms();
  const int nstages = static_cast<int>(spec.stages.size());
  CascadeSummary summary;
  summary.requests = static_cast<int>(workload.size());
  summary.results.resize(workload.size());

  std::stable_sort(swaps.begin(), swaps.end(),
                   [](const SwapEvent& a, const SwapEvent& b) {
                     return a.at_ms < b.at_ms;
                   });

  // Pre-resolved swap timeline. Unlike run(), a cascade revisits EARLIER
  // virtual times after later ones — the stage barrier decides every
  // stage-s arrival (including late ones) before any stage-s+1 dispatch —
  // so a monotone "apply swaps up to now" cursor would leak a swap that a
  // late request's stage-s decision pulled in into an early request's
  // stage-s+1 dispatch. Instead the swaps commit to the repository upfront
  // in timestamp order (same load-sequence fault keying, same final repo
  // state) while recording each model's (timestamp, snapshot) history, and
  // every dispatch resolves its artifact AT ITS OWN virtual time.
  struct SwapPoint {
    double at_ms;
    Snapshot snap;
  };
  struct ModelTimeline {
    std::string model;
    Snapshot base;  ///< pre-trace snapshot (artifact may be null)
    std::vector<SwapPoint> points;  ///< committed swaps, timestamp order
  };
  std::vector<ModelTimeline> timelines;
  auto timeline_for = [&timelines, this](const std::string& m) -> ModelTimeline& {
    for (ModelTimeline& tl : timelines) {
      if (tl.model == m) return tl;
    }
    timelines.push_back(ModelTimeline{m, snapshot(m), {}});
    return timelines.back();
  };
  for (const CascadeStageSpec& stage : spec.stages) timeline_for(stage.model);
  for (const SwapEvent& ev : swaps) {
    timeline_for(ev.model);  // capture the base BEFORE the swap commits
    try {
      swap_model(ev.model, ev.path);
      ++summary.swaps;
      timeline_for(ev.model).points.push_back(
          SwapPoint{ev.at_ms, snapshot(ev.model)});
    } catch (const Error&) {
      ++summary.swap_rollbacks;
    }
  }
  auto snapshot_at = [&timelines, this](const std::string& m,
                                        double t) -> Snapshot {
    for (const ModelTimeline& tl : timelines) {
      if (tl.model != m) continue;
      Snapshot s = tl.base;
      for (const SwapPoint& p : tl.points) {
        if (p.at_ms > t) break;
        s = p.snap;
      }
      return s;
    }
    return snapshot(m);
  };

  // Per-request cascade walk state. `arrive` is the virtual time the
  // request reaches its NEXT stage (stage 0: its trace arrival); `planes`
  // is the per-request input bitplane cache the first executed stage fills
  // and later stages reuse; `planes_on` mirrors whether it is filled —
  // known at DECISION time from the probe's cache_active, so pricing never
  // depends on real execution.
  struct Walk {
    double arrive = 0.0;
    bool active = true;
    bool planes_on = false;
    ConvGeometry planes_geom{};  ///< key of the filled planes
    core::InputPlaneCache planes;
  };
  std::vector<Walk> walks(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    walks[i].arrive = std::max(workload[i].arrival_ms, 0.0);
    summary.results[i].status.code = StatusCode::kOk;
  }

  // ONE lane heap spans all stages: a cascade serves on the same simulated
  // device as its single-model traces, so stage s+1's dispatches contend
  // with stage s's. Lane free-times only move forward, which deliberately
  // models stage rounds draining in priority order (DESIGN.md §13).
  LaneHeap lanes(config_.lanes);

  struct ExecReq {
    std::size_t idx;
    bool attach_planes;
  };
  struct ExecGroup {
    std::shared_ptr<BatchRunner> runner;
    std::vector<ExecReq> reqs;
  };
  std::vector<std::shared_ptr<const artifact::LoadedArtifact>> pinned;

  std::vector<std::size_t> entrants;
  for (int s = 0; s < nstages; ++s) {
    const CascadeStageSpec& stage = spec.stages[static_cast<std::size_t>(s)];
    // Stage barrier: all stage-s decisions in (stage arrival, submission)
    // order, then all stage-s forwards, then the gates. The ordering is a
    // pure function of virtual time, so the whole walk is deterministic.
    entrants.clear();
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (walks[i].active) entrants.push_back(i);
    }
    if (entrants.empty()) break;
    std::stable_sort(entrants.begin(), entrants.end(),
                     [&walks](std::size_t a, std::size_t b) {
                       return walks[a].arrive < walks[b].arrive;
                     });

    // Fresh admission queue per stage round (the shared lanes carry the
    // cross-stage load); shed/deadline/desc checks mirror run() exactly.
    std::deque<double> waiting;
    std::vector<ExecGroup> groups;

    for (const std::size_t idx : entrants) {
      Request& rq = workload[idx];
      Walk& wk = walks[idx];
      CascadeRequestResult& rr = summary.results[idx];
      const double t = wk.arrive;
      const double t0 = std::max(rq.arrival_ms, 0.0);

      rr.stages.emplace_back();
      StageOutcome& so = rr.stages.back();

      while (!waiting.empty() && waiting.front() <= t) waiting.pop_front();
      const int depth = static_cast<int>(waiting.size());

      Snapshot snap = snapshot_at(stage.model, t);
      if (snap.artifact == nullptr) {
        so.status.code = StatusCode::kFailed;
        so.status.error = "model '" + stage.model + "' is not loaded";
        rr.status = so.status;
        wk.active = false;
        continue;
      }
      so.plan_version = snap.version;

      if (depth >= config_.queue_limit) {
        so.status.code = StatusCode::kShed;
        rr.status = so.status;
        rr.latency_ms = t - t0;
        wk.active = false;
        continue;
      }

      const double start = std::max(t, lanes.min());
      snap = snapshot_at(stage.model, start);
      so.plan_version = snap.version;
      so.queue_ms = start - t;
      rr.queue_ms += so.queue_ms;
      waiting.push_back(start);

      const double deadline =
          rq.deadline_ms > 0.0
              ? rq.deadline_ms
              : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);

      // CASCADE-level deadline: the budget is measured from the request's
      // ORIGINAL arrival t0, so stage s inherits what earlier stages left.
      if (deadline > 0.0 && start - t0 > deadline) {
        so.status.code = StatusCode::kDeadlineExceeded;
        so.latency_ms = start - t;
        rr.status = so.status;
        rr.latency_ms = start - t0;
        wk.active = false;
        continue;
      }

      const core::BlobDesc desc = core::describe_blob(rq.input);
      if (!(desc == snap.artifact->plan.input())) {
        so.status.code = StatusCode::kFailed;
        so.status.error = "cascade '" + spec.name + "' stage " +
                          std::to_string(s) + " ('" + stage.model +
                          "') serves " + snap.artifact->plan.input().str() +
                          ", got " + desc.str();
        rr.status = so.status;
        wk.active = false;
        continue;
      }

      const CascadeProbeEntry& probe = cascade_probe(snap, rq.input);
      const bool reuse = wk.planes_on && probe.cache_active &&
                         wk.planes_geom == probe.planes_geom;
      const double modeled = reuse ? probe.reuse_ms : probe.plain_ms;
      const AttemptOutcome at = simulate_attempts(
          faults_, cascade_fault_key(idx, s), modeled, config_.max_retries,
          config_.retry_backoff_ms, start, t0, deadline);
      so.attempts = at.attempts;
      so.retries = at.retries;
      so.reused_planes = reuse;
      lanes.advance_min(start + at.dur_ms);
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
      pinned.push_back(snap.artifact);
      ExecGroup* g = nullptr;
      for (ExecGroup& cand : groups) {
        if (cand.runner == snap.runner) g = &cand;
      }
      if (g == nullptr) {
        groups.push_back(ExecGroup{snap.runner, {}});
        g = &groups.back();
      }
      g->reqs.push_back(ExecReq{idx, probe.cache_active});
      // Decision-time knowledge: an Ok run through a cache-active plan
      // leaves the request's planes filled, under its own geometry, for
      // its later stages.
      if (probe.cache_active) {
        wk.planes_on = true;
        wk.planes_geom = probe.planes_geom;
      }
    }

    // Stage-s phase 2: real forwards of this stage's admitted requests.
    // Inputs are BORROWED — every stage reads the same original blob — and
    // cache-active requests hand their plane cache to the runner.
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

    // Gates: sequenced after the stage barrier, so every verdict is read
    // off a finished forward. The LAST stage's gate is ignored — reaching
    // it Ok completes the cascade as a full run.
    for (ExecGroup& g : groups) {
      for (const ExecReq& er : g.reqs) {
        Walk& wk = walks[er.idx];
        if (!wk.active) continue;  // execution failure above
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
