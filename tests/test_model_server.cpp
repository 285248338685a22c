// serve::ModelServer — the fault-tolerant serving control plane.
//
// The suite proves the PR 6 robustness contract:
//   - failure is a value: every request resolves to exactly one of
//     Ok/Shed/DeadlineExceeded/Failed and poisoned requests cost their
//     neighbors nothing;
//   - admission control: overload bursts shed the NEWEST requests at the
//     queue watermark, deadlines shed at dispatch BEFORE execution;
//   - bounded retry-with-backoff under injected transient faults, giving
//     up when the deadline budget cannot fit another attempt;
//   - determinism: same seed + same workload => bit-identical
//     shed/retry/failure accounting across runs AND across real execution
//     worker counts (decisions run in virtual time on fixed lanes);
//   - hot-swap atomicity: scheduled and concurrent swaps route new
//     requests to the new plan while in-flight requests finish on the old
//     one — every request runs against exactly one version — and a
//     corrupt incoming artifact rolls back with the old model serving;
//   - the seeded soak: >=1000 requests with faults, an overload burst and
//     a mid-run hot-swap complete with zero lost requests and bit-exact
//     Ok outputs vs the fault-free run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/model_server.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::ExecutionPlan;
using core::FloatModel;
using serve::FaultPlan;
using serve::ModelServer;
using serve::Request;
using serve::ServerConfig;
using serve::ServerSummary;
using serve::StatusCode;
using serve::SwapEvent;

class ModelServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::Engine>(testing::test_device());
    save_artifact(path_v1_, 601);
    save_artifact(path_v2_, 602);
  }

  void TearDown() override {
    std::remove(path_v1_.c_str());
    std::remove(path_v2_.c_str());
  }

  /// Compiles a fresh quicknet checkpoint (seeded) into a .pba at `path`.
  void save_artifact(const std::string& path, std::uint64_t seed) {
    const FloatModel model = FloatModel::random(models::quicknet(10), seed);
    auto net = core::convert_to_phonebit(model);
    const ExecutionPlan plan =
        net->compile(core::EngineOptions{},
                     core::BlobDesc{core::BlobKind::kU8, Shape{1, 32, 32, 3}});
    artifact::save(*net, plan, path);
  }

  /// Reference forward of `input` through the artifact at `path` (loaded
  /// once and cached) — what a served Ok output must bit-match.
  core::ForwardResult reference(const std::string& path,
                                const core::Blob& input) {
    for (auto& [p, art] : ref_cache_) {
      if (p == path) {
        auto session = engine_->create_session();
        return art->plan.run(session, input);
      }
    }
    ref_cache_.emplace_back(path, engine_->load_artifact_shared(path));
    auto session = engine_->create_session();
    return ref_cache_.back().second->plan.run(session, input);
  }

  /// The artifact path serving version `v` in tests that swap v1 -> v2.
  const std::string& path_for_version(std::uint64_t v) const {
    return v >= 2 ? path_v2_ : path_v1_;
  }

  static core::Blob image(std::uint64_t seed) {
    return core::Blob{datasets::cifar_like_image(seed)};
  }

  /// `n` requests for `model`, arriving `gap_ms` apart from `start_ms`.
  static std::vector<Request> steady(const std::string& model, int n,
                                     std::uint64_t seed, double gap_ms,
                                     double start_ms = 0.0,
                                     double deadline_ms = 0.0) {
    std::vector<Request> w;
    for (int i = 0; i < n; ++i) {
      Request r;
      r.model = model;
      r.input = image(seed + static_cast<std::uint64_t>(i));
      r.arrival_ms = start_ms + gap_ms * i;
      r.deadline_ms = deadline_ms;
      w.push_back(std::move(r));
    }
    return w;
  }

  /// The accounting invariant: zero lost requests — every submitted
  /// request resolves to exactly one status, executed iff Ok.
  static void expect_nothing_lost(const ServerSummary& s) {
    EXPECT_EQ(s.ok + s.shed + s.deadline_exceeded + s.failed, s.requests);
    ASSERT_EQ(s.results.size(), static_cast<std::size_t>(s.requests));
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      if (s.results[i].status.ok()) {
        EXPECT_FALSE(s.results[i].result.report.empty())
            << "request " << i << " claims Ok but never executed";
      } else {
        EXPECT_TRUE(s.results[i].result.report.empty())
            << "request " << i << " executed despite "
            << serve::status_name(s.results[i].status.code);
      }
    }
  }

  /// Modeled latency of one fault-free quicknet request on this server
  /// setup — the unit the deadline/overload tests size themselves in.
  double clean_latency_ms() {
    ModelServer probe(*engine_);
    probe.load_model("probe", path_v1_);
    const auto s = probe.run(steady("probe", 1, 40, 1.0));
    EXPECT_EQ(s.ok, 1);
    return s.results[0].latency_ms;
  }

  std::unique_ptr<core::Engine> engine_;
  std::string path_v1_ = ::testing::TempDir() + "phonebit_ms_v1.pba";
  std::string path_v2_ = ::testing::TempDir() + "phonebit_ms_v2.pba";
  std::vector<
      std::pair<std::string, std::shared_ptr<const artifact::LoadedArtifact>>>
      ref_cache_;
};

// ---------------------------------------------------------------------------
// Basic serving: statuses, accounting, bit-exactness.
// ---------------------------------------------------------------------------

TEST_F(ModelServerTest, ServesSteadyTrafficBitExact) {
  ModelServer server(*engine_);
  server.load_model("q", path_v1_);
  EXPECT_EQ(server.version("q"), 1u);

  const auto workload = steady("q", 12, 100, 5.0);
  const auto summary = server.run(steady("q", 12, 100, 5.0));

  EXPECT_EQ(summary.requests, 12);
  EXPECT_EQ(summary.ok, 12);
  expect_nothing_lost(summary);
  ASSERT_EQ(summary.models.size(), 1u);
  EXPECT_EQ(summary.models[0].name, "q");
  EXPECT_EQ(summary.models[0].ok, 12);
  EXPECT_LE(summary.models[0].p50_ms, summary.models[0].p99_ms);
  EXPECT_LE(summary.models[0].p99_ms, summary.models[0].max_ms);
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    EXPECT_EQ(summary.results[i].stages[0].plan_version, 1u);
    EXPECT_EQ(summary.results[i].attempts, 1);
    EXPECT_GT(summary.results[i].latency_ms, 0.0);
    EXPECT_TRUE(testing::expect_bitexact(summary.results[i].result,
                                         reference(path_v1_,
                                                   workload[i].input)))
        << "request " << i;
  }
}

TEST_F(ModelServerTest, BadRequestsFailAsValuesNotExceptions) {
  ModelServer server(*engine_);
  server.load_model("q", path_v1_);

  std::vector<Request> w = steady("q", 4, 200, 5.0);
  w[1].model = "nope";  // never loaded
  w[2].input = core::Blob{datasets::random_image(Shape{1, 16, 16, 3}, 7)};

  const auto summary = server.run(std::move(w));
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 2);
  EXPECT_EQ(summary.results[1].status.code, StatusCode::kFailed);
  EXPECT_NE(summary.results[1].status.error.find("not loaded"),
            std::string::npos);
  EXPECT_EQ(summary.results[2].status.code, StatusCode::kFailed);
  EXPECT_NE(summary.results[2].status.error.find("serves"),
            std::string::npos);
  // Failed at admission: never executed, zero attempts.
  EXPECT_EQ(summary.results[1].attempts, 0);
  EXPECT_EQ(summary.results[2].attempts, 0);
  EXPECT_TRUE(summary.results[0].status.ok());
  EXPECT_TRUE(summary.results[3].status.ok());
}

// A wrong-shape request fails before admission: it takes no queue slot,
// waits no virtual time and cannot expire. One lane, two queue slots, four
// arrivals at t=0: [valid, 16x16, 16x16 with a tiny deadline, valid]. If
// the bad requests queued, request 3 would find the queue full and shed.
TEST_F(ModelServerTest, WrongShapeRequestTakesNoAdmissionSlot) {
  ServerConfig cfg;
  cfg.lanes = 1;
  cfg.queue_limit = 2;
  ModelServer server(*engine_, cfg);
  server.load_model("q", path_v1_);

  std::vector<Request> w = steady("q", 4, 250, 0.0);
  w[1].input = core::Blob{datasets::random_image(Shape{1, 16, 16, 3}, 8)};
  w[2].input = core::Blob{datasets::random_image(Shape{1, 16, 16, 3}, 9)};
  w[2].deadline_ms = 0.1;
  const std::vector<double> arrivals = testing::arrivals_of(w);
  const auto summary = server.run(std::move(w));
  expect_nothing_lost(summary);
  EXPECT_TRUE(testing::serving_invariants(summary, arrivals, cfg.lanes));
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 2);
  EXPECT_EQ(summary.shed, 0);
  EXPECT_EQ(summary.deadline_exceeded, 0);
  for (const int i : {1, 2}) {
    const auto& rr = summary.results[static_cast<std::size_t>(i)];
    EXPECT_EQ(rr.status.code, StatusCode::kFailed) << i;
    EXPECT_NE(rr.status.error.find("serves"), std::string::npos) << i;
    EXPECT_EQ(rr.queue_ms, 0.0) << i;
    EXPECT_EQ(rr.latency_ms, 0.0) << i;
    EXPECT_EQ(rr.attempts, 0) << i;
  }
  EXPECT_TRUE(summary.results[3].status.ok());
  EXPECT_GT(summary.results[3].queue_ms, 0.0);  // it waited for request 0
  EXPECT_EQ(summary.max_queue_depth, 1);
}

// ---------------------------------------------------------------------------
// Admission control: load shedding and deadlines.
// ---------------------------------------------------------------------------

TEST_F(ModelServerTest, OverloadBurstShedsNewestAtTheWatermark) {
  ServerConfig cfg;
  cfg.lanes = 2;
  cfg.queue_limit = 4;
  ModelServer server(*engine_, cfg);
  server.load_model("q", path_v1_);

  // 20 simultaneous arrivals against 2 lanes + 4 queue slots: the first
  // lanes+queue_limit requests (in submission order) are served, every
  // later one is rejected at admission — reject-newest, never executed.
  const auto summary = server.run(steady("q", 20, 300, 0.0));
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.ok, 6);
  EXPECT_EQ(summary.shed, 14);
  EXPECT_EQ(summary.max_queue_depth, 4);
  for (int i = 0; i < 20; ++i) {
    const auto& rr = summary.results[static_cast<std::size_t>(i)];
    EXPECT_EQ(rr.status.code, i < 6 ? StatusCode::kOk : StatusCode::kShed)
        << "request " << i;
  }
  ASSERT_EQ(summary.models.size(), 1u);
  EXPECT_EQ(summary.models[0].shed, 14);
  EXPECT_EQ(summary.models[0].max_queue_depth, 4);
}

TEST_F(ModelServerTest, DeadlineExpiryShedsAtDispatchBeforeExecution) {
  const double unit = clean_latency_ms();
  ASSERT_GT(unit, 0.0);

  ServerConfig cfg;
  cfg.lanes = 1;
  cfg.queue_limit = 100;
  ModelServer server(*engine_, cfg);
  server.load_model("q", path_v1_);

  // 8 simultaneous arrivals, one lane: request 0 dispatches immediately;
  // every later one must wait >= one service time, which exceeds its
  // deadline of 0.7 service times — expired at dispatch, never executed.
  const auto summary =
      server.run(steady("q", 8, 400, 0.0, 0.0, /*deadline=*/0.7 * unit));
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.deadline_exceeded, 7);
  EXPECT_TRUE(summary.results[0].status.ok());
  for (int i = 1; i < 8; ++i) {
    const auto& rr = summary.results[static_cast<std::size_t>(i)];
    EXPECT_EQ(rr.status.code, StatusCode::kDeadlineExceeded) << i;
    EXPECT_EQ(rr.attempts, 0) << "expired request " << i << " executed";
    EXPECT_GT(rr.latency_ms, 0.0);  // it did wait before being dropped
  }
}

// ---------------------------------------------------------------------------
// Fault injection: retries, backoff, deadline budgets.
// ---------------------------------------------------------------------------

/// First seed whose FaultPlan makes request 0's attempts fail `fails`
/// times and then (if within budget) succeed.
std::uint64_t seed_with_transients(double rate, int fails, int horizon) {
  for (std::uint64_t seed = 1; seed < 100000; ++seed) {
    FaultPlan f;
    f.seed = seed;
    f.transient_rate = rate;
    bool match = true;
    for (int a = 0; a < fails && match; ++a) {
      if (!f.transient_fault(0, a)) match = false;
    }
    if (match && fails < horizon && f.transient_fault(0, fails)) match = false;
    if (match) return seed;
  }
  ADD_FAILURE() << "no seed found";
  return 0;
}

TEST_F(ModelServerTest, TransientFaultRetriesWithBackoffThenSucceeds) {
  const double unit = clean_latency_ms();

  FaultPlan faults;
  faults.seed = seed_with_transients(0.5, /*fails=*/1, /*horizon=*/3);
  faults.transient_rate = 0.5;
  ServerConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  ModelServer server(*engine_, cfg, faults);
  server.load_model("q", path_v1_);

  const auto workload = steady("q", 1, 500, 1.0);
  const auto summary = server.run(steady("q", 1, 500, 1.0));
  expect_nothing_lost(summary);
  ASSERT_EQ(summary.ok, 1);
  const auto& rr = summary.results[0];
  EXPECT_EQ(rr.attempts, 2);
  EXPECT_EQ(rr.retries, 1);
  EXPECT_EQ(summary.retries, 1);
  // Two attempts + one backoff of virtual latency, one real execution,
  // and the delivered output is still exactly right.
  EXPECT_NEAR(rr.latency_ms, 2.0 * unit + 0.5, 1e-9);
  EXPECT_TRUE(testing::expect_bitexact(rr.result,
                                       reference(path_v1_,
                                                 workload[0].input)));
}

TEST_F(ModelServerTest, RetryGivesUpWhenDeadlineBudgetCannotFitAnAttempt) {
  const double unit = clean_latency_ms();

  FaultPlan faults;
  faults.seed = seed_with_transients(0.5, 1, 3);
  faults.transient_rate = 0.5;
  ServerConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  ModelServer server(*engine_, cfg, faults);
  server.load_model("q", path_v1_);

  // Deadline fits one attempt but not two: after the injected transient
  // the server prices the NEXT attempt (backoff + modeled + its spike),
  // sees it cannot finish in budget, and gives up as DeadlineExceeded —
  // without burning a lane on the doomed attempt. The give-up happens
  // BEFORE the backoff is taken, so neither the latency nor the retry
  // counter charges for an attempt that never ran (this regression test
  // fails on the pre-fix loop, which added the backoff and counted the
  // retry first and reported latency 1*unit + 0.5).
  auto workload = steady("q", 1, 500, 1.0);
  workload[0].deadline_ms = 1.5 * unit;
  const auto summary = server.run(std::move(workload));
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.deadline_exceeded, 1);
  EXPECT_EQ(summary.results[0].attempts, 1);
  EXPECT_EQ(summary.results[0].retries, 0);
  EXPECT_EQ(summary.retries, 0);
  // Latency covers exactly the one attempt that ran — no phantom backoff.
  EXPECT_NEAR(summary.results[0].latency_ms, unit, 1e-9);
}

TEST_F(ModelServerTest, ExhaustedRetriesFailTheRequestOnly) {
  FaultPlan faults;
  faults.seed = seed_with_transients(0.5, /*fails=*/2, /*horizon=*/2);
  faults.transient_rate = 0.5;
  ServerConfig cfg;
  cfg.max_retries = 1;  // 2 attempts total; request 0 fails both
  ModelServer server(*engine_, cfg, faults);
  server.load_model("q", path_v1_);

  const auto summary = server.run(steady("q", 3, 600, 5.0));
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.results[0].status.code, StatusCode::kFailed);
  EXPECT_NE(summary.results[0].status.error.find("transient fault"),
            std::string::npos);
  EXPECT_EQ(summary.results[0].attempts, 2);
  // Its neighbors are untouched (they may retry, but they deliver).
  EXPECT_TRUE(summary.results[1].status.ok() ||
              summary.results[1].status.code == StatusCode::kFailed);
}

// ---------------------------------------------------------------------------
// Determinism: same seed + workload => identical accounting, any workers.
// ---------------------------------------------------------------------------

TEST_F(ModelServerTest, FaultAccountingIsBitIdenticalAcrossWorkerCounts) {
  FaultPlan faults;
  faults.seed = 11;
  faults.transient_rate = 0.15;
  faults.spike_rate = 0.10;
  faults.spike_ms = 2.0;

  auto make_workload = [this] {
    auto w = steady("q", 160, 700, 0.7);
    auto burst = steady("q", 60, 900, 0.0, /*start=*/50.0);
    for (auto& r : burst) w.push_back(std::move(r));
    return w;
  };

  std::vector<ServerSummary> runs;
  for (const int exec_workers : {1, 5, 5}) {
    ServerConfig cfg;
    cfg.exec_workers = exec_workers;
    cfg.lanes = 4;
    cfg.queue_limit = 8;
    cfg.max_retries = 1;
    ModelServer server(*engine_, cfg, faults);
    server.load_model("q", path_v1_);
    runs.push_back(server.run(make_workload()));
    expect_nothing_lost(runs.back());
  }

  // The workload genuinely exercises the control plane...
  EXPECT_GT(runs[0].shed, 0);
  EXPECT_GT(runs[0].retries, 0);
  EXPECT_GT(runs[0].ok, 0);
  // ...and every run — 1 worker, 5 workers, repeated — agrees bit-exactly
  // on every decision and every delivered output.
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].ok, runs[0].ok);
    EXPECT_EQ(runs[r].shed, runs[0].shed);
    EXPECT_EQ(runs[r].deadline_exceeded, runs[0].deadline_exceeded);
    EXPECT_EQ(runs[r].failed, runs[0].failed);
    EXPECT_EQ(runs[r].retries, runs[0].retries);
    EXPECT_EQ(runs[r].max_queue_depth, runs[0].max_queue_depth);
    ASSERT_EQ(runs[r].results.size(), runs[0].results.size());
    for (std::size_t i = 0; i < runs[0].results.size(); ++i) {
      const auto& a = runs[0].results[i];
      const auto& b = runs[r].results[i];
      ASSERT_EQ(b.status.code, a.status.code) << "request " << i;
      EXPECT_EQ(b.attempts, a.attempts) << i;
      EXPECT_EQ(b.retries, a.retries) << i;
      EXPECT_EQ(b.stages[0].plan_version, a.stages[0].plan_version) << i;
      EXPECT_EQ(b.queue_ms, a.queue_ms) << i;
      EXPECT_EQ(b.latency_ms, a.latency_ms) << i;
      if (a.status.ok()) {
        EXPECT_TRUE(testing::expect_bitexact(b.result, a.result)) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hot-swap: atomic routing, rollback on bad artifacts.
// ---------------------------------------------------------------------------

TEST_F(ModelServerTest, ScheduledHotSwapRoutesNewRequestsToTheNewPlan) {
  ModelServer server(*engine_);
  server.load_model("q", path_v1_);

  const auto workload = steady("q", 30, 800, 2.0);
  const auto summary = server.run(steady("q", 30, 800, 2.0),
                                  {SwapEvent{30.0, "q", path_v2_}});
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.ok, 30);
  EXPECT_EQ(summary.swaps, 1);
  EXPECT_EQ(summary.swap_rollbacks, 0);
  EXPECT_EQ(server.version("q"), 2u);

  int v1 = 0, v2 = 0;
  std::uint64_t prev = 1;
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    const auto& rr = summary.results[i];
    // Exactly one version per request, monotone across the trace, and the
    // output is bit-exact for THAT version — a cross-version mix would
    // match neither reference.
    const std::uint64_t version = rr.stages[0].plan_version;
    ASSERT_TRUE(version == 1 || version == 2);
    EXPECT_GE(version, prev) << "version went backwards at " << i;
    prev = version;
    (version == 1 ? v1 : v2)++;
    EXPECT_TRUE(testing::expect_bitexact(
        rr.result, reference(path_for_version(version), workload[i].input)))
        << "request " << i << " (v" << version << ")";
  }
  EXPECT_GT(v1, 0);
  EXPECT_GT(v2, 0);
}

// Every decision resolves its artifact at its own virtual time. One lane,
// one queue slot, arrivals at 0, 0 and 0.1, a swap at 0.3: request 1 waits
// for the lane past the swap and serves v2, while request 2 is shed at
// t=0.1 and must report v1 — the version it arrived under — no matter that
// an earlier request's dispatch already passed the swap. A one-stage
// cascade of the same trace reports the same versions.
TEST_F(ModelServerTest, ShedRequestReportsTheVersionItArrivedUnder) {
  ASSERT_GT(clean_latency_ms(), 0.3) << "request 1 must dispatch after 0.3";
  ServerConfig cfg;
  cfg.lanes = 1;
  cfg.queue_limit = 1;
  const auto trace = [] {
    std::vector<Request> w = steady("q", 3, 260, 0.0);
    w[2].arrival_ms = 0.1;
    return w;
  };
  const std::vector<SwapEvent> swaps{SwapEvent{0.3, "q", path_v2_}};

  ModelServer server(*engine_, cfg);
  server.load_model("q", path_v1_);
  const auto s = server.run(trace(), swaps);
  expect_nothing_lost(s);
  EXPECT_EQ(s.results[0].status.code, StatusCode::kOk);
  EXPECT_EQ(s.results[1].status.code, StatusCode::kOk);
  ASSERT_EQ(s.results[2].status.code, StatusCode::kShed);
  EXPECT_EQ(s.results[0].stages[0].plan_version, 1u);
  EXPECT_EQ(s.results[1].stages[0].plan_version, 2u);
  EXPECT_EQ(s.results[2].stages[0].plan_version, 1u);

  ModelServer twin(*engine_, cfg);
  twin.load_model("q", path_v1_);
  serve::CascadeSpec solo;
  solo.name = "solo";
  solo.stages.push_back(serve::CascadeStageSpec{"q", serve::StageGate{}});
  const serve::ServerSummary c = twin.run_cascade(solo, trace(), swaps);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.results[i].stages.size(), 1u);
    EXPECT_EQ(c.results[i].status.code, s.results[i].status.code) << i;
    EXPECT_EQ(c.results[i].stages[0].plan_version,
              s.results[i].stages[0].plan_version)
        << i;
  }
}

TEST_F(ModelServerTest, ConcurrentSwapMidRunNeverMixesPlanVersions) {
  ServerConfig cfg;
  cfg.queue_limit = 1000;
  ModelServer server(*engine_, cfg);
  server.load_model("q", path_v1_);

  // Swap from ANOTHER thread while a big trace is being served: in-flight
  // requests finish on whatever version they captured at dispatch, and
  // every output must bit-match exactly one version's reference.
  const auto workload = steady("q", 400, 1000, 0.5);
  ServerSummary summary;
  std::thread serving([&] { summary = server.run(steady("q", 400, 1000, 0.5)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.swap_model("q", path_v2_);
  serving.join();

  expect_nothing_lost(summary);
  EXPECT_EQ(server.version("q"), 2u);
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    const auto& rr = summary.results[i];
    const std::uint64_t version = rr.stages[0].plan_version;
    ASSERT_TRUE(version == 1 || version == 2) << i;
    if (rr.status.ok()) {
      EXPECT_TRUE(testing::expect_bitexact(
          rr.result, reference(path_for_version(version), workload[i].input)))
          << "request " << i << " (v" << version << ")";
    }
  }

  // New requests after the swap route to v2.
  const auto after = server.run(steady("q", 2, 2000, 1.0));
  EXPECT_EQ(after.ok, 2);
  for (const auto& rr : after.results) {
    EXPECT_EQ(rr.stages[0].plan_version, 2u);
  }
}

TEST_F(ModelServerTest, CorruptIncomingArtifactRollsBackTheSwap) {
  ModelServer server(*engine_);
  server.load_model("q", path_v1_);

  // A garbage file must be rejected at load validation — the swap throws
  // and the OLD artifact keeps serving, bit-exactly.
  const std::string bad = ::testing::TempDir() + "phonebit_ms_bad.pba";
  {
    std::ofstream os(bad, std::ios::binary);
    os << "this is not an artifact";
  }
  EXPECT_THROW(server.swap_model("q", bad), InvalidArgument);
  std::remove(bad.c_str());
  EXPECT_EQ(server.version("q"), 1u);

  const auto workload = steady("q", 4, 2100, 2.0);
  const auto summary = server.run(steady("q", 4, 2100, 2.0));
  EXPECT_EQ(summary.ok, 4);
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    EXPECT_EQ(summary.results[i].stages[0].plan_version, 1u);
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[i].result, reference(path_v1_, workload[i].input)));
  }
}

TEST_F(ModelServerTest, InjectedLoadFaultRollsBackAScheduledSwap) {
  // A FaultPlan whose first load (the initial load_model) succeeds and
  // whose second (the scheduled swap) fails.
  FaultPlan faults;
  faults.artifact_load_rate = 0.5;
  for (faults.seed = 1;; ++faults.seed) {
    if (!faults.artifact_load_fails(0) && faults.artifact_load_fails(1)) break;
    ASSERT_LT(faults.seed, 100000u);
  }

  ModelServer server(*engine_, ServerConfig{}, faults);
  server.load_model("q", path_v1_);

  const auto summary = server.run(steady("q", 10, 2200, 2.0),
                                  {SwapEvent{8.0, "q", path_v2_}});
  expect_nothing_lost(summary);
  EXPECT_EQ(summary.swaps, 0);
  EXPECT_EQ(summary.swap_rollbacks, 1);
  EXPECT_EQ(server.version("q"), 1u);
  for (const auto& rr : summary.results) {
    // Everyone stayed on the old model.
    EXPECT_EQ(rr.stages[0].plan_version, 1u);
  }
}

// ---------------------------------------------------------------------------
// The acceptance soak: 1000+ requests, faults, burst, mid-run swap.
// ---------------------------------------------------------------------------

TEST_F(ModelServerTest, FaultInjectionSoakIsAccountedDeterministicBitExact) {
  const double unit = clean_latency_ms();

  auto make_workload = [this, unit] {
    // 800 steady requests, a 200-request overload burst at t=200, and 50
    // tight-deadline requests at t=500 that will expire in the queue.
    auto w = steady("q", 800, 3000, 0.6);
    auto burst = steady("q", 200, 5000, 0.0, /*start=*/200.0);
    for (auto& r : burst) w.push_back(std::move(r));
    auto tight =
        steady("q", 50, 6000, 0.0, /*start=*/500.0, /*deadline=*/0.7 * unit);
    for (auto& r : tight) w.push_back(std::move(r));
    return w;
  };
  const std::vector<SwapEvent> swaps{SwapEvent{250.0, "q", path_v2_}};

  FaultPlan faults;
  faults.seed = 5;
  faults.transient_rate = 0.12;
  faults.spike_rate = 0.06;
  faults.spike_ms = 2.5;

  auto serve_once = [&](int exec_workers, const FaultPlan& plan) {
    ServerConfig cfg;
    cfg.exec_workers = exec_workers;
    cfg.lanes = 4;
    cfg.queue_limit = 10;
    cfg.max_retries = 1;
    cfg.retry_backoff_ms = 0.5;
    ModelServer server(*engine_, cfg, plan,
                       "soak-w" + std::to_string(exec_workers));
    server.load_model("q", path_v1_);
    return server.run(make_workload(), swaps);
  };

  const ServerSummary base = serve_once(4, faults);
  expect_nothing_lost(base);
  EXPECT_EQ(base.requests, 1050);
  EXPECT_TRUE(testing::serving_invariants(
      base, testing::arrivals_of(make_workload()), /*lanes=*/4));

  // The soak exercises every status class and both plan versions.
  EXPECT_GT(base.ok, 0);
  EXPECT_GT(base.shed, 0);
  EXPECT_GT(base.deadline_exceeded, 0);
  EXPECT_GT(base.failed, 0);
  EXPECT_GT(base.retries, 0);
  EXPECT_EQ(base.swaps, 1);
  int v1 = 0, v2 = 0;
  for (const auto& rr : base.results) {
    const std::uint64_t version = rr.stages[0].plan_version;
    ASSERT_TRUE(version == 1 || version == 2);
    (version == 1 ? v1 : v2)++;
  }
  EXPECT_GT(v1, 0);
  EXPECT_GT(v2, 0);

  // Deterministic: a repeat run AND a different real worker count produce
  // bit-identical accounting and bit-exact Ok outputs.
  for (const int workers : {4, 2}) {
    const ServerSummary again = serve_once(workers, faults);
    EXPECT_EQ(again.ok, base.ok);
    EXPECT_EQ(again.shed, base.shed);
    EXPECT_EQ(again.deadline_exceeded, base.deadline_exceeded);
    EXPECT_EQ(again.failed, base.failed);
    EXPECT_EQ(again.retries, base.retries);
    EXPECT_EQ(again.max_queue_depth, base.max_queue_depth);
    ASSERT_EQ(again.results.size(), base.results.size());
    for (std::size_t i = 0; i < base.results.size(); ++i) {
      ASSERT_EQ(again.results[i].status.code, base.results[i].status.code)
          << "request " << i << " with " << workers << " workers";
      EXPECT_EQ(again.results[i].retries, base.results[i].retries) << i;
      EXPECT_EQ(again.results[i].latency_ms, base.results[i].latency_ms) << i;
      EXPECT_EQ(again.results[i].stages[0].plan_version,
                base.results[i].stages[0].plan_version)
          << i;
      if (base.results[i].status.ok()) {
        EXPECT_TRUE(testing::expect_bitexact(again.results[i].result,
                                             base.results[i].result))
            << i;
      }
    }
  }

  // Bit-exact vs the FAULT-FREE run: faults change timing and accounting,
  // never bits — every request Ok in both runs under the same plan
  // version produced the identical output.
  const ServerSummary clean = serve_once(4, FaultPlan{});
  expect_nothing_lost(clean);
  EXPECT_EQ(clean.retries, 0);
  EXPECT_EQ(clean.failed, 0);
  int compared = 0;
  for (std::size_t i = 0; i < base.results.size(); ++i) {
    if (!base.results[i].status.ok() || !clean.results[i].status.ok()) {
      continue;
    }
    if (base.results[i].stages[0].plan_version !=
        clean.results[i].stages[0].plan_version) {
      continue;  // the swap lands at a different virtual point
    }
    ++compared;
    EXPECT_TRUE(testing::expect_bitexact(base.results[i].result,
                                         clean.results[i].result))
        << "request " << i << " drifted under fault injection";
  }
  EXPECT_GT(compared, 300);
}

// The soak trace through a two-stage ModelServer cascade (faults, burst,
// tight deadlines and the swap landing between stages) keeps the same
// serving invariants as the plain run.
TEST_F(ModelServerTest, CascadeSoakKeepsTheServingInvariants) {
  std::vector<Request> w = steady("q", 600, 3000, 0.6);
  for (Request& r : steady("q", 150, 5000, 0.0, /*start=*/150.0)) {
    w.push_back(std::move(r));
  }
  const std::vector<double> arrivals = testing::arrivals_of(w);
  FaultPlan faults;
  faults.seed = 6;
  faults.transient_rate = 0.12;
  faults.spike_rate = 0.06;
  faults.spike_ms = 2.5;
  ServerConfig cfg;
  cfg.lanes = 4;
  cfg.queue_limit = 10;
  cfg.max_retries = 1;
  cfg.retry_backoff_ms = 0.5;
  ModelServer server(*engine_, cfg, faults, "cascade-soak");
  server.load_model("q", path_v1_);
  serve::CascadeSpec twice;
  twice.name = "twice";
  twice.stages.assign(2, serve::CascadeStageSpec{"q", serve::StageGate{}});

  const ServerSummary s = server.run_cascade(
      twice, std::move(w), {SwapEvent{200.0, "q", path_v2_}});
  expect_nothing_lost(s);
  EXPECT_EQ(s.requests, 750);
  EXPECT_TRUE(testing::serving_invariants(s, arrivals, cfg.lanes));
  EXPECT_EQ(s.swaps, 1);
  EXPECT_GT(s.shed, 0);
  EXPECT_GT(s.retries, 0);
  EXPECT_GT(s.full_runs, 0);
  ASSERT_EQ(s.stages.size(), 2u);
  EXPECT_GT(s.stages[1].requests, 0);
}

}  // namespace
}  // namespace phonebit
