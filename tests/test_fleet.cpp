// serve::FleetServer — heterogeneous sharding across device profiles.
//
// The suite proves the PR 7 fleet contract:
//   - plan pricing: a compiled plan's stored launches, priced with
//     ExecutionPlan::modeled_ms, equal EXACTLY what a live run on each
//     profile reports — placement scores need no engine per profile;
//   - cost-aware placement: an idle fleet routes to the fastest profile;
//     the wait term spreads load once queues build; a full shard spills to
//     the next candidate and only an all-full fleet sheds;
//   - per-profile correctness: the same input served by shards on
//     different profiles is bit-exact on output (modeled time differs),
//     zoo-wide for quicknet + yolov2tiny-s3;
//   - per-profile repositories: an artifact over a shard's RAM budget is
//     rejected with an itemized OutOfMemoryError and the shard keeps
//     serving its old version (hot-swap rollback across profiles);
//   - zero compiles / zero allocations: warm fleet serving runs entirely
//     from .pba artifacts, flat under the alloc_count hook;
//   - the soak: >=1000 requests over 3 profiles with faults and an
//     overload burst produce bit-identical placement (assignment
//     histogram pinned) whether shards execute with 1 or 16 real workers.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::ExecutionPlan;
using core::FloatModel;
using serve::FaultPlan;
using serve::FleetConfig;
using serve::FleetServer;
using serve::FleetSummary;
using serve::Request;
using serve::ShardSpec;
using serve::StatusCode;

core::Blob image(std::uint64_t seed) {
  return core::Blob{datasets::cifar_like_image(seed)};
}

/// `n` quicknet requests arriving `gap_ms` apart from `start_ms`.
std::vector<Request> steady(const std::string& model, int n,
                            std::uint64_t seed, double gap_ms,
                            double start_ms = 0.0) {
  std::vector<Request> w;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.model = model;
    r.input = image(seed + static_cast<std::uint64_t>(i));
    r.arrival_ms = start_ms + gap_ms * i;
    w.push_back(std::move(r));
  }
  return w;
}

/// Zero lost requests: every submitted request resolves to exactly one
/// status; only Ok requests carry a result.
void expect_nothing_lost(const FleetSummary& s) {
  EXPECT_EQ(s.ok + s.shed + s.deadline_exceeded + s.failed, s.requests);
  ASSERT_EQ(s.results.size(), static_cast<std::size_t>(s.requests));
  int placed = 0;
  for (const auto& rr : s.results) {
    if (rr.shard >= 0) ++placed;
    if (rr.status.code == StatusCode::kShed) EXPECT_EQ(rr.shard, -1);
  }
  int assigned = 0;
  for (const int n : s.assignment) assigned += n;
  EXPECT_EQ(assigned, placed);
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One compile engine mints every artifact (compile is profile-free;
    // validation happens per profile at load).
    engine_ = std::make_unique<core::Engine>(testing::test_device());
  }

  void TearDown() override {
    for (const std::string& p : temp_paths_) std::remove(p.c_str());
  }

  /// Compiles a seeded quicknet checkpoint into a .pba targeted at
  /// `profile` (empty = untargeted) and returns the path.
  std::string save_quicknet(const std::string& tag, std::uint64_t seed,
                            const std::string& profile = {}) {
    const std::string path = testing::temp_path("fleet_" + tag + ".pba");
    const FloatModel model = FloatModel::random(models::quicknet(10), seed);
    auto net = core::convert_to_phonebit(model);
    const core::BlobDesc desc{core::BlobKind::kU8, Shape{1, 32, 32, 3}};
    if (profile.empty()) {
      const ExecutionPlan plan = net->compile(*engine_, desc);
      artifact::save(*net, plan, path);
    } else {
      artifact::compile_for_profile(*net, engine_->options(), desc, profile,
                                    path);
    }
    temp_paths_.push_back(path);
    return path;
  }

  /// Reference forward of `input` through the artifact at `path`.
  core::ForwardResult reference(const std::string& path,
                                const core::Blob& input) {
    const auto art = engine_->load_artifact_shared(path);
    auto session = engine_->create_session();
    return art->plan.run(session, input);
  }

  /// Three-tier fleet config: flagship, mid, entry.
  static FleetConfig three_tier(int exec_workers) {
    FleetConfig cfg;
    cfg.shards.push_back(ShardSpec{"flag", "sd855", 2});
    cfg.shards.push_back(ShardSpec{"mid", "sd660", 2});
    cfg.shards.push_back(ShardSpec{"entry", "sd625", 2});
    cfg.exec_workers = exec_workers;
    cfg.lanes_per_shard = 2;
    cfg.queue_limit = 4;
    return cfg;
  }

  std::unique_ptr<core::Engine> engine_;
  std::vector<std::string> temp_paths_;
};

// ---------------------------------------------------------------------------
// 1. Cost replay: the oclsim seam placement is built on.
// ---------------------------------------------------------------------------

// A plan's own price on a profile must equal EXACTLY (bitwise, not
// approximately) the total a live run on that profile reports — KernelCost
// is geometry-pure and priced once at compile, so only the roofline
// differs between profiles. This is what lets placement price a plan for
// the whole fleet without running it.
TEST_F(FleetTest, PlanPricedEqualsLiveRunExactly) {
  const FloatModel model = FloatModel::random(models::quicknet(10), 33);
  auto net = core::convert_to_phonebit(model);
  const core::BlobDesc desc{core::BlobKind::kU8, Shape{1, 32, 32, 3}};
  // Engine-free compile: the plan is profile-independent by construction.
  const ExecutionPlan plan = net->compile(engine_->options(), desc);
  const core::Blob input = image(12);

  const oclsim::DeviceProfile p855 = oclsim::profile_by_name("sd855");
  const oclsim::DeviceProfile p625 = oclsim::profile_by_name("sd625");

  auto run_on = [&](const oclsim::DeviceProfile& profile) {
    auto device = std::make_shared<oclsim::Device>(profile, 2);
    core::Engine engine(device, engine_->options());
    auto session = engine.create_session();
    session.reset_profile();
    (void)plan.run(session, input);
    EXPECT_FALSE(session.queue().events().empty());
    return session.queue().total_modeled_ms();
  };

  const double live855 = run_on(p855);
  const double live625 = run_on(p625);
  EXPECT_EQ(plan.modeled_ms(p855), live855);
  EXPECT_EQ(plan.modeled_ms(p625), live625);
  // The tiers are genuinely distinct — placement has a signal to act on.
  EXPECT_GT(live625, live855);
}

// ---------------------------------------------------------------------------
// 2. Placement policy.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, IdleFleetRoutesToFastestProfile) {
  const std::string art = save_quicknet("fast", 101);
  FleetServer fleet(three_tier(2));
  fleet.load_model("qn", {art, art, art});

  // Far-apart arrivals: every queue is empty at every arrival, so the
  // modeled-latency term decides alone — everything lands on the flagship.
  const FleetSummary s = fleet.run(steady("qn", 8, 500, 1000.0));
  expect_nothing_lost(s);
  EXPECT_EQ(s.ok, 8);
  EXPECT_EQ(s.assignment, (std::vector<int>{8, 0, 0}));
  EXPECT_EQ(s.spillovers, 0);
}

TEST_F(FleetTest, WaitTermSpreadsLoadAcrossTiers) {
  const std::string art = save_quicknet("spread", 102);
  // wait_weight 0: queue depth is free, the flagship soaks everything
  // (until it spills at the watermark — use a tall limit to avoid that).
  FleetConfig greedy = three_tier(2);
  greedy.queue_limit = 1000;
  greedy.wait_weight = 0.0;
  FleetServer fleet_greedy(greedy);
  fleet_greedy.load_model("qn", {art, art, art});
  const FleetSummary sg = fleet_greedy.run(steady("qn", 30, 600, 0.05));
  EXPECT_EQ(sg.assignment, (std::vector<int>{30, 0, 0}));

  // wait_weight 1: a ms of queueing costs a ms — once the flagship's
  // lanes are busy past the speed gap, slower-but-idle shards win.
  FleetConfig fair = three_tier(2);
  fair.queue_limit = 1000;
  fair.wait_weight = 1.0;
  FleetServer fleet_fair(fair);
  fleet_fair.load_model("qn", {art, art, art});
  const FleetSummary sf = fleet_fair.run(steady("qn", 30, 600, 0.05));
  expect_nothing_lost(sf);
  int used = 0;
  for (const int n : sf.assignment) used += n > 0 ? 1 : 0;
  EXPECT_GE(used, 2) << "wait term never moved load off the flagship";
  EXPECT_EQ(sf.ok, 30);
}

TEST_F(FleetTest, SpillsToNextShardBeforeShedding) {
  const std::string art = save_quicknet("spill", 103);
  FleetConfig cfg = three_tier(2);
  cfg.queue_limit = 2;
  FleetServer fleet(cfg);
  fleet.load_model("qn", {art, art, art});

  // A simultaneous burst far past fleet capacity: 3 shards x limit 2 can
  // hold 6 waiting requests; the rest must shed — but only after probing
  // every shard (spillovers), never before.
  const FleetSummary s = fleet.run(steady("qn", 18, 700, 0.0));
  expect_nothing_lost(s);
  EXPECT_GT(s.spillovers, 0);
  EXPECT_GT(s.shed, 0);
  EXPECT_EQ(s.shed + s.ok, 18);
  for (const int n : s.assignment) EXPECT_GT(n, 0);
  for (const auto& rr : s.results) {
    if (rr.status.code == StatusCode::kShed) {
      // A shed request visited EVERY candidate before giving up.
      EXPECT_EQ(rr.spillovers, 3);
    }
  }
}

TEST_F(FleetTest, ModelMissingEverywhereFailsAsValue) {
  const std::string art = save_quicknet("missing", 104);
  FleetServer fleet(three_tier(2));
  fleet.load_model_on(0, "qn", art);

  std::vector<Request> w = steady("qn", 1, 800, 1.0);
  w.push_back(Request{"ghost", image(9), 2.0, 0.0});
  const FleetSummary s = fleet.run(std::move(w));
  expect_nothing_lost(s);
  EXPECT_EQ(s.ok, 1);
  EXPECT_EQ(s.failed, 1);
  EXPECT_NE(s.results[1].status.error.find("not loaded on any shard"),
            std::string::npos);
}

// A ModelServer is a one-shard fleet: the same faulted trace, with a burst
// and per-request deadlines, served by a ModelServer on an sd855 engine and
// by a one-shard sd855 fleet with the same knobs reaches the same verdict,
// with the same virtual timing, for every request.
TEST_F(FleetTest, ModelServerBehavesAsOneShardFleet) {
  const std::string art = save_quicknet("one_shard", 105);
  const auto trace = [] {
    std::vector<Request> w = steady("qn", 240, 1100, 0.4);
    for (Request& r : steady("qn", 120, 1400, 0.0, 40.0)) {
      w.push_back(std::move(r));  // burst
    }
    for (std::size_t i = 0; i < w.size(); i += 3) w[i].deadline_ms = 2.5;
    return w;
  };
  FaultPlan faults;
  faults.seed = 0x5EED;
  faults.transient_rate = 0.1;
  faults.spike_rate = 0.08;
  faults.spike_ms = 1.5;

  serve::ServerConfig scfg;
  scfg.exec_workers = 2;
  scfg.lanes = 2;
  scfg.queue_limit = 6;
  scfg.max_retries = 2;
  scfg.retry_backoff_ms = 0.5;
  serve::ModelServer server(*engine_, scfg, faults);
  server.load_model("qn", art);
  ASSERT_EQ(engine_->device().profile().soc_name,
            oclsim::profile_by_name("sd855").soc_name);

  FleetConfig fcfg;
  fcfg.shards.push_back(ShardSpec{"solo", "sd855", 2});
  fcfg.exec_workers = scfg.exec_workers;
  fcfg.lanes_per_shard = scfg.lanes;
  fcfg.queue_limit = scfg.queue_limit;
  fcfg.max_retries = scfg.max_retries;
  fcfg.retry_backoff_ms = scfg.retry_backoff_ms;
  FleetServer fleet(fcfg, faults);
  fleet.load_model("qn", {art});

  const serve::ServerSummary a = server.run(trace());
  const FleetSummary b = fleet.run(trace());
  const std::vector<double> arrivals = testing::arrivals_of(trace());
  EXPECT_TRUE(testing::serving_invariants(a, arrivals, scfg.lanes));
  EXPECT_TRUE(testing::serving_invariants(b, arrivals, scfg.lanes));
  // The trace exercises every decision the two must agree on.
  EXPECT_GT(a.ok, 0);
  EXPECT_GT(a.shed, 0);
  EXPECT_GT(a.deadline_exceeded, 0);
  EXPECT_GT(a.retries, 0);

  EXPECT_EQ(a.max_queue_depth, b.shards[0].max_queue_depth);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    ASSERT_EQ(x.status.code, y.status.code) << "request " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "request " << i;
    EXPECT_EQ(x.retries, y.retries) << "request " << i;
    EXPECT_EQ(x.plan_version, y.plan_version) << "request " << i;
    EXPECT_EQ(x.queue_ms, y.queue_ms) << "request " << i;
    EXPECT_EQ(x.latency_ms, y.latency_ms) << "request " << i;
    if (x.status.ok()) {
      EXPECT_TRUE(testing::expect_bitexact(x.result, y.result))
          << "request " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Per-profile correctness: outputs are profile-invariant, zoo-wide.
// ---------------------------------------------------------------------------

// The same input forced onto three different profiles must produce
// bit-exact outputs — oclsim kernels do real host arithmetic; the profile
// only changes the modeled clock. Each profile is addressed directly by
// loading the model under a shard-local name (empty path = not served
// there), so the test pins one request to each tier regardless of what the
// placement policy would prefer.
TEST_F(FleetTest, SameInputBitExactAcrossProfilesZooWide) {
  struct Case {
    const char* name;
    const char* zoo;
    int shrink;
  };
  for (const Case& c : {Case{"quicknet", "quicknet", 0},
                        Case{"yolov2tiny-s3", "yolov2-tiny", 3}}) {
    SCOPED_TRACE(c.name);
    models::ZooOptions zoo;
    zoo.shrink_log2 = c.shrink;
    const auto spec = models::spec_by_name(c.zoo, zoo, std::nullopt);
    auto net = core::convert_to_phonebit(FloatModel::random(spec, 207));
    const core::BlobDesc desc{core::BlobKind::kU8, spec.input};

    // One artifact per profile, pbc-compile-fleet style.
    std::vector<std::string> paths;
    for (const std::string key : {"sd855", "sd660", "sd625"}) {
      const std::string path = testing::temp_path(
          "fleet_zoo_" + std::string(c.name) + "." + key + ".pba");
      artifact::compile_for_profile(*net, engine_->options(), desc, key,
                                    path);
      temp_paths_.push_back(path);
      paths.push_back(path);
    }

    FleetServer fleet(three_tier(2));
    // "m0" served only by the flagship, "m1" by the mid tier, "m2" by the
    // entry tier — one model name per shard.
    fleet.load_model("m0", {paths[0], "", ""});
    fleet.load_model("m1", {"", paths[1], ""});
    fleet.load_model("m2", {"", "", paths[2]});

    const core::Blob input{datasets::random_image(spec.input, 99)};
    std::vector<Request> w;
    for (int i = 0; i < 3; ++i) {
      w.push_back(Request{"m" + std::to_string(i), core::Blob{input}, 0.0,
                          0.0});
    }
    const FleetSummary s = fleet.run(std::move(w));
    expect_nothing_lost(s);
    ASSERT_EQ(s.ok, 3);
    // One request per shard — all three profiles actually served.
    EXPECT_EQ(s.assignment, (std::vector<int>{1, 1, 1}));
    const core::ForwardResult ref = reference(paths[0], input);
    for (const auto& rr : s.results) {
      EXPECT_EQ(rr.shard, &rr - s.results.data());
      EXPECT_TRUE(testing::expect_bitexact(rr.result.output, ref.output))
          << "shard " << rr.shard << " output diverged";
    }
    // Modeled latency is NOT profile-invariant: the entry tier is slower.
    EXPECT_GT(s.results[2].latency_ms, s.results[0].latency_ms);
  }
}

// ---------------------------------------------------------------------------
// 4. Per-profile repositories: RAM validation + rollback across profiles.
// ---------------------------------------------------------------------------

// Loading an artifact compiled for a big profile into a small-RAM shard
// throws an itemized OutOfMemoryError and leaves the shard serving its old
// version — hot-swap rollback across profiles.
TEST_F(FleetTest, OverBudgetArtifactRejectedAndOldVersionKeepsServing) {
  // A model big enough that MB-granular budgets can sit below it:
  // yolov2tiny-s2 needs a few MB of params + slab + scratch.
  models::ZooOptions zoo;
  zoo.shrink_log2 = 2;
  const auto spec = models::spec_by_name("yolov2-tiny", zoo, std::nullopt);
  auto net = core::convert_to_phonebit(FloatModel::random(spec, 301));
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  const std::string big_path = testing::temp_path("fleet_big.sd855.pba");
  const ExecutionPlan plan = artifact::compile_for_profile(
      *net, engine_->options(), desc, "sd855", big_path);
  temp_paths_.push_back(big_path);

  const std::int64_t need = net->param_bytes() + plan.slab_bytes() +
                            plan.peak_scratch_bytes();
  ASSERT_GT(need, std::int64_t{1} << 20)
      << "model too small to under-budget at MB granularity";
  std::int64_t small_mb = need >> 20;  // floor(need / 1MB) MB <= need
  if ((small_mb << 20) == need) --small_mb;
  ASSERT_GE(small_mb, 1);

  FleetConfig cfg;
  cfg.shards.push_back(ShardSpec{"big", "sd855", 2});
  cfg.shards.push_back(ShardSpec{"small", "sd625", 2, small_mb});
  FleetServer fleet(cfg);

  // The small shard serves quicknet v1 (fits comfortably under any MB
  // budget that holds the yolo artifact's params alone).
  const std::string qn = save_quicknet("rollback", 302);
  fleet.load_model("qn", {qn, qn});
  ASSERT_EQ(fleet.version_on(1, "qn"), 1u);

  // Fresh load of the big artifact on the small shard: itemized rejection.
  try {
    fleet.load_model_on(1, "det", big_path);
    FAIL() << "over-budget artifact was accepted";
  } catch (const OutOfMemoryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("param bytes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("activation-slab bytes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scratch-peak bytes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("over budget by"), std::string::npos) << msg;
  }
  EXPECT_EQ(fleet.version_on(1, "det"), 0u);

  // Hot-swap of the served model to the big artifact: rollback — version
  // unchanged, and the shard still serves the OLD weights bit-exactly.
  EXPECT_THROW(fleet.swap_model_on(1, "qn", big_path), OutOfMemoryError);
  EXPECT_EQ(fleet.version_on(1, "qn"), 1u);

  // The big shard takes the same artifact without complaint.
  fleet.load_model_on(0, "det", big_path);
  EXPECT_EQ(fleet.version_on(0, "det"), 1u);

  // The rolled-back shard still serves the OLD weights: address the small
  // shard directly via a shard-local model name and compare bit-exactly.
  fleet.load_model("qn-small", {"", qn});
  EXPECT_THROW(fleet.swap_model_on(1, "qn-small", big_path),
               OutOfMemoryError);
  const core::Blob input = image(77);
  std::vector<Request> w;
  w.push_back(Request{"qn-small", core::Blob{input}, 0.0, 0.0});
  const FleetSummary s = fleet.run(std::move(w));
  ASSERT_EQ(s.ok, 1);
  EXPECT_EQ(s.results[0].shard, 1);
  EXPECT_EQ(s.results[0].plan_version, 1u);
  const core::ForwardResult ref = reference(qn, input);
  EXPECT_TRUE(testing::expect_bitexact(s.results[0].result.output,
                                       ref.output))
      << "rolled-back shard served wrong weights";
}

// A successful per-shard hot-swap bumps the version and serves the new
// weights on that shard only.
TEST_F(FleetTest, PerShardHotSwapServesNewVersion) {
  const std::string v1 = save_quicknet("swap_v1", 401);
  const std::string v2 = save_quicknet("swap_v2", 402);
  FleetServer fleet(three_tier(2));
  // One model name per shard so each tier can be addressed directly.
  fleet.load_model("a", {v1, "", ""});
  fleet.load_model("b", {"", v1, ""});
  fleet.load_model("c", {"", "", v1});
  fleet.swap_model_on(1, "b", v2);
  EXPECT_EQ(fleet.version_on(0, "a"), 1u);
  EXPECT_EQ(fleet.version_on(1, "b"), 2u);
  EXPECT_EQ(fleet.version_on(2, "c"), 1u);

  const core::Blob input = image(55);
  std::vector<Request> w;
  for (const char* m : {"a", "b", "c"}) {
    w.push_back(Request{m, core::Blob{input}, 0.0, 0.0});
  }
  const FleetSummary s = fleet.run(std::move(w));
  ASSERT_EQ(s.ok, 3);
  EXPECT_EQ(s.assignment, (std::vector<int>{1, 1, 1}));
  const core::ForwardResult ref1 = reference(v1, input);
  const core::ForwardResult ref2 = reference(v2, input);
  for (const auto& rr : s.results) {
    const core::ForwardResult& want = rr.shard == 1 ? ref2 : ref1;
    EXPECT_EQ(rr.plan_version, rr.shard == 1 ? 2u : 1u);
    EXPECT_TRUE(testing::expect_bitexact(rr.result.output, want.output))
        << "shard " << rr.shard << " served the wrong version";
  }
}

// ---------------------------------------------------------------------------
// 5. Zero compiles, zero allocations in the warm serving process.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, WarmFleetServesWithZeroCompilesAndZeroAllocGrowth) {
  std::vector<std::string> paths;
  for (const std::string key : {"sd855", "sd660", "sd625"}) {
    paths.push_back(save_quicknet("warm_" + key, 501, key));
  }
  FleetConfig cfg = three_tier(2);
  cfg.wait_weight = 1.0;
  FleetServer fleet(cfg);
  fleet.load_model("qn", paths);

  // Warm-up: probe forward, session minting, first batches, arena growth.
  const FleetSummary warm = fleet.run(steady("qn", 24, 600, 0.2));
  expect_nothing_lost(warm);
  ASSERT_GT(warm.ok, 0);

  // Steady state: the only allocations are each Ok request's one owned
  // output tensor; arenas never grow; nothing is ever compiled. The
  // workload is minted BEFORE the window — inputs are the caller's.
  std::vector<Request> work = steady("qn", 24, 600, 0.2);
  const std::int64_t allocs_before = buffer_alloc_count();
  const int grows_before = fleet.total_arena_growth_events();
  const FleetSummary s = fleet.run(std::move(work));
  expect_nothing_lost(s);
  ASSERT_GT(s.ok, 0);
  EXPECT_EQ(buffer_alloc_count() - allocs_before,
            static_cast<std::int64_t>(s.ok))
      << "a warm fleet forward heap-allocated beyond its output";
  EXPECT_EQ(fleet.total_arena_growth_events(), grows_before);
  EXPECT_EQ(fleet.compiled_plans(), 0u)
      << "the serving process compiled — artifacts must carry every plan";
}

// ---------------------------------------------------------------------------
// 6. The deterministic soak (the `fleet_soak` ctest).
// ---------------------------------------------------------------------------

/// 1050 requests: steady traffic tight enough to queue every tier, two
/// overload bursts, a tail that drains.
std::vector<Request> soak_trace() {
  std::vector<Request> w = steady("qn", 800, 1000, 0.3);
  for (Request& r : steady("qn", 120, 3000, 0.0, 110.0)) {
    w.push_back(std::move(r));  // burst 1
  }
  for (Request& r : steady("qn", 80, 4000, 0.0, 290.0)) {
    w.push_back(std::move(r));  // burst 2
  }
  for (Request& r : steady("qn", 50, 5000, 2.0, 440.0)) {
    w.push_back(std::move(r));  // drain tail
  }
  return w;
}

FleetSummary soak_once(const std::vector<std::string>& paths,
                       int exec_workers) {
  FleetConfig cfg;
  cfg.shards.push_back(ShardSpec{"flag", "sd855", 2});
  cfg.shards.push_back(ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = exec_workers;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 5;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  cfg.wait_weight = 1.0;

  FaultPlan faults;
  faults.seed = 0xF1EE7;
  faults.transient_rate = 0.08;
  faults.spike_rate = 0.05;
  faults.spike_ms = 1.5;

  FleetServer fleet(cfg, faults, "soak");
  fleet.load_model("qn", paths);
  return fleet.run(soak_trace());
}

TEST_F(FleetTest, SoakPlacementIsBitIdenticalAcrossWorkerCounts) {
  std::vector<std::string> paths;
  for (const std::string key : {"sd855", "sd660", "sd625"}) {
    paths.push_back(save_quicknet("soak_" + key, 601, key));
  }

  const FleetSummary s1 = soak_once(paths, 1);
  expect_nothing_lost(s1);
  ASSERT_EQ(s1.requests, 1050);
  EXPECT_TRUE(testing::serving_invariants(
      s1, testing::arrivals_of(soak_trace()), /*lanes=*/2));
  EXPECT_GT(s1.ok, 0);
  EXPECT_GT(s1.shed, 0);
  EXPECT_GT(s1.retries, 0);
  EXPECT_GT(s1.spillovers, 0);

  // The pinned assignment histogram: modeled time is machine-independent,
  // so this exact split must reproduce everywhere, forever. A change here
  // means the placement policy (or the cost model) changed — that is a
  // reviewable event, not noise.
  EXPECT_EQ(s1.assignment, (std::vector<int>{698, 161, 28}));

  const FleetSummary s16 = soak_once(paths, 16);
  EXPECT_EQ(s1.ok, s16.ok);
  EXPECT_EQ(s1.shed, s16.shed);
  EXPECT_EQ(s1.deadline_exceeded, s16.deadline_exceeded);
  EXPECT_EQ(s1.failed, s16.failed);
  EXPECT_EQ(s1.retries, s16.retries);
  EXPECT_EQ(s1.spillovers, s16.spillovers);
  EXPECT_EQ(s1.assignment, s16.assignment);
  ASSERT_EQ(s1.results.size(), s16.results.size());
  for (std::size_t i = 0; i < s1.results.size(); ++i) {
    const auto& a = s1.results[i];
    const auto& b = s16.results[i];
    ASSERT_EQ(a.status.code, b.status.code) << "request " << i;
    EXPECT_EQ(a.shard, b.shard) << "request " << i;
    EXPECT_EQ(a.spillovers, b.spillovers) << "request " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "request " << i;
    EXPECT_EQ(a.retries, b.retries) << "request " << i;
    EXPECT_EQ(a.plan_version, b.plan_version) << "request " << i;
    EXPECT_EQ(a.queue_ms, b.queue_ms) << "request " << i;
    EXPECT_EQ(a.latency_ms, b.latency_ms) << "request " << i;
    if (a.status.ok()) {
      EXPECT_TRUE(testing::expect_bitexact(a.result.output, b.result.output))
          << "request " << i;
    }
  }

  // Shard accounting closes: per-shard outcomes sum to the fleet totals.
  int ok = 0, dl = 0, failed = 0, placed = 0;
  for (const auto& st : s1.shards) {
    ok += st.ok;
    dl += st.deadline_exceeded;
    failed += st.failed;
    placed += st.requests;
    EXPECT_GE(st.utilization, 0.0);
    EXPECT_LE(st.utilization, 1.0);
  }
  EXPECT_EQ(ok, s1.ok);
  EXPECT_EQ(dl, s1.deadline_exceeded);
  EXPECT_EQ(placed, s1.requests - s1.shed -
                        (s1.failed - failed) /* failed before placement */);
}

}  // namespace
}  // namespace phonebit
