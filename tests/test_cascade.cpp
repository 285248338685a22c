// serve — model cascades on the serving plane (DESIGN.md §13).
//
// The suite proves the PR 10 cascade contract:
//   - correctness: a cascade's output is bit-exact with manually chaining
//     Network forwards of its stage models, zoo-wide, on BOTH gate paths
//     (the gate advancing the request and the gate completing it early) —
//     including when later stages reuse the request's cached input planes
//     and when every stage serves a compressed artifact;
//   - the packed-input reuse seam: a later stage on the same device prices
//     (and runs) strictly cheaper than the first, with identical bits;
//   - cascade-level deadlines: one budget, measured from the original
//     arrival, spans every stage — a request whose detector consumed the
//     budget is expired at the classifier's dispatch;
//   - per-stage hot-swap: swapping one stage's model mid-trace routes
//     later requests to the new version without touching earlier ones;
//   - fleet cascades: each stage places independently (stage N+1 may land
//     on a different shard), reuse affinity keeps a request's later stages
//     on the shard holding its planes when the score allows, and the
//     1050-request soak pins per-stage placement bit-identical at 1 vs 16
//     real workers.
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
#include "serve/model_server.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::EngineOptions;
using core::ExecutionPlan;
using core::FloatModel;
using serve::CascadeRequestResult;
using serve::CascadeSpec;
using serve::CascadeStageSpec;
using serve::CascadeSummary;
using serve::FaultPlan;
using serve::FleetConfig;
using serve::FleetServer;
using serve::ModelServer;
using serve::Request;
using serve::ServerConfig;
using serve::ShardSpec;
using serve::StageGate;
using serve::StatusCode;
using serve::SwapEvent;

StageGate gate_max_at_least(float threshold) {
  StageGate g;
  g.kind = StageGate::Kind::kMaxAtLeast;
  g.threshold = threshold;
  return g;
}

/// Two-stage detector → classifier spec over the given models.
CascadeSpec two_stage(const std::string& det, const std::string& cls,
                      const StageGate& gate) {
  CascadeSpec spec;
  spec.name = "det-cls";
  spec.stages.push_back(CascadeStageSpec{det, gate});
  spec.stages.push_back(CascadeStageSpec{cls, StageGate{}});
  return spec;
}

float max_logit(const core::ForwardResult& r) {
  const FloatTensor& f = r.float_output();
  float best = f.data()[0];
  for (std::int64_t i = 1; i < f.elems(); ++i) {
    best = std::max(best, f.data()[i]);
  }
  return best;
}

/// Zero lost requests, cascade flavor: every request resolves to exactly
/// one terminal status and the Ok split into gated/full runs closes.
void expect_nothing_lost(const CascadeSummary& s) {
  EXPECT_EQ(s.ok + s.shed + s.deadline_exceeded + s.failed, s.requests);
  EXPECT_EQ(s.ok, s.gated_out + s.full_runs);
  ASSERT_EQ(s.results.size(), static_cast<std::size_t>(s.requests));
  for (const CascadeRequestResult& rr : s.results) {
    EXPECT_FALSE(rr.stages.empty()) << "a request entered no stage";
    // The terminal verdict is the last entered stage's verdict, except for
    // gated-out requests (stage Ok, cascade Ok-but-early).
    if (!rr.status.ok()) {
      EXPECT_EQ(rr.stages.back().status.code, rr.status.code);
    }
  }
}

class CascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::Engine>(testing::test_device());
  }

  void TearDown() override {
    for (const std::string& p : temp_paths_) std::remove(p.c_str());
  }

  /// Compiles a seeded checkpoint of `spec` into a .pba and returns the
  /// path. `opts` selects compile options (weight compression etc.);
  /// `profile` targets a device tier (empty = untargeted).
  std::string save_model(const std::string& tag,
                         const core::NetworkSpec& spec, std::uint64_t seed,
                         const EngineOptions& opts = {},
                         const std::string& profile = {},
                         bool redundant = false) {
    const std::string path = testing::temp_path("cascade_" + tag + ".pba");
    const FloatModel model = redundant ? FloatModel::random_redundant(spec, seed)
                                       : FloatModel::random(spec, seed);
    auto net = core::convert_to_phonebit(model);
    const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
    if (profile.empty()) {
      const ExecutionPlan plan = net->compile(opts, desc);
      artifact::save(*net, plan, path);
    } else {
      artifact::compile_for_profile(*net, opts, desc, profile, path);
    }
    temp_paths_.push_back(path);
    return path;
  }

  /// Reference forward of `input` through the artifact at `path` — what a
  /// cascade stage's executed output must bit-match.
  core::ForwardResult reference(const std::string& path,
                                const core::Blob& input) {
    const auto art = engine_->load_artifact_shared(path);
    auto session = engine_->create_session();
    return art->plan.run(session, input);
  }

  static core::Blob cifar(std::uint64_t seed) {
    return core::Blob{datasets::cifar_like_image(seed)};
  }

  /// `n` cascade requests arriving `gap_ms` apart (model field unused —
  /// the spec routes).
  static std::vector<Request> steady(int n, std::uint64_t seed,
                                     double gap_ms, double start_ms = 0.0,
                                     double deadline_ms = 0.0) {
    std::vector<Request> w;
    for (int i = 0; i < n; ++i) {
      Request r;
      r.input = cifar(seed + static_cast<std::uint64_t>(i));
      r.arrival_ms = start_ms + gap_ms * i;
      r.deadline_ms = deadline_ms;
      w.push_back(std::move(r));
    }
    return w;
  }

  std::unique_ptr<core::Engine> engine_;
  std::vector<std::string> temp_paths_;
};

// ---------------------------------------------------------------------------
// 1. Correctness: cascade output == manually chained forwards, zoo-wide.
// ---------------------------------------------------------------------------

// For each zoo model, a 2-stage cascade of two differently-seeded
// checkpoints must produce (a) the CLASSIFIER's bit-exact output when the
// detector's gate passes and (b) the DETECTOR's bit-exact output when the
// gate stops the request — against plain manual plan.run chaining, which
// never sees a plane cache. This is the end-to-end proof that packed-input
// reuse changes modeled time only, never bits.
TEST_F(CascadeTest, MatchesManuallyChainedForwardsZooWideBothGatePaths) {
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
    const std::string det =
        save_model(std::string(c.name) + "_det", spec, 910);
    const std::string cls =
        save_model(std::string(c.name) + "_cls", spec, 911);

    const core::Blob input{datasets::random_image(spec.input, 77)};
    const core::ForwardResult ref_det = reference(det, input);
    const core::ForwardResult ref_cls = reference(cls, input);
    const float peak = max_logit(ref_det);

    struct GateCase {
      float threshold;
      bool expect_pass;
    };
    for (const GateCase& g : {GateCase{peak - 1.0f, true},
                              GateCase{peak + 1.0f, false}}) {
      SCOPED_TRACE(g.expect_pass ? "gate-pass" : "gate-stop");
      ModelServer server(*engine_);
      server.load_model("det", det);
      server.load_model("cls", cls);
      std::vector<Request> w;
      w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
      const CascadeSummary s = server.run_cascade(
          two_stage("det", "cls", gate_max_at_least(g.threshold)),
          std::move(w));
      expect_nothing_lost(s);
      ASSERT_EQ(s.ok, 1);
      const CascadeRequestResult& rr = s.results[0];
      if (g.expect_pass) {
        EXPECT_EQ(s.full_runs, 1);
        ASSERT_EQ(rr.stages.size(), 2u);
        EXPECT_TRUE(rr.stages[0].gate_passed);
        EXPECT_TRUE(
            testing::expect_bitexact(rr.result.output, ref_cls.output))
            << "cascade result diverged from the chained classifier";
        EXPECT_EQ(s.stages[0].gate_passed, 1);
        EXPECT_EQ(s.stages[1].entered, 1);
      } else {
        EXPECT_EQ(s.gated_out, 1);
        ASSERT_EQ(rr.stages.size(), 1u);
        EXPECT_TRUE(rr.gated_out);
        EXPECT_TRUE(
            testing::expect_bitexact(rr.result.output, ref_det.output))
            << "gated-out result is not the detector's output";
        EXPECT_EQ(s.stages[0].gate_stopped, 1);
        EXPECT_EQ(s.stages[1].entered, 0);
      }
    }
  }
}

// A mid-cascade stop in a 3-stage pipeline: stage 0 passes, stage 1 stops
// — the request enters exactly 2 stages and carries stage 1's output.
TEST_F(CascadeTest, GateStopsMidwayThroughThreeStages) {
  const auto spec = models::quicknet(10);
  const std::string a = save_model("three_a", spec, 920);
  const std::string b = save_model("three_b", spec, 921);
  const std::string c = save_model("three_c", spec, 922);
  const core::Blob input = cifar(5);
  const core::ForwardResult ref_a = reference(a, input);
  const core::ForwardResult ref_b = reference(b, input);

  ModelServer server(*engine_);
  server.load_model("a", a);
  server.load_model("b", b);
  server.load_model("c", c);
  CascadeSpec spec3;
  spec3.name = "three";
  spec3.stages.push_back(
      CascadeStageSpec{"a", gate_max_at_least(max_logit(ref_a) - 1.0f)});
  spec3.stages.push_back(
      CascadeStageSpec{"b", gate_max_at_least(max_logit(ref_b) + 1.0f)});
  spec3.stages.push_back(CascadeStageSpec{"c", StageGate{}});

  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
  const CascadeSummary s = server.run_cascade(spec3, std::move(w));
  expect_nothing_lost(s);
  ASSERT_EQ(s.gated_out, 1);
  const CascadeRequestResult& rr = s.results[0];
  ASSERT_EQ(rr.stages.size(), 2u);
  EXPECT_TRUE(rr.stages[0].gate_passed);
  EXPECT_FALSE(rr.stages[1].gate_passed);
  EXPECT_TRUE(testing::expect_bitexact(rr.result.output, ref_b.output));
  EXPECT_EQ(s.stages[2].entered, 0);
}

// ---------------------------------------------------------------------------
// 2. Packed-input reuse: later stages are cheaper, identically correct.
// ---------------------------------------------------------------------------

// On an idle server, a single request's stage latencies ARE the stages'
// modeled costs. The classifier (same geometry, planes already split) must
// price strictly below the detector, be flagged as a reuse run, and still
// produce the chained-forward bits.
TEST_F(CascadeTest, LaterStageReusesInputPlanesAndPricesCheaper) {
  const auto spec = models::quicknet(10);
  const std::string det = save_model("reuse_det", spec, 930);
  const std::string cls = save_model("reuse_cls", spec, 931);
  const core::Blob input = cifar(9);
  const core::ForwardResult ref_cls = reference(cls, input);

  ModelServer server(*engine_);
  server.load_model("det", det);
  server.load_model("cls", cls);
  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
  const CascadeSummary s = server.run_cascade(
      two_stage("det", "cls", StageGate{}), std::move(w));
  ASSERT_EQ(s.full_runs, 1);
  const CascadeRequestResult& rr = s.results[0];
  ASSERT_EQ(rr.stages.size(), 2u);
  EXPECT_FALSE(rr.stages[0].reused_planes);
  ASSERT_TRUE(rr.stages[1].reused_planes)
      << "quicknet's interior-split input conv should be cache-active";
  EXPECT_LT(rr.stages[1].latency_ms, rr.stages[0].latency_ms)
      << "the split-skipped stage must price strictly cheaper";
  EXPECT_EQ(s.stages[1].reused_planes, 1);
  EXPECT_TRUE(testing::expect_bitexact(rr.result.output, ref_cls.output));
}

// The plane cache holds kernel 1's dense im2col panel, which depends on the
// conv1 geometry as well as on the input, so it is keyed on both. Three
// stages over the same 32x32x3 input: a 3x3 conv1, then a 5x5 conv1 (same
// output extent) that must REFILL the cache rather than read the 3x3 panel,
// then another 5x5 model that reuses the refilled panel. Each cascade
// prefix must bit-match the manually chained forward of its last stage, on
// ModelServer and on a one-shard fleet, and only the third stage prices
// and flags as a reuse run.
TEST_F(CascadeTest, StagesWithDifferentConv1GeometryRekeyThePlaneCache) {
  const auto spec3 = models::quicknet(10);
  auto spec5 = spec3;
  ConvGeometry& g5 = std::get<core::ConvLayerSpec>(spec5.layers[0]).geom;
  g5.kernel_h = g5.kernel_w = 5;
  g5.pad_h = g5.pad_w = 2;
  const EngineOptions opts;
  const std::string a = save_model("geom_a", spec3, 950, opts, "sd855");
  const std::string b = save_model("geom_b", spec5, 951, opts, "sd855");
  const std::string c = save_model("geom_c", spec5, 952, opts, "sd855");
  const core::Blob input = cifar(13);
  const core::ForwardResult ref_a = reference(a, input);
  const core::ForwardResult ref_b = reference(b, input);
  const core::ForwardResult ref_c = reference(c, input);

  CascadeSpec two;
  two.name = "a-b";
  two.stages.push_back(
      CascadeStageSpec{"a", gate_max_at_least(max_logit(ref_a) - 1.0f)});
  two.stages.push_back(CascadeStageSpec{"b", StageGate{}});
  CascadeSpec three = two;
  three.name = "a-b-c";
  three.stages[1].gate = gate_max_at_least(max_logit(ref_b) - 1.0f);
  three.stages.push_back(CascadeStageSpec{"c", StageGate{}});

  const auto check = [&](const CascadeSummary& s, const core::Blob& want,
                         const std::vector<bool>& reused) {
    expect_nothing_lost(s);
    ASSERT_EQ(s.full_runs, 1);
    const CascadeRequestResult& rr = s.results[0];
    ASSERT_EQ(rr.stages.size(), reused.size());
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(rr.stages[i].reused_planes, reused[i]) << "stage " << i;
    }
    EXPECT_TRUE(testing::expect_bitexact(rr.result.output, want))
        << "cascade diverged from the chained forward of its last stage";
  };
  const auto one = [&] {
    std::vector<Request> w;
    w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
    return w;
  };

  ModelServer server(*engine_);
  server.load_model("a", a);
  server.load_model("b", b);
  server.load_model("c", c);
  check(server.run_cascade(two, one()), ref_b.output, {false, false});
  const CascadeSummary s3 = server.run_cascade(three, one());
  check(s3, ref_c.output, {false, false, true});
  EXPECT_LT(s3.results[0].stages[2].latency_ms,
            s3.results[0].stages[1].latency_ms)
      << "the same-geometry stage must price below the refilling one";

  FleetConfig cfg;
  cfg.shards.push_back(ShardSpec{"flag", "sd855", 2});
  cfg.exec_workers = 2;
  FleetServer fleet(cfg);
  fleet.load_model("a", {a});
  fleet.load_model("b", {b});
  fleet.load_model("c", {c});
  check(fleet.run_cascade(two, one()), ref_b.output, {false, false});
  check(fleet.run_cascade(three, one()), ref_c.output, {false, false, true});
}

// ---------------------------------------------------------------------------
// 3. Compressed artifacts per stage.
// ---------------------------------------------------------------------------

TEST_F(CascadeTest, CompressedArtifactsPerStageServeBitExact) {
  const auto spec = models::quicknet(10);
  EngineOptions comp;
  comp.weight_compress = core::WeightCompress::kAuto;
  const std::string det =
      save_model("comp_det", spec, 940, comp, {}, /*redundant=*/true);
  const std::string cls =
      save_model("comp_cls", spec, 941, comp, {}, /*redundant=*/true);
  const core::Blob input = cifar(13);
  const core::ForwardResult ref_cls = reference(cls, input);

  ModelServer server(*engine_);
  server.load_model("det", det);
  server.load_model("cls", cls);
  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
  const CascadeSummary s = server.run_cascade(
      two_stage("det", "cls", StageGate{}), std::move(w));
  ASSERT_EQ(s.full_runs, 1);
  EXPECT_TRUE(testing::expect_bitexact(s.results[0].result.output,
                                       ref_cls.output))
      << "compressed cascade stages served different bits";
}

// ---------------------------------------------------------------------------
// 4. Warm zero-alloc serving.
// ---------------------------------------------------------------------------

// A warm 2-stage cascade allocates exactly one owned output tensor per
// executed stage forward — inputs are borrowed (never copied per stage)
// and the plane caches live outside the tensor-allocation hook.
TEST_F(CascadeTest, WarmCascadeAllocatesOnlyStageOutputs) {
  const auto spec = models::quicknet(10);
  const std::string det = save_model("warm_det", spec, 950);
  const std::string cls = save_model("warm_cls", spec, 951);

  ModelServer server(*engine_);
  server.load_model("det", det);
  server.load_model("cls", cls);
  const CascadeSpec cascade = two_stage("det", "cls", StageGate{});

  // Warm-up: probes, sessions, plan caches, arena growth.
  const CascadeSummary warm =
      server.run_cascade(cascade, steady(6, 100, 5.0));
  ASSERT_EQ(warm.full_runs, 6);

  // Steady state: workload minted BEFORE the window, so the only counted
  // allocations are each executed stage's owned output (2 per request).
  std::vector<Request> work = steady(6, 200, 5.0);
  const std::int64_t allocs_before = buffer_alloc_count();
  const CascadeSummary s = server.run_cascade(cascade, std::move(work));
  ASSERT_EQ(s.full_runs, 6);
  EXPECT_EQ(buffer_alloc_count() - allocs_before, std::int64_t{2} * 6)
      << "a warm cascade forward heap-allocated beyond its stage outputs";
}

// ---------------------------------------------------------------------------
// 5. Cascade-level deadline budget.
// ---------------------------------------------------------------------------

// One deadline spans the whole walk: a budget that the detector alone
// nearly consumes expires the request at the CLASSIFIER's dispatch — the
// same budget on a single-stage trace would have completed Ok.
TEST_F(CascadeTest, DeadlineBudgetSpansStages) {
  const auto spec = models::quicknet(10);
  const std::string det = save_model("dl_det", spec, 960);
  const std::string cls = save_model("dl_cls", spec, 961);
  const core::Blob input = cifar(21);

  ModelServer server(*engine_);
  server.load_model("det", det);
  server.load_model("cls", cls);
  const CascadeSpec cascade = two_stage("det", "cls", StageGate{});

  // Probe the detector's modeled cost via an unconstrained run.
  std::vector<Request> probe;
  probe.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
  const CascadeSummary free_run =
      server.run_cascade(cascade, std::move(probe));
  ASSERT_EQ(free_run.full_runs, 1);
  const double det_ms = free_run.results[0].stages[0].latency_ms;

  // Deadline below the detector's cost: stage 0 dispatches inside the
  // budget (and, once started, completes — attempts are never killed
  // mid-run), but stage 1's dispatch at t0 + det_ms is already expired.
  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{input}, 0.0, det_ms * 0.5});
  const CascadeSummary s = server.run_cascade(cascade, std::move(w));
  expect_nothing_lost(s);
  EXPECT_EQ(s.deadline_exceeded, 1);
  const CascadeRequestResult& rr = s.results[0];
  ASSERT_EQ(rr.stages.size(), 2u);
  EXPECT_EQ(rr.stages[0].status.code, StatusCode::kOk);
  EXPECT_EQ(rr.stages[1].status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.stages[1].deadline_exceeded, 1);

  // The same budget with a lone detector stage completes Ok.
  CascadeSpec solo;
  solo.name = "solo";
  solo.stages.push_back(CascadeStageSpec{"det", StageGate{}});
  std::vector<Request> w2;
  w2.push_back(Request{"", core::Blob{input}, 0.0, det_ms * 0.5});
  const CascadeSummary s2 = server.run_cascade(solo, std::move(w2));
  EXPECT_EQ(s2.ok, 1);
}

// ---------------------------------------------------------------------------
// 6. Per-stage hot-swap.
// ---------------------------------------------------------------------------

// Swapping the CLASSIFIER mid-trace: the request dispatched before the
// swap serves v1, the one after serves v2 — the detector stage (and the
// cascade) never drains, and both outputs bit-match their version.
TEST_F(CascadeTest, PerStageHotSwapRoutesLaterRequestsToNewVersion) {
  const auto spec = models::quicknet(10);
  const std::string det = save_model("swap_det", spec, 970);
  const std::string cls_v1 = save_model("swap_cls_v1", spec, 971);
  const std::string cls_v2 = save_model("swap_cls_v2", spec, 972);
  const core::Blob in_a = cifar(31);
  const core::Blob in_b = cifar(32);

  ModelServer server(*engine_);
  server.load_model("det", det);
  server.load_model("cls", cls_v1);
  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{in_a}, 0.0, 0.0});
  w.push_back(Request{"", core::Blob{in_b}, 1000.0, 0.0});
  std::vector<SwapEvent> swaps;
  swaps.push_back(SwapEvent{500.0, "cls", cls_v2});
  const CascadeSummary s = server.run_cascade(
      two_stage("det", "cls", StageGate{}), std::move(w), std::move(swaps));
  expect_nothing_lost(s);
  ASSERT_EQ(s.full_runs, 2);
  EXPECT_EQ(s.swaps, 1);
  ASSERT_EQ(s.results[0].stages.size(), 2u);
  ASSERT_EQ(s.results[1].stages.size(), 2u);
  EXPECT_EQ(s.results[0].stages[1].plan_version, 1u);
  EXPECT_EQ(s.results[1].stages[1].plan_version, 2u);
  EXPECT_EQ(s.results[0].stages[0].plan_version, 1u);
  EXPECT_EQ(s.results[1].stages[0].plan_version, 1u);
  EXPECT_TRUE(testing::expect_bitexact(s.results[0].result.output,
                                       reference(cls_v1, in_a).output));
  EXPECT_TRUE(testing::expect_bitexact(s.results[1].result.output,
                                       reference(cls_v2, in_b).output));
}

// ---------------------------------------------------------------------------
// 7. Fleet cascades: independent per-stage placement + reuse affinity.
// ---------------------------------------------------------------------------

// When only shard 0 serves the detector and only shard 1 the classifier,
// one request's two stages land on DIFFERENT shards — and the output still
// bit-matches the chained reference (no cross-shard plane reuse).
TEST_F(CascadeTest, FleetStagesPlaceIndependentlyAcrossShards) {
  const auto spec = models::quicknet(10);
  EngineOptions opts;
  const std::string det855 = save_model("fp_det", spec, 980, opts, "sd855");
  const std::string cls625 = save_model("fp_cls", spec, 981, opts, "sd625");
  const core::Blob input = cifar(41);

  FleetConfig cfg;
  cfg.shards.push_back(ShardSpec{"flag", "sd855", 2});
  cfg.shards.push_back(ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = 2;
  FleetServer fleet(cfg);
  fleet.load_model("det", {det855, ""});
  fleet.load_model("cls", {"", cls625});

  std::vector<Request> w;
  w.push_back(Request{"", core::Blob{input}, 0.0, 0.0});
  const CascadeSummary s = fleet.run_cascade(
      two_stage("det", "cls", StageGate{}), std::move(w));
  expect_nothing_lost(s);
  ASSERT_EQ(s.full_runs, 1);
  const CascadeRequestResult& rr = s.results[0];
  ASSERT_EQ(rr.stages.size(), 2u);
  EXPECT_EQ(rr.stages[0].shard, 0);
  EXPECT_EQ(rr.stages[1].shard, 1);
  EXPECT_FALSE(rr.stages[1].reused_planes)
      << "planes filled on shard 0 must not be reused on shard 1";
  ASSERT_EQ(s.stage_assignment.size(), 2u);
  EXPECT_EQ(s.stage_assignment[0], (std::vector<int>{1, 0}));
  EXPECT_EQ(s.stage_assignment[1], (std::vector<int>{0, 1}));
  EXPECT_TRUE(testing::expect_bitexact(rr.result.output,
                                       reference(cls625, input).output));
}

// When every shard serves both stages, an idle fleet keeps a request's
// second stage on the shard already holding its input planes: the reuse
// discount (priced per shard from the probe's dual event logs) makes the
// home shard's score strictly best, and the executed stage is cheaper
// than the first. The flagship sits at shard INDEX 1, so neither stage's
// placement is explicable by the lowest-index tie-break.
TEST_F(CascadeTest, FleetReuseAffinityKeepsLaterStagesOnHomeShard) {
  const auto spec = models::quicknet(10);
  EngineOptions opts;
  std::vector<std::string> det_paths, cls_paths;
  for (const std::string key : {"sd660", "sd855"}) {
    det_paths.push_back(save_model("fa_det_" + key, spec, 982, opts, key));
    cls_paths.push_back(save_model("fa_cls_" + key, spec, 983, opts, key));
  }

  FleetConfig cfg;
  cfg.shards.push_back(ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(ShardSpec{"flag", "sd855", 2});
  cfg.exec_workers = 2;
  FleetServer fleet(cfg);
  fleet.load_model("det", det_paths);
  fleet.load_model("cls", cls_paths);

  // One request on an idle fleet: placement is pure modeled cost. The
  // flagship wins stage 0; stage 1 stays home because reuse-on-sd855
  // undercuts plain-on-sd660 AND plain-on-sd855.
  const CascadeSummary s = fleet.run_cascade(
      two_stage("det", "cls", StageGate{}), steady(1, 300, 0.0));
  expect_nothing_lost(s);
  ASSERT_EQ(s.full_runs, 1);
  const CascadeRequestResult& rr = s.results[0];
  ASSERT_EQ(rr.stages.size(), 2u);
  EXPECT_EQ(rr.stages[0].shard, 1);
  EXPECT_EQ(rr.stages[1].shard, 1);
  EXPECT_FALSE(rr.stages[0].reused_planes);
  EXPECT_TRUE(rr.stages[1].reused_planes);
  EXPECT_LT(rr.stages[1].latency_ms, rr.stages[0].latency_ms)
      << "fleet reuse pricing did not discount the home-shard stage";
  EXPECT_EQ(s.stage_assignment[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(s.stage_assignment[1], (std::vector<int>{0, 1}));
  EXPECT_EQ(s.stages[1].reused_planes, 1);
}

// ---------------------------------------------------------------------------
// 8. The deterministic cascade soak (the `cascade_soak` ctest).
// ---------------------------------------------------------------------------

/// 1050 requests: steady traffic tight enough to queue every tier, two
/// overload bursts, a tail that drains (the fleet_soak trace shape).
std::vector<Request> cascade_soak_trace() {
  auto steady_req = [](int n, std::uint64_t seed, double gap,
                       double start) {
    std::vector<Request> w;
    for (int i = 0; i < n; ++i) {
      Request r;
      r.input = core::Blob{
          datasets::cifar_like_image(seed + static_cast<std::uint64_t>(i))};
      r.arrival_ms = start + gap * i;
      w.push_back(std::move(r));
    }
    return w;
  };
  std::vector<Request> w = steady_req(800, 1000, 0.3, 0.0);
  for (Request& r : steady_req(120, 3000, 0.0, 110.0)) {
    w.push_back(std::move(r));  // burst 1
  }
  for (Request& r : steady_req(80, 4000, 0.0, 290.0)) {
    w.push_back(std::move(r));  // burst 2
  }
  for (Request& r : steady_req(50, 5000, 2.0, 440.0)) {
    w.push_back(std::move(r));  // drain tail
  }
  return w;
}

CascadeSummary cascade_soak_once(const std::vector<std::string>& det_paths,
                                 const std::vector<std::string>& cls_paths,
                                 float threshold, int exec_workers) {
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
  faults.seed = 0xCA5CADE;
  faults.transient_rate = 0.08;
  faults.spike_rate = 0.05;
  faults.spike_ms = 1.5;

  FleetServer fleet(cfg, faults, "cascade-soak");
  fleet.load_model("det", det_paths);
  fleet.load_model("cls", cls_paths);

  CascadeSpec spec;
  spec.name = "soak";
  spec.stages.push_back(CascadeStageSpec{"det", gate_max_at_least(threshold)});
  spec.stages.push_back(CascadeStageSpec{"cls", StageGate{}});
  return fleet.run_cascade(spec, cascade_soak_trace());
}

TEST_F(CascadeTest, SoakStagePlacementIsBitIdenticalAcrossWorkerCounts) {
  const auto spec = models::quicknet(10);
  EngineOptions opts;
  std::vector<std::string> det_paths, cls_paths;
  for (const std::string key : {"sd855", "sd660", "sd625"}) {
    det_paths.push_back(save_model("soak_det_" + key, spec, 990, opts, key));
    cls_paths.push_back(save_model("soak_cls_" + key, spec, 991, opts, key));
  }
  // A threshold near a typical max logit splits the gate verdicts — both
  // classes of terminal Ok must appear in the soak.
  const float threshold =
      max_logit(reference(det_paths[0], cifar(1000)));

  const CascadeSummary s1 =
      cascade_soak_once(det_paths, cls_paths, threshold, 1);
  expect_nothing_lost(s1);
  ASSERT_EQ(s1.requests, 1050);
  EXPECT_TRUE(testing::serving_invariants(
      s1, testing::arrivals_of(cascade_soak_trace()), /*lanes=*/2));
  EXPECT_GT(s1.ok, 0);
  EXPECT_GT(s1.shed, 0);
  EXPECT_GT(s1.retries, 0);
  EXPECT_GT(s1.gated_out, 0) << "gate never stopped a request — threshold "
                             << threshold << " gives no signal";
  EXPECT_GT(s1.full_runs, 0) << "gate never passed a request";

  const CascadeSummary s16 =
      cascade_soak_once(det_paths, cls_paths, threshold, 16);
  EXPECT_EQ(s1.ok, s16.ok);
  EXPECT_EQ(s1.shed, s16.shed);
  EXPECT_EQ(s1.deadline_exceeded, s16.deadline_exceeded);
  EXPECT_EQ(s1.failed, s16.failed);
  EXPECT_EQ(s1.retries, s16.retries);
  EXPECT_EQ(s1.gated_out, s16.gated_out);
  EXPECT_EQ(s1.full_runs, s16.full_runs);
  // The pinned histograms: per-(stage, shard) placement is a pure function
  // of the trace — real worker count must never move a single request.
  EXPECT_EQ(s1.stage_assignment, s16.stage_assignment);
  ASSERT_EQ(s1.results.size(), s16.results.size());
  for (std::size_t i = 0; i < s1.results.size(); ++i) {
    const CascadeRequestResult& a = s1.results[i];
    const CascadeRequestResult& b = s16.results[i];
    ASSERT_EQ(a.status.code, b.status.code) << "request " << i;
    EXPECT_EQ(a.gated_out, b.gated_out) << "request " << i;
    EXPECT_EQ(a.queue_ms, b.queue_ms) << "request " << i;
    EXPECT_EQ(a.latency_ms, b.latency_ms) << "request " << i;
    ASSERT_EQ(a.stages.size(), b.stages.size()) << "request " << i;
    for (std::size_t k = 0; k < a.stages.size(); ++k) {
      EXPECT_EQ(a.stages[k].status.code, b.stages[k].status.code)
          << "request " << i << " stage " << k;
      EXPECT_EQ(a.stages[k].shard, b.stages[k].shard)
          << "request " << i << " stage " << k;
      EXPECT_EQ(a.stages[k].spillovers, b.stages[k].spillovers)
          << "request " << i << " stage " << k;
      EXPECT_EQ(a.stages[k].attempts, b.stages[k].attempts)
          << "request " << i << " stage " << k;
      EXPECT_EQ(a.stages[k].retries, b.stages[k].retries)
          << "request " << i << " stage " << k;
      EXPECT_EQ(a.stages[k].reused_planes, b.stages[k].reused_planes)
          << "request " << i << " stage " << k;
    }
    if (a.status.ok()) {
      EXPECT_TRUE(testing::expect_bitexact(a.result.output, b.result.output))
          << "request " << i;
    }
  }

  // Per-stage accounting closes against the per-request walks.
  ASSERT_EQ(s1.stages.size(), 2u);
  EXPECT_EQ(s1.stages[0].entered, s1.requests);
  EXPECT_EQ(s1.stages[1].entered, s1.stages[0].gate_passed);
  EXPECT_EQ(s1.stages[0].gate_stopped, s1.gated_out);
}

// ---------------------------------------------------------------------------
// 9. Spec validation + gate failure as a value.
// ---------------------------------------------------------------------------

TEST_F(CascadeTest, InvalidSpecsThrowAndBadGateFailsAsValue) {
  const auto spec = models::quicknet(10);
  const std::string det = save_model("val_det", spec, 995);
  ModelServer server(*engine_);
  server.load_model("det", det);

  CascadeSpec empty;
  empty.name = "empty";
  EXPECT_THROW(server.run_cascade(empty, {}), InvalidArgument);

  CascadeSpec unnamed;
  unnamed.name = "unnamed-stage";
  unnamed.stages.push_back(CascadeStageSpec{"", StageGate{}});
  EXPECT_THROW(server.run_cascade(unnamed, {}), InvalidArgument);

  CascadeSpec too_deep;
  too_deep.name = "deep";
  for (int i = 0; i < serve::kMaxCascadeStages + 1; ++i) {
    too_deep.stages.push_back(CascadeStageSpec{"det", StageGate{}});
  }
  EXPECT_THROW(server.run_cascade(too_deep, {}), InvalidArgument);

  // A model that is not loaded fails the request (as a value), and later
  // requests are untouched.
  CascadeSpec missing = two_stage("det", "ghost", StageGate{});
  std::vector<Request> w;
  w.push_back(Request{"", cifar(1), 0.0, 0.0});
  const CascadeSummary s = server.run_cascade(missing, std::move(w));
  EXPECT_EQ(s.failed, 1);
  ASSERT_EQ(s.results[0].stages.size(), 2u);
  EXPECT_EQ(s.results[0].stages[1].status.code, StatusCode::kFailed);
}

}  // namespace
}  // namespace phonebit
