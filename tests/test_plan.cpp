// ExecutionPlan — the compile subsystem: shape inference + compile-time
// validation, buffer-liveness slot assignment and exact scratch peaks,
// ahead-of-time kernel selection (zero re-selection / zero arena growth on
// the compiled hot path), and bit-exactness of compiled vs uncompiled
// forwards across the model zoo.
#include <gtest/gtest.h>

#include <cstdio>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bnn_reference.hpp"
#include "core/artifact.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::BlobDesc;
using core::BlobKind;
using core::EngineOptions;
using core::ExecutionPlan;
using core::FloatModel;
using core::KernelVariant;

FloatModel quick_model(std::uint64_t seed = 81) {
  return FloatModel::random(models::quicknet(10), seed);
}

BlobDesc u8_desc(const Shape& s) { return BlobDesc{BlobKind::kU8, s}; }

TEST(Plan, ShapeInferenceWalksThePipeline) {
  const FloatModel model = quick_model();
  auto net = core::convert_to_phonebit(model);
  // Structural assertions about the one-step-per-layer pipeline use the
  // fusion-off configuration; the conv→pool rewrite has its own tests.
  EngineOptions opts;
  opts.fuse_conv_pool = false;
  const ExecutionPlan plan =
      net->compile(opts, u8_desc(model.spec.input));

  ASSERT_EQ(plan.steps().size(), net->size());
  EXPECT_EQ(plan.input().kind, BlobKind::kU8);
  EXPECT_EQ(plan.output().kind, BlobKind::kFloat);
  EXPECT_EQ(plan.output().shape.c, 10);
  // Every edge is consistent: step i's output is step i+1's input.
  for (std::size_t i = 0; i + 1 < plan.steps().size(); ++i) {
    EXPECT_EQ(plan.steps()[i].out, plan.steps()[i + 1].in) << "edge " << i;
  }
  // Linear pipeline -> ping-pong liveness: at most two activation slots,
  // intermediates alternate between them, the network output owns none.
  ASSERT_LE(plan.slots().size(), 2u);
  for (std::size_t i = 0; i + 1 < plan.steps().size(); ++i) {
    const int slot = plan.steps()[i].slot;
    ASSERT_GE(slot, 0);
    EXPECT_EQ(slot, static_cast<int>(i % 2));
    EXPECT_GE(plan.slots()[static_cast<std::size_t>(slot)].bytes,
              plan.steps()[i].out.bytes());
  }
  EXPECT_EQ(plan.steps().back().slot, -1);
  EXPECT_GT(plan.peak_activation_bytes(), 0);
}

TEST(Plan, CompiledMatchesUncompiledAcrossZoo) {
  struct Case {
    std::string name;
    core::NetworkSpec spec;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  cases.push_back({"quicknet", models::quicknet(10), 90});
  models::ZooOptions yolo_zoo;
  yolo_zoo.shrink_log2 = 3;
  cases.push_back({"yolov2-tiny", models::yolov2_tiny(yolo_zoo), 91});
  models::ZooOptions big_zoo;
  big_zoo.shrink_log2 = 4;
  cases.push_back({"alexnet", models::alexnet(big_zoo), 92});
  cases.push_back({"vgg16", models::vgg16(big_zoo), 93});

  for (const Case& c : cases) {
    const FloatModel model = FloatModel::random(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);
    core::Engine engine(testing::test_device());

    auto s1 = engine.create_session();
    auto ctx = s1.context();
    const auto uncompiled = net->forward(ctx, core::Blob{image});

    const ExecutionPlan plan = net->compile(engine, u8_desc(image.shape()));
    auto s2 = engine.create_session();
    const auto compiled = plan.run(s2, core::Blob{image});

    // Shared comparator: output bits AND modeled time must agree.
    EXPECT_TRUE(testing::expect_bitexact(compiled, uncompiled))
        << c.name << ": compiled forward diverged from uncompiled";
  }
}

TEST(Plan, CompiledMatchesBnnReference) {
  const FloatModel model = quick_model(95);
  const U8Tensor image = datasets::cifar_like_image(96);
  const auto ref = baselines::bnn_reference_forward(model, image);

  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan = net->compile(engine, u8_desc(image.shape()));
  auto session = engine.create_session();
  const auto result = plan.run(session, core::Blob{image});
  EXPECT_TRUE(allclose(result.float_output(), ref.output, 1e-3f));
}

/// The liveness pass's memory prediction is exact: a fresh arena, after one
/// compiled forward, holds exactly peak_scratch_bytes() + slab_bytes() (the
/// slot-backed activation slab) — across option sets exercising every conv
/// path (A, B, C, and the zeros-span legacy arm).
TEST(Plan, ArenaPeakMatchesLivenessPrediction) {
  struct OptCase {
    const char* label;
    EngineOptions opts;
  };
  std::vector<OptCase> cases;
  cases.push_back({"paper-default", EngineOptions{}});
  EngineOptions no_fuse;
  no_fuse.fuse_bn_binarize = false;  // path C: i32 sums + u8 bits
  cases.push_back({"no-fusion", no_fuse});
  EngineOptions no_integrate;
  no_integrate.integrate_packing = false;  // path B: u8 bit map
  cases.push_back({"separate-pack", no_integrate});
  EngineOptions taps;
  taps.interior_split = false;  // legacy zeros span in the words pool
  cases.push_back({"per-tap", taps});

  const FloatModel model = quick_model(97);
  const U8Tensor image = datasets::cifar_like_image(98);
  auto net = core::convert_to_phonebit(model);

  bool some_case_uses_scratch = false;
  for (const OptCase& c : cases) {
    core::Engine engine(testing::test_device(), c.opts);
    const ExecutionPlan plan = net->compile(engine, u8_desc(image.shape()));
    auto session = engine.create_session();
    // A fresh pool arena is cold: capacity after one forward must land
    // exactly on the liveness pass's number, not a geometric overshoot.
    ASSERT_EQ(session.arena().capacity_bytes(), 0) << c.label;
    plan.run(session, core::Blob{image});
    EXPECT_EQ(session.arena().capacity_bytes(),
              plan.peak_scratch_bytes() + plan.slab_bytes())
        << c.label;
    EXPECT_GT(plan.slab_bytes(), 0) << c.label;
    if (plan.peak_scratch_bytes() > 0) some_case_uses_scratch = true;
  }
  EXPECT_TRUE(some_case_uses_scratch);
}

TEST(Plan, ZeroGrowthAndZeroReselectionAfterCompile) {
  const FloatModel model = quick_model(99);
  const U8Tensor image = datasets::cifar_like_image(100);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan = net->compile(engine, u8_desc(image.shape()));

  auto session = engine.create_session();
  FloatTensor first(Shape{1, 1, 1, 1}, Layout::kNHWC);
  for (int i = 0; i < 3; ++i) {
    const auto result = plan.run(session, core::Blob{image});
    if (i == 0) {
      first = result.float_output();
    } else {
      EXPECT_TRUE(testing::expect_bitexact(result.float_output(), first))
          << i;
    }
    // Zero kernel-variant re-selection on the compiled path: selection
    // happened at compile (through the engine, not this session), so the
    // session's counter stays at zero while planned_runs advances.
    EXPECT_EQ(session.stats().variant_selections, 0) << "run " << i;
    EXPECT_EQ(session.stats().planned_runs, i + 1);
    // Zero arena growth after the first run's exact reservation.
    if (i == 0) continue;
    EXPECT_EQ(session.arena().capacity_bytes(),
              plan.peak_scratch_bytes() + plan.slab_bytes());
  }
  const int grows_after_first = session.arena().growth_events();
  plan.run(session, core::Blob{image});
  EXPECT_EQ(session.arena().growth_events(), grows_after_first);

  // The uncompiled wrapper, by contrast, re-plans every call: the selection
  // counter moves once per layer per forward.
  auto ctx = session.context();
  net->forward(ctx, core::Blob{image});
  EXPECT_EQ(session.stats().variant_selections,
            static_cast<std::int64_t>(net->size()));
  EXPECT_EQ(session.stats().compiles, 1);
  net->forward(ctx, core::Blob{image});
  EXPECT_EQ(session.stats().variant_selections,
            static_cast<std::int64_t>(2 * net->size()));
}

/// Malformed pipelines fail at compile time — with the offending layer in
/// the message — and never reach a kernel launch.
TEST(Plan, MalformedPipelineFailsAtCompile) {
  core::Engine engine(testing::test_device());

  // A BinaryConv2d first layer can't consume the 8-bit camera image.
  {
    const FloatTensor w = testing::random_sign_tensor(Shape{16, 3, 3, 8}, 1);
    core::Network net("wrong-kind");
    net.emplace<core::BinaryConv2d>("conv1", bitpack::pack_filter_signs(w),
                                    testing::random_bn(16, 2),
                                    std::vector<float>{}, ConvGeometry{});
    EXPECT_THROW(
        net.compile(engine, BlobDesc{BlobKind::kU8, Shape{1, 32, 32, 3}}),
        InvalidArgument);
  }

  // Channel mismatch mid-pipeline: conv2 expects 32 channels, gets 16.
  {
    ConvGeometry g;
    g.pad_h = g.pad_w = 1;
    const FloatTensor w1 = testing::random_sign_tensor(Shape{16, 3, 3, 3}, 3);
    const FloatTensor w2 =
        testing::random_sign_tensor(Shape{32, 3, 3, 32}, 4);
    core::Network net("channel-mismatch");
    net.emplace<core::InputConv2d>("conv1", bitpack::pack_filter_signs(w1),
                                   testing::random_bn(16, 5),
                                   std::vector<float>{}, g);
    net.emplace<core::BinaryConv2d>("conv2", bitpack::pack_filter_signs(w2),
                                    testing::random_bn(32, 6),
                                    std::vector<float>{}, g);
    try {
      net.compile(engine, BlobDesc{BlobKind::kU8, Shape{1, 32, 32, 3}});
      FAIL() << "compile accepted a channel-mismatched pipeline";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("conv2"), std::string::npos);
    }
    // The failure happened during compile: no session was involved, and a
    // forward through a session reports the same error before any launch.
    auto session = engine.create_session();
    auto ctx = session.context();
    EXPECT_THROW(net.forward(ctx, core::Blob{datasets::cifar_like_image(7)}),
                 InvalidArgument);
    EXPECT_EQ(session.queue().events().size(), 0u);
  }

  // A window larger than the padded input is a geometry error at compile.
  {
    ConvGeometry g;
    g.kernel_h = g.kernel_w = 9;
    const FloatTensor w = testing::random_sign_tensor(Shape{16, 9, 9, 3}, 8);
    core::Network net("window-too-big");
    net.emplace<core::InputConv2d>("conv1", bitpack::pack_filter_signs(w),
                                   testing::random_bn(16, 9),
                                   std::vector<float>{}, g);
    EXPECT_THROW(
        net.compile(engine, BlobDesc{BlobKind::kU8, Shape{1, 4, 4, 3}}),
        InvalidArgument);
  }

  // Empty networks can't compile.
  {
    core::Network net("empty");
    EXPECT_THROW(
        net.compile(engine, BlobDesc{BlobKind::kU8, Shape{1, 8, 8, 3}}),
        InvalidArgument);
  }
}

TEST(Plan, RunRejectsMismatchedInput) {
  const FloatModel model = quick_model(101);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan =
      net->compile(engine, u8_desc(model.spec.input));
  auto session = engine.create_session();
  // Wrong kind entirely.
  EXPECT_THROW(
      plan.run(session, core::Blob{FloatTensor(model.spec.input,
                                               Layout::kNHWC)}),
      InvalidArgument);
  // Right kind, wrong extent.
  EXPECT_THROW(plan.run(session,
                        core::Blob{datasets::random_image(
                            Shape{1, 16, 16, 3}, 102)}),
               InvalidArgument);
}

TEST(Plan, VariantsRecordAheadOfTimeSelection) {
  const FloatModel model = quick_model(103);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan =
      net->compile(engine, u8_desc(model.spec.input));

  // quicknet under paper defaults: every binary conv is narrow enough for
  // the fully fused path A with the interior split on (and, followed by
  // its pool, the conv→pool rewrite).
  bool saw_conv = false;
  for (const auto& step : plan.steps()) {
    if (step.variant.kernel.rfind("bconv_fused", 0) == 0) {
      saw_conv = true;
      EXPECT_EQ(step.variant.path, KernelVariant::Path::kConvFused);
      EXPECT_TRUE(step.variant.interior_split);
      EXPECT_GT(step.variant.tile_ow, 0);
    }
  }
  EXPECT_TRUE(saw_conv);

  // The ablation options flow into the compiled variants.
  EngineOptions unfused;
  unfused.fuse_bn_binarize = false;
  const ExecutionPlan plan_c =
      net->compile(unfused, u8_desc(model.spec.input));
  for (const auto& step : plan_c.steps()) {
    EXPECT_NE(step.variant.path, KernelVariant::Path::kConvFused)
        << step.layer->name();
  }
  EXPECT_GT(plan_c.scratch_peak().i32, 0);

  // dump() carries the plan_dump surface: slots, variants, peak bytes.
  const std::string dump = plan.dump();
  EXPECT_NE(dump.find("slot"), std::string::npos);
  EXPECT_NE(dump.find("pw="), std::string::npos);
  EXPECT_NE(dump.find("scratch peak"), std::string::npos);
  EXPECT_NE(dump.find("bconv_fused"), std::string::npos);
}

/// The conv→pool rewrite: fused plans collapse `BinaryConv2d → MaxPool`
/// chains into single steps with pooled output descriptors and per-slot
/// slab offsets, and the dump surfaces both.
TEST(Plan, FusesConvPoolChains) {
  const FloatModel model = quick_model(301);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan = net->compile(engine, u8_desc(model.spec.input));

  // quicknet: conv2+pool2 and conv3+pool3 fuse (conv1 is the bit-plane
  // input conv and keeps its own pool), so two steps disappear.
  ASSERT_EQ(plan.steps().size(), net->size() - 2);
  int fused_steps = 0;
  for (const auto& step : plan.steps()) {
    if (step.fused_pool == nullptr) continue;
    ++fused_steps;
    EXPECT_EQ(step.variant.path, KernelVariant::Path::kConvFused);
    EXPECT_NE(step.variant.kernel.find("+maxpool"), std::string::npos);
    // The pooled descriptor replaced the conv output; the conv output
    // survives only as the never-materialized fused_mid.
    EXPECT_EQ(step.out.shape.h, step.fused_mid.shape.h / 2);
    EXPECT_EQ(step.out.shape.c, step.fused_mid.shape.c);
    EXPECT_NE(step.name().find("+pool"), std::string::npos);
  }
  EXPECT_EQ(fused_steps, 2);

  // Slots are sized/offset for the POOLED blobs; the dump prints fused
  // kernels and per-slot backing offsets.
  const std::string dump = plan.dump();
  EXPECT_NE(dump.find("+maxpool"), std::string::npos);
  EXPECT_NE(dump.find("@"), std::string::npos);
  EXPECT_NE(dump.find("activation slab"), std::string::npos);

  // The ablation switch restores one step per layer.
  EngineOptions unfused;
  unfused.fuse_conv_pool = false;
  EXPECT_EQ(net->compile(unfused, u8_desc(model.spec.input)).steps().size(),
            net->size());
}

/// Zoo-wide fused-vs-unfused bit-exactness: the fused epilogue's in-register
/// pool must reproduce the separate pool step exactly.
TEST(Plan, FusedMatchesUnfusedAcrossZoo) {
  struct Case {
    std::string name;
    core::NetworkSpec spec;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  cases.push_back({"quicknet", models::quicknet(10), 310});
  models::ZooOptions yolo_zoo;
  yolo_zoo.shrink_log2 = 3;
  cases.push_back({"yolov2-tiny", models::yolov2_tiny(yolo_zoo), 311});
  models::ZooOptions big_zoo;
  big_zoo.shrink_log2 = 4;
  cases.push_back({"alexnet", models::alexnet(big_zoo), 312});
  cases.push_back({"vgg16", models::vgg16(big_zoo), 313});

  for (const Case& c : cases) {
    const FloatModel model = FloatModel::random(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);
    core::Engine engine(testing::test_device());

    EngineOptions fused_opts = engine.options();
    fused_opts.fuse_conv_pool = true;
    EngineOptions unfused_opts = engine.options();
    unfused_opts.fuse_conv_pool = false;
    const ExecutionPlan fused =
        net->compile(fused_opts, u8_desc(image.shape()));
    const ExecutionPlan unfused =
        net->compile(unfused_opts, u8_desc(image.shape()));

    auto s1 = engine.create_session();
    auto s2 = engine.create_session();
    const auto a = fused.run(s1, core::Blob{image});
    const auto b = unfused.run(s2, core::Blob{image});
    // Output bits only — fusion legitimately CHANGES the modeled time
    // (that is the point), so the ForwardResult overload does not apply.
    EXPECT_TRUE(testing::expect_bitexact(a.output, b.output))
        << c.name << ": fused forward diverged from unfused";
    EXPECT_LE(a.modeled_ms, b.modeled_ms)
        << c.name << ": fusion did not help modeled time";
  }
}

namespace fusion_cases {

/// Two-layer conv→pool net over a packed input, fused vs unfused.
void expect_fused_bit_exact(std::int64_t hw, std::int64_t c_in,
                            std::int64_t c_out, std::int64_t conv_stride,
                            core::PoolGeometry pg, bool expect_fused,
                            std::uint64_t seed) {
  ConvGeometry g;
  g.stride_h = g.stride_w = conv_stride;
  g.pad_h = g.pad_w = 1;
  const FloatTensor w =
      testing::random_sign_tensor(Shape{c_out, 3, 3, c_in}, seed);
  core::Network net("conv-pool");
  net.emplace<core::BinaryConv2d>("conv", bitpack::pack_filter_signs(w),
                                  testing::random_bn(c_out, seed + 1),
                                  std::vector<float>{}, g);
  net.emplace<core::MaxPool2d>("pool", pg);

  const FloatTensor acts =
      testing::random_sign_tensor(Shape{1, hw, hw, c_in}, seed + 2);
  const core::Blob input{bitpack::pack_signs(acts)};
  const BlobDesc desc = core::describe_blob(input);

  core::Engine engine(testing::test_device());
  EngineOptions fused_opts = engine.options();
  EngineOptions unfused_opts = engine.options();
  unfused_opts.fuse_conv_pool = false;
  const ExecutionPlan fused = net.compile(fused_opts, desc);
  const ExecutionPlan unfused = net.compile(unfused_opts, desc);
  EXPECT_EQ(fused.steps().size(), expect_fused ? 1u : 2u)
      << hw << "x" << hw << " stride " << conv_stride;

  auto s1 = engine.create_session();
  auto s2 = engine.create_session();
  const auto a = fused.run(s1, input);
  const auto b = unfused.run(s2, input);
  EXPECT_TRUE(phonebit::testing::expect_bitexact(a.output, b.output))
      << "pooled bits diverged (" << hw << "x" << hw << ", conv stride "
      << conv_stride << ")";
}

}  // namespace fusion_cases

/// Fusion correctness at the geometry edges: odd spatial dims where the
/// tail-padded pool window clamps, a stride-2 conv feeding the pool, and
/// the legality rules (overlapping windows and non-path-A convs do NOT
/// fuse).
TEST(Plan, FusionHandlesClampedAndStridedPools) {
  // Odd conv output (9x9) + darknet-style tail_pad stride-2 pool: output
  // ceil(9/2) = 5, the last window row/column clamps to in-bounds taps.
  core::PoolGeometry tail;
  tail.size = 2;
  tail.stride = 2;
  tail.tail_pad = true;
  fusion_cases::expect_fused_bit_exact(9, 64, 16, 1, tail, true, 320);

  // Even input, plain 2x2/s2 pool, conv stride 2 feeding it.
  core::PoolGeometry plain;
  plain.size = 2;
  plain.stride = 2;
  fusion_cases::expect_fused_bit_exact(17, 64, 16, 2, plain, true, 321);

  // Odd input with the non-padded pool (window never clamps, trailing row
  // dropped) — still fused, still exact.
  fusion_cases::expect_fused_bit_exact(11, 64, 24, 1, plain, true, 322);

  // Lead-padded pool (pad=1, stride==size): the first window starts at
  // -1, exercising the fused kernel's negative-cx/cy clamp.
  core::PoolGeometry lead;
  lead.size = 2;
  lead.stride = 2;
  lead.pad = 1;
  fusion_cases::expect_fused_bit_exact(9, 64, 16, 1, lead, true, 324);

  // Legality: YOLOv2-Tiny's overlapping stride-1 "same" pool would
  // recompute conv outputs — stays a separate step (and stays correct).
  core::PoolGeometry same;
  same.size = 2;
  same.stride = 1;
  same.tail_pad = true;
  fusion_cases::expect_fused_bit_exact(9, 64, 16, 1, same, false, 323);
}

/// Legality: only path-A convs fuse — a conv compiled to the separate-pack
/// path B (channels above the private-memory threshold) keeps its pool.
TEST(Plan, FusionSkipsNonPathAConvs) {
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;
  const FloatTensor w =
      testing::random_sign_tensor(Shape{16, 3, 3, 64}, 330);
  core::Network net("wide-conv-pool");
  net.emplace<core::BinaryConv2d>("conv", bitpack::pack_filter_signs(w),
                                  testing::random_bn(16, 331),
                                  std::vector<float>{}, g);
  core::PoolGeometry pg;
  net.emplace<core::MaxPool2d>("pool", pg);

  EngineOptions opts;
  opts.packing_channel_threshold = 32;  // force path B for c_in = 64
  opts.conv_path = core::ConvPathPreference::kRowFused;  // keep D out of it
  const ExecutionPlan plan = net.compile(
      opts, BlobDesc{BlobKind::kPacked, Shape{1, 8, 8, 64}});
  ASSERT_EQ(plan.steps().size(), 2u);
  EXPECT_EQ(plan.steps()[0].variant.path,
            KernelVariant::Path::kConvSeparatePack);
  EXPECT_EQ(plan.steps()[0].fused_pool, nullptr);
}

/// One plan, many sessions: concurrent compiled forwards are bit-exact and
/// the shared plan never re-selects.
TEST(Plan, SharedAcrossConcurrentSessions) {
  const FloatModel model = quick_model(105);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan =
      net->compile(engine, u8_desc(model.spec.input));

  std::vector<U8Tensor> images;
  for (int i = 0; i < 8; ++i) {
    images.push_back(
        datasets::cifar_like_image(400 + static_cast<std::uint64_t>(i)));
  }
  std::vector<FloatTensor> serial;
  for (const auto& img : images) {
    auto session = engine.create_session();
    serial.push_back(plan.run(session, core::Blob{img}).float_output());
  }

  std::vector<FloatTensor> out(images.size(),
                               FloatTensor(Shape{1, 1, 1, 1}, Layout::kNHWC));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int f = 0; f < 2; ++f) {
        const std::size_t i = static_cast<std::size_t>(t * 2 + f);
        auto session = engine.create_session();
        out[i] = plan.run(session, core::Blob{images[i]}).float_output();
        EXPECT_EQ(session.stats().variant_selections, 0);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(testing::expect_bitexact(out[i], serial[i]))
        << "forward " << i;
  }
}

// ---------------------------------------------------------------------------
// Plan pricing: the launches a plan stores at compile ARE what dispatch
// enqueues, and ExecutionPlan::modeled_ms is a live run's total.
// ---------------------------------------------------------------------------

using core::WeightCompress;  // for pasted check_pricing_case lines

/// Field-by-field equality of two kernel tallies (exact doubles): a plan
/// step's stored launch against the event a live run recorded for it.
::testing::AssertionResult same_cost(const oclsim::KernelCost& a,
                                      const oclsim::KernelCost& b) {
#define PB_SAME_FIELD(f)                                                  \
  if (!(a.f == b.f)) {                                                    \
    return ::testing::AssertionFailure()                                  \
           << std::setprecision(17) << "KernelCost." #f " differs: "      \
           << a.f << " vs " << b.f;                                       \
  }
  PB_SAME_FIELD(scalar_ops)
  PB_SAME_FIELD(bitop_bits)
  PB_SAME_FIELD(pack_width_bits)
  PB_SAME_FIELD(instr_overhead_cycles)
  PB_SAME_FIELD(span_count)
  PB_SAME_FIELD(span_setup_cycles)
  PB_SAME_FIELD(bytes_read)
  PB_SAME_FIELD(bytes_written)
  PB_SAME_FIELD(coalescing)
  PB_SAME_FIELD(alu_efficiency)
  PB_SAME_FIELD(overlap_mem)
  PB_SAME_FIELD(int8_ops)
  PB_SAME_FIELD(launches)
#undef PB_SAME_FIELD
  return ::testing::AssertionSuccess();
}

/// One cell of the plan-pricing grid: a zoo net in its shrunk test size,
/// compiled under options that reach one conv path, one weight-compression
/// mode, interior split and conv→pool fusion on or off, batch size N.
struct PricingCase {
  std::string net;  ///< "quicknet", "yolov2-tiny", "alexnet" or "vgg16"
  char path = 'a';  ///< 'A', 'B', 'C', 'D', or 'a' for roofline selection
  core::WeightCompress compress = core::WeightCompress::kOff;
  bool split = true;
  bool fuse_pool = true;
  std::int64_t n = 1;

  core::EngineOptions options() const {
    core::EngineOptions o;
    o.weight_compress = compress;
    o.interior_split = split;
    o.fuse_conv_pool = fuse_pool;
    switch (path) {
      case 'A':  // path B still takes layers past the channel threshold
        o.conv_path = core::ConvPathPreference::kRowFused;
        break;
      case 'B':
        o.conv_path = core::ConvPathPreference::kRowFused;
        o.integrate_packing = false;
        break;
      case 'C':
        o.fuse_bn_binarize = false;
        break;
      case 'D':
        o.conv_path = core::ConvPathPreference::kGemm;
        break;
      default:
        break;
    }
    return o;
  }

  /// A pasteable reproducer line for `fn`.
  std::string repro(const char* fn) const {
    std::ostringstream os;
    os << std::boolalpha << "repro: " << fn << "({\"" << net << "\", '"
       << path << "', WeightCompress::"
       << (compress == core::WeightCompress::kOff ? "kOff" : "kAuto") << ", "
       << split << ", "
       << fuse_pool << ", " << n << "});";
    return os.str();
  }
};

/// Every cell of the grid: 4 nets x paths {auto, A, B, C, D} x
/// compression {kOff, kAuto} x split x fusion x N {1, 3}.
std::vector<PricingCase> pricing_grid() {
  std::vector<PricingCase> grid;
  for (const char* net : {"quicknet", "yolov2-tiny", "alexnet", "vgg16"}) {
    for (const char path : {'a', 'A', 'B', 'C', 'D'}) {
      for (const auto wc :
           {core::WeightCompress::kOff, core::WeightCompress::kAuto}) {
        for (const bool split : {true, false}) {
          for (const bool fuse : {true, false}) {
            for (const std::int64_t n : {1, 3}) {
              grid.push_back({net, path, wc, split, fuse, n});
            }
          }
        }
      }
    }
  }
  return grid;
}

/// A grid net, converted once per process: clustered weights
/// (FloatModel::random_redundant), so kAuto stores compressed banks.
/// `input` is the net's N = 1 input shape.
struct PricingNet {
  std::unique_ptr<core::Network> net;
  Shape input;
};
const PricingNet& pricing_net(const std::string& name) {
  static std::map<std::string, PricingNet> cache;
  if (const auto it = cache.find(name); it != cache.end()) return it->second;
  models::ZooOptions zoo;
  zoo.shrink_log2 = name == "yolov2-tiny" ? 3 : 4;
  const bool quick = name == "quicknet", yolo = name == "yolov2-tiny",
             alex = name == "alexnet";
  const core::NetworkSpec spec = quick  ? models::quicknet(10)
                                 : yolo ? models::yolov2_tiny(zoo)
                                 : alex ? models::alexnet(zoo)
                                        : models::vgg16(zoo);
  const core::FloatModel model = core::FloatModel::random_redundant(
      spec, quick ? 701 : yolo ? 702 : alex ? 703 : 704);
  return cache[name] = PricingNet{core::convert_to_phonebit(model), spec.input};
}

/// Variants a grid cell's plan reached, as bits of `Reached`.
enum Reached : unsigned {
  kPathA = 1u << 0,
  kPathB = 1u << 1,
  kPathC = 1u << 2,
  kPathD = 1u << 3,
  kFusedPool = 1u << 4,
  kPlanes = 1u << 5,
};

/// One grid cell: the plan's stored launches must match the events a live
/// SD855 run records (same order; names and KernelCost field by field);
/// modeled_ms(p) must EXPECT_EQ (exact doubles) that run's
/// total_modeled_ms() on SD855 and on SD625; and a run whose plane cache
/// already holds the input must total modeled_ms(p, /*planes_hit=*/true).
/// Launches are derived state, never serialized: the same plan saved and
/// loaded back is priced again by the artifact decoder and must pass the
/// same checks. Returns the Reached bits of the plan.
unsigned check_pricing_case(const PricingCase& c) {
  SCOPED_TRACE(c.repro("check_pricing_case"));
  static core::Engine e855(testing::test_device());
  static core::Engine e625(std::make_shared<oclsim::Device>(
      oclsim::profile_by_name("sd625"), 2));
  const PricingNet& pn = pricing_net(c.net);
  Shape shape = pn.input;
  shape.n = c.n;
  const U8Tensor image =
      datasets::random_image(shape, 720 + static_cast<std::uint64_t>(c.n));
  const core::Blob input{image};
  const ExecutionPlan plan = pn.net->compile(c.options(), u8_desc(shape));

  unsigned reached = 0;
  for (const core::PlanStep& step : plan.steps()) {
    switch (step.variant.path) {
      case KernelVariant::Path::kConvFused: reached |= kPathA; break;
      case KernelVariant::Path::kConvSeparatePack: reached |= kPathB; break;
      case KernelVariant::Path::kConvUnfused: reached |= kPathC; break;
      case KernelVariant::Path::kConvGemm: reached |= kPathD; break;
      case KernelVariant::Path::kDefault: break;
    }
    if (step.fused_pool != nullptr) reached |= kFusedPool;
  }
  if (plan.planes_geometry().has_value()) reached |= kPlanes;

  // Fill run: an empty plane cache is filled at the plain cost.
  auto session = e855.create_session();
  core::InputPlaneCache planes;
  core::RunOptions ro;
  ro.planes = &planes;
  session.reset_profile();
  (void)plan.run(session, input, ro);
  const std::vector<oclsim::KernelEvent> events = session.queue().events();
  const double fill855 = session.queue().total_modeled_ms();
  EXPECT_EQ(planes.filled, plan.planes_geometry().has_value());
  if (plan.planes_geometry().has_value()) {
    EXPECT_TRUE(planes.holds(shape, *plan.planes_geometry()));
  }
  // Hit run: the same cache now holds this input's panel.
  session.reset_profile();
  (void)plan.run(session, input, ro);
  const double hit855 = session.queue().total_modeled_ms();
  // Another profile, no cache.
  auto other = e625.create_session();
  other.reset_profile();
  (void)plan.run(other, input);
  const double plain625 = other.queue().total_modeled_ms();

  const std::string path = testing::temp_path("pricing.pba");
  artifact::save(*pn.net, plan, path);
  const artifact::LoadedArtifact loaded = artifact::load(path);
  std::remove(path.c_str());

  for (const ExecutionPlan* p : {&plan, &loaded.plan}) {
    SCOPED_TRACE(p == &plan ? "compiled plan" : "loaded plan");
    std::size_t i = 0;
    for (const core::PlanStep& step : p->steps()) {
      for (const core::Launch& l : step.launches) {
        if (i >= events.size()) {
          ADD_FAILURE() << step.name() << ": the run recorded only "
                        << events.size() << " events";
          return reached;
        }
        EXPECT_EQ(events[i].name, *l.name) << "launch " << i;
        EXPECT_TRUE(same_cost(l.cost, events[i].cost))
            << "launch " << i << " (" << events[i].name << ")";
        ++i;
      }
    }
    EXPECT_EQ(i, events.size())
        << "the run recorded more events than launches";
    EXPECT_EQ(p->planes_geometry(), plan.planes_geometry());
    const oclsim::DeviceProfile& p855 = testing::test_device()->profile();
    EXPECT_EQ(p->modeled_ms(p855), fill855);
    EXPECT_EQ(p->modeled_ms(p855, /*planes_hit=*/true), hit855);
    EXPECT_EQ(p->modeled_ms(oclsim::profile_by_name("sd625")), plain625);
  }
  return reached;
}

TEST(PlanPricing, StoredLaunchesAreWhatDispatchEnqueues) {
  unsigned reached = 0;
  for (const PricingCase& c : pricing_grid()) {
    reached |= check_pricing_case(c);
  }
  // The grid exercises every schedule the pricing functions cover.
  EXPECT_EQ(reached,
            kPathA | kPathB | kPathC | kPathD | kFusedPool | kPlanes);
}

/// Absolute modeled totals (exact doubles), recorded from live runs of the
/// engine before the per-layer tallies moved into Layer::price. The grid
/// compares each stored launch with the event dispatch enqueued from that
/// same launch, so a cost expression that drifts in price() passes it;
/// these pins catch the drift.
TEST(PlanPricing, ModeledTotalsArePinned) {
  struct Pin {
    PricingCase c;
    double sd855, sd855_hit, sd625;
  };
  const Pin pins[] = {
      // Path D under compressed storage, plane cache.
      {{"yolov2-tiny", 'D', WeightCompress::kAuto, true, true, 1},
       0.84775808632584637, 0.81650768094375203, 2.347424586251976},
      // Path C (raw BN on the hot path), N = 3.
      {{"alexnet", 'C', WeightCompress::kOff, true, true, 3},
       1.1868671182604849, 1.1307376029939675, 3.6754697141711858},
      // Roofline selection with fused conv→pool steps.
      {{"quicknet", 'a', WeightCompress::kAuto, true, true, 3},
       1.2915699638558669, 1.2594689115874522, 4.4182659543027176},
      // Per-tap input conv: no plane cache, a hit prices as a plain run.
      {{"quicknet", 'C', WeightCompress::kAuto, false, false, 1},
       0.47158583498478085, 0.47158583498478085, 1.2858050339932692},
  };
  const oclsim::DeviceProfile& p855 = testing::test_device()->profile();
  const oclsim::DeviceProfile p625 = oclsim::profile_by_name("sd625");
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.c.repro("check_pricing_case"));
    const PricingNet& pn = pricing_net(pin.c.net);
    Shape shape = pn.input;
    shape.n = pin.c.n;
    const ExecutionPlan plan = pn.net->compile(pin.c.options(), u8_desc(shape));
    EXPECT_EQ(plan.modeled_ms(p855), pin.sd855);
    EXPECT_EQ(plan.modeled_ms(p855, /*planes_hit=*/true), pin.sd855_hit);
    EXPECT_EQ(plan.modeled_ms(p625), pin.sd625);
  }
  // perfbench's yolo416 workload: full YOLOv2-Tiny at 416², default
  // options (kOff, so the weights do not steer selection).
  const core::NetworkSpec spec = models::yolov2_tiny();
  const auto net = core::convert_to_phonebit(FloatModel::random(spec, 2020));
  EXPECT_EQ(net->compile(EngineOptions{}, u8_desc(spec.input)).modeled_ms(p855),
            38.034540585886653);
}

/// The uncompiled Layer::forward plans, prices and runs one step: its
/// event is the step's launch.
TEST(PlanPricing, LayerForwardEnqueuesItsPricedStep) {
  const PricingNet& pn = pricing_net("quicknet");
  const U8Tensor image = datasets::random_image(pn.input, 731);
  const core::Layer& conv1 = *pn.net->layers().front();
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  session.reset_profile();
  (void)conv1.forward(ctx, core::Blob{image});

  const ExecutionPlan plan =
      pn.net->compile(engine.options(), u8_desc(pn.input));
  const std::vector<core::Launch>& launches = plan.steps().front().launches;
  const std::vector<oclsim::KernelEvent>& events = session.queue().events();
  ASSERT_EQ(events.size(), launches.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, *launches[i].name);
    EXPECT_TRUE(same_cost(launches[i].cost, events[i].cost));
  }
  EXPECT_EQ(session.stats().variant_selections, 1);
}

}  // namespace
}  // namespace phonebit
