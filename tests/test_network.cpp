// End-to-end: converted PhoneBit networks vs the float-domain BNN reference,
// for every engine-option combination, plus report bookkeeping.
#include <gtest/gtest.h>

#include "reference/bnn_reference.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::EngineOptions;
using core::FloatModel;

FloatModel quick_model(std::uint64_t seed = 11) {
  return FloatModel::random(models::quicknet(10), seed);
}

TEST(Network, QuicknetMatchesBnnReference) {
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(1);

  const auto ref = baselines::bnn_reference_forward(model, image);

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto net = core::convert_to_phonebit(model);
  const FloatTensor out =
      testing::compile_and_run(session, *net, core::Blob{image})
          .float_output();

  EXPECT_TRUE(allclose(out, ref.output, 1e-3f))
      << "max diff " << max_abs_diff(out, ref.output);
}

struct OptionCase {
  bool fuse;
  bool branch_free;
  bool integrate;
  bool vec_loads;
  const char* label;
};

class NetworkOptions : public ::testing::TestWithParam<OptionCase> {};

TEST_P(NetworkOptions, OutputInvariantUnderOptimizations) {
  const OptionCase p = GetParam();
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(2);
  const auto ref = baselines::bnn_reference_forward(model, image);

  EngineOptions opts;
  opts.fuse_bn_binarize = p.fuse;
  opts.branch_free_binarize = p.branch_free;
  opts.integrate_packing = p.integrate;
  opts.vectorized_loads = p.vec_loads;
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto net = core::convert_to_phonebit(model);
  const FloatTensor out =
      testing::compile_and_run(session, *net, core::Blob{image}, opts)
          .float_output();
  EXPECT_TRUE(allclose(out, ref.output, 1e-3f)) << p.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllToggles, NetworkOptions,
    ::testing::Values(OptionCase{true, true, true, true, "paper-default"},
                      OptionCase{false, true, true, true, "no-fusion"},
                      OptionCase{true, false, true, true, "divergent"},
                      OptionCase{true, true, false, true, "separate-pack"},
                      OptionCase{true, true, true, false, "scalar-loads"},
                      OptionCase{false, false, false, false, "all-off"}));

TEST(Network, PerLayerReportsPopulated) {
  const FloatModel model = quick_model();
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto net = core::convert_to_phonebit(model);
  const auto result = testing::compile_and_run(
      session, *net, core::Blob{datasets::cifar_like_image(3)});

  // One report entry per compiled STEP: the conv→pool rewrite fuses
  // quicknet's two BinaryConv2d→MaxPool chains, so two entries fewer than
  // layers (with "conv+pool" names covering both).
  ASSERT_EQ(result.report.size(), net->size() - 2);
  double launch_weighted_sum = 0.0;
  for (const auto& r : result.report) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_GT(r.modeled_ms, 0.0);
    EXPECT_GE(r.launches, 1);
    // The aggregated cost's launch count must equal the event sum exactly
    // (the accumulate() fix: no re-count of the first event's baseline).
    EXPECT_EQ(r.cost.launches, r.launches);
    launch_weighted_sum += r.modeled_ms;
  }
  EXPECT_GT(result.modeled_ms, 0.0);
  EXPECT_NEAR(result.modeled_ms, launch_weighted_sum, 1e-12);
}

TEST(Network, FusionReducesModeledTimeAndLaunches) {
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(4);

  auto run = [&](bool fuse) {
    EngineOptions opts;
    opts.fuse_bn_binarize = fuse;
    core::Engine engine(testing::test_device());
    auto session = engine.create_session();
    auto net = core::convert_to_phonebit(model);
    const auto result =
        testing::compile_and_run(session, *net, core::Blob{image}, opts);
    int launches = 0;
    for (const auto& r : result.report) launches += r.launches;
    return std::pair<double, int>(result.modeled_ms, launches);
  };

  const auto [fused_ms, fused_launches] = run(true);
  const auto [unfused_ms, unfused_launches] = run(false);
  EXPECT_LT(fused_ms, unfused_ms);
  EXPECT_LT(fused_launches, unfused_launches);
}

TEST(Network, ModelSizeIsRoughly32xSmaller) {
  const FloatModel model = quick_model();
  auto net = core::convert_to_phonebit(model);
  const double full = static_cast<double>(model.spec.float_param_bytes());
  const double bnn = static_cast<double>(net->param_bytes());
  // Not exactly 32x: the last layer stays fp32 and per-channel thresholds
  // are stored. Expect a large but sane compression factor.
  EXPECT_GT(full / bnn, 5.0);
  EXPECT_LT(full / bnn, 32.0);
}

TEST(Network, FloatOutputRejectsBinaryEndingNetwork) {
  // A network whose last layer emits a packed binary blob has no float
  // output: the run itself is fine, and float_output()'s end-in-float
  // contract fires.
  const FloatTensor w =
      testing::random_sign_tensor(Shape{16, 3, 3, 3}, 1234);
  const auto bn = testing::random_bn(16, 1235);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  core::Network net("binary-tail");
  net.emplace<core::InputConv2d>("conv1", bitpack::pack_filter_signs(w), bn,
                                 std::vector<float>{}, g);

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  const U8Tensor image = datasets::cifar_like_image(1236);
  const auto result =
      testing::compile_and_run(session, net, core::Blob{image});
  EXPECT_TRUE(
      std::holds_alternative<bitpack::PackedTensor>(result.output));
  EXPECT_THROW(result.float_output(), InvalidArgument);
}

TEST(Network, EmptyNetworkRejected) {
  core::Network net("empty");
  EXPECT_THROW(net.compile(core::EngineOptions{},
                           core::BlobDesc{core::BlobKind::kU8, {1, 32, 32, 3}}),
               InvalidArgument);
}

TEST(Network, ShrunkYoloMatchesReference) {
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;  // 52x52 input (must survive five stride-2 pools)
  const FloatModel model = FloatModel::random(models::yolov2_tiny(zoo), 21);
  const U8Tensor image =
      datasets::voc_like_image(model.spec.input.h, 6);

  const auto ref = baselines::bnn_reference_forward(model, image);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto net = core::convert_to_phonebit(model);
  const FloatTensor out =
      testing::compile_and_run(session, *net, core::Blob{image})
          .float_output();
  EXPECT_TRUE(allclose(out, ref.output, 1e-2f))
      << "max diff " << max_abs_diff(out, ref.output);
}

}  // namespace
}  // namespace phonebit
