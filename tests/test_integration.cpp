// Cross-module integration: shrunken paper networks through the whole
// pipeline (convert -> compile -> serialize -> infer -> profile -> power),
// PhoneBit vs baselines vs reference.
#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/bnn_reference.hpp"
#include "baselines/framework.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "energy/power_model.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using baselines::FloatFramework;
using core::FloatModel;

struct NetCase {
  const char* which;
  int shrink;
};

class ShrunkNets : public ::testing::TestWithParam<NetCase> {
 protected:
  static core::NetworkSpec spec_for(const NetCase& p, bool bnn) {
    models::ZooOptions zoo;
    zoo.shrink_log2 = p.shrink;
    zoo.bnn_batch_norm = bnn;
    if (std::string(p.which) == "alexnet") return models::alexnet(zoo);
    if (std::string(p.which) == "vgg16") return models::vgg16(zoo);
    return models::yolov2_tiny(zoo);
  }
};

TEST_P(ShrunkNets, PhonebitMatchesBnnReference) {
  const auto model = FloatModel::random(spec_for(GetParam(), true), 500);
  const U8Tensor image = datasets::random_image(model.spec.input, 501);
  const auto ref = baselines::bnn_reference_forward(model, image);

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  auto net = core::convert_to_phonebit(model);
  const FloatTensor out = net->forward_float(ctx, image);
  EXPECT_TRUE(allclose(out, ref.output, 2e-2f))
      << GetParam().which << ": max diff " << max_abs_diff(out, ref.output);
}

INSTANTIATE_TEST_SUITE_P(PaperNetsSmall, ShrunkNets,
                         ::testing::Values(NetCase{"yolo", 3},
                                           NetCase{"alexnet", 4},
                                           NetCase{"vgg16", 4}));

TEST(Integration, MidsizeBinaryConvBeatsFloatConvByOrderOfMagnitude) {
  // The Fig. 5 mechanism at a representative middle-layer geometry
  // (26x26x256 -> 256, 3x3): PhoneBit's fused binary kernel vs the
  // CNNdroid-style float conv, same device, modeled time.
  const std::int64_t hw = 26, c = 256;
  const FloatTensor in = testing::random_sign_tensor(Shape{1, hw, hw, c}, 550);
  const FloatTensor w = testing::random_sign_tensor(Shape{c, 3, 3, c}, 551);
  const auto bn = testing::random_bn(c, 552);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  core::BinaryConv2d bconv("bconv", bitpack::pack_filter_signs(w), bn, {}, g);
  bconv.forward(ctx, core::Blob{bitpack::pack_signs(in)});
  const double phonebit_ms = session.queue().total_modeled_ms();

  // CNNdroid-equivalent single conv layer on the same geometry.
  core::NetworkSpec spec;
  spec.name = "one-conv";
  spec.input = Shape{1, hw, hw, c};
  core::ConvLayerSpec cs;
  cs.name = "conv";
  cs.c_in = c;
  cs.c_out = c;
  cs.geom = g;
  cs.batch_norm = false;
  cs.act = core::Activation::kNone;
  spec.layers.push_back(cs);
  const FloatModel fm = FloatModel::random(spec, 553);
  U8Tensor img(Shape{1, hw, hw, c});
  const auto cnndroid = FloatFramework::cnndroid_gpu().run(
      *testing::test_device(), fm, img);

  EXPECT_GT(cnndroid.modeled_ms / phonebit_ms, 10.0)
      << "phonebit " << phonebit_ms << "ms vs cnndroid "
      << cnndroid.modeled_ms << "ms";
}

TEST(Integration, FullPipelineQuicknet) {
  // Train-shape -> convert -> compile -> save -> load -> infer -> profile ->
  // power.
  const auto model = FloatModel::random(models::quicknet(10), 600);
  auto net = core::convert_to_phonebit(model);

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon820(), 4);
  core::Engine engine(device);
  const U8Tensor image = datasets::cifar_like_image(601);
  const core::ExecutionPlan plan =
      net->compile(engine, core::BlobDesc{core::BlobKind::kU8, image.shape()});
  const std::string path = testing::temp_path("pipeline.pba");
  artifact::save(*net, plan, path);
  const artifact::LoadedArtifact loaded = engine.load_artifact(path);
  std::remove(path.c_str());

  auto session = engine.create_session();
  const auto result = loaded.plan.run(session, core::Blob{image});
  EXPECT_EQ(result.float_output().shape().c, 10);  // 10 classes

  const auto power = energy::estimate_power(session.queue().events(),
                                            device->profile());
  EXPECT_GT(power.avg_power_mw, device->profile().idle_mw);
  EXPECT_GT(power.fps, 0.0);
  EXPECT_GT(power.fps_per_watt, 0.0);
}

TEST(Integration, BatchConsistency) {
  // A batch of 3 images gives the same outputs as 3 single-image runs.
  const auto model = FloatModel::random(models::quicknet(10), 700);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();

  U8Tensor batch(Shape{3, 32, 32, 3});
  std::vector<U8Tensor> singles;
  for (int i = 0; i < 3; ++i) {
    const U8Tensor img = datasets::cifar_like_image(
        800 + static_cast<std::uint64_t>(i));
    singles.push_back(img);
    for (std::int64_t h = 0; h < 32; ++h)
      for (std::int64_t w = 0; w < 32; ++w)
        for (std::int64_t c = 0; c < 3; ++c)
          batch(i, h, w, c) = img(0, h, w, c);
  }
  const FloatTensor batched = net->forward_float(ctx, batch);
  for (int i = 0; i < 3; ++i) {
    const FloatTensor single = net->forward_float(ctx, singles[i]);
    for (std::int64_t c = 0; c < batched.shape().c; ++c) {
      ASSERT_FLOAT_EQ(batched(i, 0, 0, c), single(0, 0, 0, c))
          << "sample " << i << " class " << c;
    }
  }
}

TEST(Integration, EngineOnBothDevicesSameOutputs) {
  const auto model = FloatModel::random(models::quicknet(10), 900);
  const U8Tensor image = datasets::cifar_like_image(901);

  auto run = [&](oclsim::DeviceProfile profile) {
    auto device = std::make_shared<oclsim::Device>(std::move(profile), 2);
    core::Engine engine(device);
    auto session = engine.create_session();
    auto ctx = session.context();
    auto net = core::convert_to_phonebit(model);
    return net->forward_float(ctx, image);
  };
  const FloatTensor a = run(oclsim::DeviceProfile::snapdragon820());
  const FloatTensor b = run(oclsim::DeviceProfile::snapdragon855());
  EXPECT_TRUE(allclose(a, b, 0.0f)) << "device profile must not change math";
}

}  // namespace
}  // namespace phonebit
