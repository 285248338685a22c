// Baseline frameworks: numerical agreement with the reference ops, the
// mechanical OOM/CRASH gates, quantization error, layout invariance.
#include <gtest/gtest.h>

#include "reference/bnn_reference.hpp"
#include "baselines/float_ops.hpp"
#include "baselines/framework.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "quantized_ops.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using baselines::FloatFramework;
using core::FloatModel;

FloatModel small_classic_model(std::uint64_t seed = 90) {
  models::ZooOptions zoo;
  zoo.shrink_log2 = 4;
  zoo.bnn_batch_norm = false;  // classic float form, with LRN in AlexNet
  return FloatModel::random(models::alexnet(zoo), seed);
}

/// Serial reference forward of a float model (mirrors the executor's
/// semantics: conv+bias -> BN -> act -> LRN -> pool -> dense).
FloatTensor reference_forward(const FloatModel& model, const U8Tensor& img) {
  FloatTensor x = baselines::u8_to_float(img);
  for (std::size_t i = 0; i < model.spec.layers.size(); ++i) {
    const auto& layer = model.spec.layers[i];
    if (const auto* c = std::get_if<core::ConvLayerSpec>(&layer)) {
      const auto& w = std::get<core::ConvWeights>(model.weights[i]);
      x = baselines::conv2d_ref(x, w.w, w.bias, c->geom);
      if (c->batch_norm && !w.bn.empty()) x = baselines::batch_norm_ref(x, w.bn);
      x = baselines::activate_ref(x, c->act);
      if (c->lrn_after) x = baselines::lrn_ref(x);
    } else if (const auto* p = std::get_if<core::PoolLayerSpec>(&layer)) {
      x = baselines::maxpool_ref(x, p->geom);
    } else if (const auto* d = std::get_if<core::DenseLayerSpec>(&layer)) {
      const auto& w = std::get<core::DenseWeights>(model.weights[i]);
      x = baselines::dense_ref(x, w.w, w.bias);
      if (d->batch_norm && !w.bn.empty()) x = baselines::batch_norm_ref(x, w.bn);
      x = baselines::activate_ref(x, d->act);
    }
  }
  return x;
}

TEST(Baselines, TfliteCpuMatchesReference) {
  const FloatModel model = small_classic_model();
  const U8Tensor img = datasets::random_image(model.spec.input, 5);
  oclsim::Device dev(oclsim::DeviceProfile::snapdragon855(), 4);
  const auto result = FloatFramework::tflite_cpu().run(dev, model, img);
  const FloatTensor ref = reference_forward(model, img);
  EXPECT_LT(max_abs_diff(result.output, ref) /
                (1.0f + max_abs_diff(ref, FloatTensor(ref.shape()))),
            1e-3f);
  EXPECT_GT(result.modeled_ms, 0.0);
  EXPECT_FALSE(result.layers.empty());
}

TEST(Baselines, CnndroidNchwMatchesNhwcNumerics) {
  // Same model, both layouts: identical logical outputs.
  const FloatModel model = small_classic_model(91);
  const U8Tensor img = datasets::random_image(model.spec.input, 6);
  oclsim::Device dev(oclsim::DeviceProfile::snapdragon855(), 4);
  const auto nchw = FloatFramework::cnndroid_gpu().run(dev, model, img);
  const auto nhwc = FloatFramework::tflite_cpu().run(dev, model, img);
  EXPECT_TRUE(allclose(nchw.output, nhwc.output, 1e-2f))
      << max_abs_diff(nchw.output, nhwc.output);
}

TEST(Baselines, CnndroidOomOnVgg16) {
  // VGG16 weights x2 resident copies exceed the 1 GB app budget (Table III
  // OOM rows) on BOTH devices — the gate is the app heap, not device RAM.
  const auto spec = models::vgg16({0, false});
  FloatModel model;  // gates fire before weights are touched
  model.spec = spec;
  model.weights.resize(spec.layers.size());
  const U8Tensor img(Shape{1, 4, 4, 3});
  for (const char* soc : {"820", "855"}) {
    oclsim::Device dev(std::string(soc) == "820"
                           ? oclsim::DeviceProfile::snapdragon820()
                           : oclsim::DeviceProfile::snapdragon855(),
                       1);
    EXPECT_THROW(FloatFramework::cnndroid_gpu().run(dev, model, img),
                 OutOfMemoryError);
    EXPECT_THROW(FloatFramework::cnndroid_cpu().run(dev, model, img),
                 OutOfMemoryError);
  }
}

TEST(Baselines, CnndroidRunsAlexnetAndYolo) {
  // The same gate must NOT fire for the smaller models.
  for (auto spec : {models::alexnet({0, false}), models::yolov2_tiny({0, false})}) {
    FloatModel model;
    model.spec = spec;
    model.weights.resize(spec.layers.size());
    const double budget_mb = 1024;
    EXPECT_LT(static_cast<double>(spec.float_param_bytes()) * 2.0,
              budget_mb * 1024 * 1024)
        << spec.name;
  }
}

TEST(Baselines, TfliteGpuCrashesOnLrn) {
  // Float AlexNet contains LRN -> delegate rejects the graph (CRASH row).
  const auto spec = models::alexnet({0, false});
  FloatModel model;
  model.spec = spec;
  model.weights.resize(spec.layers.size());
  oclsim::Device dev(oclsim::DeviceProfile::snapdragon855(), 1);
  EXPECT_THROW(
      FloatFramework::tflite_gpu().run(dev, model, U8Tensor(Shape{1, 4, 4, 3})),
      UnsupportedOperationError);
}

TEST(Baselines, TfliteGpuCrashesOnVggBufferSize) {
  // VGG16 fc1 weights (392 MB fp32) exceed the 256 MB delegate buffer cap.
  const auto spec = models::vgg16({0, false});
  auto model = FloatModel::random(
      [&] {
        // Shrink everything except fc1 is impossible cheaply; instead verify
        // the gate arithmetic directly and exercise the code path on a
        // doctored small model.
        return models::quicknet(10);
      }(),
      92);
  // Direct gate arithmetic for the real model:
  std::int64_t max_bytes = 0;
  for (const auto& layer : spec.layers) {
    if (const auto* d = std::get_if<core::DenseLayerSpec>(&layer)) {
      max_bytes =
          std::max(max_bytes, d->in_features * d->out_features * 4);
    }
  }
  EXPECT_GT(max_bytes, 256ll * 1024 * 1024);

  // Code-path check with a tightened cap:
  auto tight = FloatFramework::tflite_gpu();
  baselines::FrameworkTraits traits = tight.traits();
  traits.max_buffer_bytes = 100000;  // quicknet fc1 (128x1024 fp32) exceeds it
  FloatFramework tiny_cap("TFLite-GPU-tiny", traits);
  oclsim::Device dev(oclsim::DeviceProfile::snapdragon855(), 1);
  EXPECT_THROW(
      tiny_cap.run(dev, model, datasets::cifar_like_image(1)),
      UnsupportedOperationError);
}

TEST(Baselines, TfliteGpuRunsYolo) {
  // No LRN, no oversized buffer: YOLOv2-Tiny must pass the gates (the paper
  // reports a real number for this cell).
  models::ZooOptions zoo;
  zoo.shrink_log2 = 4;
  zoo.bnn_batch_norm = false;
  const FloatModel model = FloatModel::random(models::yolov2_tiny(zoo), 93);
  oclsim::Device dev(oclsim::DeviceProfile::snapdragon855(), 4);
  const U8Tensor img = datasets::voc_like_image(model.spec.input.h, 7);
  EXPECT_NO_THROW(FloatFramework::tflite_gpu().run(dev, model, img));
}

TEST(Baselines, QuantizedConvCloseToFloat) {
  // Real int8 arithmetic: relative output error stays small.
  const FloatTensor in = testing::random_float_tensor(Shape{1, 8, 8, 16}, 94);
  const FloatTensor w = testing::random_float_tensor(Shape{8, 3, 3, 16}, 95);
  const auto bias = testing::random_bias(8, 96);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  const auto qin = baselines::QuantizedTensor::from_float(in);
  const auto qw = baselines::QuantizedFilter::from_float(w);
  const FloatTensor qout = baselines::quantized_conv2d(qin, qw, bias, g);
  const FloatTensor ref = baselines::conv2d_ref(in, w, bias, g);

  float ref_mag = 0.0f;
  for (std::int64_t i = 0; i < ref.elems(); ++i) {
    ref_mag = std::max(ref_mag, std::fabs(ref.data()[i]));
  }
  EXPECT_LT(max_abs_diff(qout, ref), 0.05f * ref_mag);
}

TEST(Baselines, QuantizedRoundtripError) {
  const FloatTensor t = testing::random_float_tensor(Shape{1, 4, 4, 8}, 97);
  const auto q = baselines::QuantizedTensor::from_float(t);
  const FloatTensor back = q.to_float();
  // Error bounded by one quantization step.
  EXPECT_LT(max_abs_diff(t, back), q.params.scale * 0.51f + 1e-6f);
}

TEST(Baselines, QuantParamsCoverRangeAndEncodeZero) {
  const auto p = QuantParams::for_range(-3.0f, 5.0f);
  EXPECT_EQ(p.dequantize(p.quantize(0.0f)), 0.0f);
  EXPECT_NEAR(p.dequantize(p.quantize(5.0f)), 5.0f, p.scale);
  EXPECT_NEAR(p.dequantize(p.quantize(-3.0f)), -3.0f, p.scale);
}

TEST(Baselines, FrameworkRoster) {
  EXPECT_EQ(FloatFramework::cnndroid_cpu().name(), "CNNdroid-CPU");
  EXPECT_EQ(FloatFramework::cnndroid_gpu().name(), "CNNdroid-GPU");
  EXPECT_EQ(FloatFramework::tflite_cpu().name(), "TFLite-CPU");
  EXPECT_EQ(FloatFramework::tflite_gpu().name(), "TFLite-GPU");
  EXPECT_EQ(FloatFramework::tflite_quant().name(), "TFLite-Quant");
  EXPECT_TRUE(FloatFramework::tflite_quant().traits().quantized_int8);
  EXPECT_TRUE(FloatFramework::cnndroid_gpu().traits().layout == Layout::kNCHW);
}

}  // namespace
}  // namespace phonebit
