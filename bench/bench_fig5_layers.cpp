// Figure 5 — per-layer acceleration of PhoneBit over CNNdroid (GPU) for
// YOLOv2-Tiny's conv1..conv9 on the Snapdragon 855. The paper's bars:
// conv1 23x, conv2 38x, conv3 62x, conv4 34x, conv5 43x, conv6 60x,
// conv7 42x, conv8 41x, conv9 3x. We check ordering and magnitude, not the
// exact Adreno-specific bar heights (see EXPERIMENTS.md).
//
// PHONEBIT_BENCH_FAST=1 shrinks the network for a quick smoke run.
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.hpp"

namespace {

using namespace phonebit;

constexpr double kPaperBars[9] = {23, 38, 62, 34, 43, 60, 42, 41, 3};

}  // namespace

int main() {
  const int shrink = bench::bench_shrink();
  if (shrink != 0) {
    std::printf("[PHONEBIT_BENCH_FAST: network shrunk by 2^%d]\n", shrink);
  }

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  const auto float_model =
      core::FloatModel::random(models::yolov2_tiny({shrink, false}), 31);
  const auto bnn_model =
      core::FloatModel::random(models::yolov2_tiny({shrink, true}), 31);
  const U8Tensor image = datasets::random_image(float_model.spec.input, 32);

  // PhoneBit per-conv-layer modeled times. Fig. 5 attributes time per conv
  // layer, so the conv→pool fusion is off here — a fused conv+pool step
  // could not be split back into the figure's per-layer rows.
  auto net = core::convert_to_phonebit(bnn_model);
  core::EngineOptions opts;
  opts.fuse_conv_pool = false;
  const core::Blob input{image};
  const core::ExecutionPlan plan =
      net->compile(opts, core::describe_blob(input));
  core::Engine engine(device);
  auto session = engine.create_session();
  const auto result = plan.run(session, input);
  std::map<std::string, double> phonebit_ms;
  for (const auto& r : result.report) phonebit_ms[r.name] = r.modeled_ms;

  // CNNdroid-GPU per-conv-layer modeled times.
  const auto baseline = baselines::FloatFramework::cnndroid_gpu().run(
      *device, float_model, image);
  std::map<std::string, double> cnndroid_ms;
  for (const auto& r : baseline.layers) cnndroid_ms[r.name] = r.modeled_ms;

  std::printf("\n=== Figure 5: PER-LAYER ACCELERATION, YOLOv2-Tiny @ "
              "Snapdragon 855 ===\n");
  std::printf("%-8s %14s %14s %12s %10s\n", "layer", "CNNdroid (ms)",
              "PhoneBit (ms)", "speedup", "paper");
  for (int i = 1; i <= 9; ++i) {
    const std::string name = "conv" + std::to_string(i);
    const double base = cnndroid_ms[name];
    const double ours = phonebit_ms[name];
    const double speedup = ours > 0 ? base / ours : 0.0;
    std::printf("%-8s %14.3f %14.3f %9.1fx %9.0fx", name.c_str(), base, ours,
                speedup, kPaperBars[i - 1]);
    // ASCII bar, 2x per character.
    std::printf("  |");
    for (int b = 0; b < static_cast<int>(speedup / 2.0) && b < 60; ++b) {
      std::printf("#");
    }
    std::printf("\n");
  }
  std::printf(
      "\nshape checks: conv9 (full precision, float4 dot) gains least;\n"
      "conv1 (bit-plane 8x overhead) gains less than the middle binary\n"
      "layers; middle layers gain an order of magnitude or more.\n");
  return 0;
}
