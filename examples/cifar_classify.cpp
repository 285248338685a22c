// cifar_classify — the paper's AlexNet-on-CIFAR10 scenario: a 32x32 image is
// upscaled to AlexNet's 227x227 input and classified by the binarized
// AlexNet on the simulated Snapdragon 855, with a per-layer timing
// breakdown (the kind of data behind Table III's AlexNet row).
//
// Build & run:  ./build/examples/cifar_classify [shrink_log2]
// shrink_log2 (default 1) shrinks channels/input for quick runs; 0 = the
// paper's full-size network.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"

int main(int argc, char** argv) {
  using namespace phonebit;

  models::ZooOptions zoo;
  zoo.shrink_log2 = argc > 1 ? std::atoi(argv[1]) : 1;
  zoo.bnn_batch_norm = true;

  const auto spec = models::alexnet(zoo);
  std::printf("network: %s  input %lldx%lld  (%.1f MB full precision)\n",
              spec.name.c_str(), static_cast<long long>(spec.input.h),
              static_cast<long long>(spec.input.w),
              static_cast<double>(spec.float_param_bytes()) / 1e6);

  const auto trained = core::FloatModel::random(spec, 2024);
  auto net = core::convert_to_phonebit(trained);
  std::printf("binarized: %.2f MB on device\n",
              static_cast<double>(net->param_bytes()) / 1e6);

  // CIFAR-sized input, upscaled to the network input (the paper evaluates
  // AlexNet/VGG16 on CIFAR10 with the original architectures).
  const U8Tensor cifar = datasets::cifar_like_image(99);
  const U8Tensor image = datasets::upscale(cifar, spec.input.h, spec.input.w);

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);
  const core::ExecutionPlan plan =
      net->compile(core::EngineOptions{},
                   core::BlobDesc{core::BlobKind::kU8, image.shape()});
  auto session = engine.create_session();
  const auto result = plan.run(session, core::Blob{image});
  const FloatTensor& logits = result.float_output();

  // Top-5 of the 1000-way head.
  std::vector<std::pair<float, int>> ranked;
  for (std::int64_t c = 0; c < logits.shape().c; ++c) {
    ranked.emplace_back(logits(0, 0, 0, c), static_cast<int>(c));
  }
  std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                    [](auto a, auto b) { return a.first > b.first; });
  std::printf("\ntop-5 classes:\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  #%d  class %4d  score %9.2f\n", i + 1, ranked[i].second,
                static_cast<double>(ranked[i].first));
  }

  std::printf("\nper-layer modeled time on %s:\n",
              device->profile().soc_name.c_str());
  for (const auto& r : result.report) {
    std::printf("  %-6s %9.4f ms\n", r.name.c_str(), r.modeled_ms);
  }
  std::printf("total: %.3f ms modeled on the simulated phone GPU\n",
              result.modeled_ms);
  return 0;
}
