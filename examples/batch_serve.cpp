// batch_serve — the session API's multi-request scenario: one Engine, one
// shared (const) compiled plan, N independent requests fanned across worker
// threads by serve::BatchRunner, one ExecSession per worker. Prints the
// aggregate throughput/latency summary and the per-layer merge, and shows
// that the warm arena pool stops allocating after the first batch.
//
// Build & run:  ./build/batch_serve [requests] [workers]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace phonebit;

  const int requests = argc > 1 ? std::atoi(argv[1]) : 16;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;

  const auto spec = models::quicknet(/*classes=*/10);
  auto net = core::convert_to_phonebit(core::FloatModel::random(spec, 7));
  core::ExecutionPlan plan = net->compile(
      core::EngineOptions{}, core::BlobDesc{core::BlobKind::kU8, spec.input});

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);
  serve::BatchRunner runner(
      engine,
      std::make_shared<const artifact::LoadedArtifact>(
          artifact::LoadedArtifact{std::move(net), std::move(plan), {}}),
      workers);

  auto make_batch = [&](std::uint64_t seed) {
    std::vector<core::Blob> inputs;
    for (int i = 0; i < requests; ++i) {
      inputs.emplace_back(
          datasets::cifar_like_image(seed + static_cast<std::uint64_t>(i)));
    }
    return inputs;
  };

  // Batch 1 is the warm-up: the engine's pool mints one arena per busy
  // worker. Batch 2 reuses them — device accounting stays flat.
  runner.run(make_batch(100));
  const std::int64_t warm_bytes = device->allocated_bytes();
  const int warm_arenas = engine.arena_pool().created();
  const auto summary = runner.run(make_batch(200));

  std::printf("batch of %d requests on %d workers (%s):\n", summary.requests,
              summary.workers, device->profile().soc_name.c_str());
  std::printf("  wall            %8.1f ms\n", summary.wall_ms);
  std::printf("  throughput      %8.1f req/s (host)\n",
              summary.throughput_rps);
  std::printf("  modeled latency %8.4f ms mean, %.4f ms max\n",
              summary.mean_modeled_ms, summary.max_modeled_ms);
  std::printf("  tail latency    p50 %.4f / p95 %.4f / p99 %.4f ms modeled\n",
              summary.p50_modeled_ms, summary.p95_modeled_ms,
              summary.p99_modeled_ms);
  std::printf("  arena pool      %d warm arena%s, %+d bytes since warm-up\n",
              warm_arenas, warm_arenas == 1 ? "" : "s",
              static_cast<int>(device->allocated_bytes() - warm_bytes));

  std::printf("\nper-layer modeled ms, summed over the batch:\n");
  for (const auto& r : summary.merged_layers) {
    std::printf("  %-8s %9.4f ms  (%d launches)\n", r.name.c_str(),
                r.modeled_ms, r.launches);
  }

  // Independence check: request 0 of both batches used the same seed-free
  // pipeline, so the outputs only differ because the inputs do.
  const FloatTensor& scores = summary.results.front().float_output();
  std::printf("\nrequest 0 top score: %.2f (%lld classes)\n",
              static_cast<double>(scores(0, 0, 0, 0)),
              static_cast<long long>(scores.shape().c));
  return 0;
}
