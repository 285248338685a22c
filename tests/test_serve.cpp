// serve::BatchRunner — fan-out of independent requests across sessions of
// one engine through one compiled plan: bit-exactness vs serial, aggregate
// summary bookkeeping, warm pool reuse across batches, and failed requests
// as values.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/batch_runner.hpp"
#include "serve/virtual_time.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::FloatModel;

/// A quicknet compiled in memory for CIFAR-sized images, in the form a
/// BatchRunner serves.
std::shared_ptr<const artifact::LoadedArtifact> quick_art(
    std::uint64_t seed = 71) {
  const core::NetworkSpec spec = models::quicknet(10);
  auto net = core::convert_to_phonebit(FloatModel::random(spec, seed));
  core::ExecutionPlan plan = net->compile(
      core::EngineOptions{}, core::BlobDesc{core::BlobKind::kU8, spec.input});
  return std::make_shared<const artifact::LoadedArtifact>(
      artifact::LoadedArtifact{std::move(net), std::move(plan), {}});
}

std::vector<core::Blob> make_inputs(int n, std::uint64_t seed) {
  std::vector<core::Blob> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.emplace_back(
        datasets::cifar_like_image(seed + static_cast<std::uint64_t>(i)));
  }
  return inputs;
}

TEST(BatchRunner, MatchesSerialBitExactly) {
  const auto art = quick_art();
  core::Engine engine(testing::test_device());

  constexpr int kRequests = 8;
  serve::BatchRunner runner(engine, art, /*workers=*/4);
  auto summary = runner.run(make_inputs(kRequests, 900));

  ASSERT_EQ(summary.requests, kRequests);
  ASSERT_EQ(summary.results.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    auto session = engine.create_session();
    const auto serial = art->plan.run(
        session, core::Blob{datasets::cifar_like_image(
                     900 + static_cast<std::uint64_t>(i))});
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[static_cast<std::size_t>(i)], serial))
        << "request " << i << " diverged from serial";
  }
}

TEST(BatchRunner, SummaryAggregatesPerRequestReports) {
  const auto art = quick_art(72);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, art, 4);
  const auto summary = runner.run(make_inputs(6, 950));

  EXPECT_EQ(summary.workers, 4);
  EXPECT_GT(summary.wall_ms, 0.0);
  EXPECT_GT(summary.throughput_rps, 0.0);

  double total = 0.0, max_ms = 0.0;
  for (const auto& r : summary.results) {
    EXPECT_GT(r.modeled_ms, 0.0);
    total += r.modeled_ms;
    max_ms = std::max(max_ms, r.modeled_ms);
  }
  EXPECT_NEAR(summary.total_modeled_ms, total, 1e-9);
  EXPECT_NEAR(summary.mean_modeled_ms, total / 6.0, 1e-9);
  EXPECT_NEAR(summary.max_modeled_ms, max_ms, 1e-12);

  // Tail latency: nearest-rank percentiles over the per-request modeled
  // latencies, monotone and bounded by the max.
  EXPECT_GT(summary.p50_modeled_ms, 0.0);
  EXPECT_LE(summary.p50_modeled_ms, summary.p95_modeled_ms);
  EXPECT_LE(summary.p95_modeled_ms, summary.p99_modeled_ms);
  EXPECT_LE(summary.p99_modeled_ms, summary.max_modeled_ms);

  // Per-step merge: one slot per compiled plan step (fused conv+pool
  // chains report as one entry), costs/launches summed over every request,
  // modeled total consistent with the request totals.
  const core::ExecutionPlan& plan = art->plan;
  ASSERT_EQ(summary.merged_layers.size(), plan.steps().size());
  double merged_total = 0.0;
  for (std::size_t j = 0; j < summary.merged_layers.size(); ++j) {
    const auto& m = summary.merged_layers[j];
    EXPECT_EQ(m.name, plan.steps()[j].name());
    EXPECT_GE(m.launches, summary.requests);  // >= 1 launch per request
    EXPECT_EQ(m.cost.launches, m.launches);
    merged_total += m.modeled_ms;
  }
  EXPECT_NEAR(merged_total, total, 1e-9);
}

TEST(BatchRunner, WarmBatchesStopAllocating) {
  auto device = testing::test_device();
  core::Engine engine(device);
  serve::BatchRunner runner(engine, quick_art(73), 4);

  runner.run(make_inputs(8, 1000));  // warm-up batch mints the arenas
  const int created = engine.arena_pool().created();
  EXPECT_LE(created, 4);
  const std::int64_t warm_bytes = device->allocated_bytes();

  for (int round = 0; round < 2; ++round) {
    runner.run(make_inputs(8, 1100 + static_cast<std::uint64_t>(round)));
    EXPECT_EQ(engine.arena_pool().created(), created) << "round " << round;
    EXPECT_EQ(device->allocated_bytes(), warm_bytes) << "round " << round;
  }
}

/// Worker sessions (and their slot-backed activation arenas) persist across
/// requests AND batches of the same plan: after the warm-up batch the
/// runner mints no sessions and no arena grows — the plan's per-run reserve
/// is a warm no-op, not a per-request re-reserve.
TEST(BatchRunner, ReusesWorkerSessionArenasInSteadyState) {
  auto device = testing::test_device();
  core::Engine engine(device);
  serve::BatchRunner runner(engine, quick_art(77), 4);
  EXPECT_EQ(runner.sessions(), 0u);  // sessions are minted lazily

  runner.run(make_inputs(8, 1400));  // warm-up: sessions + exact reserves
  const std::size_t sessions = runner.sessions();
  EXPECT_EQ(sessions, 4u);
  const int warm_growth = runner.total_arena_growth_events();
  EXPECT_GT(warm_growth, 0);
  const std::int64_t warm_bytes = device->allocated_bytes();

  for (int round = 0; round < 3; ++round) {
    runner.run(make_inputs(8, 1500 + static_cast<std::uint64_t>(round)));
    // Zero arena growth in steady state: same sessions, same arenas, same
    // capacities, no device-memory movement.
    EXPECT_EQ(runner.sessions(), sessions) << "round " << round;
    EXPECT_EQ(runner.total_arena_growth_events(), warm_growth)
        << "round " << round;
    EXPECT_EQ(device->allocated_bytes(), warm_bytes) << "round " << round;
  }
}

TEST(BatchRunner, EmptyBatchIsANoop) {
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, quick_art(74), 2);
  const auto summary = runner.run({});
  EXPECT_EQ(summary.requests, 0);
  EXPECT_TRUE(summary.results.empty());
  EXPECT_TRUE(summary.merged_layers.empty());
}

TEST(BatchRunner, FailedRequestKeepsNeighborsResults) {
  // Failure is a value: run() classifies each poisoned request kFailed and
  // every neighbor's finished result survives. A runner serves exactly one
  // plan, so a well-formed image of another size fails like a float tensor
  // does — it is not compiled on the fly — and both errors name the
  // descriptor the plan was compiled for.
  const auto art = quick_art(78);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, art, 2);

  auto inputs = make_inputs(5, 1250);
  inputs[1] = core::Blob{datasets::random_image(Shape{1, 48, 48, 3}, 1260)};
  inputs[3] = core::Blob{FloatTensor(Shape{1, 32, 32, 3}, Layout::kNHWC)};
  const auto summary = runner.run(std::move(inputs));

  ASSERT_EQ(summary.statuses.size(), 5u);
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.failed, 2);
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_EQ(summary.statuses[i].code, serve::StatusCode::kFailed);
    const std::string& error = summary.statuses[i].error;
    EXPECT_NE(error.find(art->plan.input().str()), std::string::npos)
        << error;
    // The failed slot contributes nothing to the latency aggregation.
    EXPECT_EQ(summary.results[i].report.size(), 0u);
  }
  for (const int i : {0, 2, 4}) {
    ASSERT_TRUE(summary.statuses[static_cast<std::size_t>(i)].ok());
    auto session = engine.create_session();
    const auto serial = art->plan.run(
        session, core::Blob{datasets::cifar_like_image(
                     1250 + static_cast<std::uint64_t>(i))});
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[static_cast<std::size_t>(i)], serial))
        << "neighbor " << i << " lost its result";
  }
  EXPECT_GT(summary.p50_modeled_ms, 0.0);
  EXPECT_EQ(summary.merged_layers.size(), art->plan.steps().size());
}

TEST(BatchRunner, ConcurrentSecondRunIsRejectedNamingTheRunner) {
  // The one-run-at-a-time contract: a second run() while a batch is in
  // flight must throw InvalidArgument naming the runner — atomically
  // (acq_rel exchange on running_), never corrupting the first batch.
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, quick_art(79), 2, "streamA");
  EXPECT_EQ(runner.name(), "streamA");

  // A batch big enough to stay in flight while this thread races it.
  std::thread first([&runner] { runner.run(make_inputs(128, 1600)); });
  while (!runner.busy()) std::this_thread::yield();
  try {
    runner.run(make_inputs(1, 1700));
    ADD_FAILURE() << "concurrent second run was not rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("streamA"), std::string::npos)
        << e.what();
  }
  first.join();

  // The runner is serviceable again after the rejected call.
  const auto summary = runner.run(make_inputs(2, 1800));
  EXPECT_EQ(summary.ok, 2);
}

// Regression (PR 10): percentile() indexed rank ceil(q/100*n)-1 without
// clamping, so q<=0 underflowed the rank on the old code and q>=100 could
// read past the end; both now answer the defined extremes.
TEST(Percentile, DefinedOverTheFullRankRange) {
  const std::vector<double> one{42.0};
  for (const double q : {-10.0, 0.0, 50.0, 99.0, 100.0, 250.0}) {
    EXPECT_EQ(serve::percentile(one, q), 42.0) << "q=" << q;
  }

  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(serve::percentile(even, -5.0), 1.0);
  EXPECT_EQ(serve::percentile(even, 0.0), 1.0);
  EXPECT_EQ(serve::percentile(even, 25.0), 1.0);   // rank ceil(1)-1
  EXPECT_EQ(serve::percentile(even, 50.0), 2.0);   // lower middle, no interp
  EXPECT_EQ(serve::percentile(even, 75.0), 3.0);
  EXPECT_EQ(serve::percentile(even, 99.0), 4.0);
  EXPECT_EQ(serve::percentile(even, 100.0), 4.0);
  EXPECT_EQ(serve::percentile(even, 400.0), 4.0);

  const std::vector<double> odd{10.0, 20.0, 30.0};
  EXPECT_EQ(serve::percentile(odd, 50.0), 20.0);
  EXPECT_EQ(serve::percentile(odd, 34.0), 20.0);  // rank ceil(1.02)-1
  EXPECT_EQ(serve::percentile(odd, 33.0), 10.0);  // rank ceil(0.99)-1

  EXPECT_EQ(serve::percentile({}, 50.0), 0.0);  // empty sample is defined
}

}  // namespace
}  // namespace phonebit
