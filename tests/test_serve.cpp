// serve::BatchRunner — fan-out of independent requests across sessions of
// one engine: bit-exactness vs serial, aggregate summary bookkeeping, warm
// pool reuse across batches, and error propagation.
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

std::unique_ptr<core::Network> quick_net(std::uint64_t seed = 71) {
  return core::convert_to_phonebit(
      FloatModel::random(models::quicknet(10), seed));
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
  auto net = quick_net();
  core::Engine engine(testing::test_device());

  constexpr int kRequests = 8;
  serve::BatchRunner runner(engine, *net, /*workers=*/4);
  auto summary = runner.run(make_inputs(kRequests, 900));

  ASSERT_EQ(summary.requests, kRequests);
  ASSERT_EQ(summary.results.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    auto session = engine.create_session();
    auto ctx = session.context();
    const auto serial = net->forward(
        ctx, core::Blob{datasets::cifar_like_image(
                 900 + static_cast<std::uint64_t>(i))});
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[static_cast<std::size_t>(i)], serial))
        << "request " << i << " diverged from serial";
  }
}

TEST(BatchRunner, SummaryAggregatesPerRequestReports) {
  auto net = quick_net(72);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 4);
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

  // All six requests shared one input shape -> exactly one compiled plan.
  EXPECT_EQ(runner.compiled_plans(), 1u);

  // Per-step merge: one slot per compiled plan step (fused conv+pool
  // chains report as one entry), costs/launches summed over every request,
  // modeled total consistent with the request totals.
  const core::ExecutionPlan plan = net->compile(
      engine.options(),
      core::BlobDesc{core::BlobKind::kU8, Shape{1, 32, 32, 3}});
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
  auto net = quick_net(73);
  auto device = testing::test_device();
  core::Engine engine(device);
  serve::BatchRunner runner(engine, *net, 4);

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
  auto net = quick_net(77);
  auto device = testing::test_device();
  core::Engine engine(device);
  serve::BatchRunner runner(engine, *net, 4);
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

TEST(BatchRunner, RecompilesWhenEngineOptionsChange) {
  // The plan cache embeds the options snapshot: reconfiguring the engine
  // between batches must drop it, not serve stale compiled variants.
  auto net = quick_net(76);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 2);
  const auto fused = runner.run(make_inputs(2, 1300));
  engine.options().fuse_bn_binarize = false;
  const auto unfused = runner.run(make_inputs(2, 1300));

  int fused_launches = 0, unfused_launches = 0;
  for (const auto& m : fused.merged_layers) fused_launches += m.launches;
  for (const auto& m : unfused.merged_layers) unfused_launches += m.launches;
  EXPECT_LT(fused_launches, unfused_launches);
  EXPECT_EQ(runner.compiled_plans(), 1u);  // stale entry replaced, not kept
}

TEST(BatchRunner, EmptyBatchIsANoop) {
  auto net = quick_net(74);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 2);
  const auto summary = runner.run({});
  EXPECT_EQ(summary.requests, 0);
  EXPECT_TRUE(summary.results.empty());
  EXPECT_TRUE(summary.merged_layers.empty());
}

TEST(BatchRunner, RunOrThrowPropagatesRequestErrors) {
  auto net = quick_net(75);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 2);

  // Request 2 feeds a float tensor where the input conv expects a U8 image;
  // its InvalidArgument must surface on the caller thread after the batch
  // (the legacy first-error contract, kept behind run_or_throw).
  auto inputs = make_inputs(4, 1200);
  inputs[2] = core::Blob{FloatTensor(Shape{1, 32, 32, 3}, Layout::kNHWC)};
  EXPECT_THROW(runner.run_or_throw(std::move(inputs)), InvalidArgument);
}

TEST(BatchRunner, FailedRequestKeepsNeighborsResults) {
  // Failure is a value: run() classifies the poisoned request kFailed and
  // every neighbor's finished result survives (before PR 6 the first error
  // threw the whole batch away).
  auto net = quick_net(78);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 2);

  auto inputs = make_inputs(5, 1250);
  inputs[2] = core::Blob{FloatTensor(Shape{1, 32, 32, 3}, Layout::kNHWC)};
  const auto summary = runner.run(std::move(inputs));

  ASSERT_EQ(summary.statuses.size(), 5u);
  EXPECT_EQ(summary.ok, 4);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.statuses[2].code, serve::StatusCode::kFailed);
  EXPECT_FALSE(summary.statuses[2].error.empty());
  for (int i = 0; i < 5; ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(summary.statuses[static_cast<std::size_t>(i)].ok());
    auto session = engine.create_session();
    auto ctx = session.context();
    const auto serial = net->forward(
        ctx, core::Blob{datasets::cifar_like_image(
                 1250 + static_cast<std::uint64_t>(i))});
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[static_cast<std::size_t>(i)], serial))
        << "neighbor " << i << " lost its result";
  }
  // The failed slot contributes nothing to the latency aggregation.
  EXPECT_EQ(summary.results[2].report.size(), 0u);
  EXPECT_GT(summary.p50_modeled_ms, 0.0);
}

TEST(BatchRunner, ConcurrentSecondRunIsRejectedNamingTheRunner) {
  // The one-run-at-a-time contract: a second run() while a batch is in
  // flight must throw InvalidArgument naming the runner — atomically
  // (acq_rel exchange on running_), never corrupting the first batch.
  auto net = quick_net(79);
  core::Engine engine(testing::test_device());
  serve::BatchRunner runner(engine, *net, 2, "streamA");
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
