// Session-based execution API: options snapshotting, arena-pool lifecycle,
// and concurrent forwards through one Engine (bit-exact vs serial, zero
// steady-state device-memory growth).
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::EngineOptions;
using core::FloatModel;

FloatModel quick_model(std::uint64_t seed = 31) {
  return FloatModel::random(models::quicknet(10), seed);
}

TEST(Session, SnapshotsOptionsAtCreation) {
  core::Engine engine(testing::test_device());
  ASSERT_TRUE(engine.options().fuse_bn_binarize);

  auto session = engine.create_session();
  // Reconfiguring the engine mid-flight must not reach the live session.
  engine.options().fuse_bn_binarize = false;
  engine.options().conv_tile_ow = 1;
  EXPECT_TRUE(session.options().fuse_bn_binarize);
  EXPECT_EQ(session.options().conv_tile_ow, EngineOptions{}.conv_tile_ow);

  // A session created after the mutation sees the new configuration.
  auto session2 = engine.create_session();
  EXPECT_FALSE(session2.options().fuse_bn_binarize);
  EXPECT_EQ(session2.options().conv_tile_ow, 1);
}

TEST(Session, SnapshotGovernsExecutionNotEngineState) {
  // The behavioural half of snapshotting: a pre-mutation session keeps
  // running the fused pipeline (fewer launches) even after the engine is
  // flipped to the unfused configuration.
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(41);
  auto net = core::convert_to_phonebit(model);

  core::Engine engine(testing::test_device());
  auto fused_session = engine.create_session();
  engine.options().fuse_bn_binarize = false;
  auto unfused_session = engine.create_session();

  auto launches_of = [&](core::ExecSession& s) {
    auto ctx = s.context();
    const auto result = net->forward(ctx, core::Blob{image});
    int launches = 0;
    for (const auto& r : result.report) launches += r.launches;
    return launches;
  };
  EXPECT_LT(launches_of(fused_session), launches_of(unfused_session));
}

TEST(Session, PrivateEventLogs) {
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(42);
  auto net = core::convert_to_phonebit(model);

  core::Engine engine(testing::test_device());
  auto s1 = engine.create_session();
  auto s2 = engine.create_session();
  auto c1 = s1.context();
  net->forward(c1, core::Blob{image});
  EXPECT_GT(s1.queue().events().size(), 0u);
  EXPECT_EQ(s2.queue().events().size(), 0u);

  auto c2 = s2.context();
  net->forward(c2, core::Blob{image});
  s1.reset_profile();
  EXPECT_EQ(s1.queue().events().size(), 0u);
  EXPECT_GT(s2.queue().events().size(), 0u);
}

/// ScratchArena::reserve is a strict no-op when capacity already covers the
/// request: re-running a plan on a warm session moves no capacity, no
/// growth counter and no device accounting — and smaller requests never
/// shrink or churn the pools.
TEST(Session, ReserveIsANoOpOnWarmArena) {
  auto device = testing::test_device();
  const std::int64_t base_bytes = device->allocated_bytes();
  core::ScratchArena arena(device.get());

  arena.reserve(100, 50, 200, 30, 1024);
  const std::int64_t warm_capacity = arena.capacity_bytes();
  const int warm_growth = arena.growth_events();
  const std::int64_t warm_device = device->allocated_bytes();
  EXPECT_EQ(warm_capacity, 100 * 4 + 50 * 4 + 200 + 30 * 8 + 1024);

  // Identical peaks (the warm re-run of one plan) and smaller peaks (a
  // second, smaller plan on the same session): both must be free.
  arena.reserve(100, 50, 200, 30, 1024);
  arena.reserve(10, 5, 20, 3, 64);
  EXPECT_EQ(arena.capacity_bytes(), warm_capacity);
  EXPECT_EQ(arena.growth_events(), warm_growth);
  EXPECT_EQ(device->allocated_bytes(), warm_device);

  // Spans handed out within the reserved sizes never grow either.
  arena.i32(100);
  arena.f32(50);
  arena.u8(200);
  arena.words(30);
  arena.slab(1024);
  EXPECT_EQ(arena.growth_events(), warm_growth);
  EXPECT_EQ(device->allocated_bytes(), warm_device);

  // A genuinely larger peak grows exactly the delta.
  arena.reserve(200, 50, 200, 30, 1024);
  EXPECT_EQ(arena.capacity_bytes(), warm_capacity + 100 * 4);
  EXPECT_EQ(arena.growth_events(), warm_growth + 1);
  (void)base_bytes;
}

TEST(Session, ArenaPoolReusesWarmArenas) {
  const FloatModel model = quick_model();
  const U8Tensor image = datasets::cifar_like_image(43);
  auto net = core::convert_to_phonebit(model);
  auto device = testing::test_device();

  core::Engine engine(device);
  {
    auto session = engine.create_session();
    auto ctx = session.context();
    net->forward_float(ctx, image);
  }
  EXPECT_EQ(engine.arena_pool().created(), 1);
  EXPECT_EQ(engine.arena_pool().idle_count(), 1u);

  // Sequential sessions check the same warm arena out: no new arenas, no
  // arena growth, no device-memory movement.
  const std::int64_t warm_bytes = device->allocated_bytes();
  for (int i = 0; i < 4; ++i) {
    auto session = engine.create_session();
    auto ctx = session.context();
    const int grows_before = session.arena().growth_events();
    net->forward_float(ctx, image);
    EXPECT_EQ(session.arena().growth_events(), grows_before) << "round " << i;
  }
  EXPECT_EQ(engine.arena_pool().created(), 1);
  EXPECT_EQ(device->allocated_bytes(), warm_bytes);
}

/// The acceptance scenario: >= 4 concurrent sessions forwarding shared
/// Networks through one Engine are bit-exact vs serial runs, and after a
/// warm-up round the arena pool and device accounting stop growing.
TEST(Session, ConcurrentForwardsBitExactAndZeroGrowth) {
  constexpr int kThreads = 4;
  constexpr int kForwardsPerThread = 3;

  const FloatModel model_a = quick_model(61);
  const FloatModel model_b = quick_model(62);
  auto net_a = core::convert_to_phonebit(model_a);
  auto net_b = core::convert_to_phonebit(model_b);
  auto device = testing::test_device();
  core::Engine engine(device);

  std::vector<U8Tensor> images;
  for (int i = 0; i < kThreads * kForwardsPerThread; ++i) {
    images.push_back(
        datasets::cifar_like_image(700 + static_cast<std::uint64_t>(i)));
  }
  // Serial reference, one session per run (alternating the two networks).
  std::vector<FloatTensor> serial;
  for (std::size_t i = 0; i < images.size(); ++i) {
    auto session = engine.create_session();
    auto ctx = session.context();
    const core::Network& net = (i % 2 == 0) ? *net_a : *net_b;
    serial.push_back(net.forward_float(ctx, images[i]));
  }

  // `all_alive` (optional) holds every thread's first session alive at
  // one point, so the round reaches peak session concurrency whatever the
  // thread timing.
  auto run_round = [&](std::vector<FloatTensor>& out,
                       std::latch* all_alive) {
    out.resize(images.size(), FloatTensor(Shape{1, 1, 1, 1}, Layout::kNHWC));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int f = 0; f < kForwardsPerThread; ++f) {
          const std::size_t i =
              static_cast<std::size_t>(t * kForwardsPerThread + f);
          auto session = engine.create_session();
          if (f == 0 && all_alive != nullptr) all_alive->arrive_and_wait();
          auto ctx = session.context();
          const core::Network& net = (i % 2 == 0) ? *net_a : *net_b;
          out[i] = net.forward_float(ctx, images[i]);
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  // Warm-up round: the pool mints kThreads arenas, all checked out at once.
  std::vector<FloatTensor> warm;
  std::latch all_alive(kThreads);
  run_round(warm, &all_alive);
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(testing::expect_bitexact(warm[i], serial[i]))
        << "warm-up forward " << i << " diverged from serial";
  }
  const int created = engine.arena_pool().created();
  EXPECT_LE(created, kThreads + 1);  // +1 for the serial-reference arena
  const std::int64_t warm_bytes = device->allocated_bytes();

  // Steady state: repeated concurrent rounds are bit-exact and allocate
  // nothing new — warm arenas cover peak concurrency.
  for (int round = 0; round < 2; ++round) {
    std::vector<FloatTensor> out;
    run_round(out, nullptr);
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_TRUE(testing::expect_bitexact(out[i], serial[i]))
          << "round " << round << " forward " << i << " diverged";
    }
    EXPECT_EQ(engine.arena_pool().created(), created) << "round " << round;
    EXPECT_EQ(device->allocated_bytes(), warm_bytes) << "round " << round;
  }
}

}  // namespace
}  // namespace phonebit
