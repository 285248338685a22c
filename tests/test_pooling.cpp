// Packed OR-max-pooling vs the float reference, including the darknet
// stride-1 tail-padded mode (YOLOv2-Tiny pool6).
#include <gtest/gtest.h>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::MaxPool2d;
using core::PoolGeometry;

struct PoolCase {
  std::int64_t hw, c, size, stride;
  bool tail_pad;
};

class PoolParam : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolParam, MatchesFloatReference) {
  const PoolCase p = GetParam();
  const FloatTensor in = testing::random_sign_tensor(
      Shape{2, p.hw, p.hw, p.c},
      3000 + static_cast<std::uint64_t>(p.hw * p.c + p.size));
  PoolGeometry g;
  g.size = p.size;
  g.stride = p.stride;
  g.tail_pad = p.tail_pad;

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("pool");
  net.emplace<MaxPool2d>("pool", g);
  auto out = testing::compile_and_run(session, net,
                                      core::Blob{bitpack::pack_signs(in)})
                 .output;
  const FloatTensor ref = baselines::maxpool_ref(in, g, -1.0f);
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out), ref));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolParam,
    ::testing::Values(PoolCase{8, 16, 2, 2, false},
                      PoolCase{9, 16, 2, 2, false},   // odd extent, floor
                      PoolCase{8, 70, 2, 2, false},   // multi-word channels
                      PoolCase{12, 8, 3, 2, false},   // AlexNet 3/2 pools
                      PoolCase{13, 24, 2, 1, true},   // YOLO pool6 (same)
                      PoolCase{6, 8, 2, 1, true},
                      PoolCase{7, 128, 3, 3, false}));

TEST(MaxPool, TailPadKeepsExtent) {
  PoolGeometry g;
  g.size = 2;
  g.stride = 1;
  g.tail_pad = true;
  EXPECT_EQ(g.out_dim(13), 13);
  g.stride = 2;
  EXPECT_EQ(g.out_dim(13), 7);  // ceil mode
  g.tail_pad = false;
  EXPECT_EQ(g.out_dim(13), 6);  // floor mode
}

TEST(MaxPool, AllMinusOneWindowStaysMinusOne) {
  FloatTensor in(Shape{1, 4, 4, 8});
  in.fill(-1.0f);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("pool");
  net.emplace<MaxPool2d>("pool", PoolGeometry{2, 2, 0, false});
  auto out = testing::compile_and_run(session, net,
                                      core::Blob{bitpack::pack_signs(in)})
                 .output;
  const auto& packed = std::get<bitpack::PackedTensor>(out);
  for (std::int64_t h = 0; h < 2; ++h)
    for (std::int64_t w = 0; w < 2; ++w)
      for (std::int64_t c = 0; c < 8; ++c)
        EXPECT_FALSE(packed.get(0, h, w, c));
}

TEST(MaxPool, SinglePlusOnePropagates) {
  FloatTensor in(Shape{1, 4, 4, 8});
  in.fill(-1.0f);
  in(0, 1, 1, 3) = 1.0f;
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("pool");
  net.emplace<MaxPool2d>("pool", PoolGeometry{2, 2, 0, false});
  auto out = testing::compile_and_run(session, net,
                                      core::Blob{bitpack::pack_signs(in)})
                 .output;
  const auto& packed = std::get<bitpack::PackedTensor>(out);
  EXPECT_TRUE(packed.get(0, 0, 0, 3));
  EXPECT_FALSE(packed.get(0, 0, 1, 3));
  EXPECT_FALSE(packed.get(0, 0, 0, 2));
}

TEST(MaxPool, RejectsFloatBlob) {
  core::Network net("pool");
  net.emplace<MaxPool2d>("pool", PoolGeometry{});
  EXPECT_THROW(
      net.compile({}, core::BlobDesc{core::BlobKind::kFloat, {1, 4, 4, 8}}),
      InvalidArgument);
}

TEST(MaxPool, WindowLargerThanInputRejected) {
  PoolGeometry g;
  g.size = 5;
  g.stride = 1;
  EXPECT_THROW(g.out_dim(4), InvalidArgument);
}

}  // namespace
}  // namespace phonebit
