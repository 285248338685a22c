// Property sweep: the packed engine must agree with the float-domain
// reference over the cross product of kernel size x stride x padding x
// channel width — the combinatorial space where index arithmetic bugs hide.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using SweepParam = std::tuple<int, int, int, int>;  // kernel, stride, pad, c

class ConvGeometrySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConvGeometrySweep, PackedConvMatchesReference) {
  const auto [k, stride, pad, c] = GetParam();
  const std::int64_t hw = 11;
  if (hw + 2 * pad < k) GTEST_SKIP() << "window larger than input";

  const std::uint64_t seed =
      7000 + static_cast<std::uint64_t>(k * 1000 + stride * 100 + pad * 10 + c);
  const FloatTensor in =
      testing::random_sign_tensor(Shape{1, hw, hw, c}, seed);
  const FloatTensor w =
      testing::random_sign_tensor(Shape{8, k, k, c}, seed + 1);
  const auto bn = testing::random_bn(8, seed + 2);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = k;
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = pad;

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("conv");
  net.emplace<core::BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                                  std::vector<float>{}, g);
  const auto out = testing::compile_and_run(
      session, net, core::Blob{bitpack::pack_signs(in)}).output;

  // Reference: ±1 conv with -1 padding, folded BN, Eqn 8.
  const FloatTensor x1 = baselines::conv2d_ref(in, w, {}, g, -1.0f);
  const auto folded = core::fold_batch_norm(bn, {});
  FloatTensor ref(x1.shape(), Layout::kNHWC);
  const Shape& s = x1.shape();
  for (std::int64_t y = 0; y < s.h; ++y)
    for (std::int64_t x = 0; x < s.w; ++x)
      for (std::int64_t ch = 0; ch < s.c; ++ch) {
        const std::size_t ci = static_cast<std::size_t>(ch);
        ref(0, y, x, ch) =
            core::binarize_eqn8(x1(0, y, x, ch), folded.xi[ci],
                                folded.gamma_pos[ci] != 0)
                ? 1.0f
                : -1.0f;
      }
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out), ref))
      << "k=" << k << " stride=" << stride << " pad=" << pad << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(
    KernelStridePadChannels, ConvGeometrySweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),   // kernel
                       ::testing::Values(1, 2, 3),      // stride
                       ::testing::Values(0, 1, 2),      // pad
                       ::testing::Values(8, 33, 64)),   // channels
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param)) + "p" +
             std::to_string(std::get<2>(info.param)) + "c" +
             std::to_string(std::get<3>(info.param));
    });

class PoolGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PoolGeometrySweep, PackedPoolMatchesReference) {
  const auto [size, stride, tail] = GetParam();
  const std::int64_t hw = 13;
  const FloatTensor in = testing::random_sign_tensor(
      Shape{1, hw, hw, 40},
      8000 + static_cast<std::uint64_t>(size * 10 + stride));
  core::PoolGeometry g;
  g.size = size;
  g.stride = stride;
  g.tail_pad = tail;
  if (!tail && hw < size) GTEST_SKIP();

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("pool");
  net.emplace<core::MaxPool2d>("pool", g);
  const auto out = testing::compile_and_run(
      session, net, core::Blob{bitpack::pack_signs(in)}).output;
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out),
      baselines::maxpool_ref(in, g, -1.0f)))
      << "size=" << size << " stride=" << stride << " tail=" << tail;
}

INSTANTIATE_TEST_SUITE_P(SizeStrideTail, PoolGeometrySweep,
                         ::testing::Combine(::testing::Values(2, 3),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

}  // namespace
}  // namespace phonebit
