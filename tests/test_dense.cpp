// Binary and float dense layers vs references.
#include <gtest/gtest.h>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::BinaryDense;
using core::FloatDense;

struct DenseCase {
  std::int64_t h, w, c, units;
};

class BinaryDenseParam : public ::testing::TestWithParam<DenseCase> {};

TEST_P(BinaryDenseParam, MatchesFloatReference) {
  const DenseCase p = GetParam();
  const std::uint64_t seed = 4000 + static_cast<std::uint64_t>(p.c + p.units);
  const std::int64_t features = p.h * p.w * p.c;
  const FloatTensor in =
      testing::random_sign_tensor(Shape{2, p.h, p.w, p.c}, seed);
  const FloatTensor w =
      testing::random_sign_tensor(Shape{p.units, 1, 1, features}, seed + 1);
  const auto bn = testing::random_bn(p.units, seed + 2);
  const auto bias = testing::random_bias(p.units, seed + 3);

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("dense");
  net.emplace<BinaryDense>("fc", bitpack::pack_signs(w), bn, bias);
  auto out = testing::compile_and_run(
      session, net, core::Blob{bitpack::pack_signs(in)}).output;

  // Reference: dense over ±1, folded BN, Eqn 8.
  const FloatTensor x1 = baselines::dense_ref(in, w, {});
  const auto folded = core::fold_batch_norm(bn, bias);
  FloatTensor ref(x1.shape(), Layout::kNHWC);
  for (std::int64_t n = 0; n < x1.shape().n; ++n)
    for (std::int64_t u = 0; u < p.units; ++u) {
      const std::size_t ci = static_cast<std::size_t>(u);
      ref(n, 0, 0, u) = core::binarize_eqn8(x1(n, 0, 0, u), folded.xi[ci],
                                            folded.gamma_pos[ci] != 0)
                            ? 1.0f
                            : -1.0f;
    }
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out), ref));
}

INSTANTIATE_TEST_SUITE_P(Shapes, BinaryDenseParam,
                         ::testing::Values(DenseCase{1, 1, 64, 8},
                                           DenseCase{4, 4, 64, 32},
                                           DenseCase{2, 2, 33, 16},  // gap path
                                           DenseCase{6, 6, 256, 64},
                                           DenseCase{1, 1, 128, 128}));

TEST(BinaryDense, RequiresUnitsMultipleOf8) {
  const FloatTensor w = testing::random_sign_tensor(Shape{12, 1, 1, 64}, 1);
  EXPECT_THROW(BinaryDense("fc", bitpack::pack_signs(w),
                           testing::random_bn(12, 2), {}),
               InvalidArgument);
}

TEST(BinaryDense, FeatureMismatchRejected) {
  const FloatTensor w = testing::random_sign_tensor(Shape{8, 1, 1, 64}, 3);
  core::Network net("dense");
  net.emplace<BinaryDense>("fc", bitpack::pack_signs(w),
                           testing::random_bn(8, 4), std::vector<float>{});
  EXPECT_THROW(net.compile({}, core::BlobDesc{core::BlobKind::kPacked,
                                              Shape{1, 1, 1, 96}}),
               InvalidArgument);
}

TEST(FloatDense, MatchesReferenceOnPackedInput) {
  const FloatTensor in = testing::random_sign_tensor(Shape{2, 2, 2, 64}, 6);
  const FloatTensor w = testing::random_float_tensor(Shape{10, 1, 1, 256}, 7);
  const auto bias = testing::random_bias(10, 8);

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("dense");
  net.emplace<FloatDense>("fc8", w, bias);
  auto out = testing::compile_and_run(
      session, net, core::Blob{bitpack::pack_signs(in)}).output;
  const FloatTensor ref = baselines::dense_ref(in, w, bias);
  EXPECT_TRUE(allclose(std::get<FloatTensor>(out), ref, 1e-4f));
}

TEST(FloatDense, MatchesReferenceOnFloatInput) {
  const FloatTensor in = testing::random_float_tensor(Shape{3, 1, 1, 37}, 9);
  const FloatTensor w = testing::random_float_tensor(Shape{5, 1, 1, 37}, 10);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("dense");
  net.emplace<FloatDense>("fc", w, std::vector<float>{});
  auto out = testing::compile_and_run(session, net, core::Blob{in}).output;
  EXPECT_TRUE(allclose(std::get<FloatTensor>(out),
                       baselines::dense_ref(in, w, {}), 1e-4f));
}

TEST(FloatDense, FlattensSpatialFloatInput) {
  const FloatTensor in = testing::random_float_tensor(Shape{1, 3, 3, 4}, 11);
  const FloatTensor w = testing::random_float_tensor(Shape{6, 1, 1, 36}, 12);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("dense");
  net.emplace<FloatDense>("fc", w, std::vector<float>{});
  auto out = testing::compile_and_run(session, net, core::Blob{in}).output;
  EXPECT_TRUE(allclose(std::get<FloatTensor>(out),
                       baselines::dense_ref(in, w, {}), 1e-4f));
}

TEST(Dense, ParamAccounting) {
  const FloatTensor wb = testing::random_sign_tensor(Shape{16, 1, 1, 64}, 13);
  BinaryDense bd("fc", bitpack::pack_signs(wb), testing::random_bn(16, 14),
                 {});
  EXPECT_EQ(bd.param_bytes(), 16 * 64 / 8 + 16 * 4 + 2);
  EXPECT_EQ(bd.param_count(), 16 * 64 + 5 * 16);

  const FloatTensor wf = testing::random_float_tensor(Shape{10, 1, 1, 20}, 15);
  FloatDense fd("fc", wf, testing::random_bias(10, 16));
  EXPECT_EQ(fd.param_bytes(), 10 * 20 * 4 + 10 * 4);
  EXPECT_EQ(fd.param_count(), 10 * 20 + 10);
}

}  // namespace
}  // namespace phonebit
