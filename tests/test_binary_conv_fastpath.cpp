// Interior/border fast-path coverage: the row-fused branch-free conv must
// equal the float-domain reference exactly where the specialization's index
// arithmetic can go wrong — odd strides, asymmetric padding, 1x1 and 7x7
// kernels, channel counts off the 64-bit word boundary — and the engine
// arena must stop growing after the first (warm-up) forward.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::BinaryConv2d;
using core::EngineOptions;

/// Reference: ±1 conv (pad -1), folded BN, Eqn 8 -> ±1 tensor.
FloatTensor reference_bconv(const FloatTensor& in, const FloatTensor& w,
                            const std::vector<core::BatchNormParams>& bn,
                            const ConvGeometry& g) {
  const FloatTensor x1 = baselines::conv2d_ref(in, w, {}, g, -1.0f);
  const auto folded = core::fold_batch_norm(bn, {});
  FloatTensor out(x1.shape(), Layout::kNHWC);
  const Shape& s = x1.shape();
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t wd = 0; wd < s.w; ++wd)
        for (std::int64_t c = 0; c < s.c; ++c) {
          const std::size_t ci = static_cast<std::size_t>(c);
          out(n, h, wd, c) =
              core::binarize_eqn8(x1(n, h, wd, c), folded.xi[ci],
                                  folded.gamma_pos[ci] != 0)
                  ? 1.0f
                  : -1.0f;
        }
  return out;
}

struct FastPathCase {
  std::int64_t c_in;      // includes counts that are not multiples of 64
  std::int64_t k;         // 1x1 .. 7x7
  std::int64_t stride_h, stride_w;
  std::int64_t pad_h, pad_w;  // asymmetric on purpose
};

class FastPathSweep : public ::testing::TestWithParam<FastPathCase> {};

TEST_P(FastPathSweep, FastPathEqualsReferenceOnAllPaths) {
  const FastPathCase p = GetParam();
  const std::int64_t hw = 13;
  if (hw + 2 * std::min(p.pad_h, p.pad_w) < p.k) {
    GTEST_SKIP() << "window larger than padded input";
  }
  const std::uint64_t seed =
      9100 + static_cast<std::uint64_t>(p.c_in * 13 + p.k * 7 + p.stride_h +
                                        p.pad_h * 3 + p.pad_w);
  const FloatTensor in =
      testing::random_sign_tensor(Shape{2, hw, hw, p.c_in}, seed);
  const FloatTensor w =
      testing::random_sign_tensor(Shape{16, p.k, p.k, p.c_in}, seed + 1);
  const auto bn = testing::random_bn(16, seed + 2);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = p.k;
  g.stride_h = p.stride_h;
  g.stride_w = p.stride_w;
  g.pad_h = p.pad_h;
  g.pad_w = p.pad_w;

  const FloatTensor ref = reference_bconv(in, w, bn, g);
  const core::Blob input{bitpack::pack_signs(in)};

  auto check = [&](EngineOptions opts, const char* tag) {
    core::Engine engine(testing::test_device());
    auto session = engine.create_session();
    core::Network net("conv");
    net.emplace<BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                              std::vector<float>{}, g);
    const auto out = testing::compile_and_run(session, net, input, opts);
    EXPECT_TRUE(testing::packed_equals_signs(
        std::get<bitpack::PackedTensor>(out.output), ref))
        << tag << ": c_in=" << p.c_in << " k=" << p.k << " stride="
        << p.stride_h << "/" << p.stride_w << " pad=" << p.pad_h << "/"
        << p.pad_w;
  };

  EngineOptions fast;  // path A (or B when wide), interior split on
  check(fast, "fast");
  EngineOptions no_split;  // per-tap ablation arm must agree bit-exactly
  no_split.interior_split = false;
  check(no_split, "taps");
  EngineOptions separate_pack;  // path B
  separate_pack.integrate_packing = false;
  check(separate_pack, "nopack");
  EngineOptions unfused;  // path C
  unfused.fuse_bn_binarize = false;
  check(unfused, "unfused");
  EngineOptions row_tile;  // whole-row tiles exercise the tile clamp
  row_tile.conv_tile_ow = 0;
  check(row_tile, "rowtile");
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, FastPathSweep,
    ::testing::Values(
        // 1x1: no rows to fuse, interior == everything (pad 0)
        FastPathCase{40, 1, 1, 1, 0, 0}, FastPathCase{100, 1, 2, 1, 0, 1},
        // 3x3 with asymmetric padding and odd/mixed strides
        FastPathCase{24, 3, 1, 1, 2, 0}, FastPathCase{24, 3, 3, 1, 1, 2},
        FastPathCase{72, 3, 1, 3, 0, 2}, FastPathCase{200, 3, 3, 3, 2, 1},
        // 5x5 straddling the word boundary
        FastPathCase{63, 5, 1, 1, 2, 2}, FastPathCase{65, 5, 2, 2, 0, 4},
        // 7x7 including pad wider than half the kernel
        FastPathCase{40, 7, 1, 1, 3, 3}, FastPathCase{24, 7, 3, 3, 6, 0},
        FastPathCase{129, 7, 2, 2, 3, 5}));

TEST(FastPath, PadWiderThanKernelWindowsFullyInPadding) {
  // pad_w=2 with k=1 puts the leftmost/rightmost output columns entirely in
  // padding — the border path's all-pad row case.
  const FloatTensor in = testing::random_sign_tensor(Shape{1, 5, 5, 40}, 77);
  const FloatTensor w = testing::random_sign_tensor(Shape{16, 1, 1, 40}, 78);
  const auto bn = testing::random_bn(16, 79);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = 1;
  g.pad_h = 0;
  g.pad_w = 2;
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  core::Network net("conv");
  net.emplace<BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                            std::vector<float>{}, g);
  const auto out = testing::compile_and_run(
      session, net, core::Blob{bitpack::pack_signs(in)});
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out.output),
      reference_bconv(in, w, bn, g)));
}

/// The no-per-forward-allocation contract: after one warm-up forward the
/// engine arena has reached its high-water mark and repeated forwards reuse
/// it verbatim — growth_events() must not move, on any conv path.
TEST(FastPath, ArenaStopsGrowingAfterWarmup) {
  const FloatTensor in = testing::random_sign_tensor(Shape{1, 9, 9, 320}, 90);
  const FloatTensor w = testing::random_sign_tensor(Shape{32, 3, 3, 320}, 91);
  const auto bn = testing::random_bn(32, 92);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  for (const bool fuse : {true, false}) {
    for (const bool split : {true, false}) {
      EngineOptions opts;
      opts.fuse_bn_binarize = fuse;
      opts.interior_split = split;
      core::Engine engine(testing::test_device());
      auto session = engine.create_session();
      // c_in=320 > packing threshold forces path B when fused, so the byte
      // map intermediate (the arena's hot customer) is exercised either way.
      core::Network net("conv");
      net.emplace<BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                                std::vector<float>{}, g);
      const core::Blob input{bitpack::pack_signs(in)};
      const core::ExecutionPlan plan =
          net.compile(opts, core::describe_blob(input));

      plan.run(session, input);  // warm-up: arena reaches high-water mark
      const int grows = session.arena().growth_events();
      const std::int64_t cap = session.arena().capacity_bytes();
      for (int i = 0; i < 5; ++i) plan.run(session, input);
      EXPECT_EQ(session.arena().growth_events(), grows)
          << "fuse=" << fuse << " split=" << split;
      EXPECT_EQ(session.arena().capacity_bytes(), cap)
          << "fuse=" << fuse << " split=" << split;
    }
  }
}

/// Arena growth is visible to the simulated device's memory accounting. The
/// session returns its arena to the engine's pool warm (still accounted);
/// only tearing down the engine releases the bytes.
TEST(FastPath, ArenaAccountsAgainstDevice) {
  auto device = testing::test_device();
  const std::int64_t before = device->allocated_bytes();
  {
    core::Engine engine(device);
    {
      auto session = engine.create_session();
      session.arena().u8(1 << 16);
      EXPECT_GE(device->allocated_bytes(), before + (1 << 16));
    }
    // Session gone, arena pooled: bytes stay accounted (warm reuse).
    EXPECT_GE(device->allocated_bytes(), before + (1 << 16));
  }
  EXPECT_EQ(device->allocated_bytes(), before);
}

}  // namespace
}  // namespace phonebit
