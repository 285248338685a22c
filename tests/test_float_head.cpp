// Full-precision head (FloatConv2d, FloatDense) vs scalar references that
// add in the float4 dot loop's association. Inputs are ±1 (packed) or drawn
// from {±0.5, ±1, ±2}, so every product is exact and FMA contraction cannot
// change a sum: the outputs must match byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>

#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::FloatConv2d;
using core::FloatDense;

/// acc + (((x0 w0 + x1 w1) + x2 w2) + x3 w3) per 4-element group, then one
/// product per tail element: the association of simd::dot over float4
/// loads followed by the scalar tail.
float dot_in_float4_order(const float* x, const float* w, std::int64_t len,
                          float acc) {
  std::int64_t c = 0;
  for (; c + 4 <= len; c += 4) {
    acc += ((x[c] * w[c] + x[c + 1] * w[c + 1]) + x[c + 2] * w[c + 2]) +
           x[c + 3] * w[c + 3];
  }
  for (; c < len; ++c) acc += x[c] * w[c];
  return acc;
}

FloatTensor reference_conv(const FloatTensor& x, const FloatTensor& w,
                           const std::vector<float>& bias,
                           const ConvGeometry& g) {
  const Shape& is = x.shape();
  const std::int64_t c_out = w.shape().n;
  const std::int64_t oh = g.out_h(is.h), ow = g.out_w(is.w);
  FloatTensor out(Shape{is.n, oh, ow, c_out}, Layout::kNHWC);
  for (std::int64_t n = 0; n < is.n; ++n)
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t xo = 0; xo < ow; ++xo)
        for (std::int64_t co = 0; co < c_out; ++co) {
          float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(co)];
          for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const std::int64_t iy = y * g.stride_h - g.pad_h + ky;
            if (iy < 0 || iy >= is.h) continue;
            for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const std::int64_t ix = xo * g.stride_w - g.pad_w + kx;
              if (ix < 0 || ix >= is.w) continue;
              acc = dot_in_float4_order(&x(n, iy, ix, 0), &w(co, ky, kx, 0),
                                        is.c, acc);
            }
          }
          out(n, y, xo, co) = acc;
        }
  return out;
}

/// Input activations: ±1 (the packed domain) or values from
/// {±0.5, ±1, ±2}, whose products with any weight are exact.
FloatTensor head_input(const Shape& s, bool packed, std::uint64_t seed) {
  if (packed) return testing::random_sign_tensor(s, seed);
  static constexpr float kValues[] = {-2.0f, -1.0f, -0.5f, 0.5f, 1.0f, 2.0f};
  Rng rng(seed);
  FloatTensor t(s, Layout::kNHWC);
  for (std::int64_t i = 0; i < t.elems(); ++i) {
    t.data()[i] = kValues[rng.below(6)];
  }
  return t;
}

core::Blob as_blob(const FloatTensor& x, bool packed) {
  if (packed) return core::Blob{bitpack::pack_signs(x)};
  return core::Blob{x};
}

/// Runs `layer` through forward and through a compiled one-layer plan; both
/// outputs must equal `ref` byte for byte.
void check_layer(std::unique_ptr<core::Layer> layer, const FloatTensor& x,
                 bool packed, const FloatTensor& ref) {
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  const core::Blob input = as_blob(x, packed);
  const core::Blob fwd = layer->forward(ctx, input);
  ASSERT_TRUE(testing::expect_bitexact(std::get<FloatTensor>(fwd), ref))
      << "forward diverged";

  core::Network net("head");
  net.add(std::move(layer));
  const core::ExecutionPlan plan = net.compile(
      engine, core::BlobDesc{packed ? core::BlobKind::kPacked
                                    : core::BlobKind::kFloat,
                             x.shape()});
  const core::ForwardResult run = plan.run(session, input);
  ASSERT_TRUE(
      testing::expect_bitexact(std::get<FloatTensor>(run.output), ref))
      << "compiled run diverged";
}

// ---------------------------------------------------------------------------
// FloatConv2d

struct HeadCase {
  std::int64_t c_in, c_out, n, h, w, k, stride, pad;
  bool packed;
  std::uint64_t seed;

  /// One pasteable line: the call that re-runs exactly this case.
  std::string repro() const {
    std::ostringstream os;
    os << std::boolalpha << "repro: check_head_case({" << c_in << ", "
       << c_out << ", " << n << ", " << h << ", " << w << ", " << k << ", "
       << stride << ", " << pad << ", " << packed << ", " << seed << "});";
    return os.str();
  }
};

void check_head_case(const HeadCase& c) {
  SCOPED_TRACE(c.repro());
  ConvGeometry g;
  g.kernel_h = g.kernel_w = c.k;
  g.stride_h = g.stride_w = c.stride;
  g.pad_h = g.pad_w = c.pad;
  const FloatTensor x =
      head_input(Shape{c.n, c.h, c.w, c.c_in}, c.packed, c.seed);
  const FloatTensor w = testing::random_float_tensor(
      Shape{c.c_out, c.k, c.k, c.c_in}, c.seed + 1);
  // Odd seeds run without a bias (the accumulator starts at 0).
  const std::vector<float> bias =
      c.seed % 2 == 0 ? testing::random_bias(c.c_out, c.seed + 2)
                      : std::vector<float>{};
  const FloatTensor ref = reference_conv(x, w, bias, g);
  check_layer(std::make_unique<FloatConv2d>("conv", w, bias, g), x, c.packed,
              ref);
}

/// Extents from the smallest valid one to a few windows past the kernel,
/// H and W drawn independently: a row of 4 output pixels spans borders,
/// the interior and the partial last block.
HeadCase random_extent(HeadCase c, Rng& rng) {
  const std::int64_t lo = std::max<std::int64_t>(1, c.k - 2 * c.pad);
  c.h = lo + static_cast<std::int64_t>(rng.below(9));
  c.w = lo + static_cast<std::int64_t>(rng.below(9));
  return c;
}

constexpr std::int64_t kCin[] = {1, 3, 65, 1024};
constexpr std::int64_t kCout[] = {1, 15, 16, 17, 125};

TEST(FloatHeadOracle, ChannelCountsMatchReference) {
  // Every C_in (tail lengths 1, 3, 1 and 0) x every C_out (one partial
  // 16-lane block, exactly one, one plus a lane, 7 full + 13 lanes), with
  // a drawn geometry and batch.
  Rng rng(0xf10a7);
  std::uint64_t seed = 100;
  for (const std::int64_t c_in : kCin) {
    for (const std::int64_t c_out : kCout) {
      for (const bool packed : {true, false}) {
        HeadCase c{};
        c.c_in = c_in;
        c.c_out = c_out;
        c.k = rng.below(2) == 0 ? 1 : 3;
        c.stride = 1 + static_cast<std::int64_t>(rng.below(2));
        c.pad = c.k == 3 ? static_cast<std::int64_t>(rng.below(2)) : 0;
        c.n = rng.below(2) == 0 ? 1 : 3;
        c.packed = packed;
        c.seed = ++seed;
        check_head_case(random_extent(c, rng));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(FloatHeadOracle, GeometriesMatchReference) {
  // Kernel 1x1 and 3x3, stride 1 and 2, pad 0 and 1, N 1 and 3, packed and
  // float input, with drawn channel counts.
  Rng rng(0x9e0);
  std::uint64_t seed = 500;
  for (const std::int64_t k : {1, 3}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1}) {
        for (const std::int64_t n : {1, 3}) {
          for (const bool packed : {true, false}) {
            HeadCase c{};
            c.c_in = kCin[rng.below(4)];
            c.c_out = kCout[rng.below(5)];
            c.k = k;
            c.stride = stride;
            c.pad = pad;
            c.n = n;
            c.packed = packed;
            c.seed = ++seed;
            check_head_case(random_extent(c, rng));
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(FloatHeadOracle, FullSizeGeometries) {
  // YOLOv2-Tiny's conv9 (1x1, 13x13x1024 -> 125, packed input), a padded
  // 3x3 whose rows hold both interior and border blocks, and a packed input
  // whose last channel word is more than half full (100 = 64 + 36 bits).
  check_head_case({1024, 125, 1, 13, 13, 1, 1, 0, true, 9});
  check_head_case({65, 33, 2, 13, 13, 3, 1, 1, false, 10});
  check_head_case({100, 20, 1, 7, 7, 3, 2, 1, true, 11});
}

// ---------------------------------------------------------------------------
// FloatDense (packed input: the word-wise unpack, then fdense_dot)

TEST(FloatHeadOracle, DensePackedInputMatchesReference) {
  struct DenseCase {
    std::int64_t n, h, w, c, units;
  };
  std::uint64_t seed = 900;
  for (const DenseCase d : {DenseCase{1, 1, 1, 64, 10},
                            DenseCase{3, 1, 1, 65, 17},
                            DenseCase{2, 3, 3, 5, 1},
                            DenseCase{1, 2, 2, 130, 16},
                            DenseCase{2, 1, 2, 100, 9},
                            DenseCase{3, 4, 4, 64, 12}}) {
    ++seed;
    std::ostringstream tag;
    tag << "dense n" << d.n << " " << d.h << "x" << d.w << "x" << d.c
        << " -> " << d.units << " seed " << seed;
    SCOPED_TRACE(tag.str());
    const FloatTensor x =
        testing::random_sign_tensor(Shape{d.n, d.h, d.w, d.c}, seed);
    const std::int64_t features = d.h * d.w * d.c;
    const FloatTensor w =
        testing::random_float_tensor(Shape{d.units, 1, 1, features}, seed + 1);
    const std::vector<float> bias = testing::random_bias(d.units, seed + 2);
    FloatTensor ref(Shape{d.n, 1, 1, d.units}, Layout::kNHWC);
    for (std::int64_t s = 0; s < d.n; ++s) {
      for (std::int64_t u = 0; u < d.units; ++u) {
        ref(s, 0, 0, u) = dot_in_float4_order(
            &x(s, 0, 0, 0), &w(u, 0, 0, 0), features,
            bias[static_cast<std::size_t>(u)]);
      }
    }
    check_layer(std::make_unique<FloatDense>("fc", w, bias), x,
                /*packed=*/true, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace phonebit
