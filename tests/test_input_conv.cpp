// First-layer bit-plane convolution (Eqn 2) vs the integer-domain reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::InputConv2d;

FloatTensor reference_input_conv(const U8Tensor& img, const FloatTensor& w,
                                 const std::vector<core::BatchNormParams>& bn,
                                 const std::vector<float>& bias,
                                 const ConvGeometry& g) {
  // Integer pixels, ±1 weights, zero padding; then folded BN + Eqn 8.
  FloatTensor wsign(w.shape(), Layout::kNHWC);
  for (std::int64_t i = 0; i < w.elems(); ++i) {
    wsign.data()[i] = w.data()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  const FloatTensor x1 =
      baselines::conv2d_ref(baselines::u8_to_float(img), wsign, {}, g, 0.0f);
  const auto folded = core::fold_batch_norm(bn, bias);
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

struct InputCase {
  std::int64_t c_in, c_out, hw, k, stride, pad;
};

class InputConvParam : public ::testing::TestWithParam<InputCase> {};

TEST_P(InputConvParam, MatchesIntegerReference) {
  const InputCase p = GetParam();
  const std::uint64_t seed =
      2000 + static_cast<std::uint64_t>(p.c_in * 13 + p.c_out + p.k);
  const U8Tensor img =
      datasets::random_image(Shape{1, p.hw, p.hw, p.c_in}, seed);
  const FloatTensor w = testing::random_float_tensor(
      Shape{p.c_out, p.k, p.k, p.c_in}, seed + 1);
  const auto bn = testing::random_bn(p.c_out, seed + 2);
  const auto bias = testing::random_bias(p.c_out, seed + 3);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = p.k;
  g.stride_h = g.stride_w = p.stride;
  g.pad_h = g.pad_w = p.pad;

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  InputConv2d conv("conv1", bitpack::pack_filter_signs(w), bn, bias, g);
  auto out = conv.forward(ctx, core::Blob{img});
  const auto& packed = std::get<bitpack::PackedTensor>(out);
  EXPECT_TRUE(testing::packed_equals_signs(
      packed, reference_input_conv(img, w, bn, bias, g)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, InputConvParam,
    ::testing::Values(InputCase{3, 16, 12, 3, 1, 1},  // RGB -> 16 (YOLO conv1)
                      InputCase{3, 8, 11, 3, 2, 1},
                      InputCase{3, 96, 23, 11, 4, 0},  // AlexNet conv1 shape
                      InputCase{1, 8, 9, 3, 1, 1},     // grayscale
                      InputCase{4, 24, 10, 5, 1, 2},
                      InputCase{64, 8, 6, 3, 1, 1},    // many input channels
                      InputCase{70, 8, 5, 3, 1, 1}));  // > one word of input

TEST(InputConv, BatchedInput) {
  const U8Tensor img = datasets::random_image(Shape{3, 9, 9, 3}, 30);
  const FloatTensor w = testing::random_float_tensor(Shape{8, 3, 3, 3}, 31);
  const auto bn = testing::random_bn(8, 32);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  InputConv2d conv("conv1", bitpack::pack_filter_signs(w), bn, {}, g);
  auto out = conv.forward(ctx, core::Blob{img});
  EXPECT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(out),
      reference_input_conv(img, w, bn, {}, g)));
}

TEST(InputConv, RejectsPackedInput) {
  const FloatTensor w = testing::random_float_tensor(Shape{8, 3, 3, 3}, 33);
  const auto bn = testing::random_bn(8, 34);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  InputConv2d conv("conv1", bitpack::pack_filter_signs(w), bn, {},
                   ConvGeometry{});
  const FloatTensor x = testing::random_sign_tensor(Shape{1, 5, 5, 3}, 35);
  EXPECT_THROW(conv.forward(ctx, core::Blob{bitpack::pack_signs(x)}),
               InvalidArgument);
}

TEST(InputConv, EightBitEdgeValues) {
  // All-0 and all-255 images exercise every bit plane boundary.
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{255}}) {
    U8Tensor img(Shape{1, 6, 6, 3});
    img.fill(v);
    const FloatTensor w = testing::random_float_tensor(Shape{8, 3, 3, 3}, 36);
    const auto bn = testing::random_bn(8, 37);
    ConvGeometry g;
    g.pad_h = g.pad_w = 1;
    core::Engine engine(testing::test_device());
    auto session = engine.create_session();
    auto ctx = session.context();
    core::InputConv2d conv("conv1", bitpack::pack_filter_signs(w), bn, {}, g);
    auto out = conv.forward(ctx, core::Blob{img});
    EXPECT_TRUE(testing::packed_equals_signs(
        std::get<bitpack::PackedTensor>(out),
        reference_input_conv(img, w, bn, {}, g)));
  }
}

/// Thresholds exactly on reachable Eqn-2 sums and at +-inf, half the
/// gammas negative (testing::tie_bn), under both binarizers and both
/// schedules: the dense schedule's vector epilogue must take the same side
/// of every tie as the reference's scalar Eqn 8. The 11x11 geometry's
/// K = 38 words crosses the microkernel's 31-step byte-counter flush.
TEST(InputConv, ThresholdTiesMatchReference) {
  struct Tie {
    std::int64_t c_in, c_out, hw, k, pad;
  };
  std::uint64_t seed = 2600;
  for (const Tie t : {Tie{3, 16, 12, 3, 1}, Tie{20, 8, 13, 11, 5}}) {
    const U8Tensor img =
        datasets::random_image(Shape{2, t.hw, t.hw, t.c_in}, ++seed);
    const FloatTensor w = testing::random_sign_tensor(
        Shape{t.c_out, t.k, t.k, t.c_in}, ++seed);
    ConvGeometry g;
    g.kernel_h = g.kernel_w = t.k;
    g.pad_h = g.pad_w = t.pad;
    const FloatTensor x1 =
        baselines::conv2d_ref(baselines::u8_to_float(img), w, {}, g, 0.0f);
    const auto bn = testing::tie_bn(x1, ++seed);
    const FloatTensor ref = reference_input_conv(img, w, bn, {}, g);
    for (const bool split : {true, false}) {
      for (const bool branch_free : {true, false}) {
        core::EngineOptions opts;
        opts.interior_split = split;
        opts.branch_free_binarize = branch_free;
        core::Engine engine(testing::test_device(), opts);
        auto session = engine.create_session();
        auto ctx = session.context();
        InputConv2d conv("conv1", bitpack::pack_filter_signs(w), bn, {}, g);
        const auto out = conv.forward(ctx, core::Blob{img});
        EXPECT_TRUE(testing::packed_equals_signs(
            std::get<bitpack::PackedTensor>(out), ref))
            << "k" << t.k << " c" << t.c_in << "->" << t.c_out << " split "
            << split << " branch_free " << branch_free;
      }
    }
  }
}

/// A window whose kh rows of planes exceed the split's stack buffer is
/// rejected on the dense arm (at plan time and at forward); the per-tap
/// arm, which keeps no row buffer, still runs it.
TEST(InputConv, RejectsWindowRowsWiderThanSplitBuffer) {
  const U8Tensor img = datasets::random_image(Shape{1, 11, 11, 300}, 38);
  const FloatTensor w = testing::random_float_tensor(Shape{8, 11, 11, 300}, 39);
  const auto bn = testing::random_bn(8, 40);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = 11;
  for (const bool split : {true, false}) {
    core::EngineOptions opts;
    opts.interior_split = split;
    core::Engine engine(testing::test_device(), opts);
    auto session = engine.create_session();
    auto ctx = session.context();
    core::Network net("wide");
    net.add(std::make_unique<InputConv2d>(
        "conv1", bitpack::pack_filter_signs(w), bn, std::vector<float>{}, g));
    const core::BlobDesc desc{core::BlobKind::kU8, img.shape()};
    if (split) {
      EXPECT_THROW(net.layers()[0]->forward(ctx, core::Blob{img}),
                   InvalidArgument);
      EXPECT_THROW(net.compile(engine, desc), InvalidArgument);
    } else {
      const auto out = net.layers()[0]->forward(ctx, core::Blob{img});
      EXPECT_TRUE(testing::packed_equals_signs(
          std::get<bitpack::PackedTensor>(out),
          reference_input_conv(img, w, bn, {}, g)));
    }
  }
}

// ---------------------------------------------------------------------------
// core::split_row_planes (the row step of `.bitplane_split`) vs plane_byte.
// ---------------------------------------------------------------------------

/// Plane k of the 64 bytes at `block`, one plane_byte per 8 bytes.
std::uint64_t reference_plane_word(const std::uint8_t* block, int k) {
  std::uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t x;
    std::memcpy(&x, block + i * 8, 8);
    word |= core::plane_byte(x, k) << (8 * i);
  }
  return word;
}

TEST(RowPlanes, MatchesPlaneByteReference) {
  // Rows of 1 byte, just below, at and above one word, and a 416-pixel RGB
  // row; margins from 0 to YOLO-to-AlexNet-sized pw * C, and negative ones
  // (a column chunk that starts inside the row). Two words past the row
  // (the look-ahead) must come out zero, and every word must be written.
  Rng rng(0x5b17);
  for (const std::int64_t n : {1, 63, 64, 65, 1248}) {
    std::vector<std::uint8_t> row(static_cast<std::size_t>(n));
    for (auto& b : row) b = static_cast<std::uint8_t>(rng());
    std::vector<std::int64_t> margins = {-130, -64, -63, -1};
    for (std::int64_t m = 0; m <= 20; ++m) margins.push_back(m);
    for (const std::int64_t margin : margins) {
      SCOPED_TRACE("row " + std::to_string(n) + " bytes, margin " +
                   std::to_string(margin));
      const std::int64_t words = std::max<std::int64_t>(
          1, ceil_div(std::max<std::int64_t>(n + margin, 0), 64) + 2);
      // The row as the planes should see it: byte 64j + i - margin at
      // padded[64j + i], zero outside [0, n).
      std::vector<std::uint8_t> padded(static_cast<std::size_t>(words * 64),
                                       0);
      for (std::int64_t i = 0; i < words * 64; ++i) {
        const std::int64_t b = i - margin;
        if (b >= 0 && b < n) {
          padded[static_cast<std::size_t>(i)] =
              row[static_cast<std::size_t>(b)];
        }
      }
      std::vector<std::uint64_t> planes(static_cast<std::size_t>(words * 8),
                                        0xdeadbeefULL);
      core::split_row_planes(row.data(), n, margin, planes.data(), words);
      for (std::int64_t j = 0; j < words; ++j) {
        for (int k = 0; k < 8; ++k) {
          ASSERT_EQ(planes[static_cast<std::size_t>(j * 8 + k)],
                    reference_plane_word(padded.data() + j * 64, k))
              << "plane " << k << ", word " << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded differential oracle: random geometry x options x entry point vs the
// integer-domain reference. The perfbench bit-exact gate cannot see a conv1
// bug (its reference plan runs this same layer), so this is the check.
// ---------------------------------------------------------------------------

enum class Fill { kRandom, kZeros, kOnes };

struct OracleCase {
  std::int64_t c_in, c_out, n, h, w, k, sh, sw, ph, pw;
  bool split, branch_free;
  Fill fill;
  std::uint64_t seed;

  /// One pasteable line: the call `fn` that re-runs exactly this case.
  std::string repro(const char* fn = "check_oracle_case") const {
    std::ostringstream os;
    os << std::boolalpha << "repro: " << fn << "({" << c_in << ", "
       << c_out << ", " << n << ", " << h << ", " << w << ", " << k << ", "
       << sh << ", " << sw << ", " << ph << ", " << pw << ", " << split
       << ", " << branch_free << ", Fill::"
       << (fill == Fill::kRandom  ? "kRandom"
           : fill == Fill::kZeros ? "kZeros"
                                  : "kOnes")
       << ", " << seed << "});  // K = " << k * k * c_in << " bits";
    return os.str();
  }
};

/// BN whose thresholds fall inside the range of x1 = sum_k 2^k <I_k * W>
/// (|x1| grows like 128 * sqrt(K) on random pixels), so the output bits
/// depend on the conv sums, not just on their sign.
std::vector<core::BatchNormParams> oracle_bn(std::int64_t c_out,
                                             std::int64_t k_bits,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const float scale = 128.0f * std::sqrt(static_cast<float>(k_bits));
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < c_out; ++c) {
    core::BatchNormParams p;
    p.gamma = rng.uniform(0.3f, 1.5f) * (rng.uniform() < 0.3f ? -1.0f : 1.0f);
    p.beta = rng.normal() * 0.5f;
    p.mu = rng.normal() * scale;
    p.sigma = rng.uniform(0.5f, 2.0f);
    bn.push_back(p);
  }
  return bn;
}

/// Runs one case through forward, a compiled run, and a compiled run that
/// fills and then reuses a plane cache; every output must equal the
/// reference bit for bit.
void check_oracle_case(const OracleCase& c) {
  SCOPED_TRACE(c.repro());
  const Shape in_shape{c.n, c.h, c.w, c.c_in};
  U8Tensor img = datasets::random_image(in_shape, c.seed);
  if (c.fill != Fill::kRandom) img.fill(c.fill == Fill::kZeros ? 0 : 255);
  const FloatTensor w = testing::random_float_tensor(
      Shape{c.c_out, c.k, c.k, c.c_in}, c.seed + 1);
  const auto bn = oracle_bn(c.c_out, c.k * c.k * c.c_in, c.seed + 2);
  const auto bias = testing::random_bias(c.c_out, c.seed + 3);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = c.k;
  g.stride_h = c.sh;
  g.stride_w = c.sw;
  g.pad_h = c.ph;
  g.pad_w = c.pw;
  const FloatTensor ref = reference_input_conv(img, w, bn, bias, g);

  core::EngineOptions opts;
  opts.interior_split = c.split;
  opts.branch_free_binarize = c.branch_free;
  core::Engine engine(testing::test_device(), opts);
  core::Network net("oracle");
  net.add(std::make_unique<InputConv2d>(
      "conv1", bitpack::pack_filter_signs(w), bn, bias, g));
  const core::Blob input{img};

  auto session = engine.create_session();
  auto ctx = session.context();
  const core::Blob fwd = net.layers()[0]->forward(ctx, input);
  ASSERT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(fwd), ref))
      << "forward diverged";

  const core::ExecutionPlan plan =
      net.compile(engine, core::BlobDesc{core::BlobKind::kU8, in_shape});
  const core::ForwardResult run = plan.run(session, input);
  ASSERT_TRUE(testing::packed_equals_signs(
      std::get<bitpack::PackedTensor>(run.output), ref))
      << "compiled run diverged";

  core::InputPlaneCache cache;
  core::RunOptions ro;
  ro.planes = &cache;
  for (const char* pass : {"fill", "reuse"}) {
    const core::ForwardResult cached = plan.run(session, input, ro);
    ASSERT_TRUE(testing::packed_equals_signs(
        std::get<bitpack::PackedTensor>(cached.output), ref))
        << "plane-cache " << pass << " run diverged";
  }
}

OracleCase random_case(Rng& rng, std::uint64_t seed) {
  static constexpr std::int64_t kKernels[] = {1, 2, 3, 5, 7, 11};
  OracleCase c{};
  c.k = kKernels[rng.below(6)];
  c.c_in = 1 + static_cast<std::int64_t>(rng.below(70));
  c.c_out = 8 * (1 + static_cast<std::int64_t>(rng.below(8)));
  c.n = 1 + static_cast<std::int64_t>(rng.below(3));
  c.sh = 1 + static_cast<std::int64_t>(rng.below(4));
  c.sw = 1 + static_cast<std::int64_t>(rng.below(4));
  c.ph = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(c.k / 2 + 1)));
  c.pw = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(c.k / 2 + 1)));
  // Extents from the smallest valid one (one output row/column) to a few
  // windows past the kernel, H and W drawn independently.
  c.h = std::max<std::int64_t>(1, c.k - 2 * c.ph) +
        static_cast<std::int64_t>(rng.below(9));
  c.w = std::max<std::int64_t>(1, c.k - 2 * c.pw) +
        static_cast<std::int64_t>(rng.below(9));
  c.split = rng.below(2) == 1;
  c.branch_free = rng.below(2) == 1;
  const std::uint64_t f = rng.below(10);
  c.fill = f == 0 ? Fill::kZeros : f == 1 ? Fill::kOnes : Fill::kRandom;
  c.seed = seed;
  return c;
}

TEST(InputConvOracle, RandomGeometriesMatchIntegerReference) {
  Rng rng(0x1c0de);
  for (int i = 0; i < 160; ++i) {
    const OracleCase c = random_case(rng, 5000 + static_cast<std::uint64_t>(i));
    check_oracle_case(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InputConvOracle, PanelWordBoundaries) {
  // K = k*k*C just below, at and just above 64 and 128 bits, plus K words
  // that a single tap spans (C > 64), on both schedules and both
  // binarizers, with random, all-0 and all-255 images.
  struct Kc {
    std::int64_t k, c_in;
  };
  std::uint64_t seed = 7000;
  for (const Kc kc : {Kc{3, 7}, Kc{2, 16}, Kc{3, 8}, Kc{1, 64}, Kc{1, 65},
                      Kc{3, 14}, Kc{2, 32}, Kc{3, 15}, Kc{11, 1}, Kc{5, 3},
                      Kc{7, 3}, Kc{1, 70}}) {
    for (const Fill fill : {Fill::kRandom, Fill::kZeros, Fill::kOnes}) {
      for (const bool split : {true, false}) {
        for (const bool branch_free : {true, false}) {
          OracleCase c{kc.c_in, 16, 2,  kc.k + 3, kc.k + 4, kc.k, 1, 2,
                       kc.k / 2, kc.k / 2, split, branch_free, fill, ++seed};
          check_oracle_case(c);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

/// A drawn case whose rows span several words: W up to about 200, so the
/// runs start at every bit offset mod 64, with the image-like channel
/// counts and the zoo's odd kernels, on the dense arm.
OracleCase wide_row_case(Rng& rng, std::uint64_t seed) {
  static constexpr std::int64_t kKernels[] = {1, 3, 5, 7, 11};
  const auto draw = [&rng](std::int64_t n) {
    return static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  OracleCase c{};
  c.k = kKernels[draw(5)];
  c.c_in = 1 + draw(4);
  c.c_out = 8 * (1 + draw(2));
  c.n = 1 + draw(2);
  c.sh = 1 + draw(4);
  c.sw = 1 + draw(4);
  c.ph = draw(c.k / 2 + 1);
  c.pw = draw(c.k / 2 + 1);
  c.h = std::max<std::int64_t>(1, c.k - 2 * c.ph) + draw(3);
  c.w = std::max<std::int64_t>(1, c.k - 2 * c.pw) + draw(190);
  c.split = true;
  c.branch_free = draw(2) == 1;
  const std::int64_t f = draw(10);
  c.fill = f == 0 ? Fill::kZeros : f == 1 ? Fill::kOnes : Fill::kRandom;
  c.seed = seed;
  return c;
}

/// Dense-arm geometries whose kh rows of planes exceed the split's stack
/// buffer, so kernel 1 runs in 2-3 output-column chunks: AlexNet's conv1 on
/// a 1100-pixel row, a padded 7x7 on a 1300-pixel row, and 70 channels.
const OracleCase kChunkedCases[] = {
    {3, 8, 1, 11, 1100, 11, 4, 4, 0, 0, true, false, Fill::kRandom, 7500},
    {4, 8, 1, 7, 1300, 7, 1, 1, 3, 3, true, true, Fill::kRandom, 7501},
    {70, 8, 1, 13, 80, 11, 1, 1, 2, 5, true, false, Fill::kRandom, 7502},
};

TEST(InputConvOracle, WideRows) {
  Rng rng(0x31de);
  for (int i = 0; i < 48; ++i) {
    check_oracle_case(wide_row_case(rng, 7100 + static_cast<std::uint64_t>(i)));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const OracleCase& c : kChunkedCases) {
    check_oracle_case(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The dense panel of `img` under `g`, built byte by byte: per output pixel
/// the window's K bytes in (ky, kx, c) order, zero for padding taps and
/// past K, split per 64-byte K word with plane_byte; plane k of a pixel at
/// its row + k * k_words.
std::vector<std::uint64_t> reference_panel(const U8Tensor& img,
                                           const ConvGeometry& g) {
  const Shape& s = img.shape();
  const std::int64_t oh = g.out_h(s.h), ow = g.out_w(s.w);
  const std::int64_t k_words = ceil_div(g.kernel_h * g.kernel_w * s.c, 64);
  std::vector<std::uint64_t> panel(
      static_cast<std::size_t>(s.n * oh * ow * 8 * k_words));
  std::vector<std::uint8_t> window(static_cast<std::size_t>(k_words * 64));
  std::uint64_t* row = panel.data();
  for (std::int64_t n = 0; n < s.n; ++n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, row += 8 * k_words) {
        std::fill(window.begin(), window.end(), std::uint8_t{0});
        std::size_t q = 0;
        for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
          for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
            const std::int64_t iy = oy * g.stride_h - g.pad_h + ky;
            const std::int64_t ix = ox * g.stride_w - g.pad_w + kx;
            const bool inside = iy >= 0 && iy < s.h && ix >= 0 && ix < s.w;
            for (std::int64_t c = 0; c < s.c; ++c, ++q) {
              if (inside) window[q] = img(n, iy, ix, c);
            }
          }
        }
        for (int k = 0; k < 8; ++k) {
          for (std::int64_t j = 0; j < k_words; ++j) {
            row[k * k_words + j] =
                reference_plane_word(window.data() + j * 64, k);
          }
        }
      }
    }
  }
  return panel;
}

/// Fills a plane cache through a compiled run and compares its panel with
/// reference_panel word for word.
void check_panel_case(const OracleCase& c) {
  SCOPED_TRACE(c.repro("check_panel_case"));
  const Shape in_shape{c.n, c.h, c.w, c.c_in};
  U8Tensor img = datasets::random_image(in_shape, c.seed);
  if (c.fill != Fill::kRandom) img.fill(c.fill == Fill::kZeros ? 0 : 255);
  const FloatTensor w = testing::random_float_tensor(
      Shape{c.c_out, c.k, c.k, c.c_in}, c.seed + 1);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = c.k;
  g.stride_h = c.sh;
  g.stride_w = c.sw;
  g.pad_h = c.ph;
  g.pad_w = c.pw;
  core::Engine engine(testing::test_device());
  core::Network net("panel");
  net.add(std::make_unique<InputConv2d>(
      "conv1", bitpack::pack_filter_signs(w), testing::random_bn(c.c_out, 1),
      std::vector<float>{}, g));
  const core::ExecutionPlan plan =
      net.compile(engine, core::BlobDesc{core::BlobKind::kU8, in_shape});
  auto session = engine.create_session();
  core::InputPlaneCache cache;
  core::RunOptions ro;
  ro.planes = &cache;
  plan.run(session, core::Blob{img}, ro);
  ASSERT_TRUE(cache.filled);
  const std::vector<std::uint64_t> want = reference_panel(img, g);
  ASSERT_EQ(cache.words.size(), want.size());
  const std::int64_t k_words = ceil_div(c.k * c.k * c.c_in, 64);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto r = static_cast<std::int64_t>(i);
    ASSERT_EQ(cache.words[i], want[i])
        << "pixel " << r / (8 * k_words) << ", plane "
        << r / k_words % 8 << ", K word " << r % k_words;
  }
}

TEST(InputConvOracle, PlaneCachePanelMatchesPlaneByteReference) {
  // Wide drawn rows, the chunked geometries, YOLO's conv1 on a 40x40 image
  // and a K that is exactly one word.
  Rng rng(0xba5e);
  for (int i = 0; i < 24; ++i) {
    check_panel_case(wide_row_case(rng, 7200 + static_cast<std::uint64_t>(i)));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const OracleCase& c : kChunkedCases) {
    check_panel_case(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
  check_panel_case(
      {3, 16, 1, 40, 40, 3, 1, 1, 1, 1, true, false, Fill::kRandom, 7300});
  check_panel_case(
      {4, 8, 2, 9, 33, 4, 2, 3, 1, 2, true, true, Fill::kOnes, 7301});
}

}  // namespace
}  // namespace phonebit
