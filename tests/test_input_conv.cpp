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

// ---------------------------------------------------------------------------
// PanelRowWriter (the body of `.bitplane_split`) vs plane_byte.
// ---------------------------------------------------------------------------

TEST(PanelRowWriter, MatchesPlaneByteReference) {
  // Windows just below, at and above one K word, the YOLO conv1 window (27
  // bytes) and a three-word window, streamed in random pieces of image
  // bytes and zero padding.
  Rng rng(0x5b17);
  for (const std::int64_t len : {27, 63, 64, 65, 147}) {
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE("window " + std::to_string(len) + " bytes, trial " +
                   std::to_string(trial));
      const std::int64_t k_words = ceil_div(len, 64);
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(k_words * 64),
                                      0);
      std::vector<std::uint64_t> row(static_cast<std::size_t>(8 * k_words),
                                     0xdeadbeefULL);
      core::PanelRowWriter writer(row.data(), k_words);
      for (std::int64_t at = 0; at < len;) {
        const std::int64_t n = std::min<std::int64_t>(
            len - at, 1 + static_cast<std::int64_t>(rng.below(40)));
        const bool padding = rng.below(4) == 0;
        for (std::int64_t i = 0; i < n; ++i) {
          bytes[static_cast<std::size_t>(at + i)] =
              padding ? 0 : static_cast<std::uint8_t>(rng());
        }
        writer.append(padding ? nullptr : bytes.data() + at, n);
        at += n;
      }
      writer.finish();
      for (std::int64_t j = 0; j < k_words; ++j) {
        for (int k = 0; k < 8; ++k) {
          std::uint64_t want = 0;
          for (int i = 0; i < 8; ++i) {
            std::uint64_t x;
            std::memcpy(&x, bytes.data() + j * 64 + i * 8, 8);
            want |= core::plane_byte(x, k) << (8 * i);
          }
          ASSERT_EQ(row[static_cast<std::size_t>(k * k_words + j)], want)
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

  /// One pasteable line: the call that re-runs exactly this case.
  std::string repro() const {
    std::ostringstream os;
    os << std::boolalpha << "repro: check_oracle_case({" << c_in << ", "
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

}  // namespace
}  // namespace phonebit
