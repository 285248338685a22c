// Popcount microkernels (DESIGN.md §11) vs scalar reference tiles.
//
// xor_popcount_gemm_x8 (paths A and D) and and_popcount_planes_x8 (the input
// conv) read a filter-interleaved panel and popcount one 64-bit lane per
// filter. The body is fixed at compile time (bitpack::lanes8_body()):
// AVX-512 counts whole lanes with vpopcntq; the AVX2 body counts bits per
// byte and must flush its byte counters before they can wrap (every 31 K
// steps for xor, every 2 for the plane-weighted counts). The reference
// tiles below read the plain filter-major rows with one scalar popcount
// per word, so a wrong panel layout, a lane mix-up, a dropped tail step or
// (AVX2) a flush interval long enough to wrap a byte counter all show up
// as a count mismatch. The all-ones fills put 8 bits in every byte of
// every step, the worst case for the byte counters. Each failure prints a
// pasteable `repro: check_kernel_case({...})` line.
//
// SegmentedGemmTile checks the GEMM tile on rows stored in runs (path A's
// conv windows read in place) against the same reference over the
// gathered rows.
//
// MicrokernelBody guards the body choice itself: a native AVX-512 build on
// a CPU with VPOPCNTDQ must compile the vpopcntq body, since a silent
// fallback to the AVX2 body keeps every count right and only shows as lost
// speed.
//
// binarize_group, the vectorized epilogue both kernels feed, is checked
// against the scalar Eqn 8 / Eqn 9 forms on ties, infinities and NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bitpack/binary_ops.hpp"
#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/binarize.hpp"

namespace phonebit {
namespace {

/// Scalar reference of xor_popcount_gemm_x8: filter f's K words at
/// `w + f * k_words`.
void reference_gemm_tile(const std::uint64_t* a, std::int64_t a_stride,
                         const std::uint64_t* w, std::int64_t k_words,
                         std::int64_t rows, std::int64_t* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t f = 0; f < 8; ++f) {
      std::int64_t s = 0;
      for (std::int64_t k = 0; k < k_words; ++k) {
        s += popcount(a[r * a_stride + k] ^ w[f * k_words + k]);
      }
      out[r * 8 + f] = s;
    }
  }
}

/// Scalar reference of and_popcount_planes_x8: plane p of row r at
/// `a + r * a_stride + p * k_words`, filter f at `w + f * k_words`.
void reference_planes_tile(const std::uint64_t* a, std::int64_t a_stride,
                           const std::uint64_t* w, std::int64_t k_words,
                           std::int64_t rows, std::int64_t* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t f = 0; f < 8; ++f) {
      std::int64_t s = 0;
      for (std::int64_t p = 0; p < 8; ++p) {
        for (std::int64_t k = 0; k < k_words; ++k) {
          const std::uint64_t plane = a[r * a_stride + p * k_words + k];
          s += static_cast<std::int64_t>(popcount(plane & w[f * k_words + k]))
               << p;
        }
      }
      out[r * 8 + f] = s;
    }
  }
}

enum class Kernel { kGemm, kPlanes };
enum class Fill { kRandom, kOnesVsZeros, kOnes };

struct KernelCase {
  Kernel kernel;
  std::int64_t k_words, rows;
  std::int64_t row_pad;  ///< extra words between consecutive A rows
  std::int64_t groups;   ///< filter groups in the panel; the last is scored
  Fill fill;
  std::uint64_t seed;

  std::string repro() const {
    std::ostringstream os;
    os << "repro: check_kernel_case({Kernel::"
       << (kernel == Kernel::kGemm ? "kGemm" : "kPlanes") << ", " << k_words
       << ", " << rows << ", " << row_pad << ", " << groups << ", Fill::"
       << (fill == Fill::kRandom        ? "kRandom"
           : fill == Fill::kOnesVsZeros ? "kOnesVsZeros"
                                        : "kOnes")
       << ", " << seed << "});";
    return os.str();
  }
};

void check_kernel_case(const KernelCase& c) {
  SCOPED_TRACE(c.repro());
  const bool gemm = c.kernel == Kernel::kGemm;
  const std::int64_t row_words = (gemm ? 1 : 8) * c.k_words;
  const std::int64_t a_stride = row_words + c.row_pad;
  const std::int64_t filters = 8 * c.groups;

  Rng rng(c.seed);
  std::vector<std::uint64_t> a(
      static_cast<std::size_t>(std::max<std::int64_t>(1, c.rows) * a_stride));
  std::vector<std::uint64_t> w(static_cast<std::size_t>(filters * c.k_words));
  const std::uint64_t a_fill = ~std::uint64_t{0};
  const std::uint64_t w_fill = c.fill == Fill::kOnes ? ~std::uint64_t{0} : 0;
  for (auto& x : a) x = c.fill == Fill::kRandom ? rng() : a_fill;
  for (auto& x : w) x = c.fill == Fill::kRandom ? rng() : w_fill;

  const std::vector<std::uint64_t> panel =
      bitpack::interleave_filter_panel(w.data(), filters, c.k_words);
  ASSERT_EQ(panel.size(), w.size());
  const std::int64_t g = c.groups - 1;
  const std::uint64_t* group_panel = panel.data() + g * 8 * c.k_words;
  const std::uint64_t* group_rows = w.data() + g * 8 * c.k_words;

  // Sentinels past the tile catch a kernel writing more than rows x 8.
  constexpr std::int32_t kSentinel = -12345;
  std::vector<std::int32_t> got(static_cast<std::size_t>(c.rows * 8 + 8),
                                kSentinel);
  std::vector<std::int64_t> want(static_cast<std::size_t>(c.rows * 8));
  if (gemm) {
    bitpack::xor_popcount_gemm_x8(a.data(), a_stride, group_panel, c.k_words,
                                  c.rows, got.data());
    reference_gemm_tile(a.data(), a_stride, group_rows, c.k_words, c.rows,
                        want.data());
  } else {
    bitpack::and_popcount_planes_x8(a.data(), a_stride, group_panel,
                                    c.k_words, c.rows, got.data());
    reference_planes_tile(a.data(), a_stride, group_rows, c.k_words, c.rows,
                          want.data());
  }
  for (std::int64_t i = 0; i < c.rows * 8; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              want[static_cast<std::size_t>(i)])
        << "row " << i / 8 << " filter " << i % 8;
  }
  for (std::int64_t i = c.rows * 8; i < c.rows * 8 + 8; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], kSentinel)
        << "wrote past the tile at slot " << i;
  }
}

/// K from 0 (path D) or 1 (planes) to 300 words: every value up to 70,
/// then the flush boundaries (multiples of 31 and their neighbours) and a
/// few long reductions.
std::vector<std::int64_t> k_sweep(std::int64_t first) {
  std::vector<std::int64_t> ks;
  for (std::int64_t k = first; k <= 70; ++k) ks.push_back(k);
  for (const std::int64_t k : {92, 93, 94, 123, 124, 125, 155, 186, 217, 247,
                               248, 249, 279, 300}) {
    ks.push_back(k);
  }
  return ks;
}

constexpr Fill kFills[] = {Fill::kRandom, Fill::kOnesVsZeros, Fill::kOnes};

TEST(MicrokernelOracle, GemmTileMatchesScalarReference) {
  Rng rng(0x6e33);
  std::uint64_t seed = 1000;
  for (const std::int64_t k : k_sweep(0)) {
    for (std::int64_t rows = 1; rows <= bitpack::kGemmMr; ++rows) {
      for (const Fill fill : kFills) {
        check_kernel_case({Kernel::kGemm, k, rows,
                           static_cast<std::int64_t>(rng.below(4)),
                           1 + static_cast<std::int64_t>(rng.below(3)), fill,
                           ++seed});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MicrokernelOracle, PlanesTileMatchesScalarReference) {
  Rng rng(0x91a5);
  std::uint64_t seed = 5000;
  for (const std::int64_t k : k_sweep(1)) {
    for (std::int64_t rows = 0; rows <= 16; ++rows) {
      // Every row count on random data; the saturating fills on a few.
      for (const Fill fill : kFills) {
        if (fill != Fill::kRandom && rows % 5 != 1) continue;
        check_kernel_case({Kernel::kPlanes, k, rows,
                           static_cast<std::int64_t>(rng.below(4)),
                           1 + static_cast<std::int64_t>(rng.below(3)), fill,
                           ++seed});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MicrokernelOracle, InterleavedPanelLayout) {
  // word k of filter f at ((f / 8) * K + k) * 8 + f % 8
  const std::int64_t filters = 24, k_words = 5;
  std::vector<std::uint64_t> w(static_cast<std::size_t>(filters * k_words));
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = i;
  const auto panel =
      bitpack::interleave_filter_panel(w.data(), filters, k_words);
  for (std::int64_t f = 0; f < filters; ++f) {
    for (std::int64_t k = 0; k < k_words; ++k) {
      EXPECT_EQ(panel[static_cast<std::size_t>(((f / 8) * k_words + k) * 8 +
                                               f % 8)],
                static_cast<std::uint64_t>(f * k_words + k));
    }
  }
  // A partial last group is padded with all-zero filters: 12 filters fill
  // lanes 0-3 of group 1, and lanes 4-7 hold zero words.
  const std::int64_t partial = 12;
  const auto padded =
      bitpack::interleave_filter_panel(w.data(), partial, k_words);
  ASSERT_EQ(padded.size(), static_cast<std::size_t>(16 * k_words));
  for (std::int64_t f = 0; f < 16; ++f) {
    for (std::int64_t k = 0; k < k_words; ++k) {
      EXPECT_EQ(padded[static_cast<std::size_t>(((f / 8) * k_words + k) * 8 +
                                                f % 8)],
                f < partial ? static_cast<std::uint64_t>(f * k_words + k) : 0)
          << "filter " << f << " word " << k;
    }
  }
}

TEST(SegmentedGemmTile, MatchesGatheredDenseRows) {
  // Path A reads conv windows in place: row r's K words are segs runs of
  // seg_words words, run s at a + r * a_stride + s * seg_stride. The tile
  // must count exactly what the scalar reference counts over the gathered
  // dense rows, including AVX2 flushes that fall inside a run (the
  // all-ones-vs-zeros fill saturates every byte counter).
  Rng rng(0x5e9);
  for (const std::int64_t seg_words : {1, 2, 3, 7, 12, 30, 31, 32}) {
    for (const std::int64_t segs : {1, 2, 3, 5, 9}) {
      for (std::int64_t rows = 1; rows <= bitpack::kGemmMr; ++rows) {
        for (const Fill fill : {Fill::kRandom, Fill::kOnesVsZeros}) {
          const std::int64_t k_words = seg_words * segs;
          const std::int64_t a_stride =
              seg_words + static_cast<std::int64_t>(rng.below(3));
          const std::int64_t seg_stride =
              rows * a_stride + static_cast<std::int64_t>(rng.below(5));
          SCOPED_TRACE(::testing::Message()
                       << "seg_words " << seg_words << " segs " << segs
                       << " rows " << rows << " a_stride " << a_stride
                       << " seg_stride " << seg_stride);
          std::vector<std::uint64_t> a(
              static_cast<std::size_t>(segs * seg_stride));
          std::vector<std::uint64_t> w(static_cast<std::size_t>(8 * k_words));
          for (auto& x : a) x = fill == Fill::kRandom ? rng() : ~0ull;
          for (auto& x : w) x = fill == Fill::kRandom ? rng() : 0;
          std::vector<std::uint64_t> dense(
              static_cast<std::size_t>(rows * k_words));
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t k = 0; k < k_words; ++k) {
              dense[static_cast<std::size_t>(r * k_words + k)] =
                  a[static_cast<std::size_t>(r * a_stride +
                                             (k / seg_words) * seg_stride +
                                             k % seg_words)];
            }
          }
          const std::vector<std::uint64_t> panel =
              bitpack::interleave_filter_panel(w.data(), 8, k_words);
          std::int32_t got[bitpack::kGemmMr * 8];
          std::int64_t want[bitpack::kGemmMr * 8];
          bitpack::xor_popcount_gemm_x8(a.data(), a_stride, seg_words,
                                        seg_stride, segs, panel.data(), rows,
                                        got);
          reference_gemm_tile(dense.data(), k_words, w.data(), k_words, rows,
                              want);
          for (std::int64_t i = 0; i < rows * 8; ++i) {
            ASSERT_EQ(got[i], want[i]) << "row " << i / 8 << " filter " << i % 8;
          }
        }
      }
    }
  }
}

TEST(MicrokernelBody, AvxVpopcntqHostCompilesVpopcntqBody) {
#if defined(__AVX512F__)
  if (!__builtin_cpu_supports("avx512vpopcntdq")) {
    GTEST_SKIP() << "CPU lacks AVX-512 VPOPCNTDQ; body is "
                 << bitpack::lanes8_body();
  }
  EXPECT_STREQ(bitpack::lanes8_body(), "avx512-vpopcntq")
      << "an AVX-512 build on a VPOPCNTDQ CPU fell back to a slower body; "
         "check CMake's PHONEBIT_OK_vpopcntq probe";
#else
  GTEST_SKIP() << "build without AVX-512F; body is " << bitpack::lanes8_body();
#endif
}

TEST(MicrokernelOracle, BinarizeGroupMatchesScalarEqns) {
  // Thresholds on ties, neighbours, infinities and NaN; both gamma signs
  // in every group. Eqn 8 and Eqn 9 differ only on NaN (Eqn 8 yields 0,
  // Eqn 9 yields gamma_pos), which the scalar forms define.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.5f, -7.0f, 7.0f,
                            inf, -inf, nan, 1e9f, -1e9f};
  Rng rng(0xb1a);
  for (int trial = 0; trial < 4000; ++trial) {
    std::int32_t x1[8];
    float xi[8];
    std::uint8_t gamma_pos[8];
    for (int f = 0; f < 8; ++f) {
      x1[f] = static_cast<std::int32_t>(rng.below(21)) - 10;
      if (rng.below(8) == 0) x1[f] = static_cast<std::int32_t>(rng()) >> 1;
      const std::uint64_t pick = rng.below(4);
      xi[f] = pick == 0   ? static_cast<float>(x1[f])  // exact tie
              : pick == 1 ? specials[rng.below(std::size(specials))]
                          : static_cast<float>(x1[f]) +
                                (rng.below(2) == 0 ? 0.5f : -1.0f);
      gamma_pos[f] = static_cast<std::uint8_t>(rng.below(3));  // 0, 1, 2
    }
    for (const bool branch_free : {true, false}) {
      unsigned want = 0;
      for (int f = 0; f < 8; ++f) {
        const float v = static_cast<float>(x1[f]);
        const bool bit =
            branch_free ? core::binarize_eqn9(v, xi[f], gamma_pos[f] != 0)
                        : core::binarize_eqn8(v, xi[f], gamma_pos[f] != 0);
        want |= static_cast<unsigned>(bit) << f;
      }
      ASSERT_EQ(core::binarize_group(x1, xi, gamma_pos, branch_free), want)
          << "trial " << trial << " branch_free " << branch_free;
    }
  }
}

}  // namespace
}  // namespace phonebit
