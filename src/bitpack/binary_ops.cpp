#include "bitpack/binary_ops.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "simd/vec.hpp"

namespace phonebit::bitpack {
namespace {

// Narrow-granularity kernels view the 64-bit words as byte/short/int lanes;
// wide-granularity kernels process ulongN vectors with a scalar tail.

template <typename Lane>
std::int64_t xor_popcount_narrow(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 std::int64_t nwords) {
  const auto* pa = reinterpret_cast<const Lane*>(a);
  const auto* pb = reinterpret_cast<const Lane*>(b);
  const std::int64_t n = nwords * static_cast<std::int64_t>(8 / sizeof(Lane));
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    total += popcount(static_cast<Lane>(pa[i] ^ pb[i]));
  }
  return total;
}

template <typename Lane>
std::int64_t and_popcount_narrow(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 std::int64_t nwords) {
  const auto* pa = reinterpret_cast<const Lane*>(a);
  const auto* pb = reinterpret_cast<const Lane*>(b);
  const std::int64_t n = nwords * static_cast<std::int64_t>(8 / sizeof(Lane));
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    total += popcount(static_cast<Lane>(pa[i] & pb[i]));
  }
  return total;
}

// Wide kernels accumulate popcounts lane-wise (simd::popcount_accumulate)
// and reduce once per span, keeping the horizontal add out of the loop.
template <int Lanes>
std::int64_t xor_popcount_wide(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  std::int64_t i = 0;
  for (; i + Lanes <= nwords; i += Lanes) {
    const V va = simd::vload<std::uint64_t, Lanes>(0, a + i);
    const V vb = simd::vload<std::uint64_t, Lanes>(0, b + i);
    simd::popcount_accumulate(acc, va ^ vb);
  }
  for (; i < nwords; ++i) tail += popcount(a[i] ^ b[i]);
  return simd::reduce_add(acc) + tail;
}

template <int Lanes>
std::int64_t and_popcount_wide(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  std::int64_t i = 0;
  for (; i + Lanes <= nwords; i += Lanes) {
    const V va = simd::vload<std::uint64_t, Lanes>(0, a + i);
    const V vb = simd::vload<std::uint64_t, Lanes>(0, b + i);
    simd::popcount_accumulate(acc, va & vb);
  }
  for (; i < nwords; ++i) tail += popcount(a[i] & b[i]);
  return simd::reduce_add(acc) + tail;
}

}  // namespace

PackWidth select_pack_width_for_span(std::int64_t span_words) noexcept {
  // instrs(W) = floor(span/lanes) vector ops + (span % lanes) scalar tail
  // ops; sub-word granularities only split words into more instructions, so
  // candidates start at one word. Widths whose lane count overshoots the
  // whole span never issue a vector op and are skipped.
  PackWidth best = PackWidth::k64;
  std::int64_t best_instrs = span_words;
  for (const PackWidth w : {PackWidth::k128, PackWidth::k256, PackWidth::k512,
                            PackWidth::k1024}) {
    const std::int64_t lanes = bits(w) / static_cast<int>(kWordBits);
    if (lanes > span_words) break;
    const std::int64_t instrs = span_words / lanes + span_words % lanes;
    if (instrs <= best_instrs) {
      best = w;
      best_instrs = instrs;
    }
  }
  return best;
}

PackWidth cap_pack_width_to_span(PackWidth w,
                                 std::int64_t span_words) noexcept {
  while (bits(w) / static_cast<int>(kWordBits) > span_words &&
         w != PackWidth::k64) {
    w = static_cast<PackWidth>(bits(w) / 2);
  }
  return w;
}

PackWidth select_pack_width(std::int64_t channels) noexcept {
  // Widest granularity whose span still fits the packed channel run of one
  // pixel; below 64 channels narrow kernels avoid wasted lanes.
  if (channels >= 1024) return PackWidth::k1024;
  if (channels >= 512) return PackWidth::k512;
  if (channels >= 256) return PackWidth::k256;
  if (channels >= 128) return PackWidth::k128;
  if (channels >= 64) return PackWidth::k64;
  if (channels >= 32) return PackWidth::k32;
  if (channels >= 16) return PackWidth::k16;
  return PackWidth::k8;
}

std::int64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w) {
  PB_CHECK(nwords >= 0, "negative word count");
  switch (w) {
    case PackWidth::k8:
      return xor_popcount_narrow<std::uint8_t>(a, b, nwords);
    case PackWidth::k16:
      return xor_popcount_narrow<std::uint16_t>(a, b, nwords);
    case PackWidth::k32:
      return xor_popcount_narrow<std::uint32_t>(a, b, nwords);
    case PackWidth::k64: {
      std::int64_t total = 0;
      for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i] ^ b[i]);
      return total;
    }
    case PackWidth::k128:
      return xor_popcount_wide<2>(a, b, nwords);
    case PackWidth::k256:
      return xor_popcount_wide<4>(a, b, nwords);
    case PackWidth::k512:
      return xor_popcount_wide<8>(a, b, nwords);
    case PackWidth::k1024:
      return xor_popcount_wide<16>(a, b, nwords);
  }
  throw InvalidArgument("unknown pack width");
}

std::int64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w) {
  PB_CHECK(nwords >= 0, "negative word count");
  switch (w) {
    case PackWidth::k8:
      return and_popcount_narrow<std::uint8_t>(a, b, nwords);
    case PackWidth::k16:
      return and_popcount_narrow<std::uint16_t>(a, b, nwords);
    case PackWidth::k32:
      return and_popcount_narrow<std::uint32_t>(a, b, nwords);
    case PackWidth::k64: {
      std::int64_t total = 0;
      for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i] & b[i]);
      return total;
    }
    case PackWidth::k128:
      return and_popcount_wide<2>(a, b, nwords);
    case PackWidth::k256:
      return and_popcount_wide<4>(a, b, nwords);
    case PackWidth::k512:
      return and_popcount_wide<8>(a, b, nwords);
    case PackWidth::k1024:
      return and_popcount_wide<16>(a, b, nwords);
  }
  throw InvalidArgument("unknown pack width");
}

namespace {

// --- 8-lane group vectors ---------------------------------------------------
//
// The GEMM and bit-plane microkernels score one workload group of 8 filters
// per instruction: a Lanes8 holds one 64-bit word per filter (lane f =
// filter f), which is exactly one K step of a filter-interleaved panel.
// The body is chosen at compile time: one zmm with the native 64-bit lane
// popcount (vpopcntq) when CMake's vpopcntq probe defines
// PHONEBIT_VPOPCNTQ, else two ymm (AVX2), else eight scalar words.
//
// The global flags keep -mno-avx512vpopcntdq: GCC 12.2 folds the
// auto-vectorized ulong4 popcount of constant lanes wrongly with it (the
// ladder's PHONEBIT_POPCNT_SANITY probe reads popcount(0x3) == 3), although
// the hardware counts correctly. So only the AVX-512 body, written in
// intrinsics, is built with the instruction, under a target pragma that
// spans the Lanes8 primitives and the two tile templates below.
//
// Counter contract: byte_popcount<S>() yields per-lane counts scaled by
// 2^S (S <= 3) in the body's counter format, which add_counts()
// accumulates until lane_sums() reduces them to one 64-bit count per lane.
// The AVX-512 and scalar bodies count whole 64-bit lanes, so their
// counters cannot wrap and lane_sums() is the identity. The AVX2 body
// counts per byte with vpshufb lookups and sums each lane's 8 byte
// counters with vpsadbw, so a byte counter must be flushed before it
// passes 255:
//   - xor-popcount gains at most 8 per step: flush every kFlushSteps = 31
//     steps (248);
//   - the bit-plane kernel adds planes 0-3 (and, in a second counter
//     shifted by 4 at the flush, planes 4-7) with S = plane index, at most
//     8 * (1 + 2 + 4 + 8) = 120 per step: flush every
//     kPlaneFlushSteps = 2 steps (240).
// kByteCounters: the GEMM tile flushes only in that body; the bit-plane
// tile flushes at its interval whatever the body.
constexpr std::int64_t kFlushSteps = 31;
constexpr std::int64_t kPlaneFlushSteps = 2;

#if defined(__AVX512F__) && defined(PHONEBIT_VPOPCNTQ)

#pragma GCC push_options
#pragma GCC target("avx512vpopcntdq")

constexpr const char* kLanes8Body = "avx512-vpopcntq";
constexpr bool kByteCounters = false;

struct Lanes8 {
  __m512i v;
};

inline Lanes8 zero8() { return {_mm512_setzero_si512()}; }
inline Lanes8 load8(const std::uint64_t* p) {
  return {_mm512_loadu_si512(p)};
}
inline Lanes8 broadcast8(std::uint64_t x) {
  return {_mm512_set1_epi64(static_cast<long long>(x))};
}
inline Lanes8 operator^(Lanes8 a, Lanes8 b) {
  return {_mm512_xor_si512(a.v, b.v)};
}
inline Lanes8 operator&(Lanes8 a, Lanes8 b) {
  return {_mm512_and_si512(a.v, b.v)};
}
template <int S = 0>
inline Lanes8 byte_popcount(Lanes8 x) {
  return {_mm512_slli_epi64(_mm512_popcnt_epi64(x.v), S)};
}
inline Lanes8 add64(Lanes8 a, Lanes8 b) {
  return {_mm512_add_epi64(a.v, b.v)};
}
inline Lanes8 add_counts(Lanes8 a, Lanes8 b) { return add64(a, b); }
inline Lanes8 lane_sums(Lanes8 x) { return x; }
inline Lanes8 shl64(Lanes8 a, int k) {
  return {_mm512_sll_epi64(a.v, _mm_cvtsi32_si128(k))};
}
/// Narrows the 8 lane totals to int32 (the callers bound K so they fit).
inline void store_i32(Lanes8 x, std::int32_t* out) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm512_cvtepi64_epi32(x.v));
}

#elif defined(__AVX2__)

constexpr const char* kLanes8Body = "avx2";
constexpr bool kByteCounters = true;

struct Lanes8 {
  __m256i lo, hi;  // filters 0-3, 4-7
};

inline Lanes8 zero8() {
  return {_mm256_setzero_si256(), _mm256_setzero_si256()};
}
inline Lanes8 load8(const std::uint64_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4))};
}
inline Lanes8 broadcast8(std::uint64_t x) {
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(x));
  return {v, v};
}
inline Lanes8 operator^(Lanes8 a, Lanes8 b) {
  return {_mm256_xor_si256(a.lo, b.lo), _mm256_xor_si256(a.hi, b.hi)};
}
inline Lanes8 operator&(Lanes8 a, Lanes8 b) {
  return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
}
/// Nibble-LUT vpshufb popcount of every byte, scaled by 2^S.
template <int S>
inline __m256i byte_popcount256(__m256i x) {
  const __m256i lut = _mm256_setr_epi8(
      0 << S, 1 << S, 1 << S, 2 << S, 1 << S, 2 << S, 2 << S, 3 << S, 1 << S,
      2 << S, 2 << S, 3 << S, 2 << S, 3 << S, 3 << S, 4 << S, 0 << S, 1 << S,
      1 << S, 2 << S, 1 << S, 2 << S, 2 << S, 3 << S, 1 << S, 2 << S, 2 << S,
      3 << S, 2 << S, 3 << S, 3 << S, 4 << S);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}
template <int S = 0>
inline Lanes8 byte_popcount(Lanes8 x) {
  return {byte_popcount256<S>(x.lo), byte_popcount256<S>(x.hi)};
}
inline Lanes8 add_counts(Lanes8 a, Lanes8 b) {
  return {_mm256_add_epi8(a.lo, b.lo), _mm256_add_epi8(a.hi, b.hi)};
}
inline Lanes8 lane_sums(Lanes8 x) {
  const __m256i z = _mm256_setzero_si256();
  return {_mm256_sad_epu8(x.lo, z), _mm256_sad_epu8(x.hi, z)};
}
inline Lanes8 add64(Lanes8 a, Lanes8 b) {
  return {_mm256_add_epi64(a.lo, b.lo), _mm256_add_epi64(a.hi, b.hi)};
}
inline Lanes8 shl64(Lanes8 a, int k) {
  const __m128i s = _mm_cvtsi32_si128(k);
  return {_mm256_sll_epi64(a.lo, s), _mm256_sll_epi64(a.hi, s)};
}
inline void store_i32(Lanes8 x, std::int32_t* out) {
  // The low dword of every 64-bit lane, in lane order.
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i lo = _mm256_permutevar8x32_epi32(x.lo, idx);
  const __m256i hi = _mm256_permutevar8x32_epi32(x.hi, idx);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
}

#else

constexpr const char* kLanes8Body = "scalar";
constexpr bool kByteCounters = false;

using Lanes8 = simd::ulong8;

inline Lanes8 zero8() { return Lanes8{}; }
inline Lanes8 load8(const std::uint64_t* p) {
  return simd::vload<std::uint64_t, 8>(0, p);
}
inline Lanes8 broadcast8(std::uint64_t x) { return Lanes8(x); }
inline Lanes8 add_counts(Lanes8 a, Lanes8 b) { return a + b; }
inline Lanes8 lane_sums(Lanes8 x) { return x; }
inline Lanes8 add64(Lanes8 a, Lanes8 b) { return a + b; }
inline Lanes8 shl64(Lanes8 a, int k) {
  for (int f = 0; f < 8; ++f) a[f] <<= k;
  return a;
}
template <int S = 0>
inline Lanes8 byte_popcount(Lanes8 x) {
  return shl64(simd::popcount(x), S);
}
inline void store_i32(Lanes8 x, std::int32_t* out) {
  for (int f = 0; f < 8; ++f) out[f] = static_cast<std::int32_t>(x[f]);
}

#endif

/// One Rows x 8 register tile with a compile-time row count, so the
/// accumulators are a true register array. Row r's K words are `segs`
/// segments of `seg_words` words, segment s at
/// a + r * a_stride + s * seg_stride. Each K step loads the group's 8
/// filter words as one Lanes8 and scores it against every row's broadcast
/// word. Only the AVX2 body flushes its counters (every kFlushSteps steps,
/// across segment ends); whole-lane counts accumulate in `counts` itself.
template <int Rows>
void gemm_tile(const std::uint64_t* a, std::int64_t a_stride,
               std::int64_t seg_words, std::int64_t seg_stride,
               std::int64_t segs, const std::uint64_t* panel,
               std::int32_t* out) {
  Lanes8 acc[Rows], counts[Rows];
  for (int r = 0; r < Rows; ++r) acc[r] = counts[r] = zero8();
  const auto flush = [&] {
    for (int r = 0; r < Rows; ++r) {
      acc[r] = add64(acc[r], lane_sums(counts[r]));
      counts[r] = zero8();
    }
  };
  std::int64_t left = kFlushSteps;  // AVX2: steps before the next flush
  for (std::int64_t s = 0; s < segs;
       ++s, a += seg_stride, panel += seg_words * 8) {
    for (std::int64_t k = 0; k < seg_words; ++k) {
      const Lanes8 w = load8(panel + k * 8);
      for (int r = 0; r < Rows; ++r) {
        counts[r] = add_counts(
            counts[r], byte_popcount(broadcast8(a[r * a_stride + k]) ^ w));
      }
      if (kByteCounters && --left == 0) {
        flush();
        left = kFlushSteps;
      }
    }
  }
  flush();
  for (int r = 0; r < Rows; ++r) store_i32(acc[r], out + r * 8);
}

/// Adds plane S (to `low`) and plane S + 4 (to `high`) of panel-row word
/// j, and-ed with the group's filter words `w`, each scaled by 2^S.
template <int S>
inline void add_plane_pair(Lanes8& low, Lanes8& high, const std::uint64_t* row,
                           std::int64_t k_words, std::int64_t j, Lanes8 w) {
  low = add_counts(low, byte_popcount<S>(broadcast8(row[S * k_words + j]) & w));
  high = add_counts(
      high, byte_popcount<S>(broadcast8(row[(S + 4) * k_words + j]) & w));
}

/// The bit-plane tile with the K-word count as a template parameter when
/// it is known (KWords > 0): YOLO-style input layers (K <= 64 bits) then
/// load the group's filter words once for all rows. Planes 0-3 and 4-7
/// accumulate in two weighted counters; the high one is shifted by 4
/// when both are flushed.
template <int KWords>
void planes_x8_tile(const std::uint64_t* a, std::int64_t a_stride,
                    const std::uint64_t* panel, std::int64_t k_words,
                    std::int64_t rows, std::int32_t* out) {
  if constexpr (KWords > 0) k_words = KWords;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* row = a + r * a_stride;
    Lanes8 acc = zero8();
    for (std::int64_t j0 = 0; j0 < k_words; j0 += kPlaneFlushSteps) {
      const std::int64_t j1 = std::min(k_words, j0 + kPlaneFlushSteps);
      Lanes8 low = zero8(), high = zero8();
      for (std::int64_t j = j0; j < j1; ++j) {
        const Lanes8 w = load8(panel + j * 8);
        add_plane_pair<0>(low, high, row, k_words, j, w);
        add_plane_pair<1>(low, high, row, k_words, j, w);
        add_plane_pair<2>(low, high, row, k_words, j, w);
        add_plane_pair<3>(low, high, row, k_words, j, w);
      }
      acc = add64(acc, add64(lane_sums(low), shl64(lane_sums(high), 4)));
    }
    store_i32(acc, out + r * 8);
  }
}

#if defined(__AVX512F__) && defined(PHONEBIT_VPOPCNTQ)
#pragma GCC pop_options
#endif

template <int KWords>
void window_sums_tile(const std::uint64_t* a, std::int64_t a_stride,
                      std::int64_t k_words, std::int64_t rows,
                      std::int64_t* sums) {
  if constexpr (KWords > 0) k_words = KWords;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* row = a + r * a_stride;
    std::int64_t s = 0;
    for (int k = 0; k < 8; ++k) {
      std::int64_t bits = 0;
      for (std::int64_t j = 0; j < k_words; ++j) {
        bits += popcount(row[k * k_words + j]);
      }
      s += bits << k;
    }
    sums[r] = s;
  }
}

}  // namespace

const char* lanes8_body() noexcept { return kLanes8Body; }

std::vector<std::uint64_t> interleave_filter_panel(const std::uint64_t* w,
                                                   std::int64_t filters,
                                                   std::int64_t k_words) {
  PB_CHECK(filters >= 0 && k_words >= 0, "negative filter panel geometry");
  std::vector<std::uint64_t> panel(
      static_cast<std::size_t>(ceil_div(filters, 8) * 8 * k_words), 0);
  for (std::int64_t f = 0; f < filters; ++f) {
    std::uint64_t* dst = panel.data() + (f / 8) * k_words * 8 + f % 8;
    for (std::int64_t k = 0; k < k_words; ++k) dst[k * 8] = w[f * k_words + k];
  }
  return panel;
}

void xor_popcount_gemm_x8(const std::uint64_t* a, std::int64_t a_stride,
                          std::int64_t seg_words, std::int64_t seg_stride,
                          std::int64_t segs, const std::uint64_t* panel,
                          std::int64_t rows, std::int32_t* out) {
  // Counts are at most 64 * K words and must fit the int32 outputs.
  PB_CHECK(seg_words >= 0 && segs >= 0 &&
               seg_words * segs < (std::int64_t{1} << 25) && rows >= 1 &&
               rows <= kGemmMr,
           "bad GEMM tile geometry");
  static constexpr decltype(&gemm_tile<1>) kTiles[] = {
      gemm_tile<1>, gemm_tile<2>, gemm_tile<3>, gemm_tile<4>};
  static_assert(std::size(kTiles) == kGemmMr);
  kTiles[rows - 1](a, a_stride, seg_words, seg_stride, segs, panel, out);
}

void and_popcount_planes_x8(const std::uint64_t* a, std::int64_t a_stride,
                            const std::uint64_t* panel, std::int64_t k_words,
                            std::int64_t rows, std::int32_t* out) {
  // Sums are at most 255 * 64 * k_words and must fit the int32 outputs.
  PB_CHECK(k_words >= 1 && k_words < (std::int64_t{1} << 17) && rows >= 0,
           "bad bit-plane tile geometry");
  if (k_words == 1) return planes_x8_tile<1>(a, a_stride, panel, 1, rows, out);
  planes_x8_tile<0>(a, a_stride, panel, k_words, rows, out);
}

void plane_window_sums(const std::uint64_t* a, std::int64_t a_stride,
                       std::int64_t k_words, std::int64_t rows,
                       std::int64_t* sums) {
  PB_CHECK(k_words >= 1 && rows >= 0, "bad bit-plane tile geometry");
  if (k_words == 1) return window_sums_tile<1>(a, a_stride, 1, rows, sums);
  window_sums_tile<0>(a, a_stride, k_words, rows, sums);
}

std::int64_t popcount_words(const std::uint64_t* a, std::int64_t nwords) {
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i]);
  return total;
}

}  // namespace phonebit::bitpack
