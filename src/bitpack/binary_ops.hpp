// PhoneBit — binary dot-product primitives (Eqn 1 of the paper).
//
// The inner loops of every binary convolution/dense kernel reduce to
// "xor two packed spans and popcount", executed at a chosen vectorization
// granularity: the paper packs with OpenCL vector types from uchar (8-bit)
// up to ulong16 (1024-bit) and selects the kernel by channel count (§V-A.2).
// The memory format is always 64-bit words; PackWidth selects how wide the
// *processing* vectors are, which is what the granularity ablation measures.
//
// The GEMM (every binary conv path) and bit-plane (input layer)
// microkernels are the exception: they score the 8 filters of a workload
// group at once from a filter-interleaved panel, with a SIMD body (AVX-512
// vpopcntq, AVX2 or scalar) fixed at compile time by the CPU flags;
// PackWidth only prices them.
#pragma once

#include <cstdint>
#include <vector>

#include "bitpack/packed_tensor.hpp"

namespace phonebit::bitpack {

/// Vectorization granularity for bit-wise kernels, in bits.
enum class PackWidth : int {
  k8 = 8,      ///< uchar
  k16 = 16,    ///< ushort
  k32 = 32,    ///< uint
  k64 = 64,    ///< ulong
  k128 = 128,  ///< ulong2
  k256 = 256,  ///< ulong4
  k512 = 512,  ///< ulong8
  k1024 = 1024 ///< ulong16 — the paper's widest granularity
};

/// Width in bits as an int.
constexpr int bits(PackWidth w) noexcept { return static_cast<int>(w); }

/// The paper selects "the optimal bit packing strategy and computing kernel
/// according to channel dimensions": the widest vector that does not
/// overshoot one pixel's packed channel span.
PackWidth select_pack_width(std::int64_t channels) noexcept;

/// Granularity for a row-fused span of `span_words` 64-bit words: the width
/// minimizing the per-row instruction count (full vectors + scalar tail
/// words), ties to the wider vector. Unlike the channel rule this accounts
/// for the tail — a 12-word span runs 3 exact ulong4 ops rather than one
/// ulong8 op plus 4 scalar tail words.
PackWidth select_pack_width_for_span(std::int64_t span_words) noexcept;

/// Caps `w` to the widest granularity whose lane count fits `span_words`
/// (floor one word): a vector wider than the whole span executes as the
/// 64-bit scalar tail loop, so cost models must not charge it at the wide
/// rate. Span-keyed selection never overshoots — only fixed-width
/// ablations hit the cap.
PackWidth cap_pack_width_to_span(PackWidth w,
                                 std::int64_t span_words) noexcept;

/// popcount(xor(a, b)) over `nwords` 64-bit words, processed at granularity
/// `w`. With the ±1 encoding this counts sign mismatches, so the Eqn-1 dot
/// is `len - 2 * xor_popcount(...)`.
std::int64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w);

/// popcount(and(a, b)) over `nwords` words at granularity `w`; used by the
/// 0/1 bit-plane first layer (Eqn 2).
std::int64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w);

/// M-rows of one bit-GEMM register tile (the conv path-D microkernel).
inline constexpr int kGemmMr = 4;

/// Filter-interleaved weight panel (DESIGN.md §11), laid out
/// `[group][k][8 filters]`: word k of filter f lands at
/// `panel[((f / 8) * k_words + k) * 8 + f % 8]`, so one 512-bit vector
/// holds word k of all 8 filters of a workload group. `w` holds `filters`
/// contiguous filter rows of `k_words` words each; when `filters` is not a
/// multiple of 8 the last group is padded with all-zero filters. Derived
/// state: layers build it at construction and never serialize it.
std::vector<std::uint64_t> interleave_filter_panel(const std::uint64_t* w,
                                                   std::int64_t filters,
                                                   std::int64_t k_words);

/// Name of the compiled body of the two group microkernels below:
/// "avx512-vpopcntq" (one zmm, native 64-bit lane popcount), "avx2" (two
/// ymm, vpshufb byte lookups) or "scalar" (eight words).
const char* lanes8_body() noexcept;

/// Register-tiled bit-GEMM microkernel (DESIGN.md §11): scores up to
/// kGemmMr rows of A against one filter group of an interleave_filter_panel
/// (`panel` at the group's K * 8 words). Row r's K = segs * seg_words words
/// are `segs` runs, run s at `a + r * a_stride + s * seg_stride`: kh runs of
/// kw*words words at the input row pitch for a conv window read in place
/// (paths A-C), one run for an im2col row (path D). Each K step loads the
/// group's 8 filter words as one vector, xors it with each row's broadcast
/// word and popcounts the result lane by lane.
/// The body (lanes8_body()) is fixed at compile time by the CPU flags:
/// AVX-512 counts each 64-bit lane with vpopcntq; AVX2 counts bits per
/// byte with table lookups and flushes the byte counters into 64-bit lanes
/// (sum of absolute differences) every 31 steps, before any can wrap;
/// scalar counts words. `out[r * 8 + f]` receives row r's mismatch count
/// against filter f; bit-exact with rows*8 xor_popcount calls. Requires
/// K < 2^25 words so counts fit int32.
void xor_popcount_gemm_x8(const std::uint64_t* a, std::int64_t a_stride,
                          std::int64_t seg_words, std::int64_t seg_stride,
                          std::int64_t segs, const std::uint64_t* panel,
                          std::int64_t rows, std::int32_t* out);

/// The tile over dense rows of `k_words` words, `a_stride` apart.
inline void xor_popcount_gemm_x8(const std::uint64_t* a, std::int64_t a_stride,
                                 const std::uint64_t* panel,
                                 std::int64_t k_words, std::int64_t rows,
                                 std::int32_t* out) {
  xor_popcount_gemm_x8(a, a_stride, k_words, 0, 1, panel, rows, out);
}

/// Bit-plane microkernel (the input conv's dense schedule, Eqn 2): each
/// im2col panel row holds a window's 8 bit planes back to back, plane k at
/// `row + k * k_words` with the window's K bits packed densely. Scores
/// `rows` panel rows (`a_stride` words apart) against one filter group of
/// an interleave_filter_panel (`panel` at the group's `k_words * 8`
/// words): each plane word is broadcast and and-ed with the group's filter
/// vector, and its counts are scaled by 2^plane (planes 0-3 and 4-7 share
/// two counters, the second shifted by 4 when flushed; the AVX2 body's
/// byte counters are flushed every 2 steps). `out[r * 8 + f]` receives
/// sum_k 2^k popcount(a_rk AND b_f), the weighted half of Eqn 2. Requires
/// k_words < 2^17 so sums fit int32.
void and_popcount_planes_x8(const std::uint64_t* a, std::int64_t a_stride,
                            const std::uint64_t* panel, std::int64_t k_words,
                            std::int64_t rows, std::int32_t* out);

/// The weight-independent half of Eqn 2 for `rows` panel rows laid out as
/// in and_popcount_planes_x8: `sums[r]` = sum_k 2^k popcount(a_rk), which
/// is the integer pixel sum of row r's window.
void plane_window_sums(const std::uint64_t* a, std::int64_t a_stride,
                       std::int64_t k_words, std::int64_t rows,
                       std::int64_t* sums);

/// popcount(a) over `nwords` words.
std::int64_t popcount_words(const std::uint64_t* a, std::int64_t nwords);

/// Eqn 1: dot of two ±1 vectors of true length `len` stored in packed spans
/// (padding bits zero in both operands).
inline std::int64_t binary_dot(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords, std::int64_t len,
                               PackWidth w = PackWidth::k64) {
  return len - 2 * xor_popcount(a, b, nwords, w);
}

/// Dot of a 0/1 bit-plane `p` against ±1 weights `wbits`:
/// sum_i p_i * w_i = 2*popcount(p & w) - popcount(p).
inline std::int64_t plane_dot(const std::uint64_t* p,
                              const std::uint64_t* wbits, std::int64_t nwords,
                              PackWidth w = PackWidth::k64) {
  return 2 * and_popcount(p, wbits, nwords, w) - popcount_words(p, nwords);
}

}  // namespace phonebit::bitpack
