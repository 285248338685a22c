// PhoneBit — binarization decision (Eqns 7–9).
//
// After folding, the sign of x3 = (gamma/sigma)(x1 - xi) depends only on
// x1 vs xi and the sign of gamma (Eqn 8). GPUs pay for divergent branches,
// so §VI-C rewrites the four-way check as the Karnaugh-reduced boolean
// function x4 = (A xor B) or C with A = (x1 < xi), B = (gamma > 0),
// C = (x1 == xi), evaluated with OpenCL's isless/isgreater/isequal.
#pragma once

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "simd/vec.hpp"

namespace phonebit::core {

/// Eqn 8: the divergent reference implementation (four-way branch).
inline bool binarize_eqn8(float x1, float xi, bool gamma_pos) {
  if (gamma_pos) {
    if (x1 >= xi) return true;   // x1 >= xi, gamma > 0 -> 1
    return false;                // x1 <  xi, gamma > 0 -> 0
  }
  if (x1 <= xi) return true;     // x1 <= xi, gamma < 0 -> 1
  return false;                  // x1 >  xi, gamma < 0 -> 0
}

/// Eqn 9: branch-free x4 = (A xor B) or C.
inline bool binarize_eqn9(float x1, float xi, bool gamma_pos) {
  const int a = simd::isless(x1, xi);
  const int b = gamma_pos ? 1 : 0;
  const int c = simd::isequal(x1, xi);
  return ((a ^ b) | c) != 0;
}

/// Binarizes one workload group into its packed output byte: bit f is Eqn 9
/// (`branch_free`) or Eqn 8 of (x1[f], xi[f], gamma_pos[f] != 0), with
/// x1 converted to float as the scalar forms see it. With AVX2 the 8
/// lanes take one float compare per predicate and a movemask; the ordered
/// predicates (false on NaN) keep each arm's exact scalar semantics.
inline std::uint8_t binarize_group(const std::int32_t x1[8], const float xi[8],
                                   const std::uint8_t gamma_pos[8],
                                   bool branch_free) {
#if defined(__AVX2__)
  const __m256 x = _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1)));
  const __m256 t = _mm256_loadu_ps(xi);
  const __m128i gp =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(gamma_pos));
  const int gamma_mask =
      ~_mm_movemask_epi8(_mm_cmpeq_epi8(gp, _mm_setzero_si128())) & 0xff;
  if (branch_free) {
    // x4 = (A xor B) or C
    const int a = _mm256_movemask_ps(_mm256_cmp_ps(x, t, _CMP_LT_OQ));
    const int c = _mm256_movemask_ps(_mm256_cmp_ps(x, t, _CMP_EQ_OQ));
    return static_cast<std::uint8_t>((a ^ gamma_mask) | c);
  }
  const int ge = _mm256_movemask_ps(_mm256_cmp_ps(x, t, _CMP_GE_OQ));
  const int le = _mm256_movemask_ps(_mm256_cmp_ps(x, t, _CMP_LE_OQ));
  return static_cast<std::uint8_t>((ge & gamma_mask) | (le & ~gamma_mask));
#else
  unsigned byte = 0;
  for (int f = 0; f < 8; ++f) {
    const float v = static_cast<float>(x1[f]);
    const bool bit = branch_free ? binarize_eqn9(v, xi[f], gamma_pos[f] != 0)
                                 : binarize_eqn8(v, xi[f], gamma_pos[f] != 0);
    byte |= static_cast<unsigned>(bit) << f;
  }
  return static_cast<std::uint8_t>(byte);
#endif
}

/// Plain Eqn 7 sign binarization (x4 = 1 iff x >= 0); the pack-time rule.
inline bool binarize_sign(float x) { return x >= 0.0f; }

}  // namespace phonebit::core
