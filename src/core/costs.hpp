// PhoneBit — cost accounting for the engine's kernels.
//
// Each layer's price() counts the work its kernels genuinely perform
// (bit-lane ops, scalar ops, DRAM traffic, launches), once per plan step at
// compile or artifact load; dispatch hands that tally to the oclsim
// roofline model. The efficiency constants below are the only calibrated
// quantities; they are engine-wide (never per-network or per-layer), so
// every relative result — speedups between engines, fusion/packing/layout
// ablations — emerges from counted work, not tuning. Calibration rationale
// is documented in EXPERIMENTS.md.
#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "oclsim/cost_model.hpp"
#include "tensor/shape.hpp"

namespace phonebit::core::costs {

/// Fraction of peak ALU throughput PhoneBit's hand-tuned binary kernels
/// reach on Adreno (occupancy, addressing, barriers).
inline constexpr double kBinaryKernelEff = 0.18;

/// Efficiency of the full-precision last-layer kernel using the OpenCL
/// float4 `dot` built-in (the paper credits conv9's 3x over the baseline to
/// this SIMD issue advantage).
inline constexpr double kFloatDotEff = 0.06;

/// Efficiency of auxiliary scalar kernels (packing, pooling, bit-plane
/// splitting) — memory-bound, modest ALU pressure.
inline constexpr double kAuxKernelEff = 0.30;

/// Effective-bandwidth fractions for the two layouts (§V-A.1, §VI-A.2):
/// NHWC packed rows are unit-stride and coalesce; NCHW channel gathers
/// hit one word per cache line.
inline constexpr double kCoalesceNHWC = 0.85;
inline constexpr double kCoalesceNCHW = 0.25;

/// Extra bandwidth derating when vectorized (128-bit) load/store is
/// disabled (§VI-A.1): scalar accesses waste most of each memory
/// transaction.
inline constexpr double kScalarLoadPenalty = 0.45;

/// Per-vector-instruction loop/bookkeeping overhead in ALU cycles; constant
/// across pack widths, which is why wide packing wins (§V-A.2).
inline constexpr double kInstrOverheadCycles = 1.0;

/// Fixed setup cost of one contiguous xor+popcount span: address arithmetic,
/// loop prologue and the final lane reduction, in ALU cycles. Row fusion
/// (DESIGN.md §4) wins by issuing kh spans per conv window instead of kh*kw,
/// so each window amortizes this constant kw times better.
inline constexpr double kSpanSetupCycles = 6.0;

/// Per-vector-instruction overhead of the lane-accumulating row-fused inner
/// loop: the horizontal popcount reduction is hoisted out of the loop
/// (one reduce per span, charged in kSpanSetupCycles), leaving only the
/// address increment per vector op.
inline constexpr double kRowFusedInstrOverheadCycles = 0.5;

/// Span-setup units per OUTPUT of the shared-window interior schedule
/// (8-filter workload groups, Fig. 4): the group-window streams its kh
/// input row spans ONCE (setup amortized over the 8 filters that score
/// against them) and pays one lane-accumulator reduction per filter —
/// versus `kh` full span setups per filter when each filter re-walks the
/// window independently.
inline double shared_window_spans(double kh) { return kh / 8.0 + 1.0; }

/// Per-vector-op overhead of the register-tiled bit-GEMM inner loop
/// (DESIGN.md §11): the MRx8 accumulator tile lives in registers for the
/// whole K reduction, so the loop body is pure xor+popcount+add with the
/// loads amortized over the tile (4 a-words + 8 b-words feed 32 ops) —
/// below even the row-fused lane-accumulator rate.
inline constexpr double kGemmInstrOverheadCycles = 0.25;

/// Fixed setup of one MRx8 GEMM register tile: zeroing the accumulator
/// block, panel address setup, and the per-filter epilogue reduction, in
/// ALU cycles. Charged once per tile (span_count), not per output.
inline constexpr double kGemmTileSetupCycles = 8.0;

/// Work charged per delta-word correction of the partial-popcount reuse
/// schedule (DESIGN.md §12), in equivalent 64-bit lane ops: load the patched
/// a-word and dict word, two xors, two popcounts, and the signed fixup —
/// about four word ops where the plain kernel spends one per K word. Reuse
/// wins exactly when unique_rows * k_words + deltas * this constant beats
/// c_out * k_words, which is what modeled selection compares.
inline constexpr double kReuseDeltaWordOps = 4.0;

/// Bit-lane ops of one im2col panel scored by the reuse schedule: every
/// unique dictionary row pays the full 2-op/word xor+popcount reduction per
/// panel row (stage 1, computed once per m-tile), and every delta entry pays
/// the word-granular correction per panel row (stage 2).
inline double reuse_gemm_bitop_bits(double m, double unique_rows,
                                    double k_words, double delta_words) {
  return m * (unique_rows * 2.0 * k_words * 64.0 +
              delta_words * kReuseDeltaWordOps * 64.0);
}

/// Span-setup units per OUTPUT of the dedup'd shared-window interior
/// schedule (path A with an intra-group duplicate-lane table): only the
/// `distinct_frac` fraction of a group's 8 lanes streams its kh row spans;
/// duplicate lanes copy an earlier lane's mismatch counts for free.
inline double dedup_window_spans(double kh, double distinct_frac) {
  return kh * distinct_frac;
}

/// Additional instruction overhead when vectorized loads are off (each
/// operand arrives in pieces).
inline constexpr double kScalarLoadInstrOverhead = 2.0;

/// Additional per-vector-op overhead under NCHW: channel bits are strided,
/// so every packed operand needs gather address arithmetic on top of the
/// bandwidth penalty (§V-A.1).
inline constexpr double kNchwGatherInstrOverhead = 1.5;

/// ALU derating of the divergent Eqn-8 binarization: half the wave idles
/// while each branch path retires (§VI-C). Applied to the whole fused
/// kernel's efficiency when branch-free mode is off.
inline constexpr double kDivergencePenalty = 0.55;

/// Coalescing / efficiency helpers reading the engine options.
inline double coalescing(const EngineOptions& o) {
  double c = o.layout == Layout::kNHWC ? kCoalesceNHWC : kCoalesceNCHW;
  if (!o.vectorized_loads) c *= kScalarLoadPenalty;
  return c;
}

inline double instr_overhead(const EngineOptions& o) {
  double cycles = kInstrOverheadCycles;
  if (!o.vectorized_loads) cycles += kScalarLoadInstrOverhead;
  if (o.layout == Layout::kNCHW) cycles += kNchwGatherInstrOverhead;
  return cycles;
}

/// Instruction overhead of the row-fused conv inner loop: the base
/// per-vector bookkeeping drops to the lane-accumulating rate, layout and
/// load penalties still apply.
inline double instr_overhead_fused(const EngineOptions& o) {
  return instr_overhead(o) - (kInstrOverheadCycles -
                              kRowFusedInstrOverheadCycles);
}

/// Instruction overhead of the bit-GEMM inner loop: register-tile rate plus
/// the same layout / scalar-load penalties as every other binary kernel.
inline double instr_overhead_gemm(const EngineOptions& o) {
  return instr_overhead(o) -
         (kInstrOverheadCycles - kGemmInstrOverheadCycles);
}

inline double binary_kernel_eff(const EngineOptions& o) {
  return o.branch_free_binarize ? kBinaryKernelEff
                                : kBinaryKernelEff * kDivergencePenalty;
}

}  // namespace phonebit::core::costs
