// PhoneBit — fused binary convolution (the paper's central operator).
//
// Computes conv -> batch-norm -> binarize over channel-packed inputs using
// xor+popcount (Eqn 1) and the folded threshold ξ (Eqns 5–8), with the
// branch-free Eqn 9 decision. Three execution paths mirror §V-B/§VI-B:
//
//   A. fully fused  — one kernel; each work item computes 8 filters,
//      binarizes 8 results and packs them into one byte (Fig. 4).
//      Taken when layer integration is on and C_in <= the private-memory
//      threshold (256 channels by default).
//   B. separate packing — fused conv+BN+binarize emits a 0/1 byte map; a
//      second kernel packs bytes into words. Taken for wide layers.
//   C. no integration (ablation) — conv emits raw int32 sums, a second
//      kernel applies full floating-point BN + sign, a third packs. This is
//      the configuration the layer-integration ablation measures against.
//   D. bit-GEMM (DESIGN.md §11) — an im2col kernel lowers the input to an
//      M x K bit-panel, then a register-tiled XOR-popcount GEMM scores
//      MR x 8 output tiles per pass. Chosen ahead of time per geometry by a
//      roofline comparison against the window-streaming schedule (or pinned
//      via EngineOptions::conv_path); big geometries win on tile-amortized
//      setup and full-K-span vectors, small ones keep path A.
//
// Binary-domain padding: the ±1 encoding has no zero, so padded positions
// contribute -1 per channel (all-zero packed words), the standard BNN
// convention. The float reference used by tests pads with -1 accordingly.
//
// Paths A–C are priced on a row-fused window schedule (DESIGN.md §4): the
// kw taps of one filter row are contiguous in the NHWC-packed layout, so an
// interior window — precomputed as the output rectangle that never touches
// padding — is kh strided spans over the whole filter, and border windows
// resolve padding per filter row (a padded tap's mismatches are just the
// popcount of its weight span). On the host all three run one body: path
// D's 8-filter group microkernel over the same windows, each path applying
// its own output transform to the group's counts.
// EngineOptions::interior_split turns the specialization off for ablation;
// conv_tile_ow sets the output-x tile each work item owns. Intermediates
// live in the engine's ScratchArena.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bitpack/compress.hpp"
#include "bitpack/packed_tensor.hpp"
#include "core/bn_fold.hpp"
#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

class BinaryConv2d final : public Layer {
 public:
  /// `weights`: packed filter bank with logical shape (C_out, KH, KW, C_in).
  /// `bn`/`bias`: per-output-channel trained parameters (folded offline in
  /// the constructor; kept raw for the no-integration ablation path).
  BinaryConv2d(std::string name, bitpack::PackedTensor weights,
               std::vector<BatchNormParams> bn, std::vector<float> bias,
               ConvGeometry geom);

  const std::string& name() const override { return name_; }
  void plan(PlanContext& pc) const override;
  std::vector<Launch> price(const PlanStep& step,
                            const EngineOptions& opts) const override;
  Blob run(ExecContext& ctx, const Blob& in,
           const PlanStep& step) const override;

  /// Words of path A's stack panel for border windows: any K runs without
  /// heap or arena, one window in K chunks when it does not fit.
  static constexpr std::int64_t kBorderPanelWords = 512;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  const ConvGeometry& geometry() const noexcept { return geom_; }
  std::int64_t out_channels() const noexcept { return weights_.shape().n; }
  std::int64_t in_channels() const noexcept { return weights_.shape().c; }
  const bitpack::PackedTensor& weights() const noexcept { return weights_; }
  const FoldedBatchNorm& folded_bn() const noexcept { return folded_; }
  const std::vector<BatchNormParams>& raw_bn() const noexcept { return bn_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

  /// Dictionary/index/delta factorization of the filter bank (DESIGN.md
  /// §12). Built lazily and deterministically from the packed weights on
  /// first use (compile-time stats, kAuto artifact save, compress-stats) —
  /// one std::call_once guards the build, so concurrent compiles are safe —
  /// or adopted verbatim by the artifact loader so loading never
  /// re-clusters.
  const bitpack::CompressedFilterBank& compressed_bank() const;
  /// Installs a pre-built bank (the artifact loader, before any forward).
  void adopt_bank(
      std::shared_ptr<const bitpack::CompressedFilterBank> bank) const;

 private:
  /// Ahead-of-time kernel selection from input geometry + options: the
  /// execution path (A/B/C/D), the pack width (span- or
  /// channel-keyed), the interior split and the resolved output-x tile.
  /// Candidate schedules are compared by pricing them with price() on the
  /// reference profile. Called from plan().
  KernelVariant select_variant(const Shape& in_shape,
                               const EngineOptions& opts) const;
  /// Validated input extraction for run().
  const bitpack::PackedTensor& checked_input(const Blob& in) const;

  // The dispatch bodies, one per schedule; each enqueues step.launches.
  /// Paths A and B (B adds a separate packing kernel).
  bitpack::PackedTensor forward_fused(ExecContext& ctx,
                                      const bitpack::PackedTensor& in,
                                      const PlanStep& step) const;
  bitpack::PackedTensor forward_unfused(ExecContext& ctx,
                                        const bitpack::PackedTensor& in,
                                        const PlanStep& step) const;
  /// Path D — bit-GEMM lowering (DESIGN.md §11): an im2col kernel lowers
  /// the packed input to an M x K bit-panel (padding resolved to zero-fill
  /// once), then a register-tiled GEMM kernel scores kGemmMr x 8 output
  /// tiles per pass with the accumulators held in registers for the whole
  /// K reduction, finishing with path A's folded-BN group-byte epilogue.
  bitpack::PackedTensor forward_gemm(ExecContext& ctx,
                                     const bitpack::PackedTensor& in,
                                     const PlanStep& step) const;
  /// Compiled conv→pool fused step (plan.cpp's rewrite, DESIGN.md §7): one
  /// kernel computes path-A conv bytes into a per-row stack buffer and
  /// ORs each pool window out of it, emitting the pooled packed map
  /// directly — the unpooled conv activation map is never written.
  bitpack::PackedTensor forward_fused_pool(ExecContext& ctx,
                                           const bitpack::PackedTensor& in,
                                           const PlanStep& step) const;

  std::string name_;
  /// Kernel names, built once: name_ + ".<kernel>".
  struct KernelNames {
    explicit KernelNames(const std::string& layer);
    std::string fused, nopack, pack, raw, bn_binarize, im2col, bitgemm,
        fused_pool;
  };
  KernelNames kn_;
  bitpack::PackedTensor weights_;
  std::vector<BatchNormParams> bn_;
  std::vector<float> bias_;
  FoldedBatchNorm folded_;
  /// Every path's filter-interleaved copy of weights_
  /// (bitpack::interleave_filter_panel), built at construction; a partial
  /// last group is padded with zero filters. Derived state like folded_,
  /// never serialized.
  std::vector<std::uint64_t> gemm_panel_;
  ConvGeometry geom_;
  // Lazily built (or loader-adopted) compression bank. Layers live behind
  // Network::emplace's unique_ptr, so the immovable once_flag is fine.
  mutable std::once_flag bank_once_;
  mutable std::shared_ptr<const bitpack::CompressedFilterBank> bank_;
};

}  // namespace phonebit::core
