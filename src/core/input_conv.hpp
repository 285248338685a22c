// PhoneBit — first-layer convolution over 8-bit integer input (Eqn 2).
//
// Camera images are not binary, so the first conv splits each 8-bit input
// into 8 bit-planes I_k and accumulates s = sum_k 2^k <I_k * W> where <>
// is a binary convolution of the 0/1 plane against ±1 weights:
//   sum_i p_i w_i = 2*popcount(p AND w) - popcount(p).
// The weight-independent popcount term equals the window's integer pixel
// sum, so it is computed once per output pixel. BN + binarization fuse at
// the end exactly as in BinaryConv2d. This 8x plane overhead is why the
// paper's Fig. 5 shows conv1 gaining only ~23x vs ~45x for middle layers.
//
// Dense schedule (`interior_split` on, the default; DESIGN.md §4): kernel
// 1 (`.bitplane_split`) is a bit-plane im2col. For each output pixel it
// writes 8 plane rows of ceil(KH*KW*C/64) words with the window's K bits
// back to back; out-of-bounds taps are zero, and a 0 plane bit contributes
// nothing to either popcount, so padding needs no special case. It works
// row-wise: a work item (one output row) splits each of its KH input rows
// into 8 bit planes once (split_row_planes), plane-interleaved with PW*C
// zero bits on the left, in a fixed stack buffer; every window's row ky is
// then one KW*C-bit run of those planes, read with a two-word shift and
// ORed into an 8-lane accumulator at K bit ky*KW*C. A row too wide for the
// buffer is split in output-column chunks. The filters are repacked once
// at construction in the same K order and laid out filter-interleaved
// (bitpack::interleave_filter_panel; derived state, like the folded BN;
// never serialized). Kernel 2 (`.bitplane_conv_fused`) then reduces each
// pixel over a handful of dense words with the bit-plane microkernel
// (bitpack::and_popcount_planes_x8): each plane word is scored against all
// 8 filters of a group with one vector and-popcount, and
// core::binarize_group packs the group's output byte. YOLO conv1 (27 bits)
// is one word per plane.
//
// `interior_split` off keeps the per-tap ablation arm: per-pixel planes
// (C bits per word) and a per-tap loop with a padding branch on every tap.
//
// KernelCost deliberately charges the OpenCL schedules the paper's SD855
// numbers were reproduced with (row-fused per plane; the window-packed
// per-tap arm), not the host's dense schedule: modeled_ms stays that
// reproduction, and the dense schedule moves host time only.
//
// The panel lives in the session arena (planned scratch), or in a
// caller-attached InputPlaneCache keyed on input shape and conv geometry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitpack/packed_tensor.hpp"
#include "core/bn_fold.hpp"
#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

/// Bit k of each of the 8 bytes of `x`, gathered into the low byte (byte
/// i's bit lands at bit i): the multiply places every masked bit at a
/// distinct position, so no partial product carries into the top byte.
inline std::uint64_t plane_byte(std::uint64_t x, int k) {
  return (((x >> k) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/// Splits one image row into its 8 bit planes, plane-interleaved: word j
/// holds 8 lanes, `planes[8 * j + k]` being plane k, and bit i of word j
/// is byte `64 * j + i - margin` of `bytes[0, n)`, zero outside that
/// range. A positive `margin` is a run of zero (padding) bits on the left;
/// a negative one starts `-margin` bytes into the row. The body of
/// `.bitplane_split`'s row step: 64-byte blocks inside the row are split
/// straight from image memory, edge blocks through a zero-filled copy.
/// With AVX2 each plane word of a block is one 16-bit shift and one byte
/// movemask per 32-byte half; otherwise plane_byte splits it 8 bytes at a
/// time. Both write the same bits.
void split_row_planes(const std::uint8_t* bytes, std::int64_t n,
                      std::int64_t margin, std::uint64_t* planes,
                      std::int64_t words);

class InputConv2d final : public Layer {
 public:
  /// `weights`: packed (C_out, KH, KW, C_in) sign-binarized filters.
  InputConv2d(std::string name, bitpack::PackedTensor weights,
              std::vector<BatchNormParams> bn, std::vector<float> bias,
              ConvGeometry geom);

  const std::string& name() const override { return name_; }

  /// Input blob must be a U8Tensor (the decoded image). Output is packed.
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;
  Blob run(ExecContext& ctx, const Blob& in,
           const PlanStep& step) const override;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  const ConvGeometry& geometry() const noexcept { return geom_; }
  std::int64_t out_channels() const noexcept { return weights_.shape().n; }
  std::int64_t in_channels() const noexcept { return weights_.shape().c; }
  const bitpack::PackedTensor& weights() const noexcept { return weights_; }
  const FoldedBatchNorm& folded_bn() const noexcept { return folded_; }
  const std::vector<BatchNormParams>& raw_bn() const noexcept { return bn_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

 private:
  KernelVariant select_variant(const Shape& in_shape,
                               const EngineOptions& opts) const;
  const U8Tensor& checked_input(const Blob& in) const;
  /// Words of one per-pixel bit plane (C bits per pixel word): the unit the
  /// cost model and the per-tap ablation arm use.
  std::int64_t plane_words(const Shape& in_shape) const;
  /// Words of the dense im2col panel (8 plane rows per output pixel).
  std::int64_t panel_words(const Shape& in_shape) const;
  /// Output columns one `.bitplane_split` chunk covers, so that its kh
  /// row-plane spans fit the work item's stack buffer; rejects a window
  /// whose kh rows alone do not fit.
  std::int64_t split_chunk_cols(const Shape& in_shape) const;
  /// Arena words the schedule needs (dense panel, or planes + zeros span).
  std::int64_t scratch_words(const Shape& in_shape, bool split) const;
  oclsim::KernelCost split_cost(const ExecContext& ctx,
                                const Shape& is) const;
  oclsim::KernelCost conv_cost(const ExecContext& ctx, const Shape& is,
                               const KernelVariant& v,
                               const bitpack::PackedTensor& out) const;
  bitpack::PackedTensor execute(ExecContext& ctx, const U8Tensor& image,
                                const KernelVariant& v) const;
  bitpack::PackedTensor execute_dense(ExecContext& ctx, const U8Tensor& image,
                                      const KernelVariant& v) const;
  bitpack::PackedTensor execute_per_tap(ExecContext& ctx,
                                        const U8Tensor& image,
                                        const KernelVariant& v) const;

  std::string name_;
  std::string split_name_;  ///< kernel names, built once
  std::string conv_name_;
  bitpack::PackedTensor weights_;
  std::vector<BatchNormParams> bn_;
  std::vector<float> bias_;
  FoldedBatchNorm folded_;
  ConvGeometry geom_;
  /// Filters repacked in the panel's dense K order, then filter-interleaved
  /// (bitpack::interleave_filter_panel): word j of filter f at
  /// dense_weights_[((f / 8) * k_words_ + j) * 8 + f % 8]. Built when
  /// C_out % 8 == 0; derived from weights_, not serialized.
  std::int64_t k_words_ = 0;
  std::vector<std::uint64_t> dense_weights_;
};

}  // namespace phonebit::core
