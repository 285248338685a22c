// PhoneBit — full-precision convolution for the network's last layer.
//
// The paper keeps the final layer in float (e.g. YOLOv2-Tiny's conv9, which
// must emit real-valued box/objectness activations) and accelerates it with
// the OpenCL float4 `dot` built-in — the source of the ~3x conv9 speedup in
// Fig. 5. Two kernels (DESIGN.md §11, "full-precision head"):
//
// - `.unpack` (packed input only) expands each pixel's packed channel words
//   to ±1 floats 64 bits at a time (bitpack::unpack_sign_words).
// - `.fconv_dot` computes a register block of 4 output pixels x 16 output
//   channels per work item from a weight panel interleaved by 16 output
//   channels, `[co/16][ky][kx][c][co%16]` (zero past C_out). Each input
//   float is broadcast against one 16-lane weight vector. Blocks whose
//   windows lie inside the image take an unguarded path; a block with any
//   out-of-bounds tap runs pixel by pixel and skips those taps.
//
// Every lane adds in the float4 dot loop's association: per 4-channel group
// acc += ((x0*w0 + x1*w1) + x2*w2) + x3*w3, then the scalar tail, tap by
// tap. With ±1 inputs every product is exact, so the sums are bit-identical
// to the one-output-per-work-item schedule whether or not the compiler
// contracts a multiply-add into an FMA. KernelCost still charges the
// float4 dot schedule the paper runs.
//
// The panel is derived from `weights()` at construction, like
// BinaryConv2d's interleaved panel; it is never serialized.
#pragma once

#include <string>
#include <vector>

#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

class FloatConv2d final : public Layer {
 public:
  /// `weights`: float filter bank (C_out, KH, KW, C_in) in NHWC order.
  FloatConv2d(std::string name, FloatTensor weights, std::vector<float> bias,
              ConvGeometry geom);

  const std::string& name() const override { return name_; }

  /// Accepts a packed binary blob (unpacked to ±1 on the queue) or floats.
  /// Output is always a FloatTensor.
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  const ConvGeometry& geometry() const noexcept { return geom_; }
  std::int64_t out_channels() const noexcept { return weights_.shape().n; }
  std::int64_t in_channels() const noexcept { return weights_.shape().c; }
  const FloatTensor& weights() const noexcept { return weights_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

 private:
  FloatTensor conv(ExecContext& ctx, const FloatTensor& in) const;

  std::string name_;
  std::string unpack_name_;  ///< kernel names, built once
  std::string dot_name_;
  FloatTensor weights_;
  std::vector<float> bias_;
  ConvGeometry geom_;
  /// weights_ interleaved by 16 output channels: weight (co, ky, kx, c) at
  /// panel_[((co / 16) * KH * KW * C_in + (ky * KW + kx) * C_in + c) * 16 +
  /// co % 16], zero past C_out. Derived, not serialized.
  std::vector<float> panel_;
  /// bias_ (zeros when empty) padded to the panel's 16-channel blocks.
  std::vector<float> panel_bias_;
};

}  // namespace phonebit::core
