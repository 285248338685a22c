// PhoneBit — dense (fully connected) layers.
//
// BinaryDense is the xor+popcount GEMV with the same fused BN+binarize and
// 8-units-per-item packing as the binary conv; FloatDense is the full-
// precision classifier head using the float4 dot built-in. Packed feature
// maps are flattened channel-innermost (NHWC), so when C % 64 == 0 the
// flatten is a plain copy of the packed words.
#pragma once

#include <string>
#include <vector>

#include "bitpack/packed_tensor.hpp"
#include "core/bn_fold.hpp"
#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

/// Binary fully connected layer: packed ±1 weights, fused BN + binarize,
/// packed output of `units` bits per sample.
class BinaryDense final : public Layer {
 public:
  /// `weights`: packed (units, 1, 1, in_features).
  BinaryDense(std::string name, bitpack::PackedTensor weights,
              std::vector<BatchNormParams> bn, std::vector<float> bias);

  const std::string& name() const override { return name_; }
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;
  Blob run(ExecContext& ctx, const Blob& in,
           const PlanStep& step) const override;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  std::int64_t units() const noexcept { return weights_.shape().n; }
  std::int64_t in_features() const noexcept { return weights_.shape().c; }
  const bitpack::PackedTensor& weights() const noexcept { return weights_; }
  const FoldedBatchNorm& folded_bn() const noexcept { return folded_; }
  const std::vector<BatchNormParams>& raw_bn() const noexcept { return bn_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

 private:
  /// Span-keyed granularity of the GEMV's fused feature span.
  bitpack::PackWidth dense_pack_width(const EngineOptions& opts) const;
  const bitpack::PackedTensor& checked_input(const Blob& in) const;
  bitpack::PackedTensor execute(ExecContext& ctx,
                                const bitpack::PackedTensor& in,
                                const KernelVariant& v) const;

  std::string name_;
  std::string fused_name_;  ///< kernel name, built once
  bitpack::PackedTensor weights_;
  std::vector<BatchNormParams> bn_;
  std::vector<float> bias_;
  FoldedBatchNorm folded_;
};

/// Full-precision dense layer (logit head). Accepts packed (expanded to ±1)
/// or float input; emits float scores.
class FloatDense final : public Layer {
 public:
  /// `weights`: float (units, 1, 1, in_features).
  FloatDense(std::string name, FloatTensor weights, std::vector<float> bias);

  const std::string& name() const override { return name_; }
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  std::int64_t units() const noexcept { return weights_.shape().n; }
  std::int64_t in_features() const noexcept { return weights_.shape().c; }
  const FloatTensor& weights() const noexcept { return weights_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

 private:
  std::string name_;
  std::string unpack_name_;  ///< kernel names, built once
  std::string dot_name_;
  FloatTensor weights_;
  std::vector<float> bias_;
};

}  // namespace phonebit::core
