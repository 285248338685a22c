// PhoneBit — pooling layers.
//
// Max pooling over the ±1 binary domain is a bitwise OR of the packed words
// in the window: +1 is present iff any window bit is set, and out-of-range
// (padding) contributes the domain minimum -1 (zero words) — exactly the
// float max-pool semantics restricted to {-1, +1}. One work item owns one
// packed output word, so 64 channels pool per OR chain.
#pragma once

#include <string>

#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

/// Pooling window geometry (square windows, the form all three benchmark
/// networks use; padding supports YOLOv2-Tiny's stride-1 "same" pool6).
struct PoolGeometry {
  std::int64_t size = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
  /// Darknet-style "same" pooling: output = ceil(in/stride), windows anchored
  /// at oy*stride with bottom/right overflow ignored (YOLOv2-Tiny's stride-1
  /// pool6 keeps 13x13 this way).
  bool tail_pad = false;

  std::int64_t out_dim(std::int64_t in) const {
    PB_CHECK(stride > 0, "pool stride must be positive");
    if (tail_pad) return (in + stride - 1) / stride;
    const std::int64_t span = in + 2 * pad - size;
    PB_CHECK(span >= 0, "pool window larger than padded input");
    return span / stride + 1;
  }

  /// Top/left tap offset (tail_pad mode anchors windows at the origin).
  std::int64_t lead_pad() const noexcept { return tail_pad ? 0 : pad; }
};

/// Max pooling over packed binary feature maps (bitwise OR).
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, PoolGeometry geom)
      : name_(std::move(name)), or_name_(name_ + ".maxpool_or"),
        geom_(geom) {}

  const std::string& name() const override { return name_; }
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;

  const PoolGeometry& geometry() const noexcept { return geom_; }

 private:
  std::string name_;
  std::string or_name_;  ///< kernel name, built once
  PoolGeometry geom_;
};

}  // namespace phonebit::core
