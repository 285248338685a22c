// PhoneBit — tensor shapes and data layouts.
//
// The paper's locality argument (§V-A.1) is about NHWC vs NCHW: channel-
// direction bit packing needs the channel dimension innermost so packed words
// are unit-stride in memory. Both layouts are first-class here so the layout
// ablation can measure the difference.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace phonebit {

/// Memory order of a rank-4 activation tensor.
enum class Layout {
  kNHWC,  ///< channels innermost — PhoneBit's locality-friendly layout
  kNCHW,  ///< Caffe/Torch default — used by the CNNdroid-like baseline
};

/// Human-readable layout name.
inline const char* to_string(Layout l) {
  return l == Layout::kNHWC ? "NHWC" : "NCHW";
}

/// Logical dimensions of a rank-4 tensor (batch, height, width, channels).
/// The logical shape is layout-independent; Layout only fixes memory order.
struct Shape {
  std::int64_t n = 1;
  std::int64_t h = 1;
  std::int64_t w = 1;
  std::int64_t c = 1;

  std::int64_t elems() const noexcept { return n * h * w * c; }

  friend bool operator==(const Shape&, const Shape&) = default;

  std::string str() const {
    return "[" + std::to_string(n) + "," + std::to_string(h) + "," +
           std::to_string(w) + "," + std::to_string(c) + "]";
  }
};

/// Convolution geometry shared by every engine in the repo.
struct ConvGeometry {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;

  /// Output spatial size for an input extent.
  std::int64_t out_dim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                       std::int64_t pad) const {
    PB_CHECK(stride > 0, "stride must be positive");
    const std::int64_t span = in + 2 * pad - kernel;
    PB_CHECK(span >= 0, "kernel " << kernel << " larger than padded input " << in + 2 * pad);
    return span / stride + 1;
  }

  std::int64_t out_h(std::int64_t in_h) const {
    return out_dim(in_h, kernel_h, stride_h, pad_h);
  }
  std::int64_t out_w(std::int64_t in_w) const {
    return out_dim(in_w, kernel_w, stride_w, pad_w);
  }

  friend bool operator==(const ConvGeometry&, const ConvGeometry&) = default;
};

/// The interior output rectangle [x0,x1) x [y0,y1): output positions whose
/// windows lie fully inside the input, i.e. never touch padding. The
/// branch-free row-fused conv fast paths specialize on it (DESIGN.md §4);
/// shared here so the binary and bit-plane convs compute one geometry.
struct InteriorBox {
  std::int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
};

inline InteriorBox interior_box(const ConvGeometry& g, std::int64_t ih,
                                std::int64_t iw, std::int64_t oh,
                                std::int64_t ow) {
  const auto clamp = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  InteriorBox b;
  // Interior rows: oy*stride - pad >= 0 and oy*stride - pad + kernel <= in.
  b.y0 = clamp((g.pad_h + g.stride_h - 1) / g.stride_h, 0, oh);
  const std::int64_t ymax = ih - g.kernel_h + g.pad_h;
  b.y1 = ymax < 0 ? b.y0 : clamp(ymax / g.stride_h + 1, b.y0, oh);
  b.x0 = clamp((g.pad_w + g.stride_w - 1) / g.stride_w, 0, ow);
  const std::int64_t xmax = iw - g.kernel_w + g.pad_w;
  b.x1 = xmax < 0 ? b.x0 : clamp(xmax / g.stride_w + 1, b.x0, ow);
  return b;
}

}  // namespace phonebit
