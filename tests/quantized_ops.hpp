// PhoneBit tests — real int8 quantized inference arithmetic.
//
// Table III's TFLite-Quant column is priced analytically
// (FrameworkTraits::quantized_int8); this header implements the actual
// affine-uint8 / symmetric-int8 arithmetic so test_baselines can verify
// the quantization-error claim behind that column (close-to-float outputs
// at 4x the arithmetic density). Reference code: nothing in src/ uses it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::baselines {

/// Per-tensor affine quantization of activations to uint8.
struct QuantizedTensor {
  U8Tensor values;
  QuantParams params;

  static QuantizedTensor from_float(const FloatTensor& t);
  FloatTensor to_float() const;
};

/// Per-output-channel symmetric int8 weight quantization.
struct QuantizedFilter {
  Tensor<std::int8_t> values;          ///< (C_out, KH, KW, C_in)
  std::vector<float> scales;           ///< per output channel

  static QuantizedFilter from_float(const FloatTensor& w);
};

inline QuantizedTensor QuantizedTensor::from_float(const FloatTensor& t) {
  PB_CHECK(t.layout() == Layout::kNHWC, "quantize NHWC tensors only");
  float lo = 0.0f, hi = 0.0f;
  const Shape& s = t.shape();
  for (std::int64_t i = 0; i < s.elems(); ++i) {
    lo = std::min(lo, t.data()[i]);
    hi = std::max(hi, t.data()[i]);
  }
  QuantizedTensor q;
  q.params = QuantParams::for_range(lo, hi);
  q.values = U8Tensor(s, Layout::kNHWC);
  for (std::int64_t i = 0; i < s.elems(); ++i) {
    q.values.data()[i] = q.params.quantize(t.data()[i]);
  }
  return q;
}

inline FloatTensor QuantizedTensor::to_float() const {
  FloatTensor out(values.shape(), Layout::kNHWC);
  for (std::int64_t i = 0; i < values.elems(); ++i) {
    out.data()[i] = params.dequantize(values.data()[i]);
  }
  return out;
}

inline QuantizedFilter QuantizedFilter::from_float(const FloatTensor& w) {
  PB_CHECK(w.layout() == Layout::kNHWC, "quantize NHWC filters only");
  const Shape& s = w.shape();
  QuantizedFilter q;
  q.values = Tensor<std::int8_t>(s, Layout::kNHWC);
  q.scales.resize(static_cast<std::size_t>(s.n));
  const std::int64_t per_filter = s.h * s.w * s.c;
  for (std::int64_t co = 0; co < s.n; ++co) {
    const float* src = w.data() + co * per_filter;
    float amax = 1e-12f;
    for (std::int64_t i = 0; i < per_filter; ++i) {
      amax = std::max(amax, std::fabs(src[i]));
    }
    const float scale = amax / 127.0f;
    q.scales[static_cast<std::size_t>(co)] = scale;
    std::int8_t* dst = q.values.data() + co * per_filter;
    for (std::int64_t i = 0; i < per_filter; ++i) {
      const long v = std::lround(src[i] / scale);
      dst[i] = static_cast<std::int8_t>(std::clamp<long>(v, -127, 127));
    }
  }
  return q;
}

/// int8 convolution with int32 accumulation, dequantized float output
/// (zero-point-corrected; bias added in float).
inline FloatTensor quantized_conv2d(const QuantizedTensor& in,
                                    const QuantizedFilter& w,
                                    const std::vector<float>& bias,
                                    const ConvGeometry& geom) {
  const Shape& is = in.values.shape();
  const Shape& ws = w.values.shape();
  PB_CHECK(ws.c == is.c, "quantized_conv2d: channel mismatch");
  const std::int64_t oh = geom.out_h(is.h);
  const std::int64_t ow = geom.out_w(is.w);
  FloatTensor out(Shape{is.n, oh, ow, ws.n}, Layout::kNHWC);
  const int zp = in.params.zero_point;

  for (std::int64_t n = 0; n < is.n; ++n)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        for (std::int64_t co = 0; co < ws.n; ++co) {
          std::int64_t acc = 0;      // sum q_in * q_w
          std::int64_t wsum = 0;     // sum q_w (zero-point correction)
          for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
            const std::int64_t iy = oy * geom.stride_h - geom.pad_h + ky;
            for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
              const std::int64_t ix = ox * geom.stride_w - geom.pad_w + kx;
              const bool inside =
                  iy >= 0 && iy < is.h && ix >= 0 && ix < is.w;
              for (std::int64_t c = 0; c < is.c; ++c) {
                const int qw = w.values(co, ky, kx, c);
                wsum += qw;
                // Zero padding quantizes to the zero point, which the
                // correction term cancels exactly.
                const int qx = inside ? in.values(n, iy, ix, c) : zp;
                acc += static_cast<std::int64_t>(qx) * qw;
              }
            }
          }
          const float scale =
              in.params.scale * w.scales[static_cast<std::size_t>(co)];
          float v = scale * static_cast<float>(acc - zp * wsum);
          if (!bias.empty()) v += bias[static_cast<std::size_t>(co)];
          out(n, oy, ox, co) = v;
        }
  return out;
}

}  // namespace phonebit::baselines
