#include "core/float_conv.hpp"

#include <algorithm>
#include <cstring>

#include "bitpack/pack.hpp"
#include "core/costs.hpp"

namespace phonebit::core {

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

namespace {

/// Output channels per work item: one 16-lane float vector.
constexpr std::int64_t kLanes = 16;
/// Output pixels per work item: the register block's other side.
constexpr int kBlockPixels = 4;

/// 16 float lanes (GCC/Clang vector extension): the compiler picks one
/// zmm, two ymm or four xmm registers per value from the target flags.
using f32x16 = float __attribute__((vector_size(kLanes * sizeof(float))));

/// Adds one tap of P output pixels into `acc`: `px[p]` points at pixel p's
/// `c_in` input floats, `w` at the tap's [c][16] panel slice. The float4
/// dot association per lane: each 4-channel group adds
/// ((x0 w0 + x1 w1) + x2 w2) + x3 w3 to the accumulator, then the tail
/// channels add one product each.
template <int P>
inline void accumulate_tap(const float* const* px, const float* w,
                           std::int64_t c_in, f32x16* acc) {
  std::int64_t c = 0;
  for (; c + 4 <= c_in; c += 4, w += 4 * kLanes) {
    f32x16 w0, w1, w2, w3;
    std::memcpy(&w0, w, sizeof w0);
    std::memcpy(&w1, w + kLanes, sizeof w1);
    std::memcpy(&w2, w + 2 * kLanes, sizeof w2);
    std::memcpy(&w3, w + 3 * kLanes, sizeof w3);
    for (int p = 0; p < P; ++p) {
      const float* x = px[p] + c;
      acc[p] += ((x[0] * w0 + x[1] * w1) + x[2] * w2) + x[3] * w3;
    }
  }
  for (; c < c_in; ++c, w += kLanes) {
    f32x16 wc;
    std::memcpy(&wc, w, sizeof wc);
    for (int p = 0; p < P; ++p) acc[p] += px[p][c] * wc;
  }
}

}  // namespace

FloatConv2d::FloatConv2d(std::string name, FloatTensor weights,
                         std::vector<float> bias, ConvGeometry geom)
    : name_(std::move(name)), unpack_name_(name_ + ".unpack"),
      dot_name_(name_ + ".fconv_dot"), weights_(std::move(weights)),
      bias_(std::move(bias)), geom_(geom) {
  PB_CHECK(weights_.layout() == Layout::kNHWC,
           name_ << ": float filters must be NHWC");
  PB_CHECK(bias_.empty() ||
               static_cast<std::int64_t>(bias_.size()) == weights_.shape().n,
           name_ << ": bias count mismatch");
  PB_CHECK(weights_.shape().h == geom_.kernel_h &&
               weights_.shape().w == geom_.kernel_w,
           name_ << ": filter bank spatial dims disagree with geometry");
  // Filter co's (ky, kx, c) floats are contiguous in NHWC; lane co % 16 of
  // block co / 16 receives them.
  const Shape& ws = weights_.shape();
  const std::int64_t k = ws.h * ws.w * ws.c;
  const std::int64_t blocks = ceil_div(ws.n, kLanes);
  panel_.assign(static_cast<std::size_t>(blocks * k * kLanes), 0.0f);
  panel_bias_.assign(static_cast<std::size_t>(blocks * kLanes), 0.0f);
  for (std::int64_t co = 0; co < ws.n; ++co) {
    const float* src = weights_.data() + co * k;
    float* dst = panel_.data() + (co / kLanes) * k * kLanes + co % kLanes;
    for (std::int64_t j = 0; j < k; ++j) dst[j * kLanes] = src[j];
  }
  std::copy(bias_.begin(), bias_.end(), panel_bias_.begin());
}

std::int64_t FloatConv2d::param_bytes() const {
  return weights_.bytes() +
         static_cast<std::int64_t>(bias_.size()) * 4;
}

std::int64_t FloatConv2d::param_count() const {
  const Shape& s = weights_.shape();
  return s.n * s.h * s.w * s.c + static_cast<std::int64_t>(bias_.size());
}

void FloatConv2d::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kPacked || in.kind == BlobKind::kFloat,
           name_ << ": expects packed or float input, got " << in.str());
  PB_CHECK(in.shape.c == in_channels(),
           name_ << ": input has " << in.shape.c << " channels, filter "
                 << in_channels());
  // A packed input is unpacked to ±1 floats in arena f32 scratch first.
  if (in.kind == BlobKind::kPacked) pc.need_f32(in.shape.elems());
  KernelVariant v;
  v.kernel = in.kind == BlobKind::kPacked ? "unpack+fconv_dot" : "fconv_dot";
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kFloat,
                      Shape{in.shape.n, geom_.out_h(in.shape.h),
                            geom_.out_w(in.shape.w), out_channels()}});
}

Blob FloatConv2d::forward(ExecContext& ctx, const Blob& in) const {
  if (const auto* packed = std::get_if<PackedTensor>(&in)) {
    // Unpack kernel: packed bits -> ±1 floats, into arena f32 scratch.
    const Shape s = packed->shape();
    FloatTensor expanded(s, Layout::kNHWC, ctx.arena.f32(s.elems()));
    KernelCost cost;
    cost.scalar_ops = static_cast<double>(s.elems());
    cost.bytes_read = static_cast<double>(packed->bytes());
    cost.bytes_written = static_cast<double>(expanded.bytes());
    cost.coalescing = costs::coalescing(ctx.opts);
    cost.alu_efficiency = costs::kAuxKernelEff;
    ctx.queue.enqueue(unpack_name_, NDRange{s.w, s.h, s.n}, cost,
                      [&](const WorkItem& it) {
                        bitpack::unpack_sign_words(
                            packed->pixel(it.z, it.y, it.x), s.c,
                            &expanded(it.z, it.y, it.x, 0));
                      });
    return conv(ctx, expanded);
  }
  const auto* f = std::get_if<FloatTensor>(&in);
  PB_CHECK(f != nullptr, name_ << ": expects packed or float input");
  return conv(ctx, *f);
}

FloatTensor FloatConv2d::conv(ExecContext& ctx, const FloatTensor& in) const {
  PB_CHECK(in.layout() == Layout::kNHWC, name_ << ": input must be NHWC");
  const Shape& is = in.shape();
  PB_CHECK(is.c == in_channels(), name_ << ": channel mismatch");
  const std::int64_t oh = geom_.out_h(is.h);
  const std::int64_t ow = geom_.out_w(is.w);
  const std::int64_t c_out = out_channels();
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  FloatTensor out = ctx.make_float(Shape{is.n, oh, ow, c_out}, Layout::kNHWC);

  KernelCost cost;
  const double outputs = static_cast<double>(is.n) * oh * ow * c_out;
  cost.scalar_ops = outputs * static_cast<double>(kh * kw * is.c);
  cost.bytes_read =
      static_cast<double>(in.bytes()) + static_cast<double>(weights_.bytes());
  cost.bytes_written = static_cast<double>(out.bytes());
  cost.coalescing = costs::coalescing(ctx.opts);
  cost.alu_efficiency = costs::kFloatDotEff;  // float4 dot built-in (§VII)

  // One work item per (block of 4 output pixels, in flattened (n, y, x)
  // order) x (block of 16 output channels).
  const std::int64_t pixels = is.n * oh * ow;
  const std::int64_t pixel_blocks = ceil_div(pixels, kBlockPixels);
  const std::int64_t co_blocks = ceil_div(c_out, kLanes);
  const std::int64_t c_in = is.c;
  const std::int64_t tap_floats = c_in * kLanes;  // one tap's panel slice
  const float* src = in.data();
  float* dst = out.data();
  ctx.queue.enqueue(
      dot_name_, NDRange{pixel_blocks, co_blocks, 1}, cost,
      [&, oh, ow, kh, kw, c_out, pixels, c_in, tap_floats, src,
       dst](const WorkItem& it) {
        const std::int64_t q0 = it.x * kBlockPixels;
        const int rows =
            static_cast<int>(std::min<std::int64_t>(kBlockPixels, pixels - q0));
        const std::int64_t co0 = it.y * kLanes;
        const float* wblock = panel_.data() + co0 * kh * kw * c_in;
        f32x16 bias;
        std::memcpy(&bias, panel_bias_.data() + co0, sizeof bias);
        f32x16 acc[kBlockPixels];
        // Window origin of each pixel; the block is interior when every
        // pixel's whole window lies inside the image.
        std::int64_t n[kBlockPixels], iy0[kBlockPixels], ix0[kBlockPixels];
        bool interior = rows == kBlockPixels;
        for (int p = 0; p < rows; ++p) {
          acc[p] = bias;
          const std::int64_t q = q0 + p;
          n[p] = q / (oh * ow);
          iy0[p] = (q / ow) % oh * geom_.stride_h - geom_.pad_h;
          ix0[p] = q % ow * geom_.stride_w - geom_.pad_w;
          interior = interior && iy0[p] >= 0 && iy0[p] + kh <= is.h &&
                     ix0[p] >= 0 && ix0[p] + kw <= is.w;
        }
        const auto at = [&](int p, std::int64_t iy, std::int64_t ix) {
          return src + ((n[p] * is.h + iy) * is.w + ix) * c_in;
        };
        if (interior) {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const float* px[kBlockPixels];
              for (int p = 0; p < kBlockPixels; ++p) {
                px[p] = at(p, iy0[p] + ky, ix0[p] + kx);
              }
              accumulate_tap<kBlockPixels>(
                  px, wblock + (ky * kw + kx) * tap_floats, c_in, acc);
            }
          }
        } else {
          for (int p = 0; p < rows; ++p) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0[p] + ky;
              if (iy < 0 || iy >= is.h) continue;  // zero padding
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0[p] + kx;
                if (ix < 0 || ix >= is.w) continue;
                const float* px = at(p, iy, ix);
                accumulate_tap<1>(&px, wblock + (ky * kw + kx) * tap_floats,
                                  c_in, &acc[p]);
              }
            }
          }
        }
        const std::size_t lanes = static_cast<std::size_t>(
            std::min<std::int64_t>(kLanes, c_out - co0));
        for (int p = 0; p < rows; ++p) {
          std::memcpy(dst + (q0 + p) * c_out + co0, &acc[p],
                      lanes * sizeof(float));
        }
      });
  return out;
}

}  // namespace phonebit::core
