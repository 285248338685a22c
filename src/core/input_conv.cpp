#include "core/input_conv.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "bitpack/binary_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/binarize.hpp"
#include "core/costs.hpp"

namespace phonebit::core {

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

namespace {

/// Panel rows scored per bit-plane microkernel call.
constexpr std::int64_t kPanelTile = 16;

/// Plane-interleaved row words a `.bitplane_split` work item keeps on its
/// stack (32 KB): the kh input rows of one output-column chunk.
constexpr std::int64_t kRowPlaneWords = 512;

/// 8 lanes of 64 bits, lane k holding bit plane k (GCC/Clang vector
/// extension): the compiler picks one zmm, two ymm or four xmm registers
/// per value from the target flags.
using u64x8 =
    std::uint64_t __attribute__((vector_size(8 * sizeof(std::uint64_t))));

/// Splits 64 bytes into their 8 plane words, plane k to `planes[k]`.
inline void split_block(const std::uint8_t* block, std::uint64_t* planes) {
  std::uint64_t p[8] = {};
#if defined(__AVX2__)
  // A 16-bit lane shift by 7 - k moves bit k of both of its bytes to their
  // bit 7, and movemask gathers bit 7 of 32 bytes: one plane half per pair.
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 32));
  const auto plane_half = [](__m256i v, int k) {
    const __m128i shift = _mm_cvtsi32_si128(7 - k);
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_sll_epi16(v, shift)));
  };
  for (int k = 0; k < 8; ++k) {
    p[k] = plane_half(lo, k) |
           static_cast<std::uint64_t>(plane_half(hi, k)) << 32;
  }
#else
  for (int i = 0; i < 8; ++i) {
    std::uint64_t x;
    std::memcpy(&x, block + i * 8, 8);
    for (int k = 0; k < 8; ++k) p[k] |= plane_byte(x, k) << (8 * i);
  }
#endif
  std::memcpy(planes, p, sizeof p);
}

/// Builds `count` consecutive panel rows (8 plane rows of k_words words,
/// plane-major) from kh plane-interleaved input rows `row_words` words
/// apart. Window p's row ky is the `span`-bit run at row bit t0 + p * step;
/// it lands at K bit ky * span. Each K word is gathered in one 8-lane
/// accumulator from the runs that cover it and stored once. A run is read
/// as the 64 bits at its row bit t, all 8 planes at once: the look-ahead
/// word is always read, and at t % 64 == 0 its two shifts (by 1, then by
/// 63) move it out entirely, so no shift is by 64. K words is a
/// template parameter when known (KWords > 0): a window of at most 64 bits
/// (YOLO conv1's 27) is then one masked run per input row and one 64-byte
/// store per pixel.
template <int KWords>
void assemble_panel_rows(const u64x8* rows, std::int64_t row_words,
                         std::int64_t kh, std::int64_t span, std::int64_t t0,
                         std::int64_t step, std::int64_t count,
                         std::uint64_t* out, std::int64_t k_words) {
  if constexpr (KWords > 0) k_words = KWords;
  for (std::int64_t p = 0; p < count; ++p, t0 += step, out += 8 * k_words) {
    std::int64_t ky = 0, u = 0;  // the next window bit: row ky, run bit u
    for (std::int64_t j = 0; j < k_words; ++j) {
      u64x8 acc = {};
      for (std::int64_t filled = 0; filled < 64 && ky < kh;) {
        // One K word holds the whole window, so every run lands whole.
        const std::int64_t take =
            KWords == 1 ? span : std::min(64 - filled, span - u);
        const std::uint64_t mask = ~std::uint64_t{0} >> (64 - take);
        const std::int64_t t = t0 + u;
        const u64x8* w = rows + ky * row_words + (t >> 6);
        const int s = static_cast<int>(t & 63);
        acc |= (((w[0] >> s) | ((w[1] << 1) << (63 - s))) & mask) << filled;
        filled += take;
        u += take;
        if (u == span) {
          u = 0;
          ++ky;
        }
      }
      if constexpr (KWords == 1) {
        std::memcpy(out, &acc, sizeof acc);
      } else {
        for (int k = 0; k < 8; ++k) out[k * k_words + j] = acc[k];
      }
    }
  }
}

}  // namespace

void split_row_planes(const std::uint8_t* bytes, std::int64_t n,
                      std::int64_t margin, std::uint64_t* planes,
                      std::int64_t words) {
  for (std::int64_t j = 0; j < words; ++j, planes += 8) {
    const std::int64_t b = 64 * j - margin;  // the byte at bit 0 of word j
    if (b >= 0 && b + 64 <= n) {
      split_block(bytes + b, planes);
      continue;
    }
    const std::int64_t lo = std::max<std::int64_t>(b, 0);
    const std::int64_t hi = std::min<std::int64_t>(b + 64, n);
    if (lo >= hi) {
      std::memset(planes, 0, 8 * sizeof(std::uint64_t));
      continue;
    }
    std::uint8_t block[64] = {};
    std::memcpy(block + (lo - b), bytes + lo,
                static_cast<std::size_t>(hi - lo));
    split_block(block, planes);
  }
}

InputConv2d::InputConv2d(std::string name, PackedTensor weights,
                         std::vector<BatchNormParams> bn,
                         std::vector<float> bias, ConvGeometry geom)
    : name_(std::move(name)), split_name_(name_ + ".bitplane_split"),
      conv_name_(name_ + ".bitplane_conv_fused"),
      weights_(std::move(weights)), bn_(std::move(bn)),
      bias_(std::move(bias)), geom_(geom) {
  PB_CHECK(static_cast<std::int64_t>(bn_.size()) == weights_.shape().n,
           name_ << ": BN channel count mismatch");
  PB_CHECK(weights_.shape().h == geom_.kernel_h &&
               weights_.shape().w == geom_.kernel_w,
           name_ << ": filter bank spatial dims disagree with geometry");
  folded_ = fold_batch_norm(bn_, bias_);
  // Dense K-order filter rows: bit (ky*kw + kx)*C + c of filter f, matching
  // the panel rows kernel 1 writes; the microkernel reads them interleaved.
  const Shape& ws = weights_.shape();
  k_words_ = ceil_div(ws.h * ws.w * ws.c, bitpack::kWordBits);
  if (ws.n % 8 != 0) return;  // execute() rejects the layer
  std::vector<std::uint64_t> dense(static_cast<std::size_t>(ws.n * k_words_),
                                   0);
  for (std::int64_t f = 0; f < ws.n; ++f) {
    std::uint64_t* dst = dense.data() + f * k_words_;
    std::int64_t q = 0;
    for (std::int64_t ky = 0; ky < ws.h; ++ky) {
      for (std::int64_t kx = 0; kx < ws.w; ++kx) {
        const std::uint64_t* src = weights_.pixel(f, ky, kx);
        for (std::int64_t c = 0; c < ws.c; ++c, ++q) {
          const std::uint64_t bit = (src[c / 64] >> (c % 64)) & 1;
          dst[q / 64] |= bit << (q % 64);
        }
      }
    }
  }
  dense_weights_ =
      bitpack::interleave_filter_panel(dense.data(), ws.n, k_words_);
}

std::int64_t InputConv2d::param_bytes() const {
  const std::int64_t c_out = weights_.shape().n;
  return weights_.bytes() + c_out * 4 + ceil_div(c_out, 8);
}

std::int64_t InputConv2d::param_count() const {
  const Shape& s = weights_.shape();
  return s.n * s.h * s.w * s.c + 5 * s.n;
}

const U8Tensor& InputConv2d::checked_input(const Blob& in) const {
  const auto* image = std::get_if<U8Tensor>(&in);
  PB_CHECK(image != nullptr, name_ << ": input conv expects an 8-bit image");
  PB_CHECK(image->shape().c == in_channels(),
           name_ << ": image has " << image->shape().c
                 << " channels, filter expects " << in_channels());
  return *image;
}

KernelVariant InputConv2d::select_variant(const Shape& in_shape,
                                         const EngineOptions& opts) const {
  KernelVariant v;
  v.interior_split = opts.interior_split;
  v.pack_width = opts.conv_pack_width(in_shape.c, geom_.kernel_w);
  v.kernel = "bitplane_split+conv_fused";
  return v;
}

std::int64_t InputConv2d::plane_words(const Shape& in_shape) const {
  return in_shape.n * in_shape.h * in_shape.w *
         ceil_div(in_shape.c, bitpack::kWordBits);
}

std::int64_t InputConv2d::panel_words(const Shape& in_shape) const {
  return in_shape.n * geom_.out_h(in_shape.h) * geom_.out_w(in_shape.w) * 8 *
         k_words_;
}

std::int64_t InputConv2d::split_chunk_cols(const Shape& in_shape) const {
  // A chunk of m columns spans (m - 1) * step + span row bits from a start
  // up to 63 bits past a word boundary, plus one look-ahead word: at most
  // ((m - 1) * step + span + 62) / 64 + 2 words per input row.
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  const std::int64_t span = kw * in_shape.c;
  const std::int64_t step = geom_.stride_w * in_shape.c;
  const std::int64_t run_bits = (kRowPlaneWords / kh - 2) * 64;
  PB_CHECK(run_bits >= span,
           name_ << ": a " << kh << "x" << kw << "x" << in_shape.c
                 << " window's rows do not fit the " << kRowPlaneWords
                 << "-word bit-plane split buffer");
  return std::min(geom_.out_w(in_shape.w), (run_bits - span) / step + 1);
}

std::int64_t InputConv2d::scratch_words(const Shape& in_shape,
                                        bool split) const {
  // Per-tap ablation arm: 8 per-pixel bit planes plus its all-zero padding
  // span. Dense arm: the im2col panel, reserved at no less than the 8-plane
  // size the plan has always recorded, so artifacts and arena sizes stay
  // byte-identical wherever the panel fits in it (every zoo input layer).
  const std::int64_t planes = plane_words(in_shape) * 8;
  if (!split) return planes + ceil_div(in_shape.c, bitpack::kWordBits);
  return std::max(planes, panel_words(in_shape));
}

void InputConv2d::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kU8,
           name_ << ": input conv expects an 8-bit image, got " << in.str());
  PB_CHECK(in.shape.c == in_channels(),
           name_ << ": image has " << in.shape.c
                 << " channels, filter expects " << in_channels());
  PB_CHECK(out_channels() % 8 == 0, name_ << ": C_out must be a multiple of 8");
  const std::int64_t oh = geom_.out_h(in.shape.h);
  const std::int64_t ow = geom_.out_w(in.shape.w);
  KernelVariant v = select_variant(in.shape, pc.opts());
  if (v.interior_split) split_chunk_cols(in.shape);  // rejects oversize rows
  pc.need_words(scratch_words(in.shape, v.interior_split));
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kPacked,
                      Shape{in.shape.n, oh, ow, out_channels()}});
}

Blob InputConv2d::forward(ExecContext& ctx, const Blob& in) const {
  const U8Tensor& image = checked_input(in);
  if (ctx.stats != nullptr) ++ctx.stats->variant_selections;
  return execute(ctx, image, select_variant(image.shape(), ctx.opts));
}

Blob InputConv2d::run(ExecContext& ctx, const Blob& in,
                      const PlanStep& step) const {
  return execute(ctx, checked_input(in), step.variant);
}

KernelCost InputConv2d::split_cost(const ExecContext& ctx,
                                   const Shape& is) const {
  KernelCost cost;
  cost.scalar_ops = static_cast<double>(is.elems()) * 8.0;
  cost.bytes_read = static_cast<double>(is.elems());
  cost.bytes_written = static_cast<double>(plane_words(is)) * 8.0 * 8.0;
  cost.coalescing = costs::coalescing(ctx.opts);
  cost.alu_efficiency = costs::kAuxKernelEff;
  return cost;
}

KernelCost InputConv2d::conv_cost(const ExecContext& ctx, const Shape& is,
                                  const KernelVariant& v,
                                  const PackedTensor& out) const {
  const std::int64_t oh = geom_.out_h(is.h);
  const std::int64_t ow = geom_.out_w(is.w);
  const std::int64_t c_out = out_channels();
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  const std::int64_t words = ceil_div(is.c, bitpack::kWordBits);
  KernelCost cost;
  const double outputs = static_cast<double>(is.n) * oh * ow * c_out;
  const double opixels = static_cast<double>(is.n) * oh * ow;
  // Both arms are charged the OpenCL schedules the SD855 reproduction was
  // calibrated on, not the host's dense schedule (input_conv.hpp).
  if (v.interior_split) {
    // Row-fused schedule: per plane, an interior window is kh spans of
    // kw*words words (one strided and_popcount with a scalar tail, so the
    // exact word bits are charged); the hoisted window sum adds kh popcount
    // spans per plane per output pixel. The filter-side spans run the
    // shared-window schedule: each plane span is loaded once per group and
    // scored against all 8 filters, so its setup amortizes 8x
    // (costs::shared_window_spans).
    const double row_bits =
        static_cast<double>(kw * words * bitpack::kWordBits);
    cost.bitop_bits = outputs * 8.0 * 2.0 * static_cast<double>(kh) * row_bits;
    cost.span_count =
        outputs * 8.0 *
            costs::shared_window_spans(static_cast<double>(kh)) +
        opixels * 8.0 * static_cast<double>(kh);
    cost.span_setup_cycles = costs::kSpanSetupCycles;
    cost.instr_overhead_cycles = costs::instr_overhead_fused(ctx.opts);
    cost.pack_width_bits = bitpack::bits(
        bitpack::cap_pack_width_to_span(v.pack_width, kw * words));
  } else {
    // Per-tap ablation arm, costed as the window-packed schedule: the whole
    // KxKxC window's bits processed contiguously at the vector width chosen
    // for KxKxC (e.g. YOLO conv1: 27 bits -> 32-bit vectors).
    const auto window_pw = ctx.opts.pack_width_for(kh * kw * is.c);
    const double window_bits = static_cast<double>(
        ceil_div(kh * kw * is.c, bitpack::bits(window_pw)) *
        bitpack::bits(window_pw));
    cost.bitop_bits = outputs * 8.0 * 2.0 * window_bits;
    cost.instr_overhead_cycles = costs::instr_overhead(ctx.opts);
    cost.pack_width_bits = bitpack::bits(window_pw);
  }
  cost.scalar_ops = outputs * (8.0 + 4.0);
  cost.bytes_read = static_cast<double>(plane_words(is)) * 8.0 * 8.0 +
                    static_cast<double>(weights_.bytes());
  cost.bytes_written = static_cast<double>(out.bytes());
  cost.coalescing = costs::coalescing(ctx.opts);
  cost.alu_efficiency = costs::binary_kernel_eff(ctx.opts);
  return cost;
}

PackedTensor InputConv2d::execute(ExecContext& ctx, const U8Tensor& image,
                                  const KernelVariant& v) const {
  PB_CHECK(out_channels() % 8 == 0,
           name_ << ": C_out must be a multiple of 8");
  return v.interior_split ? execute_dense(ctx, image, v)
                          : execute_per_tap(ctx, image, v);
}

PackedTensor InputConv2d::execute_dense(ExecContext& ctx,
                                        const U8Tensor& image,
                                        const KernelVariant& v) const {
  const Shape& is = image.shape();
  const std::int64_t oh = geom_.out_h(is.h);
  const std::int64_t ow = geom_.out_w(is.w);
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  const std::int64_t sh = geom_.stride_h, sw = geom_.stride_w;
  const std::int64_t ph = geom_.pad_h, pw = geom_.pad_w;
  const std::int64_t k_words = k_words_;
  const std::int64_t row_words = 8 * k_words;  // one panel row per pixel

  // The panel lives in the session arena, or in a caller-attached plane
  // cache (cascade reuse seam). A cache filled from the same input shape
  // and conv geometry short-circuits kernel 1 entirely (deterministically
  // cheaper modeled time); an empty or mismatched one is (re)filled by
  // kernel 1 at the normal cost.
  InputPlaneCache* cache = ctx.planes;
  const bool cache_hit = cache != nullptr && cache->holds(is, geom_);
  std::uint64_t* panel = nullptr;
  if (cache != nullptr) {
    if (!cache_hit) {
      cache->words.resize(static_cast<std::size_t>(panel_words(is)));
      cache->shape = is;
      cache->geom = geom_;
      cache->filled = false;
    }
    panel = cache->words.data();
  } else {
    panel = ctx.arena.words(scratch_words(is, /*split=*/true));
  }

  // Kernel 1: dense bit-plane im2col, one work item per output row. It
  // splits each of its kh input rows into 8 plane-interleaved bit planes
  // once (pw * C zero bits on the left, zeros for rows outside the image),
  // then builds every pixel's 8 panel plane rows of k_words words from
  // shifted kw * C-bit runs of those rows. Wide rows go in column chunks
  // that fit the stack buffer.
  if (!cache_hit) {
    const std::int64_t span = kw * is.c;  // bits one window row holds
    const std::int64_t step = sw * is.c;  // row bits between windows
    const std::int64_t margin = pw * is.c;
    const std::int64_t row_bytes = is.w * is.c;
    const std::int64_t chunk_cols = split_chunk_cols(is);
    ctx.queue.enqueue(
        split_name_, NDRange{1, oh, is.n}, split_cost(ctx, is),
        [&, oh, ow, kh, sh, ph, k_words, row_words, span, step, margin,
         row_bytes, chunk_cols](const WorkItem& it) {
          // Not zeroed: each chunk writes all `words` words of its kh rows
          // before the assembly reads any of them.
          u64x8 rows[kRowPlaneWords];
          const std::int64_t n = it.z;
          const std::int64_t iy0 = it.y * sh - ph;
          std::uint64_t* out = panel + (n * oh + it.y) * ow * row_words;
          for (std::int64_t ox0 = 0; ox0 < ow; ox0 += chunk_cols) {
            const std::int64_t cols = std::min(chunk_cols, ow - ox0);
            // The chunk's rows start at a word-aligned row bit and end one
            // look-ahead word past its last run.
            const std::int64_t b0 = ox0 * step / 64 * 64;
            const std::int64_t b_end = (ox0 + cols - 1) * step + span;
            const std::int64_t words = (b_end - 1 - b0) / 64 + 2;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky;
              auto* r = reinterpret_cast<std::uint64_t*>(rows + ky * words);
              if (iy < 0 || iy >= is.h) {
                std::memset(r, 0, static_cast<std::size_t>(words) * 64);
              } else {
                split_row_planes(&image(n, iy, 0, 0), row_bytes,
                                 margin - b0, r, words);
              }
            }
            std::uint64_t* dst = out + ox0 * row_words;
            const std::int64_t t0 = ox0 * step - b0;
            if (k_words == 1) {
              assemble_panel_rows<1>(rows, words, kh, span, t0, step, cols,
                                     dst, 1);
            } else {
              assemble_panel_rows<0>(rows, words, kh, span, t0, step, cols,
                                     dst, k_words);
            }
          }
        });
    if (cache != nullptr) cache->filled = true;
  }

  // Kernel 2: bit-plane GEMM + BN + binarize + pack, one work item per
  // output row. Each tile of panel rows gets its window sums once, then
  // the 8-filter microkernel per group (Fig. 4 workload: 8 filters per
  // output byte).
  PackedTensor out = ctx.make_packed(Shape{is.n, oh, ow, out_channels()});
  const std::int64_t groups = out_channels() / 8;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const FoldedBatchNorm& fb = folded_;
  const std::int64_t out_pitch = out.words_per_pixel() * 8;  // bytes/pixel
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  ctx.queue.enqueue(
      conv_name_, NDRange{1, oh, is.n}, conv_cost(ctx, is, v, out),
      [&, oh, ow, k_words, row_words, groups, branch_free,
       out_pitch](const WorkItem& it) {
        const std::int64_t p0 = (it.z * oh + it.y) * ow;
        for (std::int64_t x0 = 0; x0 < ow; x0 += kPanelTile) {
          const std::int64_t rows = std::min(kPanelTile, ow - x0);
          const std::uint64_t* tile = panel + (p0 + x0) * row_words;
          std::int64_t sums[kPanelTile];
          bitpack::plane_window_sums(tile, row_words, k_words, rows, sums);
          for (std::int64_t g = 0; g < groups; ++g) {
            std::int32_t weighted[kPanelTile * 8];
            bitpack::and_popcount_planes_x8(
                tile, row_words, dense_weights_.data() + g * 8 * k_words,
                k_words, rows, weighted);
            const float* xi = fb.xi.data() + g * 8;
            const std::uint8_t* gamma_pos = fb.gamma_pos.data() + g * 8;
            // Staged locally: a store through the byte output may alias
            // anything, which would force reloads inside the loop.
            std::uint8_t bytes[kPanelTile];
            for (std::int64_t r = 0; r < rows; ++r) {
              // s = sum_k 2^k (2*popcount(p&w) - popcount(p))  (Eqn 2)
              const auto sum = static_cast<std::int32_t>(sums[r]);
              std::int32_t x1[8];
              for (int f = 0; f < 8; ++f) {
                x1[f] = 2 * weighted[r * 8 + f] - sum;
              }
              bytes[r] = binarize_group(x1, xi, gamma_pos, branch_free);
            }
            for (std::int64_t r = 0; r < rows; ++r) {
              out_bytes[(p0 + x0 + r) * out_pitch + g] = bytes[r];
            }
          }
        }
      });
  return out;
}

PackedTensor InputConv2d::execute_per_tap(ExecContext& ctx,
                                          const U8Tensor& image,
                                          const KernelVariant& v) const {
  const Shape& is = image.shape();
  const std::int64_t oh = geom_.out_h(is.h);
  const std::int64_t ow = geom_.out_w(is.w);
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  const std::int64_t sh = geom_.stride_h, sw = geom_.stride_w;
  const std::int64_t ph = geom_.pad_h, pw_pad = geom_.pad_w;
  const std::int64_t words = ceil_div(is.c, bitpack::kWordBits);
  const auto pw = v.pack_width;

  // The 8 per-pixel bit planes and the all-zero padding span share one
  // arena words span (one live span per kind).
  const std::int64_t plane_stride = plane_words(is);
  std::uint64_t* planes = ctx.arena.words(scratch_words(is, /*split=*/false));
  std::uint64_t* zeros = planes + plane_stride * 8;
  std::memset(zeros, 0, static_cast<std::size_t>(words) * 8);
  const std::int64_t row_pitch = is.w * words;  // plane words per image row
  const auto plane_span = [planes, plane_stride, row_pitch, words,
                           &is](int k, std::int64_t n, std::int64_t iy,
                                std::int64_t ix) -> const std::uint64_t* {
    return planes + k * plane_stride + (n * is.h + iy) * row_pitch +
           ix * words;
  };

  // Kernel 1: bit-plane split (one work item per pixel owns all its words,
  // so plane words are written race-free).
  ctx.queue.enqueue(
      split_name_, NDRange{is.w, is.h, is.n}, split_cost(ctx, is),
      [&, words](const WorkItem& it) {
        for (std::int64_t j = 0; j < words; ++j) {
          std::array<std::uint64_t, 8> acc{};
          const std::int64_t c0 = j * bitpack::kWordBits;
          const std::int64_t limit =
              std::min<std::int64_t>(bitpack::kWordBits, is.c - c0);
          for (std::int64_t b = 0; b < limit; ++b) {
            const std::uint8_t px = image(it.z, it.y, it.x, c0 + b);
            for (int k = 0; k < 8; ++k) {
              if ((px >> k) & 1) {
                acc[static_cast<std::size_t>(k)] |= (std::uint64_t{1} << b);
              }
            }
          }
          std::uint64_t* base =
              planes + (it.z * is.h + it.y) * row_pitch + it.x * words + j;
          for (int k = 0; k < 8; ++k) {
            base[k * plane_stride] = acc[static_cast<std::size_t>(k)];
          }
        }
      });

  // Kernel 2: per-tap plane conv + BN + binarize + pack, with a padding
  // branch on every tap.
  PackedTensor out = ctx.make_packed(Shape{is.n, oh, ow, out_channels()});
  const std::int64_t groups = out_channels() / 8;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const FoldedBatchNorm& fb = folded_;
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  ctx.queue.enqueue(
      conv_name_, NDRange{ow, oh, is.n * groups}, conv_cost(ctx, is, v, out),
      [&, kh, kw, sh, sw, ph, pw_pad, words, groups, branch_free,
       pw](const WorkItem& it) {
        const std::int64_t n = it.z / groups;
        const std::int64_t g = it.z % groups;
        const std::int64_t iy0 = it.y * sh - ph;
        const std::int64_t ix0 = it.x * sw - pw_pad;

        // Hoisted weight-independent term: integer pixel sum of the window.
        std::int64_t window_sum = 0;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) continue;  // zero padding: planes are 0
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const std::int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= is.w) continue;
            for (int k = 0; k < 8; ++k) {
              window_sum += (std::int64_t{1} << k) *
                            bitpack::popcount_words(plane_span(k, n, iy, ix),
                                                    words);
            }
          }
        }

        std::uint8_t byte = 0;
        for (int f = 0; f < 8; ++f) {
          const std::int64_t co = g * 8 + f;
          std::int64_t weighted = 0;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = iy0 + ky;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ix0 + kx;
              const bool inside = iy >= 0 && iy < is.h && ix >= 0 && ix < is.w;
              const std::uint64_t* wspan = weights_.pixel(co, ky, kx);
              for (int k = 0; k < 8; ++k) {
                const std::uint64_t* pspan =
                    inside ? plane_span(k, n, iy, ix) : zeros;
                weighted += (std::int64_t{1} << k) *
                            bitpack::and_popcount(pspan, wspan, words, pw);
              }
            }
          }
          // s = sum_k 2^k (2*popcount(p&w) - popcount(p))  (Eqn 2)
          const float x1 = static_cast<float>(2 * weighted - window_sum);
          const std::size_t ci = static_cast<std::size_t>(co);
          const bool bit =
              branch_free
                  ? binarize_eqn9(x1, fb.xi[ci], fb.gamma_pos[ci] != 0)
                  : binarize_eqn8(x1, fb.xi[ci], fb.gamma_pos[ci] != 0);
          if (bit) byte = static_cast<std::uint8_t>(byte | (1u << f));
        }
        out_bytes[out.word_offset(n, it.y, it.x, 0) * 8 + g] = byte;
      });
  return out;
}

}  // namespace phonebit::core
