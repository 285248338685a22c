#include "core/binary_conv.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "bitpack/binary_ops.hpp"
#include "core/binarize.hpp"
#include "core/costs.hpp"
#include "core/pooling.hpp"

namespace phonebit::core {

static_assert(std::endian::native == std::endian::little,
              "byte-granular packing assumes little-endian words");

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

BinaryConv2d::KernelNames::KernelNames(const std::string& layer)
    : fused(layer + ".bconv_fused"), nopack(layer + ".bconv_nopack"),
      pack(layer + ".pack"), raw(layer + ".bconv_raw"),
      bn_binarize(layer + ".bn_binarize"), im2col(layer + ".im2col"),
      bitgemm(layer + ".bitgemm"), bitgemm_reuse(layer + ".bitgemm_reuse"),
      fused_dedup(layer + ".bconv_fused_dedup"),
      fused_pool(layer + ".bconv_fused_pool") {}

BinaryConv2d::BinaryConv2d(std::string name, PackedTensor weights,
                           std::vector<BatchNormParams> bn,
                           std::vector<float> bias, ConvGeometry geom)
    : name_(std::move(name)), kn_(name_), weights_(std::move(weights)),
      bn_(std::move(bn)), bias_(std::move(bias)), geom_(geom) {
  const std::int64_t c_out = weights_.shape().n;
  PB_CHECK(static_cast<std::int64_t>(bn_.size()) == c_out,
           name_ << ": BN channel count " << bn_.size() << " != C_out "
                 << c_out);
  PB_CHECK(weights_.shape().h == geom_.kernel_h &&
               weights_.shape().w == geom_.kernel_w,
           name_ << ": filter bank spatial dims disagree with geometry");
  folded_ = fold_batch_norm(bn_, bias_);
  if (c_out % 8 == 0) {
    const Shape& ws = weights_.shape();
    gemm_panel_ = bitpack::interleave_filter_panel(
        weights_.data(), c_out, ws.h * ws.w * weights_.words_per_pixel());
  }
}

std::int64_t BinaryConv2d::param_bytes() const {
  // Packed 1-bit weights + per-channel float xi + 1 gamma-sign bit/channel.
  const std::int64_t c_out = weights_.shape().n;
  return weights_.bytes() + c_out * 4 + ceil_div(c_out, 8);
}

std::int64_t BinaryConv2d::param_count() const {
  const Shape& s = weights_.shape();
  return s.n * s.h * s.w * s.c + 5 * s.n;  // weights + (gamma,beta,mu,sigma,b)
}

const bitpack::CompressedFilterBank& BinaryConv2d::compressed_bank() const {
  std::call_once(bank_once_, [this] {
    if (bank_ == nullptr) {
      bank_ = std::make_shared<const bitpack::CompressedFilterBank>(
          bitpack::CompressedFilterBank::build(weights_));
    }
  });
  return *bank_;
}

void BinaryConv2d::adopt_bank(
    std::shared_ptr<const bitpack::CompressedFilterBank> bank) const {
  PB_CHECK(bank != nullptr, name_ << ": cannot adopt a null compression bank");
  std::call_once(bank_once_, [this, &bank] { bank_ = std::move(bank); });
  PB_CHECK(bank == nullptr,
           name_ << ": compression bank adopted after it was already built");
}

const PackedTensor& BinaryConv2d::checked_input(const Blob& in) const {
  const auto* packed = std::get_if<PackedTensor>(&in);
  PB_CHECK(packed != nullptr,
           name_ << ": binary conv expects a packed binary input");
  PB_CHECK(packed->shape().c == in_channels(),
           name_ << ": input has " << packed->shape().c << " channels, filter "
                 << in_channels());
  return *packed;
}

void BinaryConv2d::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kPacked,
           name_ << ": binary conv expects a packed binary input, got "
                 << in.str());
  PB_CHECK(in.shape.c == in_channels(),
           name_ << ": input has " << in.shape.c << " channels, filter "
                 << in_channels());
  const std::int64_t oh = geom_.out_h(in.shape.h);
  const std::int64_t ow = geom_.out_w(in.shape.w);
  KernelVariant v = select_variant(in.shape, pc.opts());
  // Scratch needs are exactly what the dispatch bodies take: the im2col
  // panel for the bit-GEMM lowering, the legacy zeros span only without the
  // interior split, the byte map for separate packing, and the materialized
  // int32 sums for the no-integration pipeline.
  const std::int64_t out_count = in.shape.n * oh * ow * out_channels();
  if (v.path == KernelVariant::Path::kConvGemm) {
    const std::int64_t words = ceil_div(in.shape.c, bitpack::kWordBits);
    pc.need_words(in.shape.n * oh * ow * geom_.kernel_h * geom_.kernel_w *
                  words);
  } else {
    if (!v.interior_split) {
      pc.need_words(ceil_div(in.shape.c, bitpack::kWordBits));
    }
    if (v.path == KernelVariant::Path::kConvSeparatePack) {
      pc.need_u8(out_count);
    } else if (v.path == KernelVariant::Path::kConvUnfused) {
      pc.need_i32(out_count);
      pc.need_u8(out_count);
    }
  }
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kPacked,
                      Shape{in.shape.n, oh, ow, out_channels()}});
}

Blob BinaryConv2d::run(ExecContext& ctx, const Blob& in,
                       const PlanStep& step) const {
  const PackedTensor& packed = checked_input(in);
  const KernelVariant& v = step.variant;
  if (step.fused_pool != nullptr) {
    return forward_fused_pool(ctx, packed, step);
  }
  if (v.path == KernelVariant::Path::kConvUnfused) {
    return forward_unfused(ctx, packed, step);
  }
  if (v.path == KernelVariant::Path::kConvGemm) {
    return forward_gemm(ctx, packed, step);
  }
  if (v.path == KernelVariant::Path::kConvFused && v.reuse) {
    return forward_fused_dedup(ctx, packed, step);
  }
  return forward_fused(ctx, packed, step);
}

namespace {

/// Shared geometry snapshot the kernel bodies capture by value, including
/// the interior output box [x0,x1) x [y0,y1): the output rectangle whose
/// windows never touch padding, which runs the branch-free fast path.
struct ConvDims {
  std::int64_t n, ih, iw, c_in, oh, ow, c_out, kh, kw, sh, sw, ph, pw, words;
  std::int64_t y0, y1, x0, x1;
};

ConvDims make_dims(const Shape& in_shape, std::int64_t c_out,
                   const ConvGeometry& g) {
  ConvDims d{};
  d.n = in_shape.n;
  d.ih = in_shape.h;
  d.iw = in_shape.w;
  d.c_in = in_shape.c;
  d.oh = g.out_h(d.ih);
  d.ow = g.out_w(d.iw);
  d.c_out = c_out;
  d.kh = g.kernel_h;
  d.kw = g.kernel_w;
  d.sh = g.stride_h;
  d.sw = g.stride_w;
  d.ph = g.pad_h;
  d.pw = g.pad_w;
  d.words = ceil_div(d.c_in, bitpack::kWordBits);
  const InteriorBox box = interior_box(g, d.ih, d.iw, d.oh, d.ow);
  d.y0 = box.y0;
  d.y1 = box.y1;
  d.x0 = box.x0;
  d.x1 = box.x1;
  return d;
}

ConvDims make_dims(const PackedTensor& in, const PackedTensor& weights,
                   const ConvGeometry& g) {
  return make_dims(in.shape(), weights.shape().n, g);
}

/// Pre-optimization inner loop, kept as the interior-split ablation arm:
/// one short xor_popcount per kernel tap with a per-tap padding branch;
/// out-of-bounds input pixels use the all-zero span (-1 padding).
inline std::int64_t window_mismatches_taps(const PackedTensor& in,
                                           const PackedTensor& weights,
                                           const ConvDims& d, std::int64_t n,
                                           std::int64_t oy, std::int64_t ox,
                                           std::int64_t co,
                                           const std::uint64_t* zeros,
                                           bitpack::PackWidth pw) {
  std::int64_t mism = 0;
  for (std::int64_t kh = 0; kh < d.kh; ++kh) {
    const std::int64_t iy = oy * d.sh - d.ph + kh;
    for (std::int64_t kw = 0; kw < d.kw; ++kw) {
      const std::int64_t ix = ox * d.sw - d.pw + kw;
      const bool inside = iy >= 0 && iy < d.ih && ix >= 0 && ix < d.iw;
      const std::uint64_t* span = inside ? in.pixel(n, iy, ix) : zeros;
      mism += bitpack::xor_popcount(span, weights.pixel(co, kh, kw), d.words,
                                    pw);
    }
  }
  return mism;
}

/// Fast path for windows fully inside the input: the kw taps of one filter
/// row are contiguous in both operands (NHWC packing), so the whole window
/// is one strided xor+popcount — kh input rows (pitch iw*words) against the
/// contiguous filter (pitch kw*words). No bounds test, no zeros span.
inline std::int64_t window_mismatches_interior(const PackedTensor& in,
                                               const PackedTensor& weights,
                                               const ConvDims& d,
                                               std::int64_t n, std::int64_t iy0,
                                               std::int64_t ix0,
                                               std::int64_t co,
                                               bitpack::PackWidth pw) {
  return bitpack::xor_popcount_2d(in.pixel(n, iy0, ix0), d.iw * d.words,
                                  weights.pixel(co, 0, 0), d.kw * d.words,
                                  d.kw * d.words, d.kh, pw);
}

/// Border windows, still row-fused: each filter row splits into at most
/// [left-pad | in-bounds run | right-pad]. A padding tap xors the all-zero
/// span against the weights, so its mismatch count is just the popcount of
/// the weight span — the pad segments need no zeros buffer at all.
inline std::int64_t window_mismatches_border(const PackedTensor& in,
                                             const PackedTensor& weights,
                                             const ConvDims& d, std::int64_t n,
                                             std::int64_t oy, std::int64_t ox,
                                             std::int64_t co,
                                             bitpack::PackWidth pw) {
  const std::int64_t iy0 = oy * d.sh - d.ph;
  const std::int64_t ix0 = ox * d.sw - d.pw;
  const std::int64_t lo = std::clamp<std::int64_t>(-ix0, 0, d.kw);
  const std::int64_t hi = std::clamp<std::int64_t>(d.iw - ix0, 0, d.kw);
  std::int64_t mism = 0;
  for (std::int64_t kh = 0; kh < d.kh; ++kh) {
    const std::int64_t iy = iy0 + kh;
    const std::uint64_t* wrow = weights.pixel(co, kh, 0);
    if (iy < 0 || iy >= d.ih || hi <= lo) {
      mism += bitpack::popcount_words(wrow, d.kw * d.words);
      continue;
    }
    if (lo > 0) mism += bitpack::popcount_words(wrow, lo * d.words);
    if (hi < d.kw) {
      mism += bitpack::popcount_words(wrow + hi * d.words,
                                      (d.kw - hi) * d.words);
    }
    mism += bitpack::xor_popcount(in.pixel(n, iy, ix0 + lo),
                                  wrow + lo * d.words, (hi - lo) * d.words,
                                  pw);
  }
  return mism;
}

/// Window accumulator honoring the interior-split option. `y_interior` is
/// the hoisted per-row bounds test so the inner x loop pays one compare.
inline std::int64_t window_mismatches(const PackedTensor& in,
                                      const PackedTensor& weights,
                                      const ConvDims& d, std::int64_t n,
                                      std::int64_t oy, std::int64_t ox,
                                      std::int64_t co,
                                      const std::uint64_t* zeros,
                                      bitpack::PackWidth pw, bool split,
                                      bool y_interior) {
  if (!split) {
    return window_mismatches_taps(in, weights, d, n, oy, ox, co, zeros, pw);
  }
  if (y_interior && ox >= d.x0 && ox < d.x1) {
    return window_mismatches_interior(in, weights, d, n, oy * d.sh - d.ph,
                                      ox * d.sw - d.pw, co, pw);
  }
  return window_mismatches_border(in, weights, d, n, oy, ox, co, pw);
}

/// Path A's per-group window accumulator: the 8 filters of workload group g
/// scored at once. Interior windows run the SHARED-WINDOW schedule — each
/// input span is loaded once and re-used across the 8 contiguous filters of
/// the group (xor_popcount_2d_x8) instead of 8 independent window passes
/// re-reading the same spans. Border/per-tap windows keep the per-filter
/// routines (the border fraction is small and pad-clamped spans differ per
/// row anyway).
inline void group_mismatches(const PackedTensor& in,
                             const PackedTensor& weights, const ConvDims& d,
                             std::int64_t n, std::int64_t oy, std::int64_t ox,
                             std::int64_t g, const std::uint64_t* zeros,
                             bitpack::PackWidth pw, bool split,
                             bool y_interior, std::int64_t mism[8]) {
  if (split && y_interior && ox >= d.x0 && ox < d.x1) {
    bitpack::xor_popcount_2d_x8(
        in.pixel(n, oy * d.sh - d.ph, ox * d.sw - d.pw), d.iw * d.words,
        weights.pixel(g * 8, 0, 0), d.kh * d.kw * d.words, d.kw * d.words,
        d.kw * d.words, d.kh, pw, mism);
    return;
  }
  for (int f = 0; f < 8; ++f) {
    mism[f] = window_mismatches(in, weights, d, n, oy, ox, g * 8 + f, zeros,
                                pw, split, y_interior);
  }
}

/// Dedup'd per-group window accumulator (DESIGN.md §12): lane f computes
/// its window only when it is its group's first lane with that exact filter
/// content (`lanes[f] == f`); duplicate lanes copy the earlier result —
/// legal for interior AND border windows, since identical filters score
/// identically against any window. Distinct interior lanes run the plain
/// row-fused whole-window reduction; bit-exact with group_mismatches.
inline void group_mismatches_dedup(const PackedTensor& in,
                                   const PackedTensor& weights,
                                   const ConvDims& d, std::int64_t n,
                                   std::int64_t oy, std::int64_t ox,
                                   std::int64_t g, const std::uint8_t* lanes,
                                   bitpack::PackWidth pw, bool y_interior,
                                   std::int64_t mism[8]) {
  const bool interior = y_interior && ox >= d.x0 && ox < d.x1;
  for (int f = 0; f < 8; ++f) {
    if (lanes[f] != f) {
      mism[f] = mism[lanes[f]];
      continue;
    }
    mism[f] = interior
                  ? window_mismatches_interior(in, weights, d, n,
                                               oy * d.sh - d.ph,
                                               ox * d.sw - d.pw, g * 8 + f, pw)
                  : window_mismatches_border(in, weights, d, n, oy, ox,
                                             g * 8 + f, pw);
  }
}

/// Path A epilogue: folded-BN threshold sign over the 8 group results,
/// packed into one byte (Fig. 4's private-memory byte).
inline std::uint8_t group_byte(const std::int64_t mism[8], std::int64_t g,
                               std::int64_t len, const FoldedBatchNorm& fb,
                               bool branch_free) {
  std::uint8_t byte = 0;
  for (int f = 0; f < 8; ++f) {
    const std::size_t ci = static_cast<std::size_t>(g * 8 + f);
    const float x1 = static_cast<float>(len - 2 * mism[f]);
    const bool bit = branch_free
                         ? binarize_eqn9(x1, fb.xi[ci], fb.gamma_pos[ci] != 0)
                         : binarize_eqn8(x1, fb.xi[ci], fb.gamma_pos[ci] != 0);
    if (bit) byte = static_cast<std::uint8_t>(byte | (1u << f));
  }
  return byte;
}

/// Bit-lanes charged per conv window at granularity `pw`. The row-fused
/// path streams kh spans of kw*words words with a scalar tail — no lane is
/// ever wasted (span-keyed selection never overshoots the span), so it is
/// charged the exact word bits. The per-tap path pads each of the kh*kw
/// taps to the vector width (narrow layers waste the tail lanes).
inline double window_bitops(const ConvDims& d, bitpack::PackWidth pw,
                            bool split) {
  if (split) {
    const std::int64_t row_bits = d.kw * d.words * bitpack::kWordBits;
    return 2.0 * static_cast<double>(d.kh) * static_cast<double>(row_bits);
  }
  const std::int64_t pwbits = bitpack::bits(pw);
  const std::int64_t tap_bits = ceil_div(d.c_in, pwbits) * pwbits;
  return 2.0 * static_cast<double>(d.kh * d.kw) *
         static_cast<double>(tap_bits);
}

/// Work tally of the window-accumulation portion shared by every conv path
/// (see costs.hpp). Row fusion shows up as fewer scalar bookkeeping ops and
/// kh instead of kh*kw span setups per window; border windows pay up to one
/// extra pad-popcount span per filter row. `shared_window` (path A only —
/// its work item owns the whole 8-filter group) amortizes each interior
/// input-span setup over the group's 8 filters.
void charge_windows(KernelCost& cost, const ConvDims& d,
                    const EngineOptions& opts, bool split,
                    bool shared_window) {
  const double outputs = static_cast<double>(d.n) * d.oh * d.ow * d.c_out;
  const double interior =
      split ? static_cast<double>(d.n) * (d.y1 - d.y0) * (d.x1 - d.x0) *
                  d.c_out
            : 0.0;
  const double border = outputs - interior;
  const double kh = static_cast<double>(d.kh);
  const double taps = static_cast<double>(d.kh * d.kw);
  cost.span_setup_cycles = costs::kSpanSetupCycles;
  if (split) {
    cost.scalar_ops = interior * 1.0 + border * kh;
    const double interior_spans =
        shared_window ? costs::shared_window_spans(kh) : kh;
    cost.span_count = interior * interior_spans + border * 2.0 * kh;
    cost.instr_overhead_cycles = costs::instr_overhead_fused(opts);
  } else {
    cost.scalar_ops = outputs * taps;
    cost.span_count = outputs * taps;
    cost.instr_overhead_cycles = costs::instr_overhead(opts);
  }
}

/// Modeled time of `launches` on the fixed reference profile used for
/// ahead-of-time path selection, summed in launch order. A pure function of
/// the cost tallies — never of the session's device — so plan replay
/// (artifact decode) reselects identically.
double reference_gpu_ms(const std::vector<Launch>& launches) {
  static const oclsim::DeviceProfile ref =
      oclsim::DeviceProfile::snapdragon855();
  double ms = 0.0;
  for (const Launch& l : launches) {
    ms += oclsim::modeled_ms(l.cost, ref, oclsim::ExecUnit::kGpu);
  }
  return ms;
}

/// Packed conv-output bytes from geometry alone (the unpooled map).
double packed_out_bytes(const ConvDims& d) {
  return static_cast<double>(d.n * d.oh * d.ow *
                             ceil_div(d.c_out, bitpack::kWordBits)) *
         8.0;
}

/// Window-accumulation tally of the dedup'd path-A schedule (DESIGN.md
/// §12): every group computes one window per DISTINCT lane and copies exact
/// duplicates, so span setups, border row walks and bit-ops all scale by
/// the bank's distinct-lane fraction. Interior bookkeeping stays one op per
/// output (the copy is as cheap as the accumulate it replaces).
void charge_windows_dedup(KernelCost& cost, const ConvDims& d,
                          const EngineOptions& opts, double distinct_frac) {
  const double outputs = static_cast<double>(d.n) * d.oh * d.ow * d.c_out;
  const double interior =
      static_cast<double>(d.n) * (d.y1 - d.y0) * (d.x1 - d.x0) * d.c_out;
  const double border = outputs - interior;
  const double kh = static_cast<double>(d.kh);
  cost.span_setup_cycles = costs::kSpanSetupCycles;
  cost.scalar_ops = interior * 1.0 + border * kh * distinct_frac;
  cost.span_count = interior * costs::dedup_window_spans(kh, distinct_frac) +
                    border * 2.0 * kh * distinct_frac;
  cost.instr_overhead_cycles = costs::instr_overhead_fused(opts);
}

/// Packing pass of paths B and C: one work item per output word gathers
/// 64 entries of the 0/1 byte map into one packed word.
void enqueue_pack(ExecContext& ctx, const Launch& launch, const ConvDims& d,
                  const std::uint8_t* bits, PackedTensor& out) {
  const std::int64_t owords = out.words_per_pixel();
  ctx.queue.enqueue(
      *launch.name, NDRange{d.ow, d.oh, d.n * owords}, launch.cost,
      [&, d, owords, bits](const WorkItem& it) {
        const std::int64_t n = it.z / owords;
        const std::int64_t j = it.z % owords;
        std::uint64_t word = 0;
        const std::int64_t base =
            ((n * d.oh + it.y) * d.ow + it.x) * d.c_out + j * 64;
        const std::int64_t limit = std::min<std::int64_t>(64, d.c_out - j * 64);
        for (std::int64_t b = 0; b < limit; ++b) {
          if (bits[static_cast<std::size_t>(base + b)] != 0) {
            word |= (std::uint64_t{1} << b);
          }
        }
        out.data()[out.word_offset(n, it.y, it.x, j)] = word;
      });
}

}  // namespace

std::vector<Launch> BinaryConv2d::price(const PlanStep& step,
                                        const EngineOptions& opts) const {
  const ConvDims d = make_dims(step.in.shape, out_channels(), geom_);
  const KernelVariant& v = step.variant;
  const double outputs = static_cast<double>(d.n) * d.oh * d.ow * d.c_out;
  const double in_w_bytes =
      static_cast<double>(step.in.bytes() + weights_.bytes());
  const auto aux = [&](double scalar_ops, double read, double written) {
    KernelCost c;
    c.scalar_ops = scalar_ops;
    c.bytes_read = read;
    c.bytes_written = written;
    c.coalescing = costs::coalescing(opts);
    c.alu_efficiency = costs::kAuxKernelEff;
    return c;
  };

  if (v.path == KernelVariant::Path::kConvGemm) {
    // Path D: the im2col panel build, then the register-tiled GEMM. The
    // panel traffic and the second launch are what small geometries lose
    // on; large ones win it back through the tile-amortized span setup,
    // the lower per-op overhead and the pack width keyed on the full K
    // span.
    const std::int64_t k_words = d.kh * d.kw * d.words;
    const std::int64_t m = d.n * d.oh * d.ow;
    const double panel_bytes = static_cast<double>(m * k_words) * 8.0;
    const double m_tiles =
        static_cast<double>(ceil_div(m, bitpack::kGemmMr));
    const double gemm_outputs = static_cast<double>(m) * d.c_out;
    KernelCost gemm;
    gemm.pack_width_bits = bitpack::bits(
        bitpack::cap_pack_width_to_span(v.pack_width, k_words));
    gemm.instr_overhead_cycles = costs::instr_overhead_gemm(opts);
    gemm.span_setup_cycles = costs::kGemmTileSetupCycles;
    gemm.bytes_written = packed_out_bytes(d);
    gemm.coalescing = costs::coalescing(opts);
    gemm.alu_efficiency = costs::binary_kernel_eff(opts);
    const double groups = static_cast<double>(d.c_out / 8);
    if (v.reuse) {
      // Stage 1 scores each unique dictionary row once per register tile,
      // stage 2 patches referencing filters at kReuseDeltaWordOps per
      // delta word: one stage-1 span per unique row plus one patch and
      // epilogue pass per filter group, per tile.
      const bitpack::CompressedFilterBank& bank = compressed_bank();
      const double unique = static_cast<double>(bank.unique_rows());
      gemm.bitop_bits = costs::reuse_gemm_bitop_bits(
          static_cast<double>(m), unique, static_cast<double>(k_words),
          static_cast<double>(bank.stats().delta_words));
      gemm.span_count = m_tiles * (unique + groups);
      gemm.scalar_ops = gemm_outputs * 5.0;  // partial fetch + threshold/byte
      gemm.bytes_read = panel_bytes +
                        static_cast<double>(bank.stats().encoded_bytes) +
                        static_cast<double>(d.c_out) * 5.0;
    } else {
      gemm.bitop_bits = gemm_outputs * 2.0 * static_cast<double>(k_words) *
                        bitpack::kWordBits;
      gemm.span_count = m_tiles * groups;
      gemm.scalar_ops = gemm_outputs * 4.0;  // threshold compare + byte insert
      gemm.bytes_read = panel_bytes + static_cast<double>(weights_.bytes()) +
                        static_cast<double>(d.c_out) * 5.0;
    }
    return {Launch{&kn_.im2col,
                   aux(static_cast<double>(m * k_words), panel_bytes,
                       panel_bytes)},
            Launch{v.reuse ? &kn_.bitgemm_reuse : &kn_.bitgemm, gemm}};
  }

  // Window-streaming schedules (paths A, B, C and the fused conv→pool
  // step): xor + popcount bit-lanes per window span, padded to the
  // processing vector width (narrow layers waste the tail lanes of one
  // vector, not a whole 64-bit word), plus window accumulation, span setups
  // and the threshold test per output value.
  const bool split = v.interior_split;
  const auto pw = v.pack_width;
  KernelCost conv;
  conv.pack_width_bits = bitpack::bits(
      split ? bitpack::cap_pack_width_to_span(pw, d.kw * d.words) : pw);
  conv.coalescing = costs::coalescing(opts);
  conv.alu_efficiency = costs::binary_kernel_eff(opts);

  if (v.path == KernelVariant::Path::kConvUnfused) {
    // Path C: raw int32 sums, full floating-point BN + sign, packing.
    conv.bitop_bits = outputs * window_bitops(d, pw, split);
    charge_windows(conv, d, opts, split, /*shared_window=*/false);
    conv.bytes_read = in_w_bytes;
    conv.bytes_written = outputs * 4.0;
    return {Launch{&kn_.raw, conv},
            Launch{&kn_.bn_binarize,
                   aux(outputs * 6.0,  // add, sub, div, mul, add, compare
                       outputs * 4.0 + static_cast<double>(d.c_out) * 20.0,
                       outputs)},
            Launch{&kn_.pack,
                   aux(outputs, outputs, packed_out_bytes(d))}};
  }

  conv.bytes_read = in_w_bytes + static_cast<double>(d.c_out) * 5.0;
  if (step.fused_pool != nullptr) {
    // Conv work is unchanged (every conv output is still computed once);
    // the pool adds its OR bit-ops, and the memory side drops the
    // intermediate: only the pooled map is written, nothing re-read.
    const PoolGeometry& pg =
        static_cast<const MaxPool2d*>(step.fused_pool)->geometry();
    const double pooled_outputs = static_cast<double>(d.n) *
                                  step.out.shape.h * step.out.shape.w *
                                  d.c_out;
    conv.bitop_bits = outputs * window_bitops(d, pw, split) +
                      pooled_outputs *
                          static_cast<double>(pg.size * pg.size - 1);
    charge_windows(conv, d, opts, split, /*shared_window=*/true);
    conv.scalar_ops += outputs * 4.0;  // threshold + byte insert
    conv.bytes_written = static_cast<double>(step.out.bytes());
    return {Launch{&kn_.fused_pool, conv}};
  }
  if (v.reuse) {
    // Path A with the duplicate-lane table: work and weight traffic scale
    // by the bank's distinct-lane fraction (interior split only).
    const double distinct_frac =
        static_cast<double>(compressed_bank().distinct_group_lanes()) /
        static_cast<double>(d.c_out);
    conv.bitop_bits =
        outputs * window_bitops(d, pw, /*split=*/true) * distinct_frac;
    charge_windows_dedup(conv, d, opts, distinct_frac);
    conv.scalar_ops += outputs * 4.0;  // threshold compare + byte/bit insert
    conv.pack_width_bits =
        bitpack::bits(bitpack::cap_pack_width_to_span(pw, d.kw * d.words));
    conv.bytes_read = static_cast<double>(step.in.bytes()) +
                      static_cast<double>(weights_.bytes()) * distinct_frac +
                      static_cast<double>(d.c_out) * 5.0;
    conv.bytes_written = packed_out_bytes(d);
    return {Launch{&kn_.fused_dedup, conv}};
  }
  const bool path_a = v.path == KernelVariant::Path::kConvFused;
  conv.bitop_bits = outputs * window_bitops(d, pw, split);
  charge_windows(conv, d, opts, split, /*shared_window=*/path_a);
  conv.scalar_ops += outputs * 4.0;  // threshold compare + byte/bit insert
  if (path_a) {
    conv.bytes_written = packed_out_bytes(d);
    return {Launch{&kn_.fused, conv}};
  }
  conv.bytes_written = outputs;  // path B: the 0/1 byte map, then packing
  return {Launch{&kn_.nopack, conv},
          Launch{&kn_.pack, aux(outputs, outputs, packed_out_bytes(d))}};
}

KernelVariant BinaryConv2d::select_variant(const Shape& in_shape,
                                           const EngineOptions& opts) const {
  KernelVariant v;
  v.interior_split = opts.interior_split;
  v.pack_width = opts.conv_pack_width(in_shape.c, geom_.kernel_w);
  const std::int64_t ow = geom_.out_w(in_shape.w);
  v.tile_ow = opts.conv_tile_ow <= 0 ? ow : std::min(opts.conv_tile_ow, ow);
  // Candidate schedules are priced by price() itself — the launches
  // dispatch enqueues — and compared on the reference profile.
  PlanStep cand;
  cand.layer = this;
  cand.in = BlobDesc{BlobKind::kPacked, in_shape};
  const auto reference_ms = [&](const KernelVariant& c) {
    cand.variant = c;
    return reference_gpu_ms(price(cand, opts));
  };
  // Path D (DESIGN.md §11) needs the fused folded-BN epilogue and whole
  // filter groups; where legal, kAuto takes it only when the roofline model
  // says the lowering wins this geometry on the reference profile. Both the
  // eligibility test and the comparison are pure functions of
  // (options, geometry), which artifact plan replay depends on.
  const bool gemm_legal = opts.fuse_bn_binarize && opts.integrate_packing &&
                          out_channels() % 8 == 0;
  if (gemm_legal && opts.conv_path != ConvPathPreference::kRowFused) {
    KernelVariant gemm = v;
    gemm.path = KernelVariant::Path::kConvGemm;
    gemm.kernel = "im2col+bitgemm";
    // The GEMM inner loop streams the full K = kh*kw*words panel row, so
    // its granularity is keyed on that span, not the row-fused kw*words.
    gemm.pack_width = opts.pack_width_for_span(
        in_shape.c, geom_.kernel_h * geom_.kernel_w *
                        ceil_div(in_shape.c, bitpack::kWordBits));
    gemm.tile_ow = bitpack::kGemmMr;  // M rows per register tile
    KernelVariant window = v;
    window.path = in_channels() <= opts.packing_channel_threshold
                      ? KernelVariant::Path::kConvFused
                      : KernelVariant::Path::kConvSeparatePack;
    if (opts.conv_path == ConvPathPreference::kGemm ||
        reference_ms(gemm) < reference_ms(window)) {
      // Partial-popcount reuse (DESIGN.md §12): legal when the stage-1
      // partials fit the fixed per-work-item buffer; taken when the bank's
      // measured redundancy beats the plain tile on the reference roofline.
      // The bank is a deterministic function of the weights, so selection
      // stays replay-exact.
      if (opts.weight_compress == WeightCompress::kAuto) {
        const bitpack::CompressedFilterBank& bank = compressed_bank();
        KernelVariant reuse = gemm;
        reuse.reuse = true;
        reuse.kernel = "im2col+bitgemm_reuse";
        if (bank.unique_rows() <= bitpack::kReuseMaxDict &&
            bank.unique_rows() < out_channels() &&
            reference_ms(reuse) < reference_ms(gemm)) {
          return reuse;
        }
      }
      return gemm;
    }
  }
  if (!opts.fuse_bn_binarize) {
    v.path = KernelVariant::Path::kConvUnfused;
    v.kernel = "bconv_raw+bn_binarize+pack";
  } else if (opts.integrate_packing &&
             in_channels() <= opts.packing_channel_threshold &&
             out_channels() % 8 == 0) {
    v.path = KernelVariant::Path::kConvFused;
    v.kernel = "bconv_fused";
    // Duplicate-lane dedup of the shared-window schedule (DESIGN.md §12):
    // only exact within-group duplicates are legal here (delta patches
    // would change the window math), so the gate is the bank's distinct
    // lane count plus the roofline comparison.
    if (opts.weight_compress == WeightCompress::kAuto && opts.interior_split &&
        compressed_bank().distinct_group_lanes() < out_channels()) {
      KernelVariant dedup = v;
      dedup.reuse = true;
      dedup.kernel = "bconv_fused_dedup";
      if (reference_ms(dedup) < reference_ms(v)) return dedup;
    }
  } else {
    v.path = KernelVariant::Path::kConvSeparatePack;
    v.kernel = "bconv_nopack+pack";
  }
  return v;
}

PackedTensor BinaryConv2d::forward_fused(ExecContext& ctx,
                                         const PackedTensor& in,
                                         const PlanStep& step) const {
  const KernelVariant& v = step.variant;
  const ConvDims d = make_dims(in, weights_, geom_);
  PackedTensor out = ctx.make_packed(Shape{d.n, d.oh, d.ow, d.c_out});
  const bool split = v.interior_split;
  const std::uint64_t* zeros =
      split ? nullptr : ctx.arena.zero_words(d.words);
  const auto pw = v.pack_width;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const std::int64_t len = d.kh * d.kw * d.c_in;
  const std::int64_t tile = std::min(v.tile_ow, d.ow);
  const std::int64_t tiles_x = ceil_div(d.ow, tile);
  const FoldedBatchNorm& fb = folded_;

  if (v.path == KernelVariant::Path::kConvFused) {
    // Path A — Fig. 4: one work item owns a tile of output columns for the
    // 8 filters of its group and stores one byte per column; interior
    // windows run the shared-window schedule (group_mismatches).
    const std::int64_t groups = d.c_out / 8;
    auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
    const Launch& l = step.launches[0];
    ctx.queue.enqueue(
        *l.name, NDRange{tiles_x, d.oh, d.n * groups}, l.cost,
        [&, d, pw, branch_free, len, groups, split, tile,
         zeros](const WorkItem& it) {
          const std::int64_t n = it.z / groups;
          const std::int64_t g = it.z % groups;
          const bool y_in = it.y >= d.y0 && it.y < d.y1;
          const std::int64_t x_end =
              std::min(d.ow, (it.x + 1) * tile);
          for (std::int64_t ox = it.x * tile; ox < x_end; ++ox) {
            std::int64_t mism[8];
            group_mismatches(in, weights_, d, n, it.y, ox, g, zeros, pw,
                             split, y_in, mism);
            out_bytes[out.word_offset(n, it.y, ox, 0) * 8 + g] =
                group_byte(mism, g, len, fb, branch_free);
          }
        });
    return out;
  }

  // Path B — fused math, separate packing kernel (wide layers, §VI-B).
  // The 0/1 byte map lives in the engine arena, not a per-forward vector.
  const std::int64_t bit_count = d.n * d.oh * d.ow * d.c_out;
  std::uint8_t* bits = ctx.arena.u8(bit_count);
  const Launch& l = step.launches[0];
  ctx.queue.enqueue(
      *l.name, NDRange{tiles_x, d.oh, d.n * d.c_out}, l.cost,
      [&, d, pw, branch_free, len, split, tile, zeros,
       bits](const WorkItem& it) {
        const std::int64_t n = it.z / d.c_out;
        const std::int64_t co = it.z % d.c_out;
        const bool y_in = it.y >= d.y0 && it.y < d.y1;
        const std::int64_t x_end = std::min(d.ow, (it.x + 1) * tile);
        for (std::int64_t ox = it.x * tile; ox < x_end; ++ox) {
          const std::int64_t mism = window_mismatches(
              in, weights_, d, n, it.y, ox, co, zeros, pw, split, y_in);
          const float x1 = static_cast<float>(len - 2 * mism);
          const std::size_t ci = static_cast<std::size_t>(co);
          const bool bit =
              branch_free ? binarize_eqn9(x1, fb.xi[ci], fb.gamma_pos[ci] != 0)
                          : binarize_eqn8(x1, fb.xi[ci], fb.gamma_pos[ci] != 0);
          bits[static_cast<std::size_t>(
              ((n * d.oh + it.y) * d.ow + ox) * d.c_out + co)] = bit ? 1 : 0;
        }
      });

  enqueue_pack(ctx, step.launches[1], d, bits, out);
  return out;
}

PackedTensor BinaryConv2d::forward_unfused(ExecContext& ctx,
                                           const PackedTensor& in,
                                           const PlanStep& step) const {
  // Path C — the pre-integration pipeline: three kernels and two
  // materialized intermediates (what §V-B's fusion eliminates). Both
  // intermediates live in the engine arena.
  const KernelVariant& v = step.variant;
  const ConvDims d = make_dims(in, weights_, geom_);
  PackedTensor out = ctx.make_packed(Shape{d.n, d.oh, d.ow, d.c_out});
  const bool split = v.interior_split;
  const std::uint64_t* zeros =
      split ? nullptr : ctx.arena.zero_words(d.words);
  const auto pw = v.pack_width;
  const std::int64_t len = d.kh * d.kw * d.c_in;
  const std::int64_t tile = std::min(v.tile_ow, d.ow);
  const std::int64_t tiles_x = ceil_div(d.ow, tile);
  const std::int64_t out_count = d.n * d.oh * d.ow * d.c_out;

  // Kernel 1: raw binary convolution, int32 sums out.
  std::int32_t* sums = ctx.arena.i32(out_count);
  const Launch& raw = step.launches[0];
  ctx.queue.enqueue(
      *raw.name, NDRange{tiles_x, d.oh, d.n * d.c_out}, raw.cost,
      [&, d, pw, len, split, tile, zeros, sums](const WorkItem& it) {
        const std::int64_t n = it.z / d.c_out;
        const std::int64_t co = it.z % d.c_out;
        const bool y_in = it.y >= d.y0 && it.y < d.y1;
        const std::int64_t x_end = std::min(d.ow, (it.x + 1) * tile);
        for (std::int64_t ox = it.x * tile; ox < x_end; ++ox) {
          const std::int64_t mism = window_mismatches(
              in, weights_, d, n, it.y, ox, co, zeros, pw, split, y_in);
          sums[static_cast<std::size_t>(
              ((n * d.oh + it.y) * d.ow + ox) * d.c_out + co)] =
              static_cast<std::int32_t>(len - 2 * mism);
        }
      });

  // Kernel 2: full floating-point batch-norm + sign binarization.
  std::uint8_t* bits = ctx.arena.u8(out_count);
  const std::vector<BatchNormParams>& bn = bn_;
  const std::vector<float>& bias = bias_;
  const Launch& bn_binarize = step.launches[1];
  ctx.queue.enqueue_chunked(
      *bn_binarize.name, NDRange{out_count}, bn_binarize.cost,
      [&, d, sums, bits](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const std::size_t ci = static_cast<std::size_t>(i % d.c_out);
          const float x3 = batch_norm_reference(
              static_cast<float>(sums[static_cast<std::size_t>(i)]), bn[ci],
              bias.empty() ? 0.0f : bias[ci]);
          bits[static_cast<std::size_t>(i)] = binarize_sign(x3) ? 1 : 0;
        }
      });

  // Kernel 3: packing (same as path B's second kernel).
  enqueue_pack(ctx, step.launches[2], d, bits, out);
  return out;
}

PackedTensor BinaryConv2d::forward_gemm(ExecContext& ctx,
                                        const PackedTensor& in,
                                        const PlanStep& step) const {
  // Path D — bit-GEMM lowering (DESIGN.md §11). Kernel 1 lowers the packed
  // input to an im2col panel: one row of K = kh*kw*words words per output
  // pixel, padding resolved once here as zero-filled segments (the all-(-1)
  // packed value), so the GEMM sees a dense M x K bit-matrix with no bounds
  // tests. Kernel 2 walks MR x 8 register tiles: each tile holds its 32
  // mismatch accumulators in registers across the whole K reduction and
  // applies the same folded-BN group-byte epilogue as path A, so results
  // are bit-exact with the window-streaming schedule.
  const ConvDims d = make_dims(in, weights_, geom_);
  // Selection never picks D otherwise, but an artifact's recorded variant
  // is not re-derived on load, and gemm_panel_ only exists for whole groups.
  PB_CHECK(d.c_out % 8 == 0, name_ << ": path D needs C_out % 8 == 0");
  PackedTensor out = ctx.make_packed(Shape{d.n, d.oh, d.ow, d.c_out});
  const std::int64_t k_words = d.kh * d.kw * d.words;
  const std::int64_t m = d.n * d.oh * d.ow;
  std::uint64_t* panel = ctx.arena.words(m * k_words);
  const Launch& im2col = step.launches[0];
  ctx.queue.enqueue(
      *im2col.name, NDRange{d.ow, d.oh, d.n}, im2col.cost,
      [&, d, k_words, panel](const WorkItem& it) {
        const std::int64_t n = it.z;
        std::uint64_t* row =
            panel + (((n * d.oh + it.y) * d.ow) + it.x) * k_words;
        const std::int64_t iy0 = it.y * d.sh - d.ph;
        const std::int64_t ix0 = it.x * d.sw - d.pw;
        // Column clamp is x-invariant per row: [lo, hi) taps are in bounds.
        const std::int64_t lo = std::clamp<std::int64_t>(-ix0, 0, d.kw);
        const std::int64_t hi = std::clamp<std::int64_t>(d.iw - ix0, 0, d.kw);
        const std::size_t row_bytes =
            static_cast<std::size_t>(d.kw * d.words) * 8;
        for (std::int64_t ky = 0; ky < d.kh; ++ky) {
          const std::int64_t iy = iy0 + ky;
          std::uint64_t* dst = row + ky * d.kw * d.words;
          if (iy < 0 || iy >= d.ih || hi <= lo) {
            std::memset(dst, 0, row_bytes);
            continue;
          }
          if (lo > 0) {
            std::memset(dst, 0, static_cast<std::size_t>(lo * d.words) * 8);
          }
          std::memcpy(dst + lo * d.words, in.pixel(n, iy, ix0 + lo),
                      static_cast<std::size_t>((hi - lo) * d.words) * 8);
          if (hi < d.kw) {
            std::memset(dst + hi * d.words, 0,
                        static_cast<std::size_t>((d.kw - hi) * d.words) * 8);
          }
        }
      });

  const std::int64_t m_tiles = ceil_div(m, bitpack::kGemmMr);
  const std::int64_t groups = d.c_out / 8;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const std::int64_t len = d.kh * d.kw * d.c_in;
  const std::int64_t out_pitch = out.words_per_pixel() * 8;  // bytes/pixel
  const FoldedBatchNorm& fb = folded_;
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  const Launch& gemm = step.launches[1];

  if (step.variant.reuse) {
    // Partial-popcount reuse schedule (DESIGN.md §12): one work item per
    // register tile scores every unique dictionary row ONCE (stage 1,
    // partials in a fixed stack buffer — never the shared arena, so
    // parallel work items cannot collide and warm forwards stay
    // zero-allocation), then derives all c_out filters from the cached
    // partials plus their delta corrections (stage 2). Bit-exact with the
    // plain tile against the reconstructed weights.
    const bitpack::CompressedFilterBank& bank = compressed_bank();
    ctx.queue.enqueue(
        *gemm.name, NDRange{m_tiles, 1, 1}, gemm.cost,
        [&, k_words, m, out_pitch, branch_free, len, groups,
         panel](const WorkItem& it) {
          const std::int64_t m0 = it.x * bitpack::kGemmMr;
          const std::int64_t rows =
              std::min<std::int64_t>(bitpack::kGemmMr, m - m0);
          std::int64_t partials[bitpack::kReuseMaxDict * bitpack::kGemmMr];
          bitpack::xor_popcount_dict(panel + m0 * k_words, k_words, bank,
                                     rows, partials);
          std::int64_t mism[bitpack::kGemmMr * 8];
          for (std::int64_t g = 0; g < groups; ++g) {
            bitpack::xor_popcount_gemm_reuse_x8(panel + m0 * k_words, k_words,
                                                bank, g, rows, partials,
                                                mism);
            for (std::int64_t r = 0; r < rows; ++r) {
              out_bytes[(m0 + r) * out_pitch + g] =
                  group_byte(&mism[r * 8], g, len, fb, branch_free);
            }
          }
        });
    return out;
  }

  // One work item owns one m-tile across every filter group, so the tile's
  // panel rows stay in L1 while each group's interleaved filter words
  // stream past them.
  ctx.queue.enqueue(
      *gemm.name, NDRange{m_tiles, 1, 1}, gemm.cost,
      [&, k_words, m, out_pitch, branch_free, len, groups,
       panel](const WorkItem& it) {
        const std::int64_t m0 = it.x * bitpack::kGemmMr;
        const std::int64_t rows =
            std::min<std::int64_t>(bitpack::kGemmMr, m - m0);
        const auto len32 = static_cast<std::int32_t>(len);
        std::int32_t mism[bitpack::kGemmMr * 8];
        for (std::int64_t g = 0; g < groups; ++g) {
          bitpack::xor_popcount_gemm_x8(panel + m0 * k_words, k_words,
                                        gemm_panel_.data() + g * 8 * k_words,
                                        k_words, rows, mism);
          const float* xi = fb.xi.data() + g * 8;
          const std::uint8_t* gamma_pos = fb.gamma_pos.data() + g * 8;
          for (std::int64_t r = 0; r < rows; ++r) {
            std::int32_t x1[8];
            for (int f = 0; f < 8; ++f) x1[f] = len32 - 2 * mism[r * 8 + f];
            out_bytes[(m0 + r) * out_pitch + g] =
                binarize_group(x1, xi, gamma_pos, branch_free);
          }
        }
      });
  return out;
}

PackedTensor BinaryConv2d::forward_fused_dedup(ExecContext& ctx,
                                               const PackedTensor& in,
                                               const PlanStep& step) const {
  // Path A with the duplicate-lane table (DESIGN.md §12): selection only
  // takes this variant with the interior split on, so there is no per-tap
  // ablation arm here. Work and traffic scale by the bank's distinct-lane
  // fraction; results are bit-exact with forward_fused.
  const ConvDims d = make_dims(in, weights_, geom_);
  PackedTensor out = ctx.make_packed(Shape{d.n, d.oh, d.ow, d.c_out});
  const bitpack::CompressedFilterBank& bank = compressed_bank();
  const std::uint8_t* lane_src = bank.lane_sources().data();
  const KernelVariant& v = step.variant;
  const auto pw = v.pack_width;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const std::int64_t len = d.kh * d.kw * d.c_in;
  const std::int64_t tile = std::min(v.tile_ow, d.ow);
  const std::int64_t tiles_x = ceil_div(d.ow, tile);
  const std::int64_t groups = d.c_out / 8;
  const FoldedBatchNorm& fb = folded_;

  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  const Launch& l = step.launches[0];
  ctx.queue.enqueue(
      *l.name, NDRange{tiles_x, d.oh, d.n * groups}, l.cost,
      [&, d, pw, branch_free, len, groups, tile,
       lane_src](const WorkItem& it) {
        const std::int64_t n = it.z / groups;
        const std::int64_t g = it.z % groups;
        const bool y_in = it.y >= d.y0 && it.y < d.y1;
        const std::int64_t x_end = std::min(d.ow, (it.x + 1) * tile);
        for (std::int64_t ox = it.x * tile; ox < x_end; ++ox) {
          std::int64_t mism[8];
          group_mismatches_dedup(in, weights_, d, n, it.y, ox, g,
                                 lane_src + g * 8, pw, y_in, mism);
          out_bytes[out.word_offset(n, it.y, ox, 0) * 8 + g] =
              group_byte(mism, g, len, fb, branch_free);
        }
      });
  return out;
}

PackedTensor BinaryConv2d::forward_fused_pool(ExecContext& ctx,
                                              const PackedTensor& in,
                                              const PlanStep& step) const {
  // Fused conv→pool step: path A's conv bytes for one pool window row land
  // in a small stack row buffer, the window max (bitwise OR over the ±1
  // domain) folds them in registers, and only the POOLED packed map is
  // written — the full-size conv activation map never exists. Legality
  // (checked at plan time): non-overlapping gap-free pool windows
  // (stride == size), so every conv output is computed exactly once.
  const KernelVariant& v = step.variant;
  const ConvDims d = make_dims(in, weights_, geom_);
  const PoolGeometry pg =
      static_cast<const MaxPool2d*>(step.fused_pool)->geometry();
  const std::int64_t poh = step.out.shape.h;
  const std::int64_t pow_ = step.out.shape.w;
  const std::int64_t lp = pg.lead_pad();
  PackedTensor out = ctx.make_packed(step.out.shape);

  const bool split = v.interior_split;
  const std::uint64_t* zeros =
      split ? nullptr : ctx.arena.zero_words(d.words);
  const auto pw = v.pack_width;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const std::int64_t len = d.kh * d.kw * d.c_in;
  const std::int64_t tile = std::max<std::int64_t>(
      1, std::min(v.tile_ow, pow_));
  const std::int64_t tiles_x = ceil_div(pow_, tile);
  const std::int64_t groups = d.c_out / 8;
  const FoldedBatchNorm& fb = folded_;

  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  const Launch& l = step.launches[0];
  ctx.queue.enqueue(
      *l.name, NDRange{tiles_x, poh, d.n * groups}, l.cost,
      [&, d, pg, lp, poh, pow_, pw, branch_free, len, groups, split, tile,
       zeros](const WorkItem& it) {
        const std::int64_t n = it.z / groups;
        const std::int64_t g = it.z % groups;
        const std::int64_t px0 = it.x * tile;
        const std::int64_t px1 = std::min(pow_, px0 + tile);
        // Conv columns this tile's windows touch, clamped to the conv map
        // (the clamp is what "same"-style tail windows rely on).
        const std::int64_t cx0 =
            std::max<std::int64_t>(0, px0 * pg.stride - lp);
        const std::int64_t cx1 = std::min(
            d.ow, (px1 - 1) * pg.stride - lp + pg.size);
        const std::int64_t span = cx1 - cx0;
        // Row buffer: one conv-byte row per pool window row, filled once
        // per (tile, window row) and consumed by every window of the tile.
        std::array<std::uint8_t, 3 * 64> rowbuf{};
        const std::int64_t cy_base = it.y * pg.stride - lp;
        std::uint8_t row_valid = 0;
        for (std::int64_t ky = 0; ky < pg.size; ++ky) {
          const std::int64_t cy = cy_base + ky;
          if (cy < 0 || cy >= d.oh || span <= 0) continue;
          row_valid = static_cast<std::uint8_t>(row_valid | (1u << ky));
          const bool y_in = cy >= d.y0 && cy < d.y1;
          std::uint8_t* row = rowbuf.data() + ky * span;
          for (std::int64_t cx = cx0; cx < cx1; ++cx) {
            std::int64_t mism[8];
            group_mismatches(in, weights_, d, n, cy, cx, g, zeros, pw,
                             split, y_in, mism);
            row[cx - cx0] = group_byte(mism, g, len, fb, branch_free);
          }
        }
        for (std::int64_t px = px0; px < px1; ++px) {
          std::uint8_t acc = 0;  // all -1: the pool padding value
          for (std::int64_t ky = 0; ky < pg.size; ++ky) {
            if ((row_valid & (1u << ky)) == 0) continue;
            const std::uint8_t* row = rowbuf.data() + ky * span;
            for (std::int64_t kx = 0; kx < pg.size; ++kx) {
              const std::int64_t cx = px * pg.stride - lp + kx;
              if (cx < cx0 || cx >= cx1) continue;
              acc = static_cast<std::uint8_t>(acc | row[cx - cx0]);
            }
          }
          out_bytes[out.word_offset(n, it.y, px, 0) * 8 + g] = acc;
        }
      });
  return out;
}

}  // namespace phonebit::core
