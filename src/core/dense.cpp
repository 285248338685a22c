#include "core/dense.hpp"

#include <algorithm>
#include <cstring>

#include "bitpack/binary_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/binarize.hpp"
#include "core/costs.hpp"
#include "simd/vec.hpp"

namespace phonebit::core {

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

BinaryDense::BinaryDense(std::string name, PackedTensor weights,
                         std::vector<BatchNormParams> bn,
                         std::vector<float> bias)
    : name_(std::move(name)), fused_name_(name_ + ".bdense_fused"),
      weights_(std::move(weights)), bn_(std::move(bn)),
      bias_(std::move(bias)) {
  PB_CHECK(weights_.shape().h == 1 && weights_.shape().w == 1,
           name_ << ": dense weights must be (units,1,1,features)");
  PB_CHECK(static_cast<std::int64_t>(bn_.size()) == weights_.shape().n,
           name_ << ": BN channel count mismatch");
  PB_CHECK(weights_.shape().n % 8 == 0,
           name_ << ": units must be a multiple of 8 for byte packing");
  folded_ = fold_batch_norm(bn_, bias_);
}

std::int64_t BinaryDense::param_bytes() const {
  return weights_.bytes() + units() * 4 + ceil_div(units(), 8);
}

std::int64_t BinaryDense::param_count() const {
  return units() * in_features() + 5 * units();
}

void BinaryDense::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kPacked,
           name_ << ": binary dense expects packed input, got " << in.str());
  const std::int64_t features = in.shape.h * in.shape.w * in.shape.c;
  PB_CHECK(features == in_features(), name_ << ": input features " << features
                                            << " != " << in_features());
  // Word-aligned channels flatten zero-copy (the packed words of one NHWC
  // sample ARE the flattened bit vector); otherwise the bits re-pack into
  // arena words scratch to close the per-pixel padding gaps.
  if (in.shape.c % bitpack::kWordBits != 0) {
    pc.need_words(in.shape.n * weights_.words_per_pixel());
  }
  KernelVariant v;
  v.kernel = "bdense_fused";
  v.pack_width = dense_pack_width(pc.opts());
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kPacked, Shape{in.shape.n, 1, 1, units()}});
}

bitpack::PackWidth BinaryDense::dense_pack_width(
    const EngineOptions& opts) const {
  // The GEMV streams the whole flattened feature vector per unit — one
  // fused span of `words_per_pixel` words, so span keying applies exactly
  // as in the row-fused convs.
  return opts.pack_width_for_span(weights_.words_per_pixel());
}

std::vector<Launch> BinaryDense::price(const PlanStep& step,
                                       const EngineOptions& opts) const {
  const std::int64_t n = step.in.shape.n;
  const std::int64_t u = units();
  const auto pw = step.variant.pack_width;
  KernelCost cost;
  cost.bitop_bits =
      2.0 * static_cast<double>(n * u) *
      static_cast<double>(ceil_div(in_features(), bitpack::bits(pw)) *
                          bitpack::bits(pw));
  cost.scalar_ops = static_cast<double>(n * u) * 4.0;
  cost.pack_width_bits = bitpack::bits(pw);
  cost.instr_overhead_cycles = costs::instr_overhead(opts);
  cost.bytes_read = static_cast<double>(n * weights_.words_per_pixel() * 8 +
                                        weights_.bytes());
  cost.bytes_written = static_cast<double>(step.out.bytes());
  cost.coalescing = costs::coalescing(opts);
  cost.alu_efficiency = costs::binary_kernel_eff(opts);
  return {Launch{&fused_name_, cost}};
}

Blob BinaryDense::run(ExecContext& ctx, const Blob& input,
                      const PlanStep& step) const {
  const auto* packed = std::get_if<PackedTensor>(&input);
  PB_CHECK(packed != nullptr, name_ << ": binary dense expects packed input");
  const PackedTensor& in = *packed;
  const Shape& is = in.shape();
  const std::int64_t features = is.h * is.w * is.c;
  PB_CHECK(features == in_features(), name_ << ": input features " << features
                                            << " != " << in_features());

  const std::int64_t n = is.n;
  const std::int64_t u = units();
  const std::int64_t words = weights_.words_per_pixel();

  // Flatten. NHWC channel-innermost packing means that when C is word-
  // aligned, the packed words of one sample ARE the flattened feature bit
  // vector — the GEMV reads the input words in place, no copy, no
  // allocation. Unaligned channels re-pack into arena words scratch
  // (declared at plan time) to close the per-pixel padding gaps.
  const std::uint64_t* flat = in.data();
  if (is.c % bitpack::kWordBits != 0) {
    std::uint64_t* repacked = ctx.arena.words(n * words);
    std::memset(repacked, 0, static_cast<std::size_t>(n * words) * 8);
    for (std::int64_t s = 0; s < n; ++s) {
      std::int64_t bit = 0;
      for (std::int64_t h = 0; h < is.h; ++h)
        for (std::int64_t w = 0; w < is.w; ++w)
          for (std::int64_t c = 0; c < is.c; ++c, ++bit)
            if (in.get(s, h, w, c)) {
              repacked[s * words + bit / bitpack::kWordBits] |=
                  std::uint64_t{1} << (bit % bitpack::kWordBits);
            }
    }
    flat = repacked;
  }

  const std::int64_t groups = u / 8;
  const auto pw = step.variant.pack_width;
  const bool branch_free = ctx.opts.branch_free_binarize;
  PackedTensor out = ctx.make_packed(Shape{n, 1, 1, u});
  const FoldedBatchNorm& fb = folded_;
  const Launch& l = step.launches[0];
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  ctx.queue.enqueue(
      *l.name, NDRange{groups, n, 1}, l.cost,
      [&, words, groups, branch_free, pw, features, flat](const WorkItem& it) {
        const std::int64_t sample = it.y;
        const std::uint64_t* x = flat + sample * words;
        std::uint8_t byte = 0;
        for (int f = 0; f < 8; ++f) {
          const std::int64_t unit = it.x * 8 + f;
          const std::int64_t mism =
              bitpack::xor_popcount(x, weights_.pixel(unit, 0, 0), words, pw);
          const float x1 = static_cast<float>(features - 2 * mism);
          const std::size_t ci = static_cast<std::size_t>(unit);
          const bool bit =
              branch_free
                  ? binarize_eqn9(x1, fb.xi[ci], fb.gamma_pos[ci] != 0)
                  : binarize_eqn8(x1, fb.xi[ci], fb.gamma_pos[ci] != 0);
          if (bit) byte = static_cast<std::uint8_t>(byte | (1u << f));
        }
        out_bytes[out.word_offset(sample, 0, 0, 0) * 8 + it.x] = byte;
      });
  return out;
}

FloatDense::FloatDense(std::string name, FloatTensor weights,
                       std::vector<float> bias)
    : name_(std::move(name)), unpack_name_(name_ + ".unpack"),
      dot_name_(name_ + ".fdense_dot"), weights_(std::move(weights)),
      bias_(std::move(bias)) {
  PB_CHECK(weights_.shape().h == 1 && weights_.shape().w == 1,
           name_ << ": dense weights must be (units,1,1,features)");
  PB_CHECK(bias_.empty() ||
               static_cast<std::int64_t>(bias_.size()) == weights_.shape().n,
           name_ << ": bias count mismatch");
}

std::int64_t FloatDense::param_bytes() const {
  return weights_.bytes() + static_cast<std::int64_t>(bias_.size()) * 4;
}

std::int64_t FloatDense::param_count() const {
  return units() * in_features() + static_cast<std::int64_t>(bias_.size());
}

void FloatDense::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kPacked || in.kind == BlobKind::kFloat,
           name_ << ": expects packed or float input, got " << in.str());
  const std::int64_t features = in.shape.h * in.shape.w * in.shape.c;
  PB_CHECK(features == in_features(), name_ << ": input features " << features
                                            << " != " << in_features());
  // The flattened (packed: unpacked-to-±1) input vector lives in arena f32
  // scratch, not a per-forward heap tensor.
  pc.need_f32(in.shape.n * features);
  KernelVariant v;
  v.kernel = in.kind == BlobKind::kPacked ? "unpack+fdense_dot" : "fdense_dot";
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kFloat, Shape{in.shape.n, 1, 1, units()}});
}

std::vector<Launch> FloatDense::price(const PlanStep& step,
                                      const EngineOptions& opts) const {
  const std::int64_t n = step.in.shape.n;
  const std::int64_t u = units();
  const std::int64_t features = in_features();
  const double x_bytes = static_cast<double>(n * features * 4);
  std::vector<Launch> launches;
  if (step.in.kind == BlobKind::kPacked) {
    KernelCost cost;
    cost.scalar_ops = static_cast<double>(n * features);
    cost.bytes_read = static_cast<double>(step.in.bytes());
    cost.bytes_written = x_bytes;
    cost.alu_efficiency = costs::kAuxKernelEff;
    cost.coalescing = costs::coalescing(opts);
    launches.push_back(Launch{&unpack_name_, cost});
  }
  KernelCost cost;
  cost.scalar_ops = static_cast<double>(n * u * features);
  cost.bytes_read = x_bytes + static_cast<double>(weights_.bytes());
  cost.bytes_written = static_cast<double>(step.out.bytes());
  cost.coalescing = costs::coalescing(opts);
  cost.alu_efficiency = costs::kFloatDotEff;
  launches.push_back(Launch{&dot_name_, cost});
  return launches;
}

Blob FloatDense::run(ExecContext& ctx, const Blob& in,
                     const PlanStep& step) const {
  // Expand packed input to ±1 floats / flatten float input, into arena f32
  // scratch (never a per-forward heap tensor).
  FloatTensor x;
  if (const auto* packed = std::get_if<PackedTensor>(&in)) {
    const Shape ps = packed->shape();
    const std::int64_t feat = ps.h * ps.w * ps.c;
    x = FloatTensor(Shape{ps.n, 1, 1, feat}, Layout::kNHWC,
                    ctx.arena.f32(ps.n * feat));
    const Launch& l = step.launches[0];
    ctx.queue.enqueue_chunked(
        *l.name, NDRange{ps.n, 1, 1}, l.cost,
        [&, ps](std::int64_t begin, std::int64_t end) {
          for (std::int64_t s = begin; s < end; ++s) {
            float* dst = &x(s, 0, 0, 0);
            for (std::int64_t h = 0; h < ps.h; ++h) {
              for (std::int64_t w = 0; w < ps.w; ++w, dst += ps.c) {
                bitpack::unpack_sign_words(packed->pixel(s, h, w), ps.c, dst);
              }
            }
          }
        });
  } else {
    const auto* f = std::get_if<FloatTensor>(&in);
    PB_CHECK(f != nullptr, name_ << ": expects packed or float input");
    const Shape s = f->shape();
    x = FloatTensor(Shape{s.n, 1, 1, s.h * s.w * s.c}, Layout::kNHWC,
                    ctx.arena.f32(s.elems()));
    PB_CHECK(f->layout() == Layout::kNHWC, name_ << ": input must be NHWC");
    std::copy(f->data(), f->data() + s.elems(), x.data());
  }
  PB_CHECK(x.shape().c == in_features(),
           name_ << ": input features " << x.shape().c << " != "
                 << in_features());

  const std::int64_t n = x.shape().n;
  const std::int64_t u = units();
  const std::int64_t features = in_features();
  FloatTensor out = ctx.make_float(Shape{n, 1, 1, u}, Layout::kNHWC);

  const std::vector<float>& bias = bias_;
  const Launch& l = step.launches.back();
  ctx.queue.enqueue(
      *l.name, NDRange{u, n, 1}, l.cost,
      [&, features](const WorkItem& it) {
        const float* px = &x(it.y, 0, 0, 0);
        const float* wt = &weights_(it.x, 0, 0, 0);
        float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(it.x)];
        std::int64_t c = 0;
        for (; c + 4 <= features; c += 4) {
          const auto a = simd::vload<float, 4>(0, px + c);
          const auto b = simd::vload<float, 4>(0, wt + c);
          acc += simd::dot(a, b);
        }
        for (; c < features; ++c) acc += px[c] * wt[c];
        out(it.y, 0, 0, it.x) = acc;
      });
  return out;
}

}  // namespace phonebit::core
