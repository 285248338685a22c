#include "core/pooling.hpp"

#include "bitpack/packed_tensor.hpp"
#include "core/costs.hpp"

namespace phonebit::core {

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

void MaxPool2d::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kPacked,
           name_ << ": max pool expects packed input, got " << in.str());
  KernelVariant v;
  v.kernel = "maxpool_or";
  v.pack_width = bitpack::PackWidth::k64;
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kPacked,
                      Shape{in.shape.n, geom_.out_dim(in.shape.h),
                            geom_.out_dim(in.shape.w), in.shape.c}});
}

Blob MaxPool2d::forward(ExecContext& ctx, const Blob& in) const {
  const auto* packed = std::get_if<PackedTensor>(&in);
  PB_CHECK(packed != nullptr, name_ << ": max pool expects packed input");
  const Shape& is = packed->shape();
  const std::int64_t oh = geom_.out_dim(is.h);
  const std::int64_t ow = geom_.out_dim(is.w);
  PackedTensor out = ctx.make_packed(Shape{is.n, oh, ow, is.c});
  const std::int64_t words = packed->words_per_pixel();

  KernelCost cost;
  const double opixels = static_cast<double>(is.n) * oh * ow;
  cost.bitop_bits = opixels * static_cast<double>(is.c) *
                    static_cast<double>(geom_.size * geom_.size - 1);
  cost.pack_width_bits = 64;
  cost.bytes_read = static_cast<double>(packed->bytes());
  cost.bytes_written = static_cast<double>(out.bytes());
  cost.coalescing = costs::coalescing(ctx.opts);
  cost.alu_efficiency = costs::kAuxKernelEff;

  ctx.queue.enqueue(
      or_name_, NDRange{ow, oh, is.n * words}, cost,
      [&, oh, ow, words](const WorkItem& it) {
        const std::int64_t n = it.z / words;
        const std::int64_t j = it.z % words;
        std::uint64_t acc = 0;  // all -1: the padding value
        for (std::int64_t ky = 0; ky < geom_.size; ++ky) {
          const std::int64_t iy = it.y * geom_.stride - geom_.lead_pad() + ky;
          if (iy < 0 || iy >= is.h) continue;
          for (std::int64_t kx = 0; kx < geom_.size; ++kx) {
            const std::int64_t ix = it.x * geom_.stride - geom_.lead_pad() + kx;
            if (ix < 0 || ix >= is.w) continue;
            acc |= packed->data()[packed->word_offset(n, iy, ix, j)];
          }
        }
        out.data()[out.word_offset(n, it.y, it.x, j)] = acc;
      });
  return out;
}

}  // namespace phonebit::core
