#include "core/plan.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/binary_conv.hpp"
#include "core/pooling.hpp"

namespace phonebit::core {

namespace {

/// Widest conv-output span one fused work item may buffer (bytes per conv
/// row in its register/stack row buffer); the fused tile width is clamped
/// so the span fits.
constexpr std::int64_t kMaxFusedSpanBytes = 64;
/// Largest pool window edge the fused epilogue's row buffer covers.
constexpr std::int64_t kMaxFusedPoolSize = 3;

/// Legality of the conv→pool rewrite (DESIGN.md §7). The chain fuses only
/// when (a) the producer compiled to the fully fused path A — its epilogue
/// already binarizes+packs in registers, so the pool OR composes for free;
/// (b) the consumer is a MaxPool2d whose windows are non-overlapping and
/// gap-free (stride == size): every conv output feeds exactly one window,
/// so nothing is recomputed and nothing is skipped; and (c) the window is
/// small enough for the per-row buffer. Overlapping pools (YOLOv2-Tiny's
/// stride-1 "same" pool6) would recompute conv outputs up to size² times —
/// they keep their own step. In a branching graph the conv output would
/// also need exactly one consumer; the linear pipeline gives that for free.
bool can_fuse_conv_pool(const PlanStep& conv, const PlanStep& pool) {
  if (conv.variant.path != KernelVariant::Path::kConvFused) return false;
  if (dynamic_cast<const BinaryConv2d*>(conv.layer) == nullptr) return false;
  const auto* mp = dynamic_cast<const MaxPool2d*>(pool.layer);
  if (mp == nullptr) return false;
  return fused_pool_geometry_legal(mp->geometry());
}

}  // namespace

bool fused_pool_geometry_legal(const PoolGeometry& g) noexcept {
  return g.stride == g.size && g.size >= 2 && g.size <= kMaxFusedPoolSize;
}

std::int64_t max_fused_tile(const PoolGeometry& g) noexcept {
  return std::max<std::int64_t>(
      1, (kMaxFusedSpanBytes - g.size) / g.stride + 1);
}

BlobDesc describe_blob(const Blob& b) {
  if (const auto* f = std::get_if<FloatTensor>(&b)) {
    return BlobDesc{BlobKind::kFloat, f->shape()};
  }
  if (const auto* u = std::get_if<U8Tensor>(&b)) {
    return BlobDesc{BlobKind::kU8, u->shape()};
  }
  return BlobDesc{BlobKind::kPacked, std::get<bitpack::PackedTensor>(b).shape()};
}

ExecutionPlan Network::compile(const Engine& engine,
                               const BlobDesc& input) const {
  return compile(engine.options(), input, nullptr);
}

ExecutionPlan Network::compile(const EngineOptions& opts, const BlobDesc& input,
                               SessionStats* stats) const {
  PB_CHECK(!layers_.empty(), name_ << ": cannot compile an empty network");
  ExecutionPlan plan;
  plan.name_ = name_;
  plan.opts_ = opts;
  plan.input_ = input;
  plan.steps_.reserve(layers_.size());

  // (a) + (c): one pass of shape inference, validation and ahead-of-time
  // variant selection. A layer whose contract is violated throws here, with
  // the network+layer context, before any kernel could run.
  BlobDesc cur = input;
  for (const auto& layer : layers_) {
    PlanStep step = plan_step(*layer, cur, opts, stats);
    // Per-step compression accounting (DESIGN.md §12): recorded in the plan
    // so dumps and `pbc dump` print per-layer redundancy without touching
    // the layers. The bank is deterministic in the weights, so the values
    // replay identically on artifact load.
    if (opts.weight_compress != WeightCompress::kOff) {
      if (const auto* conv = dynamic_cast<const BinaryConv2d*>(layer.get())) {
        const bitpack::CompressStats& cs = conv->compressed_bank().stats();
        step.wcomp.unique_rows = cs.unique_rows;
        step.wcomp.raw_bytes = cs.raw_bytes;
        step.wcomp.encoded_bytes = cs.encoded_bytes;
      }
    }
    plan.steps_.push_back(std::move(step));
    cur = plan.steps_.back().out;
  }

  // (d) Cross-layer fusion. Rewrites `BinaryConv2d → MaxPool` chains into
  // one fused step: the conv epilogue pools its output bytes in registers
  // and emits the pooled packed map directly, so the full-size conv
  // activation map (the chain's dominant memory traffic) is never written.
  // Runs BEFORE liveness so slots are sized for the pooled blob.
  if (opts.fuse_conv_pool) {
    std::vector<PlanStep> fused;
    fused.reserve(plan.steps_.size());
    for (std::size_t i = 0; i < plan.steps_.size(); ++i) {
      PlanStep step = std::move(plan.steps_[i]);
      if (i + 1 < plan.steps_.size() &&
          can_fuse_conv_pool(step, plan.steps_[i + 1])) {
        const PlanStep& pool = plan.steps_[i + 1];
        step.fused_pool = pool.layer;
        step.fused_mid = step.out;
        step.out = pool.out;
        // The fused conv→pool kernel keeps the plain shared-window schedule;
        // the dedup reuse variant does not compose with its row buffer, so
        // fusion (the bigger win — the conv map is never written) takes
        // precedence and the reuse flag is cleared before serialization.
        if (step.variant.reuse) {
          step.variant.reuse = false;
          step.variant.kernel = "bconv_fused";
        }
        step.variant.kernel += "+maxpool";
        step.display += "+" + pool.layer->name();
        // Re-clamp the output-x tile to the POOLED row and the fused row
        // buffer: one work item buffers (tile-1)*stride + size conv bytes
        // per window row.
        const auto& pg =
            static_cast<const MaxPool2d*>(pool.layer)->geometry();
        step.variant.tile_ow = std::max<std::int64_t>(
            1, std::min({step.variant.tile_ow, step.out.shape.w,
                         max_fused_tile(pg)}));
        ++i;  // the pool step is absorbed
      }
      fused.push_back(std::move(step));
    }
    plan.steps_ = std::move(fused);
  }

  // (b) Buffer liveness. The pipeline is linear: intermediate i (output of
  // step i) is live only until step i+1 consumes it, so a ping-pong pair of
  // slots covers every schedule and the peak is known exactly. The final
  // output is handed to the caller (or staged in the slab's output region
  // for borrow_output runs), never recycled. Scratch lifetimes never cross
  // a step, so the scratch peak per typed pool is a running max.
  const std::size_t n = plan.steps_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      const int slot = static_cast<int>(i % 2);
      plan.steps_[i].slot = slot;
      if (plan.slots_.size() <= static_cast<std::size_t>(slot)) {
        plan.slots_.resize(static_cast<std::size_t>(slot) + 1);
      }
      ActivationSlot& s = plan.slots_[static_cast<std::size_t>(slot)];
      const std::int64_t bytes = plan.steps_[i].out.bytes();
      if (bytes > s.bytes) s.bytes = bytes;
    }
    plan.scratch_peak_.max_with(plan.steps_[i].scratch);
  }

  // Slab layout: each slot gets a fixed 8-byte-aligned region, with the
  // output staging region last. The slab is reserved byte-exactly at run.
  std::int64_t off = 0;
  for (ActivationSlot& s : plan.slots_) {
    s.offset = off;
    off += slab_align(s.bytes);
  }
  plan.output_offset_ = off;
  plan.slab_bytes_ = off + slab_align(plan.steps_.back().out.bytes());

  plan.price();
  if (stats != nullptr) ++stats->compiles;
  return plan;
}

PlanStep plan_step(const Layer& layer, const BlobDesc& in,
                   const EngineOptions& opts, SessionStats* stats) {
  PlanContext pc(in, opts, stats);
  layer.plan(pc);
  PB_CHECK(pc.produced_,
           layer.name() << ": plan() declared no output descriptor");
  PlanStep step;
  step.layer = &layer;
  step.in = in;
  step.out = pc.out_;
  step.variant = std::move(pc.variant_);
  step.scratch = pc.scratch_;
  step.display = layer.name();
  return step;
}

Blob Layer::forward(ExecContext& ctx, const Blob& in) const {
  PlanStep step = plan_step(*this, describe_blob(in), ctx.opts, ctx.stats);
  step.launches = price(step, ctx.opts);
  return run(ctx, in, step);
}

void ExecutionPlan::price() {
  for (PlanStep& step : steps_) step.launches = step.layer->price(step, opts_);
}

std::optional<ConvGeometry> ExecutionPlan::planes_geometry() const noexcept {
  for (const PlanStep& step : steps_) {
    for (const Launch& l : step.launches) {
      if (l.planes_geom != nullptr) return *l.planes_geom;
    }
  }
  return std::nullopt;
}

double ExecutionPlan::modeled_ms(const oclsim::DeviceProfile& profile,
                                 bool planes_hit) const {
  double ms = 0.0;
  for (const PlanStep& step : steps_) {
    for (const Launch& l : step.launches) {
      if (planes_hit && l.planes_geom != nullptr) continue;
      ms += oclsim::modeled_ms(l.cost, profile, oclsim::ExecUnit::kGpu);
    }
  }
  return ms;
}

ForwardResult ExecutionPlan::run(ExecSession& session, const Blob& input,
                                 const RunOptions& ro) const {
  ExecContext ctx = session.context();
  return run(ctx, input, ro);
}

ForwardResult ExecutionPlan::run(ExecContext& ctx, const Blob& input,
                                 const RunOptions& ro) const {
  const BlobDesc got = describe_blob(input);
  PB_CHECK(got == input_, name_ << ": plan was compiled for input "
                                << input_.str() << ", got " << got.str());
  // The liveness pass's exact peaks: after this, no step grows the arena —
  // a strict no-op on a warm session (no growth event, no accounting move).
  ctx.arena.reserve(scratch_peak_.i32, scratch_peak_.f32, scratch_peak_.u8,
                    scratch_peak_.words, slab_bytes_);
  std::uint64_t* slab = ctx.arena.slab(slab_bytes_);
  // Execution uses the compiled options snapshot, so the plan behaves
  // identically on every session regardless of the session's own snapshot.
  ExecContext exec{ctx.queue, opts_, ctx.arena, ctx.stats};
  exec.planes = ro.planes;

  ForwardResult result;
  result.report.reserve(steps_.size());
  // The caller's input is only read; each step's product replaces the
  // previous one (a cheap view move once slots back the intermediates).
  Blob produced;
  const Blob* cur = &input;
  for (const PlanStep& step : steps_) {
    // Bind the step's output to its slab region: intermediates to their
    // ping-pong slot; the network output to the staging region when the
    // caller asked for a borrowed view (zero-allocation mode), otherwise
    // unbound so make_* hands out an owning tensor the caller keeps.
    if (step.slot >= 0) {
      const ActivationSlot& s = slots_[static_cast<std::size_t>(step.slot)];
      exec.out = OutputBinding{slab + s.offset / 8, s.bytes};
    } else if (ro.borrow_output) {
      exec.out = OutputBinding{slab + output_offset_ / 8, step.out.bytes()};
    } else {
      exec.out = OutputBinding{};
    }
    const std::size_t mark = exec.queue.event_mark();
    produced = step.layer->run(exec, *cur, step);
    cur = &produced;
    exec.out = OutputBinding{};
    const oclsim::EventSlice s = exec.queue.slice_events(mark);
    LayerReport r;
    r.name = step.name();
    r.modeled_ms = s.modeled_ms;
    r.host_ms = s.host_ms;
    r.launches = s.launches;
    r.cost = s.cost;
    result.modeled_ms += s.modeled_ms;
    result.host_ms += s.host_ms;
    result.report.push_back(std::move(r));
  }
  PB_CHECK(describe_blob(produced) == steps_.back().out,
           name_ << ": executed output disagrees with the compiled plan");
  result.output = std::move(produced);
  if (ctx.stats != nullptr) ++ctx.stats->planned_runs;
  return result;
}

namespace {

/// Conv-path letter for plan dumps (the DESIGN.md §4/§11 naming). Null for
/// layers with a single kernel schedule.
const char* conv_path_letter(KernelVariant::Path p) {
  switch (p) {
    case KernelVariant::Path::kConvFused: return "A";
    case KernelVariant::Path::kConvSeparatePack: return "B";
    case KernelVariant::Path::kConvUnfused: return "C";
    case KernelVariant::Path::kConvGemm: return "D";
    case KernelVariant::Path::kDefault: return nullptr;
  }
  return nullptr;
}

std::string human_bytes(std::int64_t b) {
  std::ostringstream os;
  if (b >= 1 << 20) {
    os << static_cast<double>(b) / (1 << 20) << " MiB";
  } else if (b >= 1 << 10) {
    os << static_cast<double>(b) / (1 << 10) << " KiB";
  } else {
    os << b << " B";
  }
  return os.str();
}

}  // namespace

std::string ExecutionPlan::dump() const {
  std::ostringstream os;
  os << "plan '" << name_ << "': " << input_.str() << " -> "
     << output().str() << ", " << steps_.size() << " steps\n";
  os << "  activation slab: " << human_bytes(slab_bytes_) << " ("
     << slots_.size() << " slots, peak "
     << human_bytes(peak_activation_bytes()) << ")";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    os << (i == 0 ? "  [" : " ") << "slot" << i << "="
       << human_bytes(slots_[i].bytes) << "@" << slots_[i].offset;
  }
  if (!slots_.empty()) os << " out@" << output_offset_ << "]";
  os << "\n  scratch peak: " << human_bytes(peak_scratch_bytes()) << " (i32 "
     << scratch_peak_.i32 << ", f32 " << scratch_peak_.f32 << ", u8 "
     << scratch_peak_.u8 << ", words " << scratch_peak_.words << ")\n";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const PlanStep& st = steps_[i];
    os << "  [" << i << "] " << st.name() << ": " << st.in.str();
    if (st.fused_pool != nullptr) os << " -> (" << st.fused_mid.str() << ")";
    os << " -> " << st.out.str() << "  kernel=" << st.variant.kernel;
    if (const char* letter = conv_path_letter(st.variant.path)) {
      os << " path=" << letter;
    }
    os << " pw=" << bitpack::bits(st.variant.pack_width)
       << (st.variant.interior_split ? " split" : "")
       << (st.variant.reuse ? " reuse" : "");
    if (st.variant.path == KernelVariant::Path::kConvGemm) {
      // The GEMM register-tile shape: tile_ow M-rows x the 8-filter group.
      os << " tile=" << st.variant.tile_ow << "x8";
    } else if (st.variant.tile_ow > 0) {
      os << " tile=" << st.variant.tile_ow;
    }
    if (st.slot >= 0) {
      os << " slot=" << st.slot << "@"
         << slots_[static_cast<std::size_t>(st.slot)].offset;
    } else {
      os << " slot=out@" << output_offset_;
    }
    if (st.scratch.bytes() > 0) {
      os << " scratch=" << human_bytes(st.scratch.bytes());
    }
    if (st.wcomp.unique_rows > 0) {
      os << " wcomp=" << st.wcomp.unique_rows << "u/"
         << human_bytes(st.wcomp.raw_bytes) << "->"
         << human_bytes(std::min(st.wcomp.encoded_bytes, st.wcomp.raw_bytes));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace phonebit::core
