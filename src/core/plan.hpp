// PhoneBit — compiled execution plans.
//
// PhoneBit's speed comes from decisions the hot path should never re-make:
// which conv path runs, at what vector granularity, over which interior box,
// with how much scratch. Network::compile walks the layer pipeline ONCE to
//   (a) infer every inter-layer blob shape/kind and validate the pipeline
//       up front (a malformed network fails at compile, not mid-forward),
//   (b) run a buffer-liveness pass assigning each intermediate blob a
//       ping-pong slot id with a fixed byte offset into the session arena's
//       activation slab, and computing the exact activation/scratch peaks
//       before the first forward (both reserved byte-exactly at run; every
//       intermediate tensor is a borrowed view over its slot, so a warm
//       session performs zero buffer allocations per forward),
//   (c) select each layer's kernel variant (execution path, pack width,
//       interior split, tile width) once from geometry + EngineOptions,
//   (d) resolve fusion: BN+binarize folds into the producing kernel where
//       the layer contract allows (path A/B vs the unfused path C), and a
//       plan-level pass rewrites `BinaryConv2d → MaxPool` chains into one
//       fused step whose epilogue pools conv bytes in registers — the
//       full-size conv activation map is never written (DESIGN.md §7),
//   (e) price every final step once: Layer::price stores the launches
//       dispatch will enqueue, each with its KernelCost, so the plan knows
//       its modeled time on any profile without running (DESIGN.md §2).
// The resulting ExecutionPlan is immutable and shareable: any number of
// sessions can run one plan concurrently, the same way they share a const
// Network. This is the compiled-model / per-invocation cut daBNN and Larq
// Compute Engine make (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitpack/binary_ops.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"

namespace phonebit::core {

/// Which alternative of the Blob variant a planned edge carries.
enum class BlobKind { kFloat, kU8, kPacked };

inline const char* blob_kind_name(BlobKind k) noexcept {
  switch (k) {
    case BlobKind::kFloat: return "f32";
    case BlobKind::kU8: return "u8";
    case BlobKind::kPacked: return "packed";
  }
  return "?";
}

/// Compile-time descriptor of a blob flowing between layers: the variant
/// kind plus the logical shape. This is what shape inference propagates.
struct BlobDesc {
  BlobKind kind = BlobKind::kFloat;
  Shape shape{};

  /// Storage footprint of a blob with this descriptor (packed tensors count
  /// packed words; used by the liveness pass to size activation slots).
  std::int64_t bytes() const noexcept {
    switch (kind) {
      case BlobKind::kFloat: return shape.elems() * 4;
      case BlobKind::kU8: return shape.elems();
      case BlobKind::kPacked:
        return shape.n * shape.h * shape.w *
               ceil_div(shape.c, bitpack::kWordBits) * 8;
    }
    return 0;
  }

  friend bool operator==(const BlobDesc&, const BlobDesc&) = default;

  std::string str() const {
    return std::string(blob_kind_name(kind)) + shape.str();
  }
};

/// Descriptor of the blob a forward pass is about to consume/produce.
BlobDesc describe_blob(const Blob& b);

/// Ahead-of-time kernel selection for one layer, derived once at compile
/// from EngineOptions + input geometry.
struct KernelVariant {
  /// Conv execution path (DESIGN.md §4). kDefault for layers with a single
  /// kernel schedule (pooling, dense, float layers).
  enum class Path {
    kDefault,
    kConvFused,         ///< path A: one kernel, 8 filters/byte in private mem
    kConvSeparatePack,  ///< path B: fused math + separate packing kernel
    kConvUnfused,       ///< path C: no integration (ablation pipeline)
    kConvGemm,          ///< path D: im2col + register-tiled bit-GEMM tiles
  };

  Path path = Path::kDefault;
  /// Vector granularity of the xor/and+popcount inner loop.
  bitpack::PackWidth pack_width = bitpack::PackWidth::k64;
  /// Interior/border specialization on (row-fused fast path).
  bool interior_split = false;
  /// Resolved output-x tile width (0 = the layer does not tile).
  std::int64_t tile_ow = 0;
  /// Weight compression never changes what runs (DESIGN.md §12), so no
  /// step selects a reuse schedule; the flag stays readable for callers
  /// that count such steps.
  static constexpr bool reuse = false;
  /// Kernel family, for plan dumps ("bconv_fused", "maxpool_or", ...).
  std::string kernel;
};

/// Scratch-arena requirement of one step, in elements per typed pool. The
/// liveness pass folds these into the plan's exact peak: scratch lifetimes
/// never cross a step, so the peak per pool is the max over steps.
struct ScratchNeed {
  std::int64_t i32 = 0;
  std::int64_t f32 = 0;
  std::int64_t u8 = 0;
  std::int64_t words = 0;

  std::int64_t bytes() const noexcept {
    return i32 * 4 + f32 * 4 + u8 + words * 8;
  }
  void max_with(const ScratchNeed& o) noexcept {
    i32 = i32 > o.i32 ? i32 : o.i32;
    f32 = f32 > o.f32 ? f32 : o.f32;
    u8 = u8 > o.u8 ? u8 : o.u8;
    words = words > o.words ? words : o.words;
  }
};

/// One compiled layer invocation — possibly covering a fused chain of
/// layers (the conv→pool rewrite, DESIGN.md §7).
struct PlanStep {
  const Layer* layer = nullptr;
  BlobDesc in{};
  BlobDesc out{};
  KernelVariant variant{};
  ScratchNeed scratch{};
  /// Activation slot holding this step's output (-1: the network output,
  /// which is handed to the caller rather than recycled).
  int slot = -1;
  /// Fused trailing max-pool (null: no fusion). When set, `out` is the
  /// POOLED descriptor, `fused_mid` the conv's unpooled output descriptor
  /// (never materialized — the epilogue pools conv bytes in registers),
  /// and `layer` remains the producing conv, which executes both.
  const Layer* fused_pool = nullptr;
  BlobDesc fused_mid{};
  /// Display name ("conv2", or "conv2+pool2" when fused) — precomputed at
  /// compile so the hot run loop never concatenates strings.
  std::string display;
  /// The launches run() enqueues, in order: `layer->price(*this, opts)`,
  /// evaluated once at compile (after the conv→pool rewrite).
  std::vector<Launch> launches;

  const std::string& name() const noexcept { return display; }
};

/// One slot of the statically laid-out activation slab: sized to the
/// largest intermediate blob the liveness pass assigned to it, placed at a
/// fixed byte offset in the session arena's slab.
struct ActivationSlot {
  std::int64_t bytes = 0;
  std::int64_t offset = 0;  ///< 8-byte-aligned offset into the slab
};

/// Per-run knobs of ExecutionPlan::run.
struct RunOptions {
  /// Hand the network output out as a borrowed VIEW into the session's
  /// activation slab instead of a fresh owning tensor: the steady-state
  /// zero-allocation serving mode. The view is valid until the next run on
  /// the same session; callers that keep outputs must copy them out.
  bool borrow_output = false;
  /// Optional plane cache for the plan's input (layer.hpp). When set and
  /// the cache is empty or keyed to another input shape or conv geometry,
  /// InputConv2d's split kernel (re)fills it (same modeled cost as the
  /// uncached run); when set and already filled under the same key, the
  /// split kernel is SKIPPED and the panel is read back — the cascade
  /// packed-input reuse seam. Null = no caching.
  InputPlaneCache* planes = nullptr;
};

/// What Layer::plan sees: the inferred input descriptor and the options the
/// plan is being compiled against. The layer validates its contract (throw
/// InvalidArgument to fail the compile), declares its output descriptor,
/// selects its kernel variant and registers scratch needs. Only
/// Network::compile builds one, so a layer is planned only at compile.
class PlanContext {
 public:
  const BlobDesc& in() const noexcept { return in_; }
  const EngineOptions& opts() const noexcept { return opts_; }

  /// Declares the step's output descriptor (required).
  void produce(BlobDesc out) {
    out_ = std::move(out);
    produced_ = true;
  }

  /// Records the step's ahead-of-time kernel selection; runs of the plan
  /// never select again.
  void select(KernelVariant v) { variant_ = std::move(v); }

  /// Scratch-arena requirements of this step (elements, per typed pool).
  /// The arena keeps ONE live span per kind (every i32()/f32()/u8()/words()
  /// call returns the same pool base), so a layer needing several same-kind
  /// buffers must carve them out of a single combined request — and its
  /// declarations here must sum to that request (InputConv2d's planes +
  /// zeros span is the pattern). Requests of different kinds are disjoint.
  void need_i32(std::int64_t n) { scratch_.i32 += n; }
  void need_f32(std::int64_t n) { scratch_.f32 += n; }
  void need_u8(std::int64_t n) { scratch_.u8 += n; }
  void need_words(std::int64_t n) { scratch_.words += n; }

 private:
  friend class Network;

  PlanContext(BlobDesc input, const EngineOptions& opts)
      : in_(std::move(input)), opts_(opts) {}

  BlobDesc in_;
  const EngineOptions& opts_;
  BlobDesc out_{};
  bool produced_ = false;
  KernelVariant variant_{};
  ScratchNeed scratch_{};
};

/// A compiled network: the per-layer steps, the activation-slot layout and
/// the exact scratch peak. Immutable after compile; holds non-owning layer
/// pointers, so a plan must not outlive the Network it was compiled from.
class ExecutionPlan {
 public:
  const std::string& network_name() const noexcept { return name_; }
  /// The EngineOptions the plan was compiled under — every run executes
  /// with them, so a plan behaves identically on every session.
  const EngineOptions& options() const noexcept { return opts_; }

  const std::vector<PlanStep>& steps() const noexcept { return steps_; }
  const std::vector<ActivationSlot>& slots() const noexcept { return slots_; }

  const BlobDesc& input() const noexcept { return input_; }
  const BlobDesc& output() const noexcept { return steps_.back().out; }

  /// Exact scratch-arena peak (per typed pool / total bytes) of one forward
  /// through this plan. ExecutionPlan::run reserves exactly this before the
  /// first step, so the arena never grows mid-forward.
  const ScratchNeed& scratch_peak() const noexcept { return scratch_peak_; }
  std::int64_t peak_scratch_bytes() const noexcept {
    return scratch_peak_.bytes();
  }

  /// Peak bytes of live intermediate activations under the ping-pong slot
  /// assignment (sum of slot sizes — at most two slots are ever live).
  std::int64_t peak_activation_bytes() const noexcept {
    std::int64_t total = 0;
    for (const ActivationSlot& s : slots_) total += s.bytes;
    return total;
  }

  /// Exact size of the session-arena activation slab one forward needs:
  /// every slot's 8-byte-aligned region plus the output staging region
  /// (used by borrow_output runs). Reserved alongside the scratch peak.
  std::int64_t slab_bytes() const noexcept { return slab_bytes_; }

  /// Byte offset of the output staging region inside the slab (the region
  /// borrow_output runs hand out as the result view).
  std::int64_t output_offset() const noexcept { return output_offset_; }

  /// Modeled device ms of one forward on `profile`, read off the stored
  /// launches: oclsim::modeled_ms per launch (GPU), summed in dispatch
  /// order — bit-identical to a live run's total_modeled_ms() on that
  /// profile. `planes_hit` prices a run whose InputPlaneCache already holds
  /// the input's panel: the plane-split launch is skipped, not subtracted.
  double modeled_ms(const oclsim::DeviceProfile& profile,
                    bool planes_hit = false) const;

  /// Conv geometry under which a run of this plan fills an InputPlaneCache
  /// (the plane-cache launch's Launch::planes_geom); empty when runs never
  /// touch one.
  std::optional<ConvGeometry> planes_geometry() const noexcept;

  /// Runs the plan on a session — the one way to execute a network:
  /// reserves the exact scratch/slab peaks, executes every step with its
  /// compiled variant under the plan's options (no per-forward
  /// re-selection), backing each intermediate activation with its assigned
  /// slab slot — a warm session performs ZERO buffer allocations per
  /// forward (one owning output tensor unless `opts.borrow_output`) — and
  /// slices the per-step report from the session queue. The input blob
  /// must match the descriptor the plan was compiled for (InvalidArgument
  /// naming both otherwise). The input is only read — never copied or
  /// consumed — so a steady-state caller can reuse one input blob across
  /// forwards without any per-call buffer traffic.
  ForwardResult run(ExecSession& session, const Blob& input,
                    const RunOptions& opts = {}) const;

  /// Human-readable plan: steps, variants, slots, peak bytes (the
  /// quickstart `plan_dump` mode prints this).
  std::string dump() const;

 private:
  friend class Network;

  // Only Network::compile builds plans (the artifact loader calls it too):
  // a default-constructed plan would have no steps, making output()/run()
  // meaningless.
  ExecutionPlan() = default;

  /// Fills every step's launches from its layer's price(). Runs last in
  /// compile.
  void price();

  std::string name_;
  EngineOptions opts_{};
  BlobDesc input_{};
  std::vector<PlanStep> steps_;
  std::vector<ActivationSlot> slots_;
  ScratchNeed scratch_peak_{};
  std::int64_t slab_bytes_ = 0;      ///< slots + output staging, 8-aligned
  std::int64_t output_offset_ = 0;   ///< output staging region in the slab
};

}  // namespace phonebit::core
