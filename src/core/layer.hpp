// PhoneBit — layer abstraction.
//
// A network is a pipeline of layers exchanging Blobs. A Blob is either a
// float tensor (full-precision boundary layers), an 8-bit image (network
// input, Eqn 2) or a channel-packed binary tensor (everything in between —
// the engine never materializes float activations for binary layers).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bitpack/packed_tensor.hpp"
#include "core/arena.hpp"
#include "core/options.hpp"
#include "oclsim/runtime.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::core {

/// The value flowing between layers.
using Blob = std::variant<FloatTensor, U8Tensor, bitpack::PackedTensor>;

/// Logical shape of whichever tensor the blob holds.
inline const Shape& blob_shape(const Blob& b) {
  if (const auto* f = std::get_if<FloatTensor>(&b)) return f->shape();
  if (const auto* u = std::get_if<U8Tensor>(&b)) return u->shape();
  return std::get<bitpack::PackedTensor>(b).shape();
}

/// Counters a session keeps about how its forwards were driven. The compile
/// contract is asserted through these: after Network::compile, forwards via
/// ExecutionPlan::run perform ZERO kernel-variant re-selection — only the
/// uncompiled compile-and-run wrapper keeps selecting per call.
struct SessionStats {
  /// Kernel-variant derivations (each layer planned counts one). Grows once
  /// per compile; flat across ExecutionPlan::run calls.
  std::int64_t variant_selections = 0;
  /// Plans compiled through this session's context.
  std::int64_t compiles = 0;
  /// Forwards executed through a compiled plan.
  std::int64_t planned_runs = 0;
};

/// Caller-owned cache for InputConv2d's kernel-1 output for ONE input blob:
/// the dense bit-plane im2col panel. Serving cascades attach it through
/// RunOptions::planes: the first stage that consumes the input fills the
/// cache (kernel 1 writes its panel here instead of session scratch, same
/// modeled cost), and every later stage with the same input shape AND conv1
/// geometry reads the panel back and skips kernel 1 entirely — the modeled
/// saving is deterministic, so cascade placement can price it. A stage with
/// a different geometry refills the cache under its own key. A cache is
/// only valid for one input value; the caller resets `filled` (or uses a
/// fresh cache) per request.
struct InputPlaneCache {
  Shape shape{};                     ///< input shape the panel was built from
  ConvGeometry geom{};               ///< conv geometry the panel was built for
  std::vector<std::uint64_t> words;  ///< the panel
  bool filled = false;

  /// True when the cache holds the panel of an input of `s` under `g`.
  bool holds(const Shape& s, const ConvGeometry& g) const noexcept {
    return filled && shape == s && geom == g;
  }

  /// Forget the cached panel (buffer capacity is kept for reuse).
  void reset() noexcept { filled = false; }
};

/// Slot-backed storage for the current step's output: a disjoint region of
/// the session arena's activation slab, assigned by the compiled plan's
/// liveness pass. Layers never touch this directly — they allocate their
/// output through ExecContext::make_packed/make_float, which hands out a
/// borrowed view when a binding is present and falls back to an owning
/// tensor (counted by the buffer-allocation hook) when it is not.
struct OutputBinding {
  std::uint64_t* base = nullptr;  ///< 8-byte-aligned slab region
  std::int64_t bytes = 0;         ///< region size (>= the step's blob)
};

/// Execution state threaded through a forward pass. Produced by an
/// ExecSession (engine.hpp); every member references session-owned state, so
/// a context must not outlive its session. `opts` is the session's
/// EngineOptions snapshot — layers see a stable configuration for the whole
/// session even if the engine's options are reconfigured mid-flight.
/// `stats` (optional) receives the compile/selection counters.
struct ExecContext {
  oclsim::CommandQueue& queue;
  const EngineOptions& opts;
  ScratchArena& arena;
  SessionStats* stats = nullptr;
  /// The compiled runner's slot binding for the CURRENT step's output
  /// (empty on the uncompiled path and for the owned network output).
  OutputBinding out = {};
  /// Optional bitplane cache for the network input (cascade reuse seam);
  /// null outside cascade serving. Only InputConv2d consults it.
  InputPlaneCache* planes = nullptr;

  /// Allocates the step's packed output: a view over the bound slot when
  /// one is present (padding words zeroed when C is not word-aligned, so
  /// byte-granular producers inherit the all-zero-padding invariant from
  /// recycled slab memory), else a fresh owning tensor. Consumes the
  /// binding — one output per step.
  bitpack::PackedTensor make_packed(const Shape& shape) {
    const std::int64_t words =
        shape.n * shape.h * shape.w * ceil_div(shape.c, bitpack::kWordBits);
    if (out.base != nullptr && words * 8 <= out.bytes) {
      std::uint64_t* base = out.base;
      out = {};
      if (shape.c % bitpack::kWordBits != 0) {
        std::memset(base, 0, static_cast<std::size_t>(words) * 8);
      }
      return bitpack::PackedTensor(shape, base);
    }
    out = {};
    return bitpack::PackedTensor(shape);
  }

  /// Allocates the step's float output: slab view if bound (uncleared —
  /// float producers write every element), else owning. Consumes the
  /// binding.
  FloatTensor make_float(const Shape& shape, Layout layout = Layout::kNHWC) {
    if (out.base != nullptr && shape.elems() * 4 <= out.bytes) {
      float* base = reinterpret_cast<float*>(out.base);
      out = {};
      return FloatTensor(shape, layout, base);
    }
    out = {};
    return FloatTensor(shape, layout);
  }
};

class PlanContext;  // plan.hpp — compile-time shape/variant negotiation
struct PlanStep;    // plan.hpp — one compiled layer invocation

/// One kernel launch a plan step enqueues, priced once when the plan is
/// compiled or loaded: the kernel name the layer built at construction and
/// the work tally the roofline model turns into device time. Dispatch hands
/// both to the queue unchanged, so a live run's events are these launches.
struct Launch {
  const std::string* name = nullptr;
  oclsim::KernelCost cost;
  /// Set on kernel 1 of the dense input conv: the conv geometry the
  /// InputPlaneCache it fills is keyed on. A run whose cache already holds
  /// the input's panel skips this launch.
  const ConvGeometry* planes_geom = nullptr;
};

/// Base class for all PhoneBit layers. A layer implements three things:
/// plan() (shape contract + kernel selection), price() (the launches a
/// planned step enqueues) and run() (the kernels themselves).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Layer instance name ("conv2", "pool1", ...).
  virtual const std::string& name() const = 0;

  /// Uncompiled path: plans a one-step PlanStep for `in` from ctx.opts,
  /// prices it and runs it — the variant is re-derived on every call.
  Blob forward(ExecContext& ctx, const Blob& in) const;

  /// Compile hook (plan.hpp): validate the input descriptor in `pc` (throw
  /// InvalidArgument to fail the compile), declare the output descriptor,
  /// select the kernel variant and register scratch needs. Runs once per
  /// Network::compile — never on the forward hot path.
  virtual void plan(PlanContext& pc) const = 0;

  /// The one cost function of a planned step: the launches run() will
  /// enqueue for `step` (fused conv→pool steps included), in dispatch
  /// order, each with its KernelCost. Pure in (step, opts) — never reads
  /// tensors or a device — so the plan prices itself at compile and load
  /// and selection prices candidate variants with it.
  virtual std::vector<Launch> price(const PlanStep& step,
                                    const EngineOptions& opts) const = 0;

  /// Runs the step, enqueueing step.launches on ctx.queue with the variant
  /// selected at compile time.
  virtual Blob run(ExecContext& ctx, const Blob& in,
                   const PlanStep& step) const = 0;

  /// On-device parameter footprint in bytes (packed weights count packed;
  /// used for the Table II model-size accounting).
  virtual std::int64_t param_bytes() const { return 0; }

  /// Number of trained parameters (for reporting).
  virtual std::int64_t param_count() const { return 0; }
};

/// Per-layer timing extracted from the queue's profiling events.
struct LayerReport {
  std::string name;
  double modeled_ms = 0.0;
  double host_ms = 0.0;
  int launches = 0;
  oclsim::KernelCost cost;
};

}  // namespace phonebit::core
