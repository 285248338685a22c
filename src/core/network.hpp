// PhoneBit — network container and its compile entry point.
//
// A Network is an ordered pipeline of layers (Fig. 3's hand-written layer
// calls, behind a builder API). It does not run itself: compile() turns it
// into an ExecutionPlan for one input descriptor under one EngineOptions,
// and ExecutionPlan::run (plan.hpp) returns a ForwardResult carrying the
// output blob plus the per-layer timing report (the data behind Table III
// and Fig. 5). A Network is immutable once built, so many plans and
// sessions can share it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/layer.hpp"

namespace phonebit::core {

class ExecutionPlan;  // plan.hpp
struct BlobDesc;      // plan.hpp

/// Everything one forward pass produced: the output blob and the profiling
/// report sliced from the session queue's events. Owned by the caller —
/// nothing is stashed on the plan, so concurrent forwards don't race.
struct ForwardResult {
  Blob output;
  std::vector<LayerReport> report;
  double modeled_ms = 0.0;  ///< total modeled device ms over all layers
  double host_ms = 0.0;     ///< total host wall ms over all kernel bodies

  /// The output as a float tensor (throws InvalidArgument when the network
  /// did not end in a full-precision layer). Ref-qualified so a temporary
  /// result hands out a value, never a dangling reference.
  const FloatTensor& float_output() const& {
    const auto* f = std::get_if<FloatTensor>(&output);
    PB_CHECK(f != nullptr, "network output is not a full-precision tensor");
    return *f;
  }
  FloatTensor float_output() && {
    auto* f = std::get_if<FloatTensor>(&output);
    PB_CHECK(f != nullptr, "network output is not a full-precision tensor");
    return std::move(*f);
  }
};

class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Appends a layer; returns *this for chaining.
  Network& add(std::unique_ptr<Layer> layer) {
    PB_CHECK(layer != nullptr, "null layer");
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Constructs a layer in place and appends it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// Compiles the pipeline for inputs matching `input` under `opts`: shape
  /// inference + validation (a layer whose contract `input` breaks throws
  /// InvalidArgument here), buffer liveness/slot assignment, ahead-of-time
  /// kernel-variant selection (plan.hpp). The only way to run a network:
  /// the returned plan is immutable and shareable across sessions; it must
  /// not outlive this network.
  ExecutionPlan compile(const EngineOptions& opts, const BlobDesc& input) const;

  const std::vector<std::unique_ptr<Layer>>& layers() const noexcept {
    return layers_;
  }
  std::size_t size() const noexcept { return layers_.size(); }

  /// Position of `layer` in the pipeline, or -1 when it is not one of this
  /// network's layers. artifact::save uses it to reject a plan that was
  /// compiled from a different network.
  std::ptrdiff_t index_of(const Layer* layer) const noexcept {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i].get() == layer) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  }

  /// Serialized parameter footprint (Table II model size).
  std::int64_t param_bytes() const;
  /// Trained parameter count.
  std::int64_t param_count() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace phonebit::core
