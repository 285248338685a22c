// PhoneBit — the inference engine and its execution sessions.
//
// The Engine is the immutable-at-inference-time host state: the simulated
// device and a pool of warm scratch arenas. All mutable per-invocation state
// (command queue + profiling events, scratch arena) lives in an ExecSession,
// so one Engine can serve many concurrent forwards — each thread creates its
// own session and runs a compiled ExecutionPlan (const) through it. Options
// live in the plan alone: Network::compile takes them, and every run uses
// the plan's. This is the same compiled-model / per-invocation-interpreter
// cut Larq Compute Engine and daBNN make.
#pragma once

#include <memory>
#include <utility>

#include <string>

#include "core/arena.hpp"
#include "core/layer.hpp"
#include "oclsim/runtime.hpp"

namespace phonebit::artifact {
struct LoadedArtifact;  // artifact.hpp — loaded network + its plan
}

namespace phonebit::core {

/// One execution stream on an Engine: owns its own command queue (profiling
/// events) and a scratch arena checked out of the engine's pool.
///
/// Sessions are cheap (the arena arrives warm after the pool's first
/// generation) and single-threaded: one session serves one forward at a
/// time. For parallelism, create one session per thread — sessions of the
/// same engine never share mutable state. The arena returns to the pool on
/// destruction, so steady-state device-memory accounting is flat.
class ExecSession {
 public:
  ExecSession(ExecSession&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        queue_(std::move(other.queue_)), arena_(std::move(other.arena_)) {}
  ExecSession& operator=(ExecSession&&) = delete;
  ExecSession(const ExecSession&) = delete;
  ExecSession& operator=(const ExecSession&) = delete;

  ~ExecSession() {
    if (pool_ != nullptr) pool_->release(std::move(arena_));
  }

  /// The session's private command queue (profiling event log).
  oclsim::CommandQueue& queue() noexcept { return *queue_; }

  /// The scratch arena checked out for this session's lifetime.
  ScratchArena& arena() noexcept { return *arena_; }

  /// Clears the session's profiling event log.
  void reset_profile() { queue_->reset_events(); }

 private:
  friend class Engine;

  ExecSession(ArenaPool& pool, oclsim::Device& device, oclsim::ExecUnit unit)
      : pool_(&pool),
        queue_(std::make_unique<oclsim::CommandQueue>(device, unit)),
        arena_(pool.acquire()) {}

  ArenaPool* pool_;  // null only in the moved-from shell
  std::unique_ptr<oclsim::CommandQueue> queue_;
  std::unique_ptr<ScratchArena> arena_;
};

/// The engine: device + arena pool. Immutable during inference — all
/// execution goes through sessions. One Engine can run many plans on many
/// sessions concurrently.
class Engine {
 public:
  /// Creates an engine on `device` (the GPU of the simulated SoC).
  explicit Engine(std::shared_ptr<oclsim::Device> device)
      : device_(std::move(device)), arena_pool_(device_.get()) {
    PB_CHECK(device_ != nullptr, "engine needs a device");
  }

  /// Creates an execution session: a private command queue and a warm arena
  /// from the pool. Thread-safe against other create_session() calls and
  /// running sessions.
  ExecSession create_session() {
    return ExecSession(arena_pool_, *device_, oclsim::ExecUnit::kGpu);
  }

  /// Loads a compiled artifact (.pba, artifact.hpp) and validates it
  /// against this engine's device profile: the plan's exact activation
  /// slab + scratch peak plus the packed parameters must fit the device's
  /// RAM budget (throws OutOfMemoryError when they cannot — the artifact
  /// was compiled for a bigger phone). Format/structure mismatches throw
  /// InvalidArgument naming the offending section and byte offset. The
  /// returned plan is the artifact's network compiled under its stored
  /// options, and runs on this engine's sessions.
  /// Defined in artifact.cpp.
  ::phonebit::artifact::LoadedArtifact load_artifact(
      const std::string& path) const;

  /// load_artifact, wrapped for repositories: the shared_ptr form every
  /// multi-request consumer wants (serve::BatchRunner pins plans through
  /// it, serve::ModelServer's hot-swap replaces entries with it while
  /// in-flight requests keep the old artifact alive). Same validation and
  /// exceptions as load_artifact. Defined in artifact.cpp.
  std::shared_ptr<const ::phonebit::artifact::LoadedArtifact>
  load_artifact_shared(const std::string& path) const;

  oclsim::Device& device() noexcept { return *device_; }

  /// The warm-arena pool (exposed for pool-lifecycle tests/metrics).
  ArenaPool& arena_pool() noexcept { return arena_pool_; }

 private:
  std::shared_ptr<oclsim::Device> device_;
  ArenaPool arena_pool_;
};

}  // namespace phonebit::core
