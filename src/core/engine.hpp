// PhoneBit — the inference engine and its execution sessions.
//
// The Engine is the immutable-at-inference-time host state: the simulated
// device, the engine options, and a pool of warm scratch arenas. All mutable
// per-invocation state (command queue + profiling events, scratch arena,
// options snapshot) lives in an ExecSession, so one Engine can serve many
// concurrent forwards — each thread creates its own session and runs
// Network::forward (const) through it. This is the same compiled-model /
// per-invocation-interpreter cut Larq Compute Engine and daBNN make.
#pragma once

#include <memory>
#include <utility>

#include <string>

#include "core/arena.hpp"
#include "core/layer.hpp"
#include "core/options.hpp"
#include "oclsim/runtime.hpp"

namespace phonebit::artifact {
struct LoadedArtifact;  // artifact.hpp — loaded network + its plan
}

namespace phonebit::core {

/// One execution stream on an Engine: owns its own command queue (profiling
/// events), a scratch arena checked out of the engine's pool, and a snapshot
/// of the engine options taken at creation time.
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
        queue_(std::move(other.queue_)), arena_(std::move(other.arena_)),
        opts_(other.opts_), stats_(other.stats_) {}
  ExecSession& operator=(ExecSession&&) = delete;
  ExecSession(const ExecSession&) = delete;
  ExecSession& operator=(const ExecSession&) = delete;

  ~ExecSession() {
    if (pool_ != nullptr) pool_->release(std::move(arena_));
  }

  /// Execution context for Network::forward / Layer::forward. References
  /// session-owned state: must not outlive this session.
  ExecContext context() {
    return ExecContext{*queue_, opts_, *arena_, &stats_};
  }

  /// The session's private command queue (profiling event log).
  oclsim::CommandQueue& queue() noexcept { return *queue_; }

  /// The scratch arena checked out for this session's lifetime.
  ScratchArena& arena() noexcept { return *arena_; }

  /// The EngineOptions snapshot taken when the session was created.
  const EngineOptions& options() const noexcept { return opts_; }

  /// Clears the session's profiling event log.
  void reset_profile() { queue_->reset_events(); }

  /// Compile/selection counters of every forward driven through this
  /// session (the zero-re-selection contract is asserted on these).
  const SessionStats& stats() const noexcept { return stats_; }

 private:
  friend class Engine;

  ExecSession(ArenaPool& pool, oclsim::Device& device, oclsim::ExecUnit unit,
              const EngineOptions& opts)
      : pool_(&pool),
        queue_(std::make_unique<oclsim::CommandQueue>(device, unit)),
        arena_(pool.acquire()), opts_(opts) {}

  ArenaPool* pool_;  // null only in the moved-from shell
  std::unique_ptr<oclsim::CommandQueue> queue_;
  std::unique_ptr<ScratchArena> arena_;
  const EngineOptions opts_;  // snapshot — engine mutation can't reach it
  SessionStats stats_{};
};

/// The engine: device + options + arena pool. Immutable during inference —
/// all execution goes through sessions. One Engine can run many Networks on
/// many sessions concurrently.
class Engine {
 public:
  /// Creates an engine on `device` (the GPU of the simulated SoC).
  explicit Engine(std::shared_ptr<oclsim::Device> device,
                  EngineOptions opts = {})
      : device_(std::move(device)), opts_(opts), arena_pool_(device_.get()) {
    PB_CHECK(device_ != nullptr, "engine needs a device");
  }

  /// Creates an execution session: a private command queue, a warm arena
  /// from the pool, and a snapshot of the current options. Thread-safe
  /// against other create_session() calls and running sessions; do not
  /// mutate options() concurrently with session creation.
  ExecSession create_session() {
    return ExecSession(arena_pool_, *device_, oclsim::ExecUnit::kGpu, opts_);
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

  const EngineOptions& options() const noexcept { return opts_; }
  /// Mutable options — configuration phase only. Existing sessions hold
  /// their creation-time snapshot and are unaffected.
  EngineOptions& options() noexcept { return opts_; }

  oclsim::Device& device() noexcept { return *device_; }

  /// The warm-arena pool (exposed for pool-lifecycle tests/metrics).
  ArenaPool& arena_pool() noexcept { return arena_pool_; }

 private:
  std::shared_ptr<oclsim::Device> device_;
  EngineOptions opts_;
  ArenaPool arena_pool_;
};

}  // namespace phonebit::core
