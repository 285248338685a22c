// PhoneBit serve — deterministic fault injection.
//
// A FaultPlan decides, ahead of time and reproducibly, which serving
// operations fail: transient per-attempt session failures, synthetic
// latency spikes, and artifact-load failures during hot-swap. Every
// decision is a PURE FUNCTION of (seed, operation identity) — a
// counter-based hash, not a shared RNG stream — so the verdicts do not
// depend on thread interleaving, worker count, or the order in which the
// server happens to consult them. That property is what makes the
// robustness suite assertable: the same seed and workload produce
// bit-identical shed/retry/failure counts on 1 worker or 16, run after run
// (tests/test_model_server.cpp).
//
// The plan is threaded through the serving scheduler's seams (scheduler.hpp):
//   - transient_fault(request, attempt): the attempt observes a transient
//     device/session failure; the server retries with backoff.
//   - latency_spike_ms(request, attempt): extra virtual milliseconds the
//     attempt takes (queueing pressure + deadline pressure downstream).
//   - artifact_load_fails(load_seq): the load_seq-th artifact load/swap of
//     the server's lifetime fails; a hot-swap rolls back to the old model.
#pragma once

#include <cstdint>
#include <string>

namespace phonebit::serve {

/// Deterministic fault-injection plan. Default-constructed = fault-free
/// (every rate 0; all queries answer "no fault" without hashing).
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Probability an execution attempt observes a transient failure.
  double transient_rate = 0.0;
  /// Probability an attempt is slowed by a synthetic latency spike...
  double spike_rate = 0.0;
  /// ...of this many virtual milliseconds.
  double spike_ms = 0.0;
  /// Probability an artifact load (initial load or hot-swap) fails.
  double artifact_load_rate = 0.0;

  /// True when any fault class can fire.
  bool enabled() const noexcept {
    return transient_rate > 0.0 || spike_rate > 0.0 ||
           artifact_load_rate > 0.0;
  }

  /// Does attempt `attempt` of request `request` fail transiently?
  bool transient_fault(std::uint64_t request, int attempt) const noexcept;

  /// Synthetic latency added to attempt `attempt` of request `request`
  /// (0.0 when the attempt is not spiked).
  double latency_spike_ms(std::uint64_t request, int attempt) const noexcept;

  /// Does the `load_seq`-th artifact load of the server's lifetime fail?
  bool artifact_load_fails(std::uint64_t load_seq) const noexcept;

  /// One-line description ("faults{seed=7 transient=10% spike=5%/2ms}").
  std::string str() const;
};

}  // namespace phonebit::serve
