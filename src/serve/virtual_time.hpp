// PhoneBit serve — shared virtual-time primitives.
//
// The serving determinism story (DESIGN.md §9–§10) hinges on running every
// admission/deadline/retry/placement decision against VIRTUAL time: arrival
// timestamps from the workload trace plus geometry-deterministic modeled
// latencies, draining through a fixed number of simulated service lanes.
// These helpers are that machinery; serve::Scheduler (scheduler.hpp) runs
// the one walk that uses them for every serving entry point.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "serve/fault.hpp"

namespace phonebit::serve {

/// Real host wall clock, ms — used only for reporting (`wall_ms`), never
/// for decisions.
inline double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// Defined over the full q range: q <= 0 answers the minimum, q >= 100 the
/// maximum, and any in-between q the smallest element whose rank covers
/// q% of the sample (so a single-element sample answers that element for
/// every q, and an even-sized sample answers the lower-middle element at
/// q=50 — nearest-rank, not interpolated). The ascending-sorted
/// precondition is debug-asserted, not silently mis-answered.
inline double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  assert(std::is_sorted(sorted.begin(), sorted.end()) &&
         "percentile() requires an ascending-sorted sample");
  if (q <= 0.0) return sorted.front();
  if (q >= 100.0) return sorted.back();
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Outcome of simulate_attempts: the virtual service duration actually
/// spent on the request plus the attempt/retry accounting.
struct AttemptOutcome {
  double dur_ms = 0.0;      ///< virtual ms the lane is occupied
  int attempts = 0;         ///< execution attempts actually priced
  int retries = 0;          ///< backoffs actually taken (== attempts-1 capped)
  bool ok = false;          ///< an attempt succeeded
  bool gave_up_deadline = false;  ///< stopped because no retry budget left
};

/// Prices the bounded retry-with-backoff loop for one dispatched request in
/// virtual time. `idx` keys the FaultPlan, `start` is the lane dispatch
/// time, `t0` the request's ORIGINAL arrival (deadline epoch — for cascades
/// this is the cascade submission time, so the budget spans stages), and
/// `deadline_ms <= 0` means no deadline.
///
/// Semantics (the retry-deadline fix, pinned by test_model_server):
///   - an attempt runs, costing modeled + its injected spike;
///   - success → done; max_retries exhausted → Failed;
///   - otherwise the server asks BEFORE committing to a retry whether the
///     NEXT attempt — backoff + modeled + the next attempt's own spike —
///     still fits the deadline budget. If it cannot, the server gives up
///     right there: the backoff is NOT added to the latency and the retry
///     is NOT counted, because that attempt never ran.
inline AttemptOutcome simulate_attempts(const FaultPlan& faults,
                                        std::uint64_t idx, double modeled,
                                        int max_retries, double backoff_ms,
                                        double start, double t0,
                                        double deadline_ms) {
  AttemptOutcome out;
  for (int a = 0;; ++a) {
    ++out.attempts;
    out.dur_ms += modeled + faults.latency_spike_ms(idx, a);
    if (!faults.transient_fault(idx, a)) {
      out.ok = true;
      return out;
    }
    if (a == max_retries) return out;  // transient fault persisted → Failed
    const double next_cost =
        backoff_ms + modeled + faults.latency_spike_ms(idx, a + 1);
    if (deadline_ms > 0.0 && start + out.dur_ms + next_cost - t0 > deadline_ms) {
      out.gave_up_deadline = true;
      return out;
    }
    out.dur_ms += backoff_ms;
    ++out.retries;
  }
}

/// Min-heap of simulated lane free-times (smallest on top). One heap = the
/// decision concurrency of one server/shard; deliberately independent of
/// the real exec_workers thread count.
struct LaneHeap {
  explicit LaneHeap(int lanes)
      : free_ms(static_cast<std::size_t>(lanes > 0 ? lanes : 1), 0.0) {}

  double min() const noexcept { return free_ms.front(); }

  /// Advances the earliest-free lane to `until`.
  void advance_min(double until) {
    std::pop_heap(free_ms.begin(), free_ms.end(), std::greater<>{});
    free_ms.back() = until;
    std::push_heap(free_ms.begin(), free_ms.end(), std::greater<>{});
  }

  std::vector<double> free_ms;  // heap-ordered, std::greater comparator
};

}  // namespace phonebit::serve
