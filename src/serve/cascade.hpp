// PhoneBit serve — model cascades on the serving plane.
//
// The Face-Classification-Android deployment shape (ROADMAP, DESIGN.md
// §13): one request routes through a NAMED LINEAR PIPELINE of models —
// detector → classifier — where each stage's output gates the next stage
// through a threshold predicate. A request that fails the gate ("no face
// found") completes right there, Ok, without ever paying for the
// downstream stages; a request that passes advances with the virtual
// clock still running.
//
// Three properties carry over from the single-model serving plane and one
// is new:
//   - DETERMINISM: every stage's admission/deadline/retry/placement
//     decision runs in virtual time against the same simulated lanes as
//     ModelServer/FleetServer, so per-stage shed/deadline/retry counts and
//     shard assignments are bit-identical across real worker counts.
//     Stages execute under a stage barrier (all stage-s decisions, then
//     all stage-s forwards, then the gates), so gate verdicts — which
//     depend on real outputs — are sequenced deterministically too.
//   - CASCADE-LEVEL DEADLINE: a request's deadline budget is measured
//     from its ORIGINAL arrival and spans every stage; stage N+1 inherits
//     whatever stage N left of it.
//   - PER-STAGE HOT-SWAP: stages resolve their artifact snapshot at
//     dispatch exactly like single-model serving, so swapping one stage's
//     model mid-trace never drains (or corrupts) the cascade.
//   - PACKED-INPUT REUSE (new): every stage consumes the request's
//     original input, so the input bitplane split (InputConv2d kernel 1)
//     is a pure function of the input and the stage's conv1 geometry. The
//     first executed stage fills a per-request core::InputPlaneCache;
//     later stages on the same device with the same conv1 geometry skip
//     the split kernel entirely. The saving is part of the
//     modeled cost, so fleet placement prices it — a stage is cheaper on
//     the shard that already holds the request's planes (reuse affinity).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/plan.hpp"
#include "serve/batch_runner.hpp"

namespace phonebit::serve {

/// Threshold predicate deciding whether a stage's output advances the
/// request to the next stage.
struct StageGate {
  enum class Kind {
    kAlways,     ///< every Ok output advances (plain chaining)
    kMaxAtLeast  ///< advance when max(float output) >= threshold
  };
  Kind kind = Kind::kAlways;
  float threshold = 0.0f;  ///< kMaxAtLeast only
};

/// One stage of a cascade: which model serves it and the gate applied to
/// its output. The LAST stage's gate is ignored — its output is the
/// cascade's result.
struct CascadeStageSpec {
  std::string model;
  StageGate gate;
};

/// A named linear pipeline of stages. Every stage consumes the request's
/// ORIGINAL input blob (the packed-input-reuse contract); stages whose
/// plan serves a different input descriptor fail the request as a value.
struct CascadeSpec {
  std::string name;
  std::vector<CascadeStageSpec> stages;
};

/// Gate verdict as a value: `pass` is meaningful only when `ok`. A
/// kMaxAtLeast gate over a non-float output cannot be evaluated — the
/// request fails with `error` instead of guessing.
struct GateVerdict {
  bool ok = false;
  bool pass = false;
  std::string error;
};

/// Evaluates `gate` on a stage's executed output.
GateVerdict evaluate_gate(const StageGate& gate, const core::Blob& output);

/// Calibrates a kMaxAtLeast gate: the MEDIAN max-logit of `plan` (a stage
/// with a float output) over a sample of the workload's `inputs`, run on
/// `session`. About half of such a workload then gates out at the stage
/// and half advances, so both verdict classes fire whatever the seed.
float median_peak_threshold(const core::ExecutionPlan& plan,
                            core::ExecSession& session,
                            const std::vector<core::Blob>& inputs);

/// Virtual-time accounting of ONE stage of one request's cascade walk.
struct StageOutcome {
  RequestStatus status;
  int shard = -1;      ///< fleet placement; -1 on a single-server cascade
  int spillovers = 0;  ///< fleet: better-scored shards skipped because full
  int attempts = 0;
  int retries = 0;
  std::uint64_t plan_version = 0;
  bool reused_planes = false;  ///< priced (and ran) with the split skipped
  bool gate_passed = false;    ///< Ok AND the stage's gate advanced it
  double queue_ms = 0.0;       ///< wait between stage arrival and dispatch
  double latency_ms = 0.0;     ///< stage arrival -> stage completion
};

/// One request's cascade outcome. `status` is the terminal verdict: Ok
/// when the cascade completed (either the last stage ran, or a gate
/// stopped it early — `gated_out` tells them apart); otherwise the status
/// of the stage that killed it. `stages` holds one StageOutcome per stage
/// the request ENTERED, in stage order.
struct CascadeRequestResult {
  RequestStatus status;
  core::ForwardResult result;  ///< final executed stage's result (Ok only)
  std::vector<StageOutcome> stages;
  bool gated_out = false;   ///< completed early at a gate (status is Ok)
  double queue_ms = 0.0;    ///< total virtual queueing across stages
  double latency_ms = 0.0;  ///< original arrival -> terminal event
};

/// Per-stage aggregate over one cascade run.
struct CascadeStageStats {
  std::string model;
  int entered = 0;  ///< requests that reached this stage
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;
  int gate_passed = 0;   ///< Ok outputs the gate advanced
  int gate_stopped = 0;  ///< Ok outputs the gate completed early
  int reused_planes = 0; ///< stage runs that skipped the input split
  /// Nearest-rank percentiles of Ok requests' stage latency.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Everything one run_cascade produced. Accounting invariant:
/// ok + shed + deadline_exceeded + failed == requests, and
/// ok == gated_out + full_runs.
struct CascadeSummary {
  std::string cascade;
  std::vector<CascadeRequestResult> results;  ///< submission order

  int requests = 0;
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;    ///< all stages, all requests
  int gated_out = 0;  ///< Ok requests a gate completed early
  int full_runs = 0;  ///< Ok requests that executed every stage

  int swaps = 0;           ///< ModelServer cascades: committed hot-swaps
  int swap_rollbacks = 0;  ///< ModelServer cascades: failed-load rollbacks

  double wall_ms = 0.0;  ///< real host wall time of the whole run

  std::vector<CascadeStageStats> stages;  ///< one entry per spec stage
  /// Fleet cascades only: requests placed per (stage, shard) — the pinned
  /// histogram the cascade soak asserts bit-identical across worker
  /// counts. Empty on single-server cascades.
  std::vector<std::vector<int>> stage_assignment;
};

/// Validates a spec's static contract (nonempty, <= kMaxCascadeStages
/// stages, every stage names a model); throws InvalidArgument. `who` names
/// the server in the error text.
void validate_cascade(const CascadeSpec& spec, const std::string& who);

/// Fault-plan keying for stage `stage` of submission `idx`: cascade
/// attempts draw from per-(request, stage) streams so the verdicts stay
/// pure functions of the trace, independent of interleaving.
constexpr int kMaxCascadeStages = 64;
inline std::uint64_t cascade_fault_key(std::size_t idx, int stage) {
  return (static_cast<std::uint64_t>(idx) << 6) |
         static_cast<std::uint64_t>(stage);
}

/// Fills the aggregate fields of `summary` (totals, per-stage stats,
/// percentiles) from its per-request results. Callers populate `results`,
/// `requests`, `stage_assignment` and the swap counters first.
void finalize_cascade_summary(CascadeSummary& summary,
                              const CascadeSpec& spec);

}  // namespace phonebit::serve
