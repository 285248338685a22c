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
// A cascade returns the same ServerSummary (model_server.hpp) as a plain
// run: each request lists one StageOutcome per stage it entered, and the
// summary's `stages` view aggregates them per spec stage.
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

/// Virtual-time accounting of ONE stage of one request's walk (a plain
/// run's request has exactly one). ServerSummary's totals and views are
/// aggregated from these records.
struct StageOutcome {
  RequestStatus status;
  int shard = -1;      ///< shard it was placed on; -1 = never placed
  int spillovers = 0;  ///< shards found full (a shed record counts all)
  /// Admission-queue depth on its shard right after it joined; a shed
  /// record reports the full depth it found.
  int queue_depth = 0;
  int attempts = 0;
  int retries = 0;
  std::uint64_t plan_version = 0;
  bool reused_planes = false;  ///< priced (and ran) with the split skipped
  bool gate_passed = false;    ///< Ok AND the stage's gate advanced it
  double queue_ms = 0.0;       ///< wait between stage arrival and dispatch
  double latency_ms = 0.0;     ///< stage arrival -> stage completion

  bool operator==(const StageOutcome&) const = default;
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

}  // namespace phonebit::serve
