#include "serve/cascade.hpp"

#include <algorithm>

#include "serve/virtual_time.hpp"

namespace phonebit::serve {
namespace {

float max_logit(const FloatTensor& t) {
  float best = t.data()[0];
  for (std::int64_t i = 1; i < t.elems(); ++i) {
    best = std::max(best, t.data()[i]);
  }
  return best;
}

}  // namespace

GateVerdict evaluate_gate(const StageGate& gate, const core::Blob& output) {
  GateVerdict v;
  switch (gate.kind) {
    case StageGate::Kind::kAlways:
      v.ok = true;
      v.pass = true;
      return v;
    case StageGate::Kind::kMaxAtLeast: {
      const auto* f = std::get_if<FloatTensor>(&output);
      if (f == nullptr) {
        v.error = "kMaxAtLeast gate needs a float stage output";
        return v;
      }
      v.ok = true;
      v.pass = max_logit(*f) >= gate.threshold;
      return v;
    }
  }
  v.error = "unknown gate kind";
  return v;
}

float median_peak_threshold(const core::ExecutionPlan& plan,
                            core::ExecSession& session,
                            const std::vector<core::Blob>& inputs) {
  PB_CHECK(!inputs.empty(), "gate calibration needs at least one input");
  std::vector<float> peaks;
  peaks.reserve(inputs.size());
  for (const core::Blob& input : inputs) {
    peaks.push_back(max_logit(plan.run(session, input).float_output()));
  }
  std::nth_element(peaks.begin(), peaks.begin() + peaks.size() / 2,
                   peaks.end());
  return peaks[peaks.size() / 2];
}

void validate_cascade(const CascadeSpec& spec, const std::string& who) {
  PB_CHECK(!spec.stages.empty(),
           who << ": cascade '" << spec.name << "' has no stages");
  PB_CHECK(static_cast<int>(spec.stages.size()) <= kMaxCascadeStages,
           who << ": cascade '" << spec.name << "' has "
               << spec.stages.size() << " stages — fault keying supports at "
               << "most " << kMaxCascadeStages);
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    PB_CHECK(!spec.stages[s].model.empty(),
             who << ": cascade '" << spec.name << "' stage " << s
                 << " names no model");
  }
}

void finalize_cascade_summary(CascadeSummary& summary,
                              const CascadeSpec& spec) {
  const std::size_t nstages = spec.stages.size();
  summary.cascade = spec.name;
  summary.stages.assign(nstages, CascadeStageStats{});
  std::vector<std::vector<double>> ok_latency(nstages);
  for (std::size_t s = 0; s < nstages; ++s) {
    summary.stages[s].model = spec.stages[s].model;
  }

  for (const CascadeRequestResult& rr : summary.results) {
    count_status(summary, rr.status.code);
    if (rr.status.ok()) {
      ++(rr.gated_out ? summary.gated_out : summary.full_runs);
    }
    for (std::size_t s = 0; s < rr.stages.size() && s < nstages; ++s) {
      const StageOutcome& so = rr.stages[s];
      CascadeStageStats& st = summary.stages[s];
      ++st.entered;
      st.retries += so.retries;
      summary.retries += so.retries;
      count_status(st, so.status.code);
      if (!so.status.ok()) continue;
      ok_latency[s].push_back(so.latency_ms);
      st.max_ms = std::max(st.max_ms, so.latency_ms);
      if (so.reused_planes) ++st.reused_planes;
      if (so.gate_passed) {
        ++st.gate_passed;
      } else if (s + 1 < nstages && rr.gated_out &&
                 s + 1 == rr.stages.size()) {
        // An Ok non-final stage whose gate did not advance the request, on
        // a request the gate completed early: the gate stopped it here.
        ++st.gate_stopped;
      }
    }
  }
  for (std::size_t s = 0; s < nstages; ++s) {
    std::sort(ok_latency[s].begin(), ok_latency[s].end());
    summary.stages[s].p50_ms = percentile(ok_latency[s], 50.0);
    summary.stages[s].p99_ms = percentile(ok_latency[s], 99.0);
  }
}

}  // namespace phonebit::serve
