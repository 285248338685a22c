#include "serve/cascade.hpp"

#include <algorithm>

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

}  // namespace phonebit::serve
