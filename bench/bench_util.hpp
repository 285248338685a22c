// PhoneBit benches — shared table-printing, JSON-emission and run helpers.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/framework.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "oclsim/runtime.hpp"

namespace phonebit::bench {

/// One machine-readable benchmark result row (see BENCH_kernels.json).
struct BenchRecord {
  std::string op;        ///< operation name, e.g. "bconv" or "xor_popcount"
  std::string geometry;  ///< human/grep-able geometry tag
  double host_ms = 0.0;    ///< measured wall time of the real host kernels
  double modeled_ms = 0.0; ///< simulated device time (0 when not modeled)
};

/// Minimal JSON string escape (quotes and backslashes; tags are ASCII).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes benchmark records as a stable, diffable JSON document so the perf
/// trajectory can be tracked in-repo (BENCH_kernels.json baseline).
/// Returns false if the path is not writable.
inline bool write_bench_json(const std::string& path, const std::string& bench,
                             const std::vector<BenchRecord>& records) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  f << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char ms[96];
    std::snprintf(ms, sizeof(ms), "\"host_ms\": %.6f, \"modeled_ms\": %.6f",
                  r.host_ms, r.modeled_ms);
    f << "    {\"op\": \"" << json_escape(r.op) << "\", \"geometry\": \""
      << json_escape(r.geometry) << "\", " << ms << "}"
      << (i + 1 < records.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

/// Reads records back from a write_bench_json document (the checked-in
/// BENCH_kernels.json baseline). Parses only the line-per-record shape that
/// write_bench_json emits; returns false on open/parse failure.
inline bool read_bench_json(const std::string& path,
                            std::vector<BenchRecord>& records) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    const auto op_pos = line.find("{\"op\": \"");
    if (op_pos == std::string::npos) continue;
    BenchRecord r;
    std::size_t cur = op_pos + 8;
    std::size_t end = line.find('"', cur);
    if (end == std::string::npos) return false;
    r.op = line.substr(cur, end - cur);
    const auto geo_key = line.find("\"geometry\": \"", end);
    if (geo_key == std::string::npos) return false;
    cur = geo_key + 13;
    end = line.find('"', cur);
    if (end == std::string::npos) return false;
    r.geometry = line.substr(cur, end - cur);
    // The two timing fields are mandatory; trailing unknown fields are
    // tolerated, so old readers survive format growth.
    if (std::sscanf(line.c_str() + end,
                    "\", \"host_ms\": %lf, \"modeled_ms\": %lf", &r.host_ms,
                    &r.modeled_ms) != 2) {
      return false;
    }
    records.push_back(std::move(r));
  }
  return !records.empty();
}

/// Outcome of one baseline-vs-fresh comparison (bench_kernels --check).
struct CompareSummary {
  int checked = 0;      ///< modeled records gated against the baseline
  int regressions = 0;  ///< modeled time beyond tolerance
  int missing = 0;      ///< baseline records the fresh run did not produce

  /// Exit status of the gate: ANY regression or missing record fails the
  /// check — a tracked record silently disappearing (a bench deleted or
  /// renamed without updating the baseline) must fail CI exactly like a
  /// time regression, otherwise coverage decays unnoticed.
  bool ok() const noexcept { return regressions == 0 && missing == 0; }
};

/// Diffs `fresh` records against the checked-in `baseline` (tolerance in
/// percent on the deterministic modeled times; host-only records — modeled
/// <= 0 — are matched for presence but never time-gated). Pure comparison
/// so the gate is unit-testable; printing stays with the caller via `log`
/// (pass nullptr to silence).
inline CompareSummary compare_bench_records(
    const std::vector<BenchRecord>& fresh,
    const std::vector<BenchRecord>& baseline, double tolerance_pct,
    std::FILE* log) {
  CompareSummary sum;
  for (const auto& b : baseline) {
    const BenchRecord* match = nullptr;
    for (const auto& f : fresh) {
      if (f.op == b.op && f.geometry == b.geometry) {
        match = &f;
        break;
      }
    }
    if (match == nullptr) {
      if (log != nullptr) {
        std::fprintf(log,
                     "MISSING    %-14s %-30s (tracked record no longer "
                     "produced)\n",
                     b.op.c_str(), b.geometry.c_str());
      }
      ++sum.missing;
      continue;
    }
    if (b.modeled_ms <= 0.0) {
      // Host-only record: never time-gated (host wall time is machine
      // noise), but the relative delta still prints so a --check run shows
      // every tracked record's movement, not just the modeled gate.
      if (log != nullptr && b.host_ms > 0.0) {
        std::fprintf(log,
                     "host-only  %-14s %-30s host %.4f -> %.4f ms "
                     "(%+.2f%%, informational)\n",
                     b.op.c_str(), b.geometry.c_str(), b.host_ms,
                     match->host_ms,
                     100.0 * (match->host_ms - b.host_ms) / b.host_ms);
      }
      continue;
    }
    ++sum.checked;
    const double limit = b.modeled_ms * (1.0 + tolerance_pct / 100.0);
    const double delta_pct =
        100.0 * (match->modeled_ms - b.modeled_ms) / b.modeled_ms;
    if (match->modeled_ms > limit) {
      if (log != nullptr) {
        std::fprintf(log,
                     "REGRESSED  %-14s %-30s modeled %.4f -> %.4f ms "
                     "(%+.2f%% > %.1f%%)\n",
                     b.op.c_str(), b.geometry.c_str(), b.modeled_ms,
                     match->modeled_ms, delta_pct, tolerance_pct);
      }
      ++sum.regressions;
    } else if (log != nullptr) {
      std::fprintf(log,
                   "ok         %-14s %-30s modeled %.4f -> %.4f ms "
                   "(%+.2f%%)\n",
                   b.op.c_str(), b.geometry.c_str(), b.modeled_ms,
                   match->modeled_ms, delta_pct);
    }
  }
  return sum;
}

/// PHONEBIT_BENCH_FAST=1 shrinks networks for quick smoke runs; the default
/// is the paper's full-size networks.
inline int bench_shrink() {
  const char* env = std::getenv("PHONEBIT_BENCH_FAST");
  return (env != nullptr && env[0] == '1') ? 3 : 0;
}

/// Result of one framework cell in Table III: a time or a failure marker.
struct Cell {
  double ms = 0.0;
  std::string marker;  // "OOM" / "CRASH" when the gate fired

  std::string str() const {
    if (!marker.empty()) return marker;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
    return buf;
  }
};

/// Runs a baseline framework, mapping the simulated failure modes to the
/// paper's table markers.
inline Cell run_baseline(const baselines::FloatFramework& fw,
                         oclsim::Device& device, const core::FloatModel& model,
                         const U8Tensor& image) {
  try {
    return Cell{fw.run(device, model, image).modeled_ms, ""};
  } catch (const OutOfMemoryError&) {
    return Cell{0.0, "OOM"};
  } catch (const UnsupportedOperationError&) {
    return Cell{0.0, "CRASH"};
  }
}

/// Runs the PhoneBit engine on a converted model: compiles it under the
/// default options and runs the plan on a fresh session; returns the
/// modeled ms of the forward.
inline Cell run_phonebit(core::Engine& engine, const core::Network& net,
                         const U8Tensor& image) {
  const core::Blob input{image};
  const core::ExecutionPlan plan =
      net.compile(core::EngineOptions{}, core::describe_blob(input));
  auto session = engine.create_session();
  const auto result = plan.run(session, input);
  result.float_output();  // the network must end in a float layer
  return Cell{result.modeled_ms, ""};
}

/// One layer as a one-layer network, compiled once: what a bench times is
/// `plan.run`, never the compile. The plan points into the network's
/// heap-held layer, so the pair moves as one.
struct LayerPlan {
  core::Network net;
  core::ExecutionPlan plan;
};

/// Builds layer `L` from `args` and compiles it under `opts` for inputs
/// matching `input`.
template <typename L, typename... Args>
LayerPlan compile_layer(const core::EngineOptions& opts,
                        const core::Blob& input, Args&&... args) {
  core::Network net("bench");
  net.emplace<L>(std::forward<Args>(args)...);
  core::ExecutionPlan plan = net.compile(opts, core::describe_blob(input));
  return LayerPlan{std::move(net), std::move(plan)};
}

}  // namespace phonebit::bench
