// cascade_demo — model cascades on the serving plane (DESIGN.md §13): a
// detector → classifier pipeline served by serve::FleetServer::run_cascade
// across three simulated phone tiers, the Face-Classification-Android
// deployment shape from the paper's application section.
//
// Every request walks the cascade stages in order: the detector runs
// first, and only requests whose max detector logit clears the gate
// threshold pay for the classifier ("no face found" completes right at
// stage 0). Each stage is priced and placed independently — stage 1 may
// land on a different shard than stage 0 — but a request's later stages
// are CHEAPER on the shard already holding its packed input bitplanes
// (the split kernel is skipped), so placement shows reuse affinity. One
// deadline budget, measured from the original arrival, spans all stages.
//
// All decisions run in virtual time, so the per-(stage, shard) placement
// histogram below is bit-identical run after run, whatever the real
// worker count does (try ./build/cascade_demo 1 vs 16).
//
// Build & run:  ./build/cascade_demo [exec_workers]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"

using namespace phonebit;

int main(int argc, char** argv) {
  const int exec_workers = argc > 1 ? std::atoi(argv[1]) : 4;

  serve::FleetConfig cfg;
  cfg.shards.push_back(serve::ShardSpec{"flagship", "sd855", 2});
  cfg.shards.push_back(serve::ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(serve::ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = exec_workers;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 5;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  cfg.wait_weight = 1.0;

  serve::FaultPlan faults;
  faults.seed = 33;
  faults.transient_rate = 0.05;
  faults.spike_rate = 0.04;
  faults.spike_ms = 1.5;

  serve::FleetServer fleet(cfg, faults, "demo-cascade");

  // Two checkpoints of the same architecture stand in for the detector and
  // the classifier; one per-profile .pba each, compile-fleet style.
  const core::NetworkSpec spec = models::quicknet(10);
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  std::vector<std::string> det_paths, cls_paths;
  for (int v = 0; v < 2; ++v) {
    auto net = core::convert_to_phonebit(
        core::FloatModel::random(spec, 11 + static_cast<std::uint64_t>(v)));
    for (int si = 0; si < fleet.shard_count(); ++si) {
      const std::string key = fleet.shard_spec(si).profile;
      const std::string path =
          std::string("cascade_demo_") + (v == 0 ? "det." : "cls.") + key +
          ".pba";
      artifact::compile_for_profile(*net, fleet.engine(si).options(), desc,
                                    key, path);
      (v == 0 ? det_paths : cls_paths).push_back(path);
    }
  }
  fleet.load_model("det", det_paths);
  fleet.load_model("cls", cls_paths);

  // Gate threshold from a sample of the workload inputs: about half the
  // trace gates out at the detector ("no face"), half advances to the
  // classifier.
  const auto det_art = fleet.engine(0).load_artifact_shared(det_paths[0]);
  auto probe_session = fleet.engine(0).create_session();
  std::vector<core::Blob> sample;
  for (std::uint64_t i = 0; i < 9; ++i) {
    sample.emplace_back(datasets::random_image(spec.input, 100 + i));
  }
  const float threshold =
      serve::median_peak_threshold(det_art->plan, probe_session, sample);

  serve::CascadeSpec cascade;
  cascade.name = "face-pipeline";
  serve::StageGate gate;
  gate.kind = serve::StageGate::Kind::kMaxAtLeast;
  gate.threshold = threshold;
  cascade.stages.push_back(serve::CascadeStageSpec{"det", gate});
  cascade.stages.push_back(serve::CascadeStageSpec{"cls", {}});

  // The trace: steady traffic plus a burst at t=60ms.
  std::vector<serve::Request> workload;
  auto push = [&workload](core::Blob input, double at) {
    serve::Request r;
    r.input = std::move(input);
    r.arrival_ms = at;
    workload.push_back(std::move(r));
  };
  for (int i = 0; i < 240; ++i) {
    push(core::Blob{datasets::random_image(spec.input, 100 + i)}, 0.4 * i);
  }
  for (int i = 0; i < 60; ++i) {
    push(core::Blob{datasets::random_image(spec.input, 900 + i)}, 60.0);
  }

  const serve::CascadeSummary s = fleet.run_cascade(cascade, workload);

  std::printf("cascade '%s': %d requests, %zu stages, %d exec workers\n",
              s.cascade.c_str(), s.requests, s.stages.size(), exec_workers);
  std::printf("  faults          %s\n", faults.str().c_str());
  std::printf("  status          %d ok / %d shed / %d deadline / %d failed\n",
              s.ok, s.shed, s.deadline_exceeded, s.failed);
  std::printf("  gate            %d gated out at the detector, %d full runs\n",
              s.gated_out, s.full_runs);
  std::printf("  retries         %d transient-fault retries absorbed\n",
              s.retries);
  std::printf("  host wall       %.1f ms for the whole trace\n\n", s.wall_ms);

  std::printf("per-stage accounting (virtual-time latency of Ok stages):\n");
  for (std::size_t k = 0; k < s.stages.size(); ++k) {
    const auto& st = s.stages[k];
    std::printf("  stage %zu %-4s %4d entered | ok %3d shed %3d ddl %3d "
                "fail %3d | pass %3d stop %3d | plane reuse %3d | "
                "p50 %6.3f p99 %6.3f ms\n",
                k, st.model.c_str(), st.entered, st.ok, st.shed,
                st.deadline_exceeded, st.failed, st.gate_passed,
                st.gate_stopped, st.reused_planes, st.p50_ms, st.p99_ms);
  }

  std::printf(
      "\nper-(stage, shard) placement (bit-identical at any worker count):\n");
  for (std::size_t k = 0; k < s.stage_assignment.size(); ++k) {
    std::printf("  stage %zu:", k);
    for (int si = 0; si < fleet.shard_count(); ++si) {
      std::printf(" %s=%d", fleet.shard_spec(si).name.c_str(),
                  s.stage_assignment[k][static_cast<std::size_t>(si)]);
    }
    std::printf("\n");
  }

  for (const std::string& p : det_paths) std::remove(p.c_str());
  for (const std::string& p : cls_paths) std::remove(p.c_str());
  return 0;
}
