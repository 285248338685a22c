// server_demo — the fault-tolerant serving control plane end to end: a
// serve::ModelServer fronting two compiled .pba artifacts (a CIFAR
// classifier and a shrunken YOLO detector), serving a mixed workload trace
// with an overload burst, a mid-run hot-swap of the classifier, and a
// seeded FaultPlan injecting transient faults and latency spikes.
//
// Every request resolves to exactly one status — Ok, Shed,
// DeadlineExceeded or Failed — and because admission/retry/shed decisions
// run in virtual time on simulated lanes, the printed accounting is
// bit-identical run after run, whatever the real worker count does.
//
// Build & run:  ./build/server_demo [exec_workers]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/model_server.hpp"

using namespace phonebit;

namespace {

/// Compiles a synthetic checkpoint of `spec` into a .pba at `path`.
Shape compile_artifact(const core::NetworkSpec& spec, std::uint64_t seed,
                       const std::string& path) {
  auto net = core::convert_to_phonebit(core::FloatModel::random(spec, seed));
  const core::ExecutionPlan plan = net->compile(
      core::EngineOptions{}, core::BlobDesc{core::BlobKind::kU8, spec.input});
  artifact::save(*net, plan, path);
  return spec.input;
}

}  // namespace

int main(int argc, char** argv) {
  const int exec_workers = argc > 1 ? std::atoi(argv[1]) : 4;

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);

  // Two models, three artifacts: the classifier ships a v2 checkpoint that
  // hot-swaps in mid-trace.
  const std::string cls_v1 = "server_demo_cls_v1.pba";
  const std::string cls_v2 = "server_demo_cls_v2.pba";
  const std::string det_v1 = "server_demo_det.pba";
  const Shape cls_in = compile_artifact(models::quicknet(10), 11, cls_v1);
  compile_artifact(models::quicknet(10), 12, cls_v2);
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;
  const Shape det_in = compile_artifact(
      models::spec_by_name("yolov2-tiny", zoo, std::nullopt), 13, det_v1);

  serve::ServerConfig cfg;
  cfg.exec_workers = exec_workers;
  cfg.lanes = 4;
  cfg.queue_limit = 6;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  cfg.default_deadline_ms = 40.0;

  serve::FaultPlan faults;
  faults.seed = 7;
  faults.transient_rate = 0.08;
  faults.spike_rate = 0.05;
  faults.spike_ms = 3.0;

  serve::ModelServer server(engine, cfg, faults, "demo");
  server.load_model("cls", cls_v1);
  server.load_model("det", det_v1);

  // The trace: steady classifier + detector traffic, a 40-request burst on
  // the classifier at t=60ms (far past the queue watermark — the newest
  // arrivals shed), and a hot-swap of the classifier at t=80ms.
  std::vector<serve::Request> workload;
  auto push = [&workload](const std::string& model, core::Blob input,
                          double at) {
    serve::Request r;
    r.model = model;
    r.input = std::move(input);
    r.arrival_ms = at;
    workload.push_back(std::move(r));
  };
  for (int i = 0; i < 150; ++i) {
    push("cls", core::Blob{datasets::random_image(cls_in, 100 + i)}, 0.9 * i);
  }
  for (int i = 0; i < 25; ++i) {
    push("det", core::Blob{datasets::random_image(det_in, 500 + i)}, 5.3 * i);
  }
  for (int i = 0; i < 40; ++i) {
    push("cls", core::Blob{datasets::random_image(cls_in, 900 + i)}, 60.0);
  }
  const std::vector<serve::SwapEvent> swaps{
      serve::SwapEvent{80.0, "cls", cls_v2}};

  const serve::ServerSummary s = server.run(std::move(workload), swaps);

  std::printf("server '%s': %d requests, %d exec workers, %d lanes (%s)\n",
              server.name().c_str(), s.requests, cfg.exec_workers, cfg.lanes,
              device->profile().soc_name.c_str());
  std::printf("  faults          %s\n", faults.str().c_str());
  std::printf("  status          %d ok / %d shed / %d deadline / %d failed\n",
              s.ok, s.shed, s.deadline_exceeded, s.failed);
  std::printf("  retries         %d transient-fault retries absorbed\n",
              s.retries);
  std::printf("  hot-swap        %d committed, %d rolled back -> cls @v%llu\n",
              s.swaps, s.swap_rollbacks,
              static_cast<unsigned long long>(server.version("cls")));
  std::printf("  queue depth     %d peak (watermark %d)\n", s.max_queue_depth,
              cfg.queue_limit);
  std::printf("  host wall       %.1f ms for the whole trace\n\n", s.wall_ms);

  std::printf("per-model accounting (virtual-time latency of Ok requests):\n");
  for (const auto& m : s.models) {
    std::printf("  %-4s %4d req | ok %3d shed %3d ddl %3d fail %3d | "
                "p50 %7.3f p99 %7.3f max %7.3f ms | depth %d\n",
                m.name.c_str(), m.requests, m.ok, m.shed,
                m.deadline_exceeded, m.failed, m.p50_ms, m.p99_ms, m.max_ms,
                m.max_queue_depth);
  }

  // The swap boundary: classifier requests before t=80 served @v1, the
  // rest @v2 — each ran on exactly one plan version.
  int v1 = 0, v2 = 0;
  for (const auto& rr : s.results) {
    const std::uint64_t version = rr.stages[0].plan_version;
    if (rr.status.ok() && version == 1) ++v1;
    if (rr.status.ok() && version == 2) ++v2;
  }
  std::printf("\nplan versions among Ok requests: %d on v1, %d on v2\n", v1,
              v2);

  std::remove(cls_v1.c_str());
  std::remove(cls_v2.c_str());
  std::remove(det_v1.c_str());
  return 0;
}
