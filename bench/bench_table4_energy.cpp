// Table IV — power (mW) and energy efficiency (FPS/W) for YOLOv2-Tiny on
// the Snapdragon 820, across the full framework roster. Power comes from
// the occupancy-based model of src/energy (the Trepn substitute).
//
// PHONEBIT_BENCH_FAST=1 shrinks the network for a quick smoke run.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "energy/power_model.hpp"

namespace {

using namespace phonebit;

struct Row {
  std::string name;
  double watts_mw = 0.0;
  double fps_per_watt = 0.0;
  bool failed = false;
};

Row run_framework(const baselines::FloatFramework& fw, oclsim::Device& device,
                  const core::FloatModel& model, const U8Tensor& image) {
  Row r;
  r.name = fw.name();
  try {
    oclsim::Device fresh(device.profile());
    // Re-run through a scratch queue to collect this framework's events.
    const auto result = fw.run(fresh, model, image);
    // run() uses its own internal queue; recompute power from per-layer
    // aggregated costs via a replay queue.
    std::vector<oclsim::KernelEvent> events;
    for (const auto& lr : result.layers) {
      oclsim::KernelEvent ev;
      ev.unit = fw.traits().unit;
      ev.cost = lr.cost;
      ev.modeled_ms = lr.modeled_ms;
      events.push_back(ev);
    }
    const auto power =
        energy::estimate_power(events, device.profile(), result.modeled_ms);
    r.watts_mw = power.avg_power_mw;
    r.fps_per_watt = power.fps_per_watt;
  } catch (const Error&) {
    r.failed = true;
  }
  return r;
}

}  // namespace

int main() {
  const int shrink = phonebit::bench::bench_shrink();
  if (shrink != 0) {
    std::printf("[PHONEBIT_BENCH_FAST: network shrunk by 2^%d]\n", shrink);
  }

  const auto profile = oclsim::DeviceProfile::snapdragon820();
  auto device = std::make_shared<oclsim::Device>(profile);
  const auto float_model =
      core::FloatModel::random(models::yolov2_tiny({shrink, false}), 21);
  const auto bnn_model =
      core::FloatModel::random(models::yolov2_tiny({shrink, true}), 21);
  const U8Tensor image =
      datasets::random_image(float_model.spec.input, 22);

  std::vector<Row> rows;
  rows.push_back(run_framework(baselines::FloatFramework::cnndroid_cpu(),
                               *device, float_model, image));
  rows.push_back(run_framework(baselines::FloatFramework::cnndroid_gpu(),
                               *device, float_model, image));
  rows.push_back(run_framework(baselines::FloatFramework::tflite_cpu(),
                               *device, float_model, image));
  rows.push_back(run_framework(baselines::FloatFramework::tflite_gpu(),
                               *device, float_model, image));
  rows.push_back(run_framework(baselines::FloatFramework::tflite_quant(),
                               *device, float_model, image));

  // PhoneBit row from the engine's own profiling events.
  {
    auto net = core::convert_to_phonebit(bnn_model);
    const core::Blob input{image};
    const core::ExecutionPlan plan =
        net->compile(core::EngineOptions{}, core::describe_blob(input));
    core::Engine engine(device);
    auto session = engine.create_session();
    const auto result = plan.run(session, input);
    const auto power = energy::estimate_power(session.queue().events(),
                                              profile, result.modeled_ms);
    rows.push_back(
        Row{"PhoneBit", power.avg_power_mw, power.fps_per_watt, false});
  }

  std::printf("\n=== Table IV: ENERGY PER FRAME, YOLOv2-Tiny @ Snapdragon 820 "
              "===\n");
  std::printf("%-14s %12s %18s\n", "Framework", "Watts(mW)",
              "Efficiency(FPS/W)");
  for (const auto& r : rows) {
    if (r.failed) {
      std::printf("%-14s %12s %18s\n", r.name.c_str(), "-", "-");
    } else {
      std::printf("%-14s %12.1f %18.2f\n", r.name.c_str(), r.watts_mw,
                  r.fps_per_watt);
    }
  }
  std::printf("\npaper Table IV:  CNNdroid-CPU 914 / 0.02   CNNdroid-GPU 573 "
              "/ 1.18\n                 TFLite-CPU 626 / 2.39   TFLite-GPU "
              "540 / 3.97   TFLite-Quant 452 / 4.40\n                 "
              "PhoneBit 225.67 / 105.26\n");
  std::printf("shape checks: PhoneBit draws the least power and its FPS/W "
              "leads by >20x.\n");
  return 0;
}
