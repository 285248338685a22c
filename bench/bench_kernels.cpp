// Kernel micro-benchmarks — real host throughput of the primitive binary
// operations and of the BinaryConv2d layer itself. Unlike the table benches
// (modeled phone numbers via google-benchmark), this binary uses its own
// timing harness so it can emit a machine-readable BENCH_kernels.json whose
// records are tracked in-repo as the perf baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bitpack/binary_ops.hpp"
#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "serve/fleet.hpp"

namespace {

using namespace phonebit;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of fn(), after one warm-up call.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  fn();
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

std::vector<std::uint64_t> random_words(std::int64_t n) {
  Rng rng(5);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng();
  return v;
}

void bench_xor_popcount(std::vector<bench::BenchRecord>& out) {
  const std::int64_t nwords = 4096;
  const auto a = random_words(nwords);
  const auto b = random_words(nwords);
  volatile std::int64_t sink = 0;
  for (const auto pw :
       {bitpack::PackWidth::k8, bitpack::PackWidth::k16, bitpack::PackWidth::k32,
        bitpack::PackWidth::k64, bitpack::PackWidth::k128,
        bitpack::PackWidth::k256, bitpack::PackWidth::k512,
        bitpack::PackWidth::k1024}) {
    const double ms = best_ms(20, [&] {
      std::int64_t total = 0;
      for (int i = 0; i < 64; ++i) {
        total += bitpack::xor_popcount(a.data(), b.data(), nwords, pw);
      }
      sink = total;
    });
    out.push_back({"xor_popcount",
                   "4096w/k" + std::to_string(bitpack::bits(pw)), ms, 0.0});
  }
  (void)sink;
}

void bench_binary_dot(std::vector<bench::BenchRecord>& out) {
  volatile std::int64_t sink = 0;
  for (const std::int64_t len : {256, 1024, 9216, 25088}) {
    const std::int64_t nwords = ceil_div(len, 64);
    const auto a = random_words(nwords);
    const auto b = random_words(nwords);
    const double ms = best_ms(20, [&] {
      std::int64_t total = 0;
      for (int i = 0; i < 4096; ++i) {
        total += bitpack::binary_dot(a.data(), b.data(), nwords, len);
      }
      sink = total;
    });
    out.push_back({"binary_dot", "len" + std::to_string(len), ms, 0.0});
  }
  (void)sink;
}

void bench_pack_signs(std::vector<bench::BenchRecord>& out) {
  for (const std::int64_t c : {64, 256, 1024}) {
    Rng rng(6);
    FloatTensor t(Shape{1, 32, 32, c}, Layout::kNHWC);
    t.fill_random(rng);
    const double ms = best_ms(10, [&] {
      const auto packed = bitpack::pack_signs(t);
      (void)packed;
    });
    out.push_back({"pack_signs", "32x32/c" + std::to_string(c), ms, 0.0});
  }
}

struct ConvSpec {
  std::string tag;
  std::int64_t hw, c_in, c_out, k, stride, pad;
};

/// Times the engine's own first layer, InputConv2d (8-bit image in, both
/// kernels: the dense bit-plane im2col and the bit-plane conv), with the
/// default options on one device thread, as perfbench's yolo416 runs it:
/// the full forward's host time (min over reps) and its modeled device
/// time.
void bench_input_conv(const ConvSpec& spec,
                      std::vector<bench::BenchRecord>& out) {
  Rng rng(103);
  FloatTensor w(Shape{spec.c_out, spec.k, spec.k, spec.c_in}, Layout::kNHWC);
  for (std::int64_t i = 0; i < w.elems(); ++i) w.data()[i] = rng.sign();
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < spec.c_out; ++c) {
    bn.push_back({rng.uniform(0.3f, 1.5f) * rng.sign(), rng.normal(),
                  rng.normal() * 300.0f, rng.uniform(0.5f, 2.0f)});
  }
  ConvGeometry g;
  g.kernel_h = g.kernel_w = spec.k;
  g.stride_h = g.stride_w = spec.stride;
  g.pad_h = g.pad_w = spec.pad;

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855(), /*host_threads=*/1);
  core::Engine engine(device);
  auto session = engine.create_session();
  const core::Blob input{datasets::random_image(
      Shape{1, spec.hw, spec.hw, spec.c_in}, 7)};
  const bench::LayerPlan conv = bench::compile_layer<core::InputConv2d>(
      core::EngineOptions{}, input, "bench", bitpack::pack_filter_signs(w),
      bn, std::vector<float>{}, g);

  double modeled = 0.0;
  const double host = best_ms(10, [&] {
    session.reset_profile();
    modeled = conv.plan.run(session, input).modeled_ms;
  });
  out.push_back({"input_conv", spec.tag, host, modeled});
}

/// Times the full-precision head, FloatConv2d, on a packed input (both
/// kernels: the word-wise unpack and the 4-pixel x 16-channel dot) on one
/// device thread, like bench_input_conv.
void bench_float_conv(const ConvSpec& spec,
                      std::vector<bench::BenchRecord>& out) {
  Rng rng(104);
  FloatTensor w(Shape{spec.c_out, spec.k, spec.k, spec.c_in}, Layout::kNHWC);
  w.fill_random(rng);
  FloatTensor x(Shape{1, spec.hw, spec.hw, spec.c_in}, Layout::kNHWC);
  x.fill_random(rng);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = spec.k;
  g.stride_h = g.stride_w = spec.stride;
  g.pad_h = g.pad_w = spec.pad;

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855(), /*host_threads=*/1);
  core::Engine engine(device);
  auto session = engine.create_session();
  const core::Blob input{bitpack::pack_signs(x)};
  const bench::LayerPlan conv = bench::compile_layer<core::FloatConv2d>(
      core::EngineOptions{}, input, "bench", w,
      std::vector<float>(spec.c_out, 0.5f), g);

  double modeled = 0.0;
  const double host = best_ms(10, [&] {
    session.reset_profile();
    modeled = conv.plan.run(session, input).modeled_ms;
  });
  out.push_back({"float_conv", spec.tag, host, modeled});
}

/// Times one BinaryConv2d layer: compiles it once, then measures the
/// per-forward host time of its plan's run (min over reps) and the modeled
/// device time.
void bench_conv(const ConvSpec& spec, const core::EngineOptions& opts,
                const std::string& variant,
                std::vector<bench::BenchRecord>& out) {
  Rng rng(99);
  FloatTensor in(Shape{1, spec.hw, spec.hw, spec.c_in}, Layout::kNHWC);
  FloatTensor w(Shape{spec.c_out, spec.k, spec.k, spec.c_in}, Layout::kNHWC);
  for (std::int64_t i = 0; i < in.elems(); ++i) in.data()[i] = rng.sign();
  for (std::int64_t i = 0; i < w.elems(); ++i) w.data()[i] = rng.sign();
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < spec.c_out; ++c) {
    bn.push_back({rng.uniform(0.3f, 1.5f) * rng.sign(), rng.normal(),
                  rng.normal() * 3.0f, rng.uniform(0.5f, 2.0f)});
  }
  ConvGeometry g;
  g.kernel_h = g.kernel_w = spec.k;
  g.stride_h = g.stride_w = spec.stride;
  g.pad_h = g.pad_w = spec.pad;

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);
  auto session = engine.create_session();
  const core::Blob input{bitpack::pack_signs(in)};
  const bench::LayerPlan conv = bench::compile_layer<core::BinaryConv2d>(
      opts, input, "bench", bitpack::pack_filter_signs(w), bn,
      std::vector<float>{}, g);

  double modeled = 0.0;
  const double host = best_ms(15, [&] {
    session.reset_profile();
    modeled = conv.plan.run(session, input).modeled_ms;
  });
  // total_host_ms would exclude the enqueue-side setup; report the full
  // forward wall time so host_ms reflects the real hot path.
  out.push_back({"bconv", spec.tag + "/" + variant, host, modeled});
}

/// Compiled conv(+pool) layer-chain records: the fused-geometry regression
/// gate for the plan-level conv→pool rewrite. `fused` runs the compiled
/// single-step rewrite (pool OR folded into the conv epilogue, pooled map
/// emitted directly); `unfused` keeps the separate pool step.
void bench_conv_pool(const ConvSpec& spec, std::vector<bench::BenchRecord>& out) {
  Rng rng(101);
  FloatTensor in(Shape{1, spec.hw, spec.hw, spec.c_in}, Layout::kNHWC);
  FloatTensor w(Shape{spec.c_out, spec.k, spec.k, spec.c_in}, Layout::kNHWC);
  for (std::int64_t i = 0; i < in.elems(); ++i) in.data()[i] = rng.sign();
  for (std::int64_t i = 0; i < w.elems(); ++i) w.data()[i] = rng.sign();
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < spec.c_out; ++c) {
    bn.push_back({rng.uniform(0.3f, 1.5f) * rng.sign(), rng.normal(),
                  rng.normal() * 3.0f, rng.uniform(0.5f, 2.0f)});
  }
  ConvGeometry g;
  g.kernel_h = g.kernel_w = spec.k;
  g.stride_h = g.stride_w = spec.stride;
  g.pad_h = g.pad_w = spec.pad;
  core::Network net("bench-conv-pool");
  net.emplace<core::BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                                  std::vector<float>{}, g);
  net.emplace<core::MaxPool2d>("pool", core::PoolGeometry{2, 2, 0, false});

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  const core::Blob input{bitpack::pack_signs(in)};
  const core::BlobDesc desc = core::describe_blob(input);

  for (const bool fuse : {true, false}) {
    core::EngineOptions opts;
    opts.fuse_conv_pool = fuse;
    // Pinned to the window schedule: this record gates the conv→pool
    // rewrite, which only applies to path-A convs — letting kAuto pick the
    // bit-GEMM path here would silently de-fuse the chain.
    opts.conv_path = core::ConvPathPreference::kRowFused;
    core::Engine engine(device);
    const core::ExecutionPlan plan = net.compile(opts, desc);
    auto session = engine.create_session();
    double modeled = 0.0;
    const double host = best_ms(10, [&] {
      session.reset_profile();
      const auto result = plan.run(session, input);
      modeled = result.modeled_ms;
    });
    out.push_back({"bconv+pool",
                   spec.tag + "+p2s2/" + (fuse ? "fused" : "unfused"), host,
                   modeled});
  }
}

/// End-to-end modeled+host time of whole zoo models through the COMPILED
/// path (Network::compile + ExecutionPlan::run): the regression gate for
/// the plan subsystem itself. Modeled time is deterministic, so these
/// records are tracked in BENCH_kernels.json like the kernel records.
/// Each model runs twice: `compiled` under paper defaults (conv→pool
/// fusion + slot-backed borrowed-output forwards — the steady-state
/// serving configuration) and `unfused` with the conv→pool rewrite off,
/// so the fusion win stays visible in the tracked records.
void bench_model_e2e(std::vector<bench::BenchRecord>& out) {
  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());

  const auto run_model = [&](const std::string& tag,
                             const core::FloatModel& trained,
                             const U8Tensor& image) {
    auto net = core::convert_to_phonebit(trained);
    const core::Blob input{image};
    const core::BlobDesc desc = core::describe_blob(input);
    for (const bool fuse : {true, false}) {
      core::EngineOptions opts;
      opts.fuse_conv_pool = fuse;
      core::Engine engine(device);
      const core::ExecutionPlan plan = net->compile(opts, desc);
      auto session = engine.create_session();
      core::RunOptions ro;
      ro.borrow_output = true;  // steady-state zero-allocation serving mode
      double modeled = 0.0;
      const double host = best_ms(15, [&] {
        session.reset_profile();
        const auto result = plan.run(session, input, ro);
        modeled = result.modeled_ms;
      });
      out.push_back({"model_e2e", tag + (fuse ? "/compiled" : "/unfused"),
                     host, modeled});
    }
    // Batched forward (N=4 images through ONE compiled plan): the record
    // tracks PER-IMAGE time, so the amortized dispatch overhead shows up
    // directly against the N=1 /compiled row.
    const std::int64_t batch_n = 4;
    Shape bs = image.shape();
    bs.n = batch_n;
    U8Tensor batch(bs, image.layout());
    for (std::int64_t b = 0; b < batch_n; ++b) {
      std::memcpy(batch.data() + b * image.elems(), image.data(),
                  static_cast<std::size_t>(image.elems()));
    }
    const core::Blob binput{batch};
    core::Engine engine(device);
    const core::ExecutionPlan plan =
        net->compile(core::EngineOptions{}, core::describe_blob(binput));
    auto session = engine.create_session();
    core::RunOptions ro;
    ro.borrow_output = true;
    double modeled = 0.0;
    const double host = best_ms(15, [&] {
      session.reset_profile();
      const auto result = plan.run(session, binput, ro);
      modeled = result.modeled_ms;
    });
    out.push_back({"model_e2e", tag + "/compiled-n4",
                   host / static_cast<double>(batch_n),
                   modeled / static_cast<double>(batch_n)});
  };

  run_model("quicknet",
            core::FloatModel::random(models::quicknet(10), 42),
            datasets::cifar_like_image(7));
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;
  const auto yolo = core::FloatModel::random(models::yolov2_tiny(zoo), 21);
  run_model("yolov2tiny-s3", yolo,
            datasets::voc_like_image(yolo.spec.input.h, 9));
}

/// Fleet-serving end-to-end record: a fixed quicknet trace placed across
/// three simulated device tiers by serve::FleetServer. The tracked modeled
/// number is the fleet-wide virtual makespan — a pure function of the cost
/// model, the profiles and the placement policy, so any change to either
/// (a kernel getting cheaper, the placement score drifting) moves it and
/// trips the gate. host_ms is the real wall time of the whole trace.
void bench_fleet_e2e(std::vector<bench::BenchRecord>& out) {
  serve::FleetConfig cfg;
  cfg.shards.push_back(serve::ShardSpec{"flag", "sd855", 2});
  cfg.shards.push_back(serve::ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(serve::ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = 4;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 6;
  cfg.wait_weight = 1.0;
  serve::FleetServer fleet(cfg);

  auto net = core::convert_to_phonebit(
      core::FloatModel::random(models::quicknet(10), 42));
  const core::BlobDesc desc{core::BlobKind::kU8,
                            Shape{1, 32, 32, 3}};
  std::vector<std::string> paths;
  for (int si = 0; si < fleet.shard_count(); ++si) {
    const std::string path =
        "bench_fleet." + fleet.shard_spec(si).profile + ".pba";
    artifact::compile_for_profile(*net, core::EngineOptions{}, desc,
                                  fleet.shard_spec(si).profile, path);
    paths.push_back(path);
  }
  fleet.load_model("qn", paths);

  // 150 steady requests slightly past flagship capacity: the trace
  // exercises placement, queueing and spillover, not just raw forwards.
  std::vector<serve::Request> workload;
  for (int i = 0; i < 150; ++i) {
    serve::Request r;
    r.model = "qn";
    r.input = core::Blob{datasets::cifar_like_image(
        static_cast<std::uint64_t>(100 + i))};
    r.arrival_ms = 0.35 * i;
    workload.push_back(std::move(r));
  }
  const double t0 = now_ms();
  const serve::ServerSummary s = fleet.run(std::move(workload));
  const double host = now_ms() - t0;
  out.push_back({"fleet_e2e", "quicknet/3tiers/150req", host,
                 s.makespan_ms});
  for (const std::string& p : paths) std::remove(p.c_str());
}

/// Cascade-serving end-to-end record (DESIGN.md §13): a fixed detector →
/// classifier trace through serve::FleetServer::run_cascade over the same
/// three tiers. The tracked modeled number is the cascade's virtual
/// makespan (the last terminal event across every request's multi-stage
/// walk) — it moves if kernels change cost, placement drifts, the gate
/// threshold semantics change, or plane-reuse pricing changes, so the
/// whole §13 pipeline sits behind the gate. host_ms is real wall time.
void bench_cascade_e2e(std::vector<bench::BenchRecord>& out) {
  serve::FleetConfig cfg;
  cfg.shards.push_back(serve::ShardSpec{"flag", "sd855", 2});
  cfg.shards.push_back(serve::ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(serve::ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = 4;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 6;
  cfg.wait_weight = 1.0;
  serve::FleetServer fleet(cfg);

  const core::BlobDesc desc{core::BlobKind::kU8, Shape{1, 32, 32, 3}};
  std::vector<std::string> det_paths, cls_paths;
  for (int v = 0; v < 2; ++v) {
    auto net = core::convert_to_phonebit(core::FloatModel::random(
        models::quicknet(10), 42 + static_cast<std::uint64_t>(v)));
    for (int si = 0; si < fleet.shard_count(); ++si) {
      const std::string path = std::string("bench_cascade.") +
                               (v == 0 ? "det." : "cls.") +
                               fleet.shard_spec(si).profile + ".pba";
      artifact::compile_for_profile(*net, core::EngineOptions{}, desc,
                                    fleet.shard_spec(si).profile, path);
      (v == 0 ? det_paths : cls_paths).push_back(path);
    }
  }
  fleet.load_model("det", det_paths);
  fleet.load_model("cls", cls_paths);

  // Gate threshold from a sample of the workload inputs: roughly half the
  // trace gates out, half pays for the classifier, so the makespan tracks
  // both verdict classes.
  const auto det_art = fleet.engine(0).load_artifact_shared(det_paths[0]);
  auto probe_session = fleet.engine(0).create_session();
  std::vector<core::Blob> sample;
  for (std::uint64_t i = 0; i < 9; ++i) {
    sample.emplace_back(datasets::cifar_like_image(100 + i));
  }
  const float threshold =
      serve::median_peak_threshold(det_art->plan, probe_session, sample);

  serve::CascadeSpec spec;
  spec.name = "bench";
  serve::StageGate gate;
  gate.kind = serve::StageGate::Kind::kMaxAtLeast;
  gate.threshold = threshold;
  spec.stages.push_back(serve::CascadeStageSpec{"det", gate});
  spec.stages.push_back(serve::CascadeStageSpec{"cls", {}});

  std::vector<serve::Request> workload;
  for (int i = 0; i < 120; ++i) {
    serve::Request r;
    r.input = core::Blob{datasets::cifar_like_image(
        static_cast<std::uint64_t>(100 + i))};
    r.arrival_ms = 0.45 * i;
    workload.push_back(std::move(r));
  }
  const double t0 = now_ms();
  const serve::ServerSummary s =
      fleet.run_cascade(spec, std::move(workload));
  const double host = now_ms() - t0;
  double makespan = 0.0;
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    makespan = std::max(makespan, 0.45 * static_cast<double>(i) +
                                      s.results[i].latency_ms);
  }
  out.push_back({"cascade_e2e", "quicknet/det-cls/3tiers/120req", host,
                 makespan});
  for (const std::string& p : det_paths) std::remove(p.c_str());
  for (const std::string& p : cls_paths) std::remove(p.c_str());
}

/// CI regression gate (`--check baseline.json [tolerance_pct]`): re-runs the
/// tracked records and fails when any fresh *modeled* time regresses beyond
/// the noise threshold vs the checked-in baseline. Modeled time is a pure
/// function of counted work and the device profile, so it is deterministic
/// across machines — host_ms is wall-clock on whatever hardware runs the
/// check and is reported but never gated.
int compare_to_baseline(const std::vector<bench::BenchRecord>& fresh,
                        const std::string& baseline_path,
                        double tolerance_pct) {
  std::vector<bench::BenchRecord> baseline;
  if (!bench::read_bench_json(baseline_path, baseline)) return 2;
  // The comparison itself (including the missing-record gate: a tracked
  // record absent from the fresh run fails like a regression) lives in
  // bench_util.hpp so tests/test_bench_compare.cpp can pin its exit
  // behaviour without re-running the benches.
  const bench::CompareSummary sum =
      bench::compare_bench_records(fresh, baseline, tolerance_pct, stdout);
  std::printf("\nbench_compare: %d modeled records checked, %d regressed, "
              "%d missing (tolerance %.1f%%)\n",
              sum.checked, sum.regressions, sum.missing, tolerance_pct);
  return sum.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Modes:
  //   bench_kernels [out.json]                    write fresh records
  //   bench_kernels --check baseline.json [pct]   CI regression gate
  const bool check_mode = argc > 1 && std::string(argv[1]) == "--check";
  if (check_mode && argc < 3) {
    std::fprintf(stderr, "usage: %s --check baseline.json [tolerance_pct]\n",
                 argv[0]);
    return 2;
  }
  // Output path as argv[1] so the tracked repo-root baseline can be updated
  // directly (running from build/ otherwise writes a CWD-local copy).
  const std::string json_path =
      (!check_mode && argc > 1) ? argv[1] : "BENCH_kernels.json";
  std::vector<bench::BenchRecord> records;
  bench_xor_popcount(records);
  bench_binary_dot(records);
  bench_pack_signs(records);
  // YOLOv2-Tiny's full-size conv1, quicknet's conv1 and AlexNet's conv1
  // (K = 363 bits: the multi-word split body).
  bench_input_conv({"3x3/s1/p1/416x416/c3->16", 416, 3, 16, 3, 1, 1},
                   records);
  bench_input_conv({"3x3/s1/p1/32x32/c3->32", 32, 3, 32, 3, 1, 1}, records);
  bench_input_conv({"11x11/s4/p0/227x227/c3->96", 227, 3, 96, 11, 4, 0},
                   records);
  // YOLOv2-Tiny's conv9, the full-precision head.
  bench_float_conv({"1x1/s1/p0/13x13/c1024->125", 13, 1024, 125, 1, 1, 0},
                   records);

  const std::vector<ConvSpec> specs = {
      {"3x3/s1/p1/26x26/c256->256", 26, 256, 256, 3, 1, 1},
      {"3x3/s1/p1/26x26/c128->128", 26, 128, 128, 3, 1, 1},
      {"1x1/s1/p0/26x26/c256->256", 26, 256, 256, 1, 1, 0},
      {"7x7/s2/p3/56x56/c64->64", 56, 64, 64, 7, 2, 3},
  };
  for (const auto& spec : specs) {
    core::EngineOptions fast;  // row-fused interior path, pack width keyed
                               // on the fused span (pinned so the record
                               // keeps measuring the window schedule now
                               // that kAuto may pick the bit-GEMM path)
    fast.conv_path = core::ConvPathPreference::kRowFused;
    bench_conv(spec, fast, "fast", records);
    core::EngineOptions taps;  // pre-tentpole inner loop, kept for ablation
    taps.interior_split = false;
    taps.conv_path = core::ConvPathPreference::kRowFused;
    bench_conv(spec, taps, "taps", records);
    core::EngineOptions gemm;  // path D: im2col + register-tiled bit-GEMM
    gemm.conv_path = core::ConvPathPreference::kGemm;
    bench_conv(spec, gemm, "bitgemm", records);
  }
  // YOLOv2-Tiny 416^2 conv2, the largest path-D step of a full-size
  // forward: 16 channels fill only 16 bits of each 64-bit word.
  {
    const ConvSpec conv2{"3x3/s1/p1/208x208/c16->32", 208, 16, 32, 3, 1, 1};
    core::EngineOptions fast;
    fast.conv_path = core::ConvPathPreference::kRowFused;
    bench_conv(conv2, fast, "fast", records);
    core::EngineOptions gemm;
    gemm.conv_path = core::ConvPathPreference::kGemm;
    bench_conv(conv2, gemm, "bitgemm", records);
  }
  // Fused-geometry record for the plan-level conv→pool rewrite (2x2/s2
  // pool folded into the conv epilogue) vs the two-step chain.
  bench_conv_pool({"3x3/s1/p1/26x26/c128->128", 26, 128, 128, 3, 1, 1},
                  records);
  bench_model_e2e(records);
  bench_fleet_e2e(records);
  bench_cascade_e2e(records);

  std::printf("%-14s %-30s %12s %12s\n", "op", "geometry", "host_ms",
              "modeled_ms");
  for (const auto& r : records) {
    std::printf("%-14s %-30s %12.4f %12.4f\n", r.op.c_str(),
                r.geometry.c_str(), r.host_ms, r.modeled_ms);
  }
  if (check_mode) {
    const double tolerance = argc > 3 ? std::atof(argv[3]) : 2.0;
    return compare_to_baseline(records, argv[2], tolerance);
  }
  if (!bench::write_bench_json(json_path, "kernels", records)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
