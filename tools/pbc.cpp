// pbc — the PhoneBit artifact compiler (the workstation half of Fig. 2).
//
// Compiles a model into a ready-to-run .pba artifact: the layer graph with
// BN-folded packed weights PLUS the compiled ExecutionPlan (kernel
// selections, fusion rewrites, activation-slot table, exact memory peaks),
// so the phone-side engine loads and runs with zero re-planning.
//
//   pbc compile --model <zoo name> [-o out.pba] [--shrink N] [--seed S]
//               [--classes C] [--no-fuse-conv-pool]
//       Builds a deterministic synthetic checkpoint of the named zoo
//       architecture, converts + compiles it, writes the artifact.
//   pbc dump <file.pba>
//       Prints the section table, network summary and full plan dump.
//   pbc selfcheck [--model <zoo name>] [...]
//       Compile → save → load → run both plans on the same input and
//       verify bit-exactness; exit 0 on success (the ctest smoke target).
//   pbc serve-check [--model <zoo name>] [--seed S]
//       Serving-robustness smoke: compile two artifact versions, serve a
//       deterministic workload (overload burst, mid-run hot-swap, seeded
//       fault injection) through serve::ModelServer at two different real
//       worker counts, and verify the accounting is bit-identical and the
//       Ok outputs bit-exact; exit 0 on success (the ctest smoke target).
//   pbc cascade-check [--model <zoo name>] [--seed S]
//       Model-cascade smoke (DESIGN.md §13): compile a detector +
//       classifier pair, serve a deterministic trace through a 2-stage
//       ModelServer cascade at two real worker counts, and verify the
//       per-stage walks are bit-identical, both gate classes fire, and
//       later stages reuse the request's packed input planes.
//   pbc compile-fleet --model <zoo name> [--profiles sd855,sd660,...]
//       [-o base] [...]
//       The fleet batch mode: compile the model once, validate + package it
//       per device profile, emitting <base>.<profile>.pba per device with
//       the target profile recorded in the artifact.
//   pbc fleet-check [--model <zoo name>] [--seed S]
//       Fleet-placement smoke: compile one artifact per profile, serve a
//       deterministic trace (steady traffic + overload burst + seeded
//       faults) through serve::FleetServer at two different real worker
//       counts, and verify placement/accounting (including the per-shard
//       assignment histogram) is bit-identical and Ok outputs bit-exact.
//   pbc compress-stats --model <zoo name> [--redundant] [...]
//       Prints the per-layer weight-compression table (DESIGN.md §12):
//       dictionary rows, exact duplicates, delta footprint and the
//       raw/encoded ratio for every binary conv. --redundant synthesizes
//       the clustered checkpoint trained binary nets exhibit; without it a
//       random checkpoint shows the incompressible baseline.
//
// compile/selfcheck accept --compress off|auto (default off): auto stores
// conv weights compressed in the artifact where that is smaller; the
// kernels a plan runs are the same either way.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "oclsim/device_profile.hpp"
#include "serve/fleet.hpp"
#include "serve/model_server.hpp"

namespace {

using namespace phonebit;

struct Args {
  std::string mode;
  std::string model = "quicknet";
  std::string out = "model.pba";
  std::string file;  // dump target
  int shrink = 0;
  std::uint64_t seed = 42;
  std::optional<std::int64_t> classes;  // engaged only by --classes
  bool fuse_conv_pool = true;
  std::vector<std::string> profiles;  // --profiles a,b,c
  core::WeightCompress compress = core::WeightCompress::kOff;
  bool redundant = false;  // synthesize a clustered (compressible) checkpoint
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pbc compile --model <quicknet|alexnet|yolov2-tiny|vgg16>\n"
      "              [-o out.pba] [--shrink N] [--seed S]\n"
      "              [--classes C (quicknet only)] [--no-fuse-conv-pool]\n"
      "              [--compress off|auto] [--redundant]\n"
      "  pbc dump <file.pba>\n"
      "  pbc selfcheck [--model <name>] [--shrink N] [--seed S]\n"
      "                [--compress off|auto] [--redundant]\n"
      "  pbc serve-check [--model <name>] [--shrink N] [--seed S]\n"
      "  pbc cascade-check [--model <name>] [--shrink N] [--seed S]\n"
      "  pbc compile-fleet --model <name> [--profiles sd855,sd660,...]\n"
      "                    [-o base] [--shrink N] [--seed S]\n"
      "  pbc fleet-check [--model <name>] [--shrink N] [--seed S]\n"
      "  pbc compress-stats --model <name> [--redundant] [--shrink N]\n"
      "                     [--seed S]\n");
  return 2;
}

/// Splits a comma-separated --profiles value ("sd855,sd660").
std::vector<std::string> parse_profiles(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--model") {
      const char* v = value();
      if (v == nullptr) return false;
      a.model = v;
    } else if (flag == "-o" || flag == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      a.out = v;
    } else if (flag == "--shrink") {
      const char* v = value();
      if (v == nullptr) return false;
      a.shrink = std::atoi(v);
    } else if (flag == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      a.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--classes") {
      const char* v = value();
      if (v == nullptr) return false;
      a.classes = std::atoll(v);
    } else if (flag == "--no-fuse-conv-pool") {
      a.fuse_conv_pool = false;
    } else if (flag == "--compress") {
      const char* v = value();
      if (v == nullptr) return false;
      const std::string mode = v;
      if (mode == "off") {
        a.compress = core::WeightCompress::kOff;
      } else if (mode == "auto") {
        a.compress = core::WeightCompress::kAuto;
      } else {
        return false;
      }
    } else if (flag == "--redundant") {
      a.redundant = true;
    } else if (flag == "--profiles") {
      const char* v = value();
      if (v == nullptr) return false;
      a.profiles = parse_profiles(v);
      if (a.profiles.empty()) return false;
    } else if (a.mode == "dump" && a.file.empty() && flag[0] != '-') {
      a.file = flag;
    } else {
      return false;
    }
  }
  return true;
}

/// Builds (network, input shape) from the CLI arguments: a synthetic
/// checkpoint of a zoo architecture, converted.
std::unique_ptr<core::Network> build_network(const Args& a, Shape& input) {
  models::ZooOptions zoo;
  zoo.shrink_log2 = a.shrink;
  const auto spec = models::spec_by_name(a.model, zoo, a.classes);
  const auto trained = a.redundant
                           ? core::FloatModel::random_redundant(spec, a.seed)
                           : core::FloatModel::random(spec, a.seed);
  input = spec.input;
  return core::convert_to_phonebit(trained);
}

int compile_mode(const Args& a, bool selfcheck) {
  Shape input;
  auto net = build_network(a, input);

  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::EngineOptions opts;
  opts.fuse_conv_pool = a.fuse_conv_pool;
  opts.weight_compress = a.compress;
  core::Engine engine(device, opts);

  const core::BlobDesc desc{core::BlobKind::kU8, input};
  const core::ExecutionPlan plan = net->compile(engine, desc);
  artifact::save(*net, plan, a.out);

  std::printf("compiled '%s' -> %s\n", net->name().c_str(), a.out.c_str());
  std::printf("  input %s, %zu plan steps, %lld param bytes\n",
              desc.str().c_str(), plan.steps().size(),
              static_cast<long long>(net->param_bytes()));
  std::printf("  activation slab %lld B, scratch peak %lld B\n",
              static_cast<long long>(plan.slab_bytes()),
              static_cast<long long>(plan.peak_scratch_bytes()));
  if (!selfcheck) return 0;

  // selfcheck: the loaded artifact must replay the compiled plan
  // bit-exactly (outputs AND modeled time) with zero re-selection.
  const artifact::LoadedArtifact loaded = engine.load_artifact(a.out);
  const U8Tensor image = datasets::random_image(input, a.seed + 1);
  auto s1 = engine.create_session();
  auto s2 = engine.create_session();
  const auto fresh = plan.run(s1, core::Blob{image});
  const auto replay = loaded.plan.run(s2, core::Blob{image});
  if (s2.stats().variant_selections != 0) {
    std::fprintf(stderr, "selfcheck: loaded plan re-selected variants\n");
    return 1;
  }
  const auto* fo = std::get_if<FloatTensor>(&fresh.output);
  const auto* ro = std::get_if<FloatTensor>(&replay.output);
  if (fo != nullptr && ro != nullptr) {
    if (!allclose(*fo, *ro, 0.0f)) {
      std::fprintf(stderr, "selfcheck: loaded forward diverged\n");
      return 1;
    }
  } else if (!(std::get<bitpack::PackedTensor>(fresh.output) ==
               std::get<bitpack::PackedTensor>(replay.output))) {
    std::fprintf(stderr, "selfcheck: loaded packed output diverged\n");
    return 1;
  }
  if (fresh.modeled_ms != replay.modeled_ms) {
    std::fprintf(stderr, "selfcheck: modeled time drifted (%f vs %f)\n",
                 fresh.modeled_ms, replay.modeled_ms);
    return 1;
  }
  std::remove(a.out.c_str());
  std::printf("selfcheck: ok (save -> load -> run bit-exact, "
              "zero re-selection)\n");
  return 0;
}

/// True when the two forward outputs are bit-identical.
bool outputs_bitexact(const core::ForwardResult& x,
                      const core::ForwardResult& y) {
  const auto* xf = std::get_if<FloatTensor>(&x.output);
  const auto* yf = std::get_if<FloatTensor>(&y.output);
  if ((xf != nullptr) != (yf != nullptr)) return false;
  if (xf != nullptr) return allclose(*xf, *yf, 0.0f);
  return std::get<bitpack::PackedTensor>(x.output) ==
         std::get<bitpack::PackedTensor>(y.output);
}

int serve_check_mode(const Args& a) {
  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);

  // Two artifact versions of the same architecture (different seeded
  // checkpoints) — v2 hot-swaps in mid-trace.
  models::ZooOptions zoo;
  zoo.shrink_log2 = a.shrink;
  const auto spec = models::spec_by_name(a.model, zoo, a.classes);
  const std::string v1_path = a.out + ".serve_check_v1";
  const std::string v2_path = a.out + ".serve_check_v2";
  for (int v = 1; v <= 2; ++v) {
    auto net = core::convert_to_phonebit(core::FloatModel::random(
        spec, a.seed + static_cast<std::uint64_t>(v)));
    const core::ExecutionPlan plan = net->compile(
        engine, core::BlobDesc{core::BlobKind::kU8, spec.input});
    artifact::save(*net, plan, v == 1 ? v1_path : v2_path);
  }
  auto cleanup = [&v1_path, &v2_path] {
    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
  };

  // A deterministic trace that exercises the whole control plane: steady
  // traffic, an overload burst past the queue watermark, a mid-run
  // hot-swap, and seeded transient faults + latency spikes.
  auto make_workload = [&a, &spec] {
    std::vector<serve::Request> w;
    auto push = [&w, &a, &spec](std::uint64_t seed, double at) {
      serve::Request r;
      r.model = a.model;
      r.input = core::Blob{datasets::random_image(spec.input, a.seed + seed)};
      r.arrival_ms = at;
      w.push_back(std::move(r));
    };
    for (int i = 0; i < 60; ++i) push(100 + i, 0.9 * i);
    for (int i = 0; i < 24; ++i) push(500 + i, 20.0);  // the burst
    return w;
  };
  const std::vector<serve::SwapEvent> swaps{
      serve::SwapEvent{27.0, a.model, v2_path}};
  serve::FaultPlan faults;
  faults.seed = a.seed * 2654435761u + 1;
  faults.transient_rate = 0.1;
  faults.spike_rate = 0.05;
  faults.spike_ms = 2.0;

  auto serve_once = [&](int exec_workers) {
    serve::ServerConfig cfg;
    cfg.exec_workers = exec_workers;
    cfg.lanes = 4;
    cfg.queue_limit = 6;
    cfg.max_retries = 2;
    cfg.retry_backoff_ms = 0.5;
    serve::ModelServer server(engine, cfg, faults, "serve-check");
    server.load_model(a.model, v1_path);
    return server.run(make_workload(), swaps);
  };

  // The robustness contract: the decision sequence is a pure function of
  // (workload, config, faults) — real execution parallelism must change
  // NOTHING, and every Ok output must be bit-exact across worker counts.
  const serve::ServerSummary s2 = serve_once(2);
  const serve::ServerSummary s4 = serve_once(4);
  if (s2.ok + s2.shed + s2.deadline_exceeded + s2.failed != s2.requests) {
    std::fprintf(stderr, "serve-check: lost requests in the accounting\n");
    cleanup();
    return 1;
  }
  if (s2.ok != s4.ok || s2.shed != s4.shed ||
      s2.deadline_exceeded != s4.deadline_exceeded ||
      s2.failed != s4.failed || s2.retries != s4.retries ||
      s2.max_queue_depth != s4.max_queue_depth) {
    std::fprintf(stderr,
                 "serve-check: accounting drifted across worker counts\n");
    cleanup();
    return 1;
  }
  for (std::size_t i = 0; i < s2.results.size(); ++i) {
    const auto& r2 = s2.results[i];
    const auto& r4 = s4.results[i];
    if (r2.status.code != r4.status.code ||
        r2.plan_version != r4.plan_version ||
        r2.latency_ms != r4.latency_ms) {
      std::fprintf(stderr, "serve-check: request %zu verdict drifted\n", i);
      cleanup();
      return 1;
    }
    if (r2.status.ok() && !outputs_bitexact(r2.result, r4.result)) {
      std::fprintf(stderr, "serve-check: request %zu output drifted\n", i);
      cleanup();
      return 1;
    }
  }
  if (s2.swaps != 1 || s2.shed == 0 || s2.retries == 0) {
    std::fprintf(stderr,
                 "serve-check: trace failed to exercise the control plane "
                 "(swaps %d, shed %d, retries %d)\n",
                 s2.swaps, s2.shed, s2.retries);
    cleanup();
    return 1;
  }
  cleanup();
  std::printf("serve-check: ok — %d requests: %d ok / %d shed / %d deadline "
              "/ %d failed, %d retries, 1 hot-swap; bit-identical at 2 and 4 "
              "workers\n",
              s2.requests, s2.ok, s2.shed, s2.deadline_exceeded, s2.failed,
              s2.retries);
  return 0;
}

/// cascade-check: the model-cascade smoke (DESIGN.md §13). Compiles a
/// detector + classifier pair of seeded checkpoints, runs a deterministic
/// trace through a 2-stage ModelServer cascade at two real worker counts,
/// and verifies (a) the accounting and per-stage walks are bit-identical,
/// (b) both terminal Ok classes appear (gate-stopped AND full runs), and
/// (c) later stages actually reuse the request's packed input planes.
int cascade_check_mode(const Args& a) {
  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);

  models::ZooOptions zoo;
  zoo.shrink_log2 = a.shrink;
  const auto spec = models::spec_by_name(a.model, zoo, a.classes);
  const std::string det_path = a.out + ".cascade_check_det";
  const std::string cls_path = a.out + ".cascade_check_cls";
  for (int v = 1; v <= 2; ++v) {
    auto net = core::convert_to_phonebit(core::FloatModel::random(
        spec, a.seed + static_cast<std::uint64_t>(v)));
    const core::ExecutionPlan plan = net->compile(
        engine, core::BlobDesc{core::BlobKind::kU8, spec.input});
    artifact::save(*net, plan, v == 1 ? det_path : cls_path);
  }
  auto cleanup = [&det_path, &cls_path] {
    std::remove(det_path.c_str());
    std::remove(cls_path.c_str());
  };

  // Gate threshold from a sample of the actual workload inputs.
  const auto det_art = engine.load_artifact_shared(det_path);
  auto probe_session = engine.create_session();
  std::vector<core::Blob> sample;
  for (std::uint64_t i = 0; i < 9; ++i) {
    sample.emplace_back(datasets::random_image(spec.input, a.seed + 100 + i));
  }
  const float threshold =
      serve::median_peak_threshold(det_art->plan, probe_session, sample);

  serve::CascadeSpec cascade;
  cascade.name = "cascade-check";
  serve::StageGate gate;
  gate.kind = serve::StageGate::Kind::kMaxAtLeast;
  gate.threshold = threshold;
  cascade.stages.push_back(serve::CascadeStageSpec{"det", gate});
  cascade.stages.push_back(serve::CascadeStageSpec{"cls", {}});

  auto make_workload = [&a, &spec] {
    std::vector<serve::Request> w;
    auto push = [&w, &a, &spec](std::uint64_t seed, double at) {
      serve::Request r;
      r.input = core::Blob{datasets::random_image(spec.input, a.seed + seed)};
      r.arrival_ms = at;
      w.push_back(std::move(r));
    };
    for (int i = 0; i < 48; ++i) push(100 + i, 1.2 * i);
    for (int i = 0; i < 16; ++i) push(500 + i, 18.0);  // the burst
    return w;
  };
  serve::FaultPlan faults;
  faults.seed = a.seed * 2654435761u + 9;
  faults.transient_rate = 0.08;
  faults.spike_rate = 0.05;
  faults.spike_ms = 1.5;

  auto serve_once = [&](int exec_workers) {
    serve::ServerConfig cfg;
    cfg.exec_workers = exec_workers;
    cfg.lanes = 4;
    cfg.queue_limit = 6;
    cfg.max_retries = 2;
    cfg.retry_backoff_ms = 0.5;
    serve::ModelServer server(engine, cfg, faults, "cascade-check");
    server.load_model("det", det_path);
    server.load_model("cls", cls_path);
    return server.run_cascade(cascade, make_workload());
  };

  const serve::CascadeSummary s2 = serve_once(2);
  const serve::CascadeSummary s4 = serve_once(4);
  if (s2.ok + s2.shed + s2.deadline_exceeded + s2.failed != s2.requests ||
      s2.ok != s2.gated_out + s2.full_runs) {
    std::fprintf(stderr, "cascade-check: lost requests in the accounting\n");
    cleanup();
    return 1;
  }
  if (s2.ok != s4.ok || s2.shed != s4.shed ||
      s2.deadline_exceeded != s4.deadline_exceeded ||
      s2.failed != s4.failed || s2.retries != s4.retries ||
      s2.gated_out != s4.gated_out || s2.full_runs != s4.full_runs) {
    std::fprintf(stderr,
                 "cascade-check: accounting drifted across worker counts\n");
    cleanup();
    return 1;
  }
  for (std::size_t i = 0; i < s2.results.size(); ++i) {
    const auto& r2 = s2.results[i];
    const auto& r4 = s4.results[i];
    if (r2.status.code != r4.status.code || r2.gated_out != r4.gated_out ||
        r2.latency_ms != r4.latency_ms ||
        r2.stages.size() != r4.stages.size()) {
      std::fprintf(stderr, "cascade-check: request %zu verdict drifted\n", i);
      cleanup();
      return 1;
    }
    for (std::size_t k = 0; k < r2.stages.size(); ++k) {
      if (r2.stages[k].attempts != r4.stages[k].attempts ||
          r2.stages[k].retries != r4.stages[k].retries ||
          r2.stages[k].reused_planes != r4.stages[k].reused_planes ||
          r2.stages[k].latency_ms != r4.stages[k].latency_ms) {
        std::fprintf(stderr, "cascade-check: request %zu stage %zu drifted\n",
                     i, k);
        cleanup();
        return 1;
      }
    }
    if (r2.status.ok() && !outputs_bitexact(r2.result, r4.result)) {
      std::fprintf(stderr, "cascade-check: request %zu output drifted\n", i);
      cleanup();
      return 1;
    }
  }
  const int reused = s2.stages.size() == 2 ? s2.stages[1].reused_planes : 0;
  if (s2.gated_out == 0 || s2.full_runs == 0 || reused == 0) {
    std::fprintf(stderr,
                 "cascade-check: trace failed to exercise the cascade "
                 "(gated %d, full %d, plane reuse %d)\n",
                 s2.gated_out, s2.full_runs, reused);
    cleanup();
    return 1;
  }
  cleanup();
  std::printf(
      "cascade-check: ok — %d requests through det->cls: %d gated out / %d "
      "full runs / %d shed / %d deadline / %d failed, %d retries, %d "
      "plane-reuse stage runs; bit-identical at 2 and 4 workers\n",
      s2.requests, s2.gated_out, s2.full_runs, s2.shed, s2.deadline_exceeded,
      s2.failed, s2.retries, reused);
  return 0;
}

/// compile-fleet: one validated .pba per device profile from one model.
int compile_fleet_mode(const Args& a) {
  Shape input;
  auto net = build_network(a, input);
  core::EngineOptions opts;
  opts.fuse_conv_pool = a.fuse_conv_pool;
  const core::BlobDesc desc{core::BlobKind::kU8, input};

  const std::vector<std::string> profiles =
      a.profiles.empty() ? oclsim::known_profile_names() : a.profiles;
  std::string base = a.out;
  if (base.size() >= 4 && base.compare(base.size() - 4, 4, ".pba") == 0) {
    base.resize(base.size() - 4);
  }
  for (const std::string& key : profiles) {
    const std::string path = base + "." + key + ".pba";
    // compile_for_profile validates the byte-exact RAM fit BEFORE writing —
    // an over-budget (model, profile) pair fails the whole batch loudly
    // instead of shipping an artifact the shard would reject at load.
    const core::ExecutionPlan plan =
        artifact::compile_for_profile(*net, opts, desc, key, path);
    const oclsim::DeviceProfile profile = oclsim::profile_by_name(key);
    std::printf("compiled '%s' for %s (%s, %lld MB) -> %s\n",
                net->name().c_str(), key.c_str(), profile.gpu_name.c_str(),
                static_cast<long long>(profile.ram_mb), path.c_str());
    std::printf("  %lld param B + %lld slab B + %lld scratch B\n",
                static_cast<long long>(net->param_bytes()),
                static_cast<long long>(plan.slab_bytes()),
                static_cast<long long>(plan.peak_scratch_bytes()));
  }
  return 0;
}

int fleet_check_mode(const Args& a) {
  // A flagship, a mid-tier and an entry device by default: distinct speeds
  // AND distinct RAM budgets, so placement has real decisions to make.
  const std::vector<std::string> profiles =
      a.profiles.empty() ? std::vector<std::string>{"sd855", "sd660", "sd625"}
                         : a.profiles;

  models::ZooOptions zoo;
  zoo.shrink_log2 = a.shrink;
  const auto spec = models::spec_by_name(a.model, zoo, a.classes);
  auto net = core::convert_to_phonebit(core::FloatModel::random(spec, a.seed));
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};

  std::vector<std::string> paths;
  for (const std::string& key : profiles) {
    const std::string path = a.out + ".fleet_check." + key + ".pba";
    artifact::compile_for_profile(*net, core::EngineOptions{}, desc, key,
                                  path);
    paths.push_back(path);
  }
  auto cleanup = [&paths] {
    for (const std::string& p : paths) std::remove(p.c_str());
  };

  // Steady traffic tight enough to queue every shard, then a burst that
  // overflows every admission queue — spillover first, shed at the rim.
  auto make_workload = [&a, &spec] {
    std::vector<serve::Request> w;
    auto push = [&w, &a, &spec](std::uint64_t seed, double at) {
      serve::Request r;
      r.model = a.model;
      r.input = core::Blob{datasets::random_image(spec.input, a.seed + seed)};
      r.arrival_ms = at;
      w.push_back(std::move(r));
    };
    for (int i = 0; i < 60; ++i) push(100 + i, 0.9 * i);
    for (int i = 0; i < 40; ++i) push(500 + i, 15.0);  // the burst
    return w;
  };
  serve::FaultPlan faults;
  faults.seed = a.seed * 2654435761u + 7;
  faults.transient_rate = 0.1;
  faults.spike_rate = 0.05;
  faults.spike_ms = 2.0;

  auto serve_once = [&](int exec_workers) {
    serve::FleetConfig cfg;
    for (const std::string& key : profiles) {
      cfg.shards.push_back(serve::ShardSpec{std::string{}, key, 2});
    }
    cfg.exec_workers = exec_workers;
    cfg.lanes_per_shard = 2;
    cfg.queue_limit = 3;
    cfg.max_retries = 2;
    cfg.retry_backoff_ms = 0.5;
    serve::FleetServer fleet(cfg, faults, "fleet-check");
    fleet.load_model(a.model, paths);
    return fleet.run(make_workload());
  };

  // The fleet contract: placement is a pure function of (workload, config,
  // faults) — real execution parallelism must change NOTHING, including
  // which shard every request landed on.
  const serve::FleetSummary f2 = serve_once(2);
  const serve::FleetSummary f4 = serve_once(4);
  if (f2.ok + f2.shed + f2.deadline_exceeded + f2.failed != f2.requests) {
    std::fprintf(stderr, "fleet-check: lost requests in the accounting\n");
    cleanup();
    return 1;
  }
  if (f2.ok != f4.ok || f2.shed != f4.shed ||
      f2.deadline_exceeded != f4.deadline_exceeded ||
      f2.failed != f4.failed || f2.retries != f4.retries ||
      f2.spillovers != f4.spillovers || f2.assignment != f4.assignment) {
    std::fprintf(stderr,
                 "fleet-check: accounting drifted across worker counts\n");
    cleanup();
    return 1;
  }
  for (std::size_t i = 0; i < f2.results.size(); ++i) {
    const auto& r2 = f2.results[i];
    const auto& r4 = f4.results[i];
    if (r2.status.code != r4.status.code || r2.shard != r4.shard ||
        r2.spillovers != r4.spillovers || r2.latency_ms != r4.latency_ms) {
      std::fprintf(stderr, "fleet-check: request %zu verdict drifted\n", i);
      cleanup();
      return 1;
    }
    if (r2.status.ok() && !outputs_bitexact(r2.result, r4.result)) {
      std::fprintf(stderr, "fleet-check: request %zu output drifted\n", i);
      cleanup();
      return 1;
    }
  }
  int shards_used = 0;
  for (const int n : f2.assignment) shards_used += n > 0 ? 1 : 0;
  if (f2.spillovers == 0 || f2.shed == 0 || f2.retries == 0 ||
      shards_used < 2) {
    std::fprintf(stderr,
                 "fleet-check: trace failed to exercise placement "
                 "(spillovers %d, shed %d, retries %d, shards used %d)\n",
                 f2.spillovers, f2.shed, f2.retries, shards_used);
    cleanup();
    return 1;
  }
  cleanup();
  std::printf("fleet-check: ok — %d requests over %zu profiles: %d ok / %d "
              "shed / %d deadline / %d failed, %d retries, %d spillovers; "
              "assignment [",
              f2.requests, profiles.size(), f2.ok, f2.shed,
              f2.deadline_exceeded, f2.failed, f2.retries, f2.spillovers);
  for (std::size_t i = 0; i < f2.assignment.size(); ++i) {
    std::printf("%s%s=%d", i ? " " : "", profiles[i].c_str(),
                f2.assignment[i]);
  }
  std::printf("] bit-identical at 2 and 4 workers\n");
  return 0;
}

/// compress-stats: the per-layer weight-compression table (DESIGN.md §12).
int compress_stats_mode(const Args& a) {
  Shape input;
  auto net = build_network(a, input);
  std::printf("%-10s %8s %8s %8s %8s %8s %8s %10s %10s %7s\n", "layer",
              "filters", "k_words", "unique", "dups", "dfilt", "dwords",
              "raw_B", "enc_B", "ratio");
  std::int64_t raw_total = 0, enc_total = 0;
  for (const auto& layer : net->layers()) {
    const auto* conv = dynamic_cast<const core::BinaryConv2d*>(layer.get());
    if (conv == nullptr) continue;
    const bitpack::CompressStats& cs = conv->compressed_bank().stats();
    // Storage never grows: an incompressible bank ships raw (mode 0).
    const std::int64_t enc = std::min(cs.encoded_bytes, cs.raw_bytes);
    raw_total += cs.raw_bytes;
    enc_total += enc;
    std::printf("%-10s %8lld %8lld %8lld %8lld %8lld %8lld %10lld %10lld "
                "%6.2fx\n",
                conv->name().c_str(), static_cast<long long>(cs.filters),
                static_cast<long long>(cs.k_words),
                static_cast<long long>(cs.unique_rows),
                static_cast<long long>(cs.exact_dups),
                static_cast<long long>(cs.delta_filters),
                static_cast<long long>(cs.delta_words),
                static_cast<long long>(cs.raw_bytes),
                static_cast<long long>(enc),
                static_cast<double>(cs.raw_bytes) /
                    static_cast<double>(enc));
  }
  if (raw_total == 0) {
    std::printf("(no binary conv layers)\n");
    return 0;
  }
  std::printf("total: %lld -> %lld weight bytes (%.2fx)\n",
              static_cast<long long>(raw_total),
              static_cast<long long>(enc_total),
              static_cast<double>(raw_total) /
                  static_cast<double>(enc_total));
  return 0;
}

int dump_mode(const Args& a) {
  if (a.file.empty()) return usage();
  for (const auto& sec : artifact::section_table(a.file)) {
    std::printf("section %-8s @%-8lld %lld bytes\n",
                artifact::section_name(sec.tag),
                static_cast<long long>(sec.body_offset),
                static_cast<long long>(sec.body_bytes));
  }
  const artifact::LoadedArtifact art = artifact::load(a.file);
  std::printf("network '%s': %zu layers, %lld param bytes\n",
              art.network->name().c_str(), art.network->size(),
              static_cast<long long>(art.network->param_bytes()));
  std::printf("target profile: %s\n",
              art.target_profile.empty() ? "(none)"
                                         : art.target_profile.c_str());
  // Per-layer weight-compression summary for compressing artifacts (the
  // banks here are the loader-adopted ones — nothing re-clusters).
  if (art.plan.options().weight_compress != core::WeightCompress::kOff) {
    for (const auto& layer : art.network->layers()) {
      const auto* conv =
          dynamic_cast<const core::BinaryConv2d*>(layer.get());
      if (conv == nullptr) continue;
      const bitpack::CompressStats& cs = conv->compressed_bank().stats();
      const std::int64_t enc = std::min(cs.encoded_bytes, cs.raw_bytes);
      std::printf("weights %-10s %lld unique rows / %lld filters, "
                  "%lld -> %lld B (%.2fx)\n",
                  conv->name().c_str(),
                  static_cast<long long>(cs.unique_rows),
                  static_cast<long long>(cs.filters),
                  static_cast<long long>(cs.raw_bytes),
                  static_cast<long long>(enc),
                  static_cast<double>(cs.raw_bytes) /
                      static_cast<double>(enc));
    }
  }
  std::printf("%s", art.plan.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();
  try {
    if (a.mode == "compile") return compile_mode(a, /*selfcheck=*/false);
    if (a.mode == "selfcheck") return compile_mode(a, /*selfcheck=*/true);
    if (a.mode == "serve-check") return serve_check_mode(a);
    if (a.mode == "cascade-check") return cascade_check_mode(a);
    if (a.mode == "compile-fleet") return compile_fleet_mode(a);
    if (a.mode == "fleet-check") return fleet_check_mode(a);
    if (a.mode == "compress-stats") return compress_stats_mode(a);
    if (a.mode == "dump") return dump_mode(a);
  } catch (const phonebit::Error& e) {
    std::fprintf(stderr, "pbc: %s\n", e.what());
    return 1;
  }
  return usage();
}
