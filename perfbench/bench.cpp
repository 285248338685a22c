// perfbench — host wall-clock benchmark of the compiled PhoneBit engine.
//
// Usage:
//   perfbench --workload <yolo416|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--exec-workers <n>]
//
// The benchmark drives the engine only through its public API and times
// every layer from outside: it wraps Engine::load_artifact,
// ExecutionPlan::run, serve::ModelServer::run and serve::BatchRunner::run in
// steady_clock spans and reads the public result fields (ForwardResult,
// LayerReport, ExecutionPlan::steps(), ServerSummary). Every timed output is
// compared bit for bit with a reference computed once at set-up through a
// different kernel family (conv_path=kRowFused, weight_compress=kOff).
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. A human-readable summary (sample counts, the percentile
// each tail reports) goes to stderr. README.md defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <sched.h>

#include "common/rng.hpp"
#include "core/artifact.hpp"
#include "core/binary_conv.hpp"
#include "core/converter.hpp"
#include "core/dense.hpp"
#include "core/engine.hpp"
#include "core/float_model.hpp"
#include "core/input_conv.hpp"
#include "core/plan.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "oclsim/device_profile.hpp"
#include "serve/batch_runner.hpp"
#include "serve/model_server.hpp"
#include "serve/virtual_time.hpp"

namespace {

namespace pb = phonebit;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed benchmark configuration. Changing any of these changes what the
// benchmark measures, so they are constants, not flags.

/// Device worker threads of the single-stream workload (yolo416). With one
/// thread a forward runs inline and never waits on another vCPU; request k
/// is pinned to the k-th allowed CPU, round robin, so the median averages
/// the vCPUs' speeds instead of taking one vCPU's. On a shared 4-vCPU host,
/// 4-thread forwards (which wait at every launch for their slowest worker)
/// moved per-run medians 32% between quartiles in a busy period, while
/// serve_mix's single-threaded workers moved 4% over the same period.
constexpr int kStreamDeviceThreads = 1;
/// Device worker threads under serve_mix: request-level parallelism only,
/// so at most exec_workers threads compute at once.
constexpr int kServeDeviceThreads = 1;
/// Upper bound on serve_mix's request workers (also capped at nproc).
constexpr int kServeMaxWorkers = 4;
/// Device threads of the reference engine (untimed set-up work only).
constexpr int kReferenceDeviceThreads = 4;

/// Set-up cycles (load_artifact + first run on a fresh engine) repeat until
/// both minimums are met; setup_s is their median.
constexpr int kSetupMinCycles = 5;
constexpr double kSetupMinSeconds = 4.0;
/// Distinct inputs per model; references are precomputed for each.
constexpr int kInputPool = 4;
/// Fixed seed of the synthetic weights (the model is not the workload).
constexpr std::uint64_t kWeightSeed = 2020;

// serve_mix traffic. A trace holds exactly kTraceRequests requests,
// kYoloRequests of them for the detector, in a seeded order, with seeded
// Poisson arrivals.
constexpr int kTraceRequests = 1000;
constexpr int kYoloRequests = 250;
/// Reference arrival rate (virtual requests per virtual second).
constexpr double kReferenceRate = 2000.0;
/// Capacity: the highest ladder rate at which at least kCapacityShare of the
/// requests are Ok with virtual latency at most kLatencyLimitMs.
constexpr double kRateLadder[] = {1000.0, 2000.0, 3000.0, 3500.0,
                                  4000.0, 5000.0, 6000.0};
constexpr double kLatencyLimitMs = 12.0;
constexpr double kCapacityShare = 0.90;

// Tails. Each tail is the highest percentile with at least 10 samples
// beyond it at the workload's guaranteed minimum sample count; the timed
// loop runs past --seconds until that minimum is reached, so the percentile
// a tail reports never changes with the machine's speed.
constexpr int kStreamTailQ = 90;
constexpr std::size_t kStreamMinSamples = 100;
constexpr int kServeTailQ = 99;  // per-request and virtual: 1000 per trace
constexpr std::size_t kServeMinServes = 3;

// ---------------------------------------------------------------------------
// Statistics.

/// `n` threads, but never more than the machine's hardware threads.
int at_most_nproc(int n) {
  return std::min(n, std::max(1, static_cast<int>(
                                     std::thread::hardware_concurrency())));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median and the tail_q-th percentile of a sample, and its size.
struct Dist {
  double p50 = 0.0;
  double tail = 0.0;
  int tail_q = 50;
  std::size_t n = 0;
};

Dist summarize(std::vector<double> v, int tail_q = 50) {
  std::sort(v.begin(), v.end());
  Dist d;
  d.n = v.size();
  d.tail_q = tail_q;
  d.p50 = pb::serve::percentile(v, 50.0);
  d.tail = pb::serve::percentile(v, tail_q);
  return d;
}

double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

// ---------------------------------------------------------------------------
// Trace: spans kept in memory, written once as Chrome trace-event JSON.

class Trace {
 public:
  explicit Trace(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 16);
  }

  /// Records a complete span [a, b] for request `req` (-1: none).
  void span(const std::string& name, Clock::time_point a, Clock::time_point b,
            std::int64_t req, std::string args = {}) {
    if (!on_) return;
    spans_.push_back(Span{name, kHostTrack, ms_between(origin_, a) * 1e3,
                          ms_between(a, b) * 1e3, req, std::move(args)});
  }

  /// Records a span in virtual time (a serving decision), on its own track:
  /// `start_ms` and `dur_ms` are virtual milliseconds since trace start.
  void virtual_span(const std::string& name, double start_ms, double dur_ms,
                    std::int64_t req, std::string args) {
    if (!on_) return;
    spans_.push_back(Span{name, kVirtualTrack, start_ms * 1e3, dur_ms * 1e3,
                          req, std::move(args)});
  }

  /// Records each plan step of a forward as a child of the run span that
  /// started at `start`. Steps are laid end to end from the span start with
  /// their reported host time (the report carries durations, not starts).
  void steps(const pb::core::ForwardResult& r, Clock::time_point start,
             std::int64_t req) {
    if (!on_) return;
    double at = ms_between(origin_, start) * 1e3;
    for (const pb::core::LayerReport& l : r.report) {
      char args[160];
      std::snprintf(args, sizeof args,
                    "\"modeled_ms\":%.6f,\"host_ms\":%.6f,\"launches\":%d",
                    l.modeled_ms, l.host_ms, l.launches);
      spans_.push_back(
          Span{"step:" + l.name, kHostTrack, at, l.host_ms * 1e3, req, args});
      at += l.host_ms * 1e3;
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[128];
      std::snprintf(head, sizeof head, "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,", i == 0 ? "" : ",\n",
                    s.track, s.start_us, s.dur_us);
      out << head << "\"name\":\"" << s.name << "\",\"args\":{\"req\":"
          << s.req << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    out << "]}\n";
    PB_CHECK(out.good(), "cannot write trace file " << path);
  }

 private:
  static constexpr int kHostTrack = 1;
  static constexpr int kVirtualTrack = 2;
  struct Span {
    std::string name;
    int track;
    double start_us;
    double dur_us;
    std::int64_t req;
    std::string args;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// One checked request: ok means Ok status and bit-exact output.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    PB_CHECK(std::isfinite(m.value), "metric " << m.name << " is not finite");
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Models, artifacts, inputs and references.

struct ModelDef {
  std::string key;   ///< artifact file stem
  std::string arch;  ///< models::spec_by_name key
  int shrink_log2 = 0;
  bool redundant = false;  ///< FloatModel::random_redundant weights
  pb::core::WeightCompress compress = pb::core::WeightCompress::kOff;
};

/// Compiles `m` to a .pba under `dir` unless a previous run already did.
/// Preparation, never timed: the artifact depends only on the model
/// definition and kWeightSeed, not on the workload seed.
std::string ensure_artifact(const std::string& dir, const ModelDef& m) {
  pb::models::ZooOptions zoo;
  zoo.shrink_log2 = m.shrink_log2;
  const std::string path = dir + "/" + m.key + ".pba";
  if (fs::exists(path)) return path;
  const pb::core::NetworkSpec spec = pb::models::spec_by_name(m.arch, zoo);
  std::unique_ptr<pb::core::Network> net;
  {
    const pb::core::FloatModel trained =
        m.redundant ? pb::core::FloatModel::random_redundant(spec, kWeightSeed)
                    : pb::core::FloatModel::random(spec, kWeightSeed);
    net = pb::core::convert_to_phonebit(trained);
  }
  pb::core::EngineOptions opts;
  opts.weight_compress = m.compress;
  const pb::core::ExecutionPlan plan =
      net->compile(opts, pb::core::BlobDesc{pb::core::BlobKind::kU8,
                                            spec.input});
  const std::string tmp = path + ".tmp";
  pb::artifact::save(*net, plan, tmp);
  fs::rename(tmp, path);
  return path;
}

/// The reference kernel family every timed output is checked against.
pb::core::EngineOptions reference_options() {
  pb::core::EngineOptions o;
  o.conv_path = pb::core::ConvPathPreference::kRowFused;
  o.weight_compress = pb::core::WeightCompress::kOff;
  return o;
}

bool same_output(const pb::core::Blob& a, const pb::core::Blob& b) {
  if (a.index() != b.index()) return false;
  if (const auto* fa = std::get_if<pb::FloatTensor>(&a)) {
    const auto& fb = std::get<pb::FloatTensor>(b);
    return fa->shape() == fb.shape() &&
           std::memcmp(fa->data(), fb.data(),
                       static_cast<std::size_t>(fa->bytes())) == 0;
  }
  if (const auto* ua = std::get_if<pb::U8Tensor>(&a)) {
    const auto& ub = std::get<pb::U8Tensor>(b);
    return ua->shape() == ub.shape() &&
           std::memcmp(ua->data(), ub.data(),
                       static_cast<std::size_t>(ua->bytes())) == 0;
  }
  return std::get<pb::bitpack::PackedTensor>(a) ==
         std::get<pb::bitpack::PackedTensor>(b);
}

/// A model's seeded input pool and the reference output of each input.
struct Pool {
  std::vector<pb::core::Blob> inputs;
  std::vector<pb::core::Blob> refs;
};

Pool make_pool(const std::string& artifact_path, std::uint64_t seed,
               std::uint64_t stream) {
  auto device = std::make_shared<pb::oclsim::Device>(
      pb::oclsim::DeviceProfile::snapdragon855(),
      at_most_nproc(kReferenceDeviceThreads));
  pb::core::Engine engine(device);
  const pb::artifact::LoadedArtifact art = engine.load_artifact(artifact_path);
  const pb::core::ExecutionPlan ref =
      art.network->compile(reference_options(), art.plan.input());
  pb::core::ExecSession session = engine.create_session();
  Pool pool;
  for (int i = 0; i < kInputPool; ++i) {
    pool.inputs.emplace_back(pb::datasets::random_image(
        art.plan.input().shape, seed * 1000003u + stream * 101u +
                                    static_cast<std::uint64_t>(i)));
    session.reset_profile();
    pool.refs.push_back(ref.run(session, pool.inputs.back()).output);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Per-forward layer attribution (from ExecutionPlan::steps() + LayerReport).

struct LayerTimes {
  double input_conv_ms = 0.0;
  double input_conv_modeled_ms = 0.0;
  double binary_conv_ms = 0.0;
  double dense_ms = 0.0;
  int launches = 0;
};

LayerTimes attribute(const pb::core::ExecutionPlan& plan,
                     const pb::core::ForwardResult& r) {
  LayerTimes t;
  const auto& steps = plan.steps();
  PB_CHECK(steps.size() == r.report.size(), "report/step count mismatch");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const pb::core::Layer* l = steps[i].layer;
    const pb::core::LayerReport& rep = r.report[i];
    t.launches += rep.launches;
    if (dynamic_cast<const pb::core::InputConv2d*>(l) != nullptr) {
      t.input_conv_ms += rep.host_ms;
      t.input_conv_modeled_ms += rep.modeled_ms;
    } else if (dynamic_cast<const pb::core::BinaryConv2d*>(l) != nullptr) {
      t.binary_conv_ms += rep.host_ms;
    } else if (dynamic_cast<const pb::core::BinaryDense*>(l) != nullptr ||
               dynamic_cast<const pb::core::FloatDense*>(l) != nullptr) {
      t.dense_ms += rep.host_ms;
    }
  }
  return t;
}

using Plans = std::vector<const pb::core::ExecutionPlan*>;

/// Steps that selected partial-popcount reuse kernels, over `plans`.
int reuse_steps(const Plans& plans) {
  int n = 0;
  for (const pb::core::ExecutionPlan* p : plans) {
    for (const pb::core::PlanStep& s : p->steps()) n += s.variant.reuse;
  }
  return n;
}

/// Raw over encoded filter-bank bytes of the binary convs of `plans`; 1
/// when every plan stores raw weights (weight_compress=kOff).
double compress_ratio(const Plans& plans) {
  double raw = 0.0, encoded = 0.0;
  for (const pb::core::ExecutionPlan* p : plans) {
    if (p->options().weight_compress == pb::core::WeightCompress::kOff) {
      continue;
    }
    for (const pb::core::PlanStep& s : p->steps()) {
      if (const auto* c =
              dynamic_cast<const pb::core::BinaryConv2d*>(s.layer)) {
        raw += static_cast<double>(c->compressed_bank().stats().raw_bytes);
        encoded +=
            static_cast<double>(c->compressed_bank().stats().encoded_bytes);
      }
    }
  }
  return encoded > 0.0 ? raw / encoded : 1.0;
}

/// Activation slab plus scratch peak of `plans`, in bytes.
double arena_bytes(const Plans& plans) {
  double b = 0.0;
  for (const pb::core::ExecutionPlan* p : plans) {
    b += static_cast<double>(p->slab_bytes() + p->peak_scratch_bytes());
  }
  return b;
}

double file_bytes(const std::vector<std::string>& paths) {
  double b = 0.0;
  for (const std::string& p : paths) {
    b += static_cast<double>(fs::file_size(p));
  }
  return b;
}

/// Per-layer samples of the traced runs, one value per forward.
struct LayerSamples {
  std::vector<double> run_ms, kernel_ms, overhead_ms, launches;
  std::vector<double> input_conv_ms, input_conv_share, input_conv_hpm;
  std::vector<double> binary_conv_ms, dense_ms;

  void add(const pb::core::ExecutionPlan& plan,
           const pb::core::ForwardResult& r, double run) {
    const LayerTimes t = attribute(plan, r);
    run_ms.push_back(run);
    kernel_ms.push_back(r.host_ms);
    overhead_ms.push_back(run - r.host_ms);
    launches.push_back(t.launches);
    input_conv_ms.push_back(t.input_conv_ms);
    input_conv_share.push_back(run > 0.0 ? t.input_conv_ms / run : 0.0);
    input_conv_hpm.push_back(t.input_conv_modeled_ms > 0.0
                                 ? t.input_conv_ms / t.input_conv_modeled_ms
                                 : 0.0);
    binary_conv_ms.push_back(t.binary_conv_ms);
    dense_ms.push_back(t.dense_ms);
  }

  void report(Result& out) const {
    out.add("core.plan.run_ms", median(run_ms), "ms");
    out.add("core.plan.kernel_ms", median(kernel_ms), "ms");
    out.add("core.plan.overhead_ms", median(overhead_ms), "ms");
    out.add("core.plan.launches", median(launches), "count");
    out.add("core.input_conv.ms", median(input_conv_ms), "ms");
    out.add("core.input_conv.share", median(input_conv_share), "ratio");
    out.add("core.input_conv.host_per_modeled", median(input_conv_hpm),
            "ratio");
    out.add("core.binary_conv.ms", median(binary_conv_ms), "ms");
    out.add("core.dense.ms", median(dense_ms), "ms");
  }
};

/// The serve.model_server.* counts of one ServerSummary.
struct ServerCounts {
  double ok = 0, shed = 0, deadline_exceeded = 0, failed = 0, retries = 0,
         max_queue_depth = 0, attempt_yield = 0, queue_p50_ms = 0;
};

ServerCounts server_counts(const pb::serve::ServerSummary& s) {
  ServerCounts c;
  c.ok = s.ok;
  c.shed = s.shed;
  c.deadline_exceeded = s.deadline_exceeded;
  c.failed = s.failed;
  c.retries = s.retries;
  c.max_queue_depth = s.max_queue_depth;
  double attempts = 0;
  std::vector<double> queue;
  for (const pb::serve::RequestResult& r : s.results) {
    attempts += r.attempts;
    if (r.status.ok()) queue.push_back(r.queue_ms);
  }
  c.attempt_yield = attempts > 0 ? s.ok / attempts : 0.0;
  c.queue_p50_ms = median(std::move(queue));
  return c;
}

void report_server(Result& out, const ServerCounts& c, double run_ms,
                   double overhead_ms) {
  out.add("serve.model_server.run_ms", run_ms, "ms");
  out.add("serve.model_server.overhead_ms", overhead_ms, "ms");
  out.add("serve.model_server.ok", c.ok, "count");
  out.add("serve.model_server.shed", c.shed, "count");
  out.add("serve.model_server.deadline_exceeded", c.deadline_exceeded,
          "count");
  out.add("serve.model_server.failed", c.failed, "count");
  out.add("serve.model_server.retries", c.retries, "count");
  out.add("serve.model_server.max_queue_depth", c.max_queue_depth, "count");
  out.add("serve.model_server.attempt_yield", c.attempt_yield, "ratio");
  out.add("serve.model_server.queue_p50_ms", c.queue_p50_ms, "vms");
}

/// Set-up cycles: fresh Engine, load_artifact, first run on a fresh session,
/// each first output checked against its reference.
struct SetupSamples {
  std::vector<double> total_s, load_ms, first_run_ms;
};

void setup_cycle(const std::shared_ptr<pb::oclsim::Device>& device,
                 const std::vector<std::string>& paths,
                 const std::vector<const Pool*>& pools, int cycle,
                 SetupSamples& s, Result& out, Trace& trace) {
  double load = 0.0, first = 0.0;
  for (std::size_t m = 0; m < paths.size(); ++m) {
    pb::core::Engine engine(device);
    const auto t0 = Clock::now();
    const pb::artifact::LoadedArtifact art = engine.load_artifact(paths[m]);
    const auto t1 = Clock::now();
    pb::core::ExecSession session = engine.create_session();
    const std::size_t i = static_cast<std::size_t>(cycle) % kInputPool;
    const pb::core::ForwardResult r =
        art.plan.run(session, pools[m]->inputs[i]);
    const auto t2 = Clock::now();
    trace.span("artifact.load", t0, t1, -1);
    trace.span("core.plan.first_run", t1, t2, -1);
    out.check(same_output(r.output, pools[m]->refs[i]));
    load += ms_between(t0, t1);
    first += ms_between(t1, t2);
  }
  s.load_ms.push_back(load);
  s.first_run_ms.push_back(first);
  s.total_s.push_back((load + first) / 1e3);
}

/// Restores the calling thread's CPU affinity on scope exit; pin() moves the
/// thread between the CPUs it was allowed at construction.
class AffinityGuard {
 public:
  AffinityGuard()
      : saved_ok_(sched_getaffinity(0, sizeof saved_, &saved_) == 0) {}
  ~AffinityGuard() {
    if (saved_ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

  /// Pins the calling thread to the k-th allowed CPU, round robin (a no-op
  /// when the mask is unreadable).
  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  bool saved_ok_;
  std::vector<int> cpus_ = allowed();

  std::vector<int> allowed() const {
    std::vector<int> out;
    for (int c = 0; saved_ok_ && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) out.push_back(c);
    }
    return out;
  }
};

/// Runs set-up cycles until at least kSetupMinCycles cycles and
/// kSetupMinSeconds have passed. Cycle c runs pinned to the c-th allowed
/// CPU, round robin: an inline cycle (one device thread) takes the speed of
/// its vCPU, which on a shared host sat at 11 or 19 ms for seconds at a
/// time, and an unpinned thread stays on one vCPU, so the median flipped
/// between the two from run to run.
SetupSamples run_setup(const std::shared_ptr<pb::oclsim::Device>& device,
                       const std::vector<std::string>& paths,
                       const std::vector<const Pool*>& pools, Result& out,
                       Trace& trace) {
  const AffinityGuard affinity;
  const auto end =
      Clock::now() + std::chrono::duration<double>(kSetupMinSeconds);
  SetupSamples s;
  for (int c = 0; c < kSetupMinCycles || Clock::now() < end; ++c) {
    affinity.pin(static_cast<std::size_t>(c));
    setup_cycle(device, paths, pools, c, s, out, trace);
  }
  return s;
}

/// The end-to-end metrics of one untraced run.
struct EndToEnd {
  Dist host;  ///< host wall time per request
  double throughput_rps = 0.0;
  double modeled_ms = 0.0;
  double vlatency_p50_ms = 0.0;
  double vlatency_tail_ms = 0.0;
  double capacity_rps = 0.0;
};

void report_end_to_end(Result& out, const EndToEnd& e,
                       const std::vector<std::string>& paths,
                       const Plans& plans, const SetupSamples& setup) {
  out.add("latency_p50_ms", e.host.p50, "ms");
  out.add("latency_tail_ms", e.host.tail, "ms");
  out.add("throughput_rps", e.throughput_rps, "1/s");
  out.add("modeled_ms", e.modeled_ms, "vms");
  out.add("vlatency_p50_ms", e.vlatency_p50_ms, "vms");
  out.add("vlatency_tail_ms", e.vlatency_tail_ms, "vms");
  out.add("capacity_rps", e.capacity_rps, "1/vs");
  out.add("model_bytes", file_bytes(paths), "bytes");
  out.add("arena_bytes", arena_bytes(plans), "bytes");
  out.add("ok_share",
          static_cast<double>(out.attempted - out.failed) /
              static_cast<double>(out.attempted),
          "ratio");
  out.add("setup_s", median(setup.total_s), "s");
}

/// The serve.model_server.* values of a traced run (all 0 when no server
/// runs).
struct ServerLayer {
  ServerCounts counts;
  double run_ms = 0.0;
  double overhead_ms = 0.0;
};

void report_per_layer(Result& out, const SetupSamples& setup,
                      const LayerSamples& layers, const Plans& plans,
                      const ServerLayer& server, double trace_overhead_ms) {
  out.add("artifact.load_ms", median(setup.load_ms), "ms");
  out.add("core.plan.first_run_ms", median(setup.first_run_ms), "ms");
  layers.report(out);
  out.add("core.binary_conv.reuse_steps", reuse_steps(plans), "count");
  out.add("bitpack.compress.ratio", compress_ratio(plans), "ratio");
  report_server(out, server.counts, server.run_ms, server.overhead_ms);
  out.add("trace.overhead_ms", trace_overhead_ms, "ms");
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  int exec_workers = 0;
};

std::string trace_path(const Args& a) {
  return a.work_dir + "/trace-" + a.workload + "-seed" +
         std::to_string(a.seed) + ".json";
}

void log_dist(const char* what, const Dist& d, const char* unit) {
  std::fprintf(stderr, "perfbench: %s n=%zu p50=%.4f %s p%d=%.4f %s\n", what,
               d.n, d.p50, unit, d.tail_q, d.tail, unit);
}

/// yolo416: one client in a closed loop.
Result run_single_stream(const Args& a, const ModelDef& model) {
  Result out;
  const std::string path = ensure_artifact(a.work_dir, model);
  const Pool pool = make_pool(path, a.seed, 0);
  auto device = std::make_shared<pb::oclsim::Device>(
      pb::oclsim::DeviceProfile::snapdragon855(),
      at_most_nproc(kStreamDeviceThreads));
  Trace trace(a.trace);

  const SetupSamples setup = run_setup(device, {path}, {&pool}, out, trace);

  pb::core::Engine engine(device);
  const pb::artifact::LoadedArtifact art = engine.load_artifact(path);
  const pb::core::ExecutionPlan& plan = art.plan;
  pb::core::ExecSession session = engine.create_session();

  // Closed loop, one client, request k pinned to the k-th CPU. Under
  // --trace 1 every other request is traced so the traced and untraced
  // halves see the same machine state.
  const AffinityGuard affinity;
  std::vector<double> lat, traced_lat;
  LayerSamples layers;
  double modeled = 0.0;
  const auto stop = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::int64_t k = 0;
       Clock::now() < stop || lat.size() < kStreamMinSamples; ++k) {
    const std::size_t i = static_cast<std::size_t>(k) % kInputPool;
    const bool traced = a.trace && (k % 2 == 1);
    affinity.pin(static_cast<std::size_t>(k));
    session.reset_profile();
    const auto t0 = Clock::now();
    const pb::core::ForwardResult r = plan.run(session, pool.inputs[i]);
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    if (traced) {
      trace.span("core.plan.run", t0, t1, k);
      trace.steps(r, t0, k);
      layers.add(plan, r, ms);
      traced_lat.push_back(ms);
    } else {
      lat.push_back(ms);
    }
    modeled = r.modeled_ms;
    out.check(same_output(r.output, pool.refs[i]));
  }

  const Dist d = summarize(lat, kStreamTailQ);
  log_dist("latency", d, "ms");
  if (!a.trace) {
    // A closed loop with one client never queues: its virtual latency is
    // the modeled forward, and the virtual capacity of one lane is its
    // inverse.
    double wall_s = 0.0;
    for (const double ms : lat) wall_s += ms / 1e3;
    report_end_to_end(out,
                      EndToEnd{d, static_cast<double>(lat.size()) / wall_s,
                               modeled, modeled, modeled, 1000.0 / modeled},
                      {path}, {&plan}, setup);
    return out;
  }
  const Dist td = summarize(traced_lat, kStreamTailQ);
  log_dist("traced latency", td, "ms");
  report_per_layer(out, setup, layers, {&plan}, ServerLayer{}, td.p50 - d.p50);
  trace.write(trace_path(a));
  return out;
}

const char* const kServeModels[] = {"quicknet", "yolo_s2"};

/// The serve_mix trace: a fixed number of detector requests shuffled among
/// the classifier requests, each drawing its input from its model's pool,
/// with Poisson arrivals. The arrival gaps are drawn at unit rate and
/// scaled, so every ladder rate sees the same request order and the same
/// relative spacing.
struct Mix {
  struct Item {
    int model = 0;  ///< index into kServeModels and pools
    std::size_t input = 0;
    double unit_arrival = 0.0;  ///< arrival time at 1 request per virtual ms
  };
  std::vector<Item> items;
  const Pool* pools[2] = {};

  Mix(std::uint64_t seed, const Pool& classifier, const Pool& detector)
      : items(kTraceRequests), pools{&classifier, &detector} {
    pb::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17u);
    for (int i = 0; i < kYoloRequests; ++i) {
      items[static_cast<std::size_t>(i)].model = 1;
    }
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i].model, items[rng.below(i + 1)].model);
    }
    double at = 0.0;
    for (Item& it : items) {
      it.input = rng.below(kInputPool);
      // Unit-rate exponential gap from a 53-bit uniform in (0, 1].
      const double u = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
      at += -std::log(u);
      it.unit_arrival = at;
    }
  }

  const pb::core::Blob& input(std::size_t i) const {
    return pools[items[i].model]->inputs[items[i].input];
  }
  const pb::core::Blob& ref(std::size_t i) const {
    return pools[items[i].model]->refs[items[i].input];
  }
  double arrival_ms(std::size_t i, double rate) const {
    return items[i].unit_arrival * 1000.0 / rate;
  }

  /// The trace at `rate` requests per virtual second.
  std::vector<pb::serve::Request> requests(double rate) const {
    std::vector<pb::serve::Request> w(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      w[i].model = kServeModels[items[i].model];
      w[i].input = input(i);
      w[i].arrival_ms = arrival_ms(i, rate);
    }
    return w;
  }
};

/// The highest ladder rate at which at least kCapacityShare of the trace is
/// Ok within kLatencyLimitMs. Marks `out` incorrect when the ladder does not
/// bracket the knee (lowest rate passes, highest fails).
double capacity_rps(pb::serve::ModelServer& server, const Mix& mix,
                    Result& out) {
  double capacity = 0.0;
  bool passed_lowest = false, failed_highest = false;
  for (const double rate : kRateLadder) {
    const pb::serve::ServerSummary s = server.run(mix.requests(rate));
    int within = 0;
    for (const pb::serve::RequestResult& r : s.results) {
      within += r.status.ok() && r.latency_ms <= kLatencyLimitMs;
    }
    const bool pass = within >= kCapacityShare * kTraceRequests;
    if (pass) capacity = rate;
    if (rate == kRateLadder[0]) passed_lowest = pass;
    failed_highest = !pass;
    std::fprintf(stderr, "perfbench: rate %.0f/vs: %d/%d ok within %.1f vms\n",
                 rate, within, kTraceRequests, kLatencyLimitMs);
  }
  if (!passed_lowest || !failed_highest) {
    std::fprintf(stderr, "perfbench: rate ladder does not bracket the knee\n");
    out.correct = false;
  }
  return capacity;
}

/// Records each request of a reference-rate serve in virtual time.
void trace_requests(Trace& trace, const Mix& mix,
                    const pb::serve::ServerSummary& s) {
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    const pb::serve::RequestResult& r = s.results[i];
    char args[160];
    std::snprintf(args, sizeof args,
                  "\"model\":\"%s\",\"status\":\"%s\",\"queue_ms\":%.6f,"
                  "\"attempts\":%d,\"host_ms\":%.6f",
                  kServeModels[mix.items[i].model],
                  pb::serve::status_name(r.status.code), r.queue_ms,
                  r.attempts, r.result.host_ms);
    trace.virtual_span("serve.request", mix.arrival_ms(i, kReferenceRate),
                       r.latency_ms, static_cast<std::int64_t>(i), args);
  }
}

/// Wall time of BatchRunner::run over the requests `s` admitted, grouped as
/// ModelServer groups them: by model, in arrival order.
double batch_runner_ms(
    const std::vector<std::unique_ptr<pb::serve::BatchRunner>>& runners,
    const Mix& mix, const pb::serve::ServerSummary& s, Trace& trace) {
  double ms = 0.0;
  for (std::size_t m = 0; m < runners.size(); ++m) {
    std::vector<pb::core::Blob> inputs;
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      if (mix.items[i].model == static_cast<int>(m) &&
          s.results[i].status.ok()) {
        inputs.push_back(mix.input(i));
      }
    }
    const auto t0 = Clock::now();
    runners[m]->run(std::move(inputs));
    const auto t1 = Clock::now();
    trace.span("serve.batch_runner.run", t0, t1, -1,
               "\"model\":\"" + std::string(kServeModels[m]) + "\"");
    ms += ms_between(t0, t1);
  }
  return ms;
}

/// serve_mix: open-loop Poisson arrivals in virtual time through
/// serve::ModelServer, with deadlines and seeded transient faults.
Result run_serve_mix(const Args& a) {
  Result out;
  const std::vector<std::string> paths = {
      ensure_artifact(a.work_dir, ModelDef{kServeModels[0], "quicknet", 0,
                                           false,
                                           pb::core::WeightCompress::kOff}),
      ensure_artifact(a.work_dir, ModelDef{kServeModels[1], "yolov2-tiny", 2,
                                           true,
                                           pb::core::WeightCompress::kAuto})};
  const Pool classifier = make_pool(paths[0], a.seed, 1);
  const Pool detector = make_pool(paths[1], a.seed, 2);
  const Mix mix(a.seed, classifier, detector);
  const int workers = a.exec_workers > 0 ? a.exec_workers
                                          : at_most_nproc(kServeMaxWorkers);
  Trace trace(a.trace);
  auto device = std::make_shared<pb::oclsim::Device>(
      pb::oclsim::DeviceProfile::snapdragon855(), kServeDeviceThreads);
  const SetupSamples setup =
      run_setup(device, paths, {&classifier, &detector}, out, trace);

  pb::core::Engine engine(device);
  pb::serve::ServerConfig cfg;
  cfg.exec_workers = workers;
  cfg.lanes = 4;
  cfg.queue_limit = 16;
  cfg.max_retries = 4;
  cfg.retry_backoff_ms = 0.25;
  cfg.default_deadline_ms = kLatencyLimitMs;
  // About 25 of the 250 detector requests are spiked, so the p99 virtual
  // latency (the 10th-highest of 1000) is a spiked detector request on
  // every seed rather than flipping between fault classes. Five attempts at
  // 3% leave a request failing with probability 2.4e-8.
  pb::serve::FaultPlan faults;
  faults.seed = a.seed;
  faults.transient_rate = 0.03;
  faults.spike_rate = 0.10;
  faults.spike_ms = 2.0;
  pb::serve::ModelServer server(engine, cfg, faults, "serve_mix");
  for (std::size_t m = 0; m < paths.size(); ++m) {
    server.load_model(kServeModels[m], paths[m]);
  }
  const double capacity = capacity_rps(server, mix, out);

  // The per-layer probes of the traced run: BatchRunner::run over the same
  // admitted inputs on identically configured runners, and direct
  // ExecutionPlan::run of every eighth request on one session.
  std::vector<std::shared_ptr<const pb::artifact::LoadedArtifact>> arts;
  std::vector<std::unique_ptr<pb::serve::BatchRunner>> runners;
  for (const std::string& p : paths) {
    arts.push_back(engine.load_artifact_shared(p));
    if (a.trace) {
      runners.push_back(std::make_unique<pb::serve::BatchRunner>(
          engine, arts.back(), workers));
    }
  }
  pb::core::ExecSession session = engine.create_session();

  // Timed: the reference-rate trace, served again and again. Under
  // --trace 1 every other serve is traced and followed by the probes.
  std::vector<double> lat, traced_lat, rps, server_ms, overhead_ms, vlat;
  double modeled_sum = 0.0;
  ServerCounts counts;
  std::vector<pb::serve::StatusCode> first_status;
  std::vector<double> first_vlat;
  LayerSamples layers;
  const auto stop = Clock::now() + std::chrono::duration<double>(a.seconds);
  std::size_t serves = 0;
  for (std::int64_t k = 0; Clock::now() < stop || serves < kServeMinServes;
       ++k) {
    const bool traced = a.trace && (k % 2 == 1);
    serves += !traced;
    std::vector<pb::serve::Request> w = mix.requests(kReferenceRate);
    const auto t0 = Clock::now();
    const pb::serve::ServerSummary s = server.run(std::move(w));
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);

    // Outputs bit-exact, and every virtual-time decision identical to the
    // first serve of the trace.
    const bool first = first_status.empty();
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      const pb::serve::RequestResult& r = s.results[i];
      out.check(r.status.ok() && same_output(r.result.output, mix.ref(i)));
      if (first) {
        first_status.push_back(r.status.code);
        first_vlat.push_back(r.latency_ms);
      } else if (first_status[i] != r.status.code ||
                 first_vlat[i] != r.latency_ms) {
        out.correct = false;
      }
      if (!r.status.ok()) continue;
      (traced ? traced_lat : lat).push_back(r.result.host_ms);
      if (first) {
        vlat.push_back(r.latency_ms);
        modeled_sum += r.result.modeled_ms;
      }
    }
    if (first) counts = server_counts(s);
    if (!traced) {
      rps.push_back(s.ok / (ms / 1e3));
      continue;
    }

    trace.span("serve.model_server.run", t0, t1, -1);
    trace_requests(trace, mix, s);
    server_ms.push_back(ms);
    overhead_ms.push_back(ms - batch_runner_ms(runners, mix, s, trace));
    for (std::size_t i = 0; i < s.results.size(); i += 8) {
      const pb::core::ExecutionPlan& plan =
          arts[static_cast<std::size_t>(mix.items[i].model)]->plan;
      session.reset_profile();
      const auto p0 = Clock::now();
      const pb::core::ForwardResult r = plan.run(session, mix.input(i));
      const auto p1 = Clock::now();
      trace.span("core.plan.run", p0, p1, static_cast<std::int64_t>(i));
      trace.steps(r, p0, static_cast<std::int64_t>(i));
      layers.add(plan, r, ms_between(p0, p1));
      out.check(same_output(r.output, mix.ref(i)));
    }
  }

  const Dist d = summarize(lat, kServeTailQ);
  log_dist("per-request host latency", d, "ms");
  const Plans plans = {&arts[0]->plan, &arts[1]->plan};
  if (!a.trace) {
    const Dist vd = summarize(vlat, kServeTailQ);
    log_dist("virtual latency", vd, "vms");
    std::fprintf(stderr, "perfbench: %zu trace serves, %d workers\n",
                 rps.size(), workers);
    report_end_to_end(
        out,
        EndToEnd{d, median(rps),
                 modeled_sum / static_cast<double>(vlat.size()), vd.p50,
                 vd.tail, capacity},
        paths, plans, setup);
    return out;
  }
  const Dist td = summarize(traced_lat, kServeTailQ);
  log_dist("traced per-request host latency", td, "ms");
  report_per_layer(out, setup, layers, plans,
                   ServerLayer{counts, median(server_ms), median(overhead_ms)},
                   td.p50 - d.p50);
  trace.write(trace_path(a));
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--exec-workers") {
      a.exec_workers = std::stoi(v);
    } else {
      PB_CHECK(false, "unknown argument " << k);
    }
  }
  PB_CHECK(argc % 2 == 1, "arguments come in --name value pairs");
  PB_CHECK(!a.work_dir.empty(), "--work-dir is required");
  PB_CHECK(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    fs::create_directories(a.work_dir);
    Result r;
    if (a.workload == "yolo416") {
      r = run_single_stream(a, ModelDef{"yolo416", "yolov2-tiny", 0, false,
                                        pb::core::WeightCompress::kOff});
    } else if (a.workload == "serve_mix") {
      r = run_serve_mix(a);
    } else {
      PB_CHECK(false, "unknown workload '" << a.workload << "'");
    }
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
