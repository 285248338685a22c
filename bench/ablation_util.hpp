// PhoneBit ablation benches — shared fixture.
//
// Each ablation toggles exactly one engine option on a representative
// middle-layer binary convolution (26x26, C channels, 3x3) and reports both
// real host execution time (google-benchmark's measurement) and the modeled
// device time on the simulated Snapdragon 855 (the `modeled_ms` counter).
// Every arm compiles the paper's row-fused schedule (paths A-C), never the
// bit-GEMM lowering, so an "on" arm is path A.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.hpp"
#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"

namespace phonebit::bench {

struct ConvFixture {
  bitpack::PackedTensor input;
  bitpack::PackedTensor weights;
  std::vector<core::BatchNormParams> bn;
  ConvGeometry geom;

  static ConvFixture make(std::int64_t hw, std::int64_t c_in,
                          std::int64_t c_out) {
    Rng rng(99);
    FloatTensor in(Shape{1, hw, hw, c_in}, Layout::kNHWC);
    FloatTensor w(Shape{c_out, 3, 3, c_in}, Layout::kNHWC);
    for (std::int64_t i = 0; i < in.elems(); ++i) in.data()[i] = rng.sign();
    for (std::int64_t i = 0; i < w.elems(); ++i) w.data()[i] = rng.sign();
    std::vector<core::BatchNormParams> bn;
    for (std::int64_t c = 0; c < c_out; ++c) {
      bn.push_back({rng.uniform(0.3f, 1.5f) * rng.sign(), rng.normal(),
                    rng.normal() * 3.0f, rng.uniform(0.5f, 2.0f)});
    }
    ConvGeometry g;
    g.pad_h = g.pad_w = 1;
    return ConvFixture{bitpack::pack_signs(in), bitpack::pack_filter_signs(w),
                       std::move(bn), g};
  }
};

/// Benchmark loop shared by every ablation binary: compiles the conv once
/// under `opts` with the row-fused schedule pinned, then times its plan's
/// run and reports the modeled device ms.
inline void run_ablation(benchmark::State& state, const ConvFixture& fx,
                         core::EngineOptions opts) {
  static auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  opts.conv_path = core::ConvPathPreference::kRowFused;
  const core::Blob input{fx.input};
  const LayerPlan conv = compile_layer<core::BinaryConv2d>(
      opts, input, "conv", fx.weights, fx.bn, std::vector<float>{}, fx.geom);
  core::Engine engine(device);
  auto session = engine.create_session();
  double modeled = 0.0;
  for (auto _ : state) {
    session.reset_profile();
    modeled = conv.plan.run(session, input).modeled_ms;
    benchmark::DoNotOptimize(modeled);
  }
  state.counters["modeled_ms"] = modeled;
}

}  // namespace phonebit::bench
