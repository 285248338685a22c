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

/// Runs the conv once under `opts` with the row-fused schedule pinned;
/// returns the modeled device ms.
inline double run_conv(const ConvFixture& fx, core::EngineOptions opts) {
  static auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  opts.conv_path = core::ConvPathPreference::kRowFused;
  core::Engine engine(device, opts);
  auto session = engine.create_session();
  auto ctx = session.context();
  core::BinaryConv2d conv("conv", fx.weights, fx.bn, {}, fx.geom);
  conv.forward(ctx, core::Blob{fx.input});
  return session.queue().total_modeled_ms();
}

/// Benchmark loop shared by every ablation binary.
inline void run_ablation(benchmark::State& state, const ConvFixture& fx,
                         const core::EngineOptions& opts) {
  double modeled = 0.0;
  for (auto _ : state) {
    modeled = run_conv(fx, opts);
    benchmark::DoNotOptimize(modeled);
  }
  state.counters["modeled_ms"] = modeled;
}

}  // namespace phonebit::bench
