// Bit-GEMM conv path (path D) + batched (N > 1) forwards.
//
// Differential coverage for the im2col + register-tiled XOR-popcount GEMM
// execution path (DESIGN.md §11):
//   - TrackedGeometries: the four BENCH_kernels.json conv geometries with
//     path D FORCED, bit-exact against the row-fused window schedule (this
//     suite is also the sanitizer smoke: ctest target `bitgemm_smoke` runs
//     `--gtest_filter=*TrackedGeometries*` under ASan and TSan presets).
//   - Zoo-wide network-level D-vs-A bit-exactness, fused and unfused pools.
//   - Batched plans: one N-image forward bit-exact against N separate
//     single-image forwards, N = 1..4.
//   - Artifact (.pba) round trip with path D and a batched descriptor.
//   - Auto-selection sanity: big convs flip to D, tiny convs stay on the
//     window schedule, and the plan dump advertises the choice.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/float_ops.hpp"
#include "core/artifact.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::BlobDesc;
using core::BlobKind;
using core::ConvPathPreference;
using core::EngineOptions;
using core::ExecutionPlan;
using core::FloatModel;

/// The four conv geometries tracked in BENCH_kernels.json (bench_kernels.cpp
/// keeps the same list — a drift here means the smoke no longer covers the
/// perf baseline).
struct TrackedGeom {
  std::int64_t hw, c_in, c_out, k, stride, pad;
};

const std::vector<TrackedGeom>& tracked_geometries() {
  static const std::vector<TrackedGeom> geoms = {
      {26, 256, 256, 3, 1, 1},
      {26, 128, 128, 3, 1, 1},
      {26, 256, 256, 1, 1, 0},
      {56, 64, 64, 7, 2, 3},
  };
  return geoms;
}

/// Runs one BinaryConv2d under `opts` and returns the unpacked ±1 output.
FloatTensor run_conv(const FloatTensor& in, const FloatTensor& w,
                     const std::vector<core::BatchNormParams>& bn,
                     const ConvGeometry& g, const EngineOptions& opts) {
  core::Engine engine(testing::test_device(), opts);
  auto session = engine.create_session();
  auto ctx = session.context();
  core::BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, {}, g);
  auto out = conv.forward(ctx, core::Blob{bitpack::pack_signs(in)});
  return bitpack::unpack_signs(std::get<bitpack::PackedTensor>(out));
}

/// Path D forced vs path A forced on the tracked bench geometries — the
/// layer-level bit-exactness contract behind the perf records, and the
/// sanitizer smoke body (bitgemm_smoke runs exactly this filter).
TEST(BitGemm, TrackedGeometriesMatchRowFused) {
  int idx = 0;
  for (const TrackedGeom& t : tracked_geometries()) {
    const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(idx++);
    // Batch of 2 so the tracked smoke also walks the n-outer im2col loop.
    const FloatTensor in = testing::random_sign_tensor(
        Shape{2, t.hw, t.hw, t.c_in}, seed);
    const FloatTensor w = testing::random_sign_tensor(
        Shape{t.c_out, t.k, t.k, t.c_in}, seed + 1);
    const auto bn = testing::random_bn(t.c_out, seed + 2);
    ConvGeometry g;
    g.kernel_h = g.kernel_w = t.k;
    g.stride_h = g.stride_w = t.stride;
    g.pad_h = g.pad_w = t.pad;

    EngineOptions gemm;
    gemm.conv_path = ConvPathPreference::kGemm;
    EngineOptions fused;
    fused.conv_path = ConvPathPreference::kRowFused;
    const FloatTensor d = run_conv(in, w, bn, g, gemm);
    const FloatTensor a = run_conv(in, w, bn, g, fused);
    EXPECT_TRUE(allclose(d, a, 0.0f))
        << "geometry " << t.hw << "x" << t.hw << " c" << t.c_in << "->"
        << t.c_out << " k" << t.k << "s" << t.stride << "p" << t.pad;
  }
}

/// Path D across awkward geometries the bench does not track: channel
/// counts off the word boundary (zero-padded lanes), stride-2, 1x1, wide
/// pads, and output widths not divisible by the 4-row GEMM tile.
TEST(BitGemm, OddGeometriesMatchRowFused) {
  struct Odd {
    std::int64_t hw, c_in, c_out, k, stride, pad;
  };
  const std::vector<Odd> odds = {
      {9, 40, 16, 3, 1, 1},   // c_in pads the packed word; 9x9 -> 81 = 20*4+1
      {7, 72, 24, 3, 2, 1},   // stride 2, odd output extent
      {6, 64, 8, 1, 1, 0},    // 1x1: im2col degenerates to a copy
      {11, 24, 32, 5, 1, 2},  // k=5 window wider than the pad on both sides
      {5, 128, 16, 3, 1, 2},  // pad 2: whole im2col rows are zero fill
  };
  int idx = 0;
  for (const Odd& t : odds) {
    const std::uint64_t seed = 7100 + static_cast<std::uint64_t>(idx++);
    const FloatTensor in = testing::random_sign_tensor(
        Shape{3, t.hw, t.hw, t.c_in}, seed);
    const FloatTensor w = testing::random_sign_tensor(
        Shape{t.c_out, t.k, t.k, t.c_in}, seed + 1);
    const auto bn = testing::random_bn(t.c_out, seed + 2);
    ConvGeometry g;
    g.kernel_h = g.kernel_w = t.k;
    g.stride_h = g.stride_w = t.stride;
    g.pad_h = g.pad_w = t.pad;

    EngineOptions gemm;
    gemm.conv_path = ConvPathPreference::kGemm;
    EngineOptions fused;
    fused.conv_path = ConvPathPreference::kRowFused;
    EXPECT_TRUE(allclose(run_conv(in, w, bn, g, gemm),
                         run_conv(in, w, bn, g, fused), 0.0f))
        << "odd geometry " << t.hw << "/c" << t.c_in << "->" << t.c_out
        << "/k" << t.k << "s" << t.stride << "p" << t.pad;
  }
}

/// Thresholds exactly on reachable sums and at +-inf, half the gammas
/// negative (testing::tie_bn), under both binarizers: path D must take
/// the same side of every tie as path A (both end in core::binarize_group;
/// BinaryConvOracle checks ties against the scalar Eqn 8 reference). The
/// second geometry's K = 36 words crosses the AVX2 body's 31-step
/// byte-counter flush.
TEST(BitGemm, ThresholdTiesMatchRowFused) {
  struct Tie {
    std::int64_t hw, c_in, c_out, k, stride, pad;
  };
  std::uint64_t seed = 7200;
  for (const Tie t : {Tie{9, 40, 32, 3, 1, 1}, Tie{6, 256, 16, 3, 1, 1}}) {
    const FloatTensor in =
        testing::random_sign_tensor(Shape{2, t.hw, t.hw, t.c_in}, ++seed);
    const FloatTensor w = testing::random_sign_tensor(
        Shape{t.c_out, t.k, t.k, t.c_in}, ++seed);
    ConvGeometry g;
    g.kernel_h = g.kernel_w = t.k;
    g.stride_h = g.stride_w = t.stride;
    g.pad_h = g.pad_w = t.pad;
    // Binary-domain padding is -1 (DESIGN.md §4).
    const FloatTensor x1 = baselines::conv2d_ref(in, w, {}, g, -1.0f);
    const auto bn = testing::tie_bn(x1, ++seed);
    for (const bool branch_free : {true, false}) {
      EngineOptions gemm;
      gemm.conv_path = ConvPathPreference::kGemm;
      gemm.branch_free_binarize = branch_free;
      EngineOptions fused = gemm;
      fused.conv_path = ConvPathPreference::kRowFused;
      EXPECT_TRUE(allclose(run_conv(in, w, bn, g, gemm),
                           run_conv(in, w, bn, g, fused), 0.0f))
          << "c" << t.c_in << "->" << t.c_out << " branch_free "
          << branch_free;
    }
  }
}

/// Network-level, zoo-wide: every model compiled with conv_path=kGemm must
/// produce the same output bits as the row-fused compile — with conv→pool
/// fusion both on (D-selected convs silently de-fuse; outputs must not
/// change) and off.
TEST(BitGemm, ZooWideGemmMatchesRowFused) {
  struct Case {
    std::string name;
    core::NetworkSpec spec;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  cases.push_back({"quicknet", models::quicknet(10), 710});
  models::ZooOptions yolo_zoo;
  yolo_zoo.shrink_log2 = 3;
  cases.push_back({"yolov2-tiny", models::yolov2_tiny(yolo_zoo), 711});
  models::ZooOptions big_zoo;
  big_zoo.shrink_log2 = 4;
  cases.push_back({"alexnet", models::alexnet(big_zoo), 712});
  cases.push_back({"vgg16", models::vgg16(big_zoo), 713});

  for (const Case& c : cases) {
    const FloatModel model = FloatModel::random(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);
    for (const bool fuse_pool : {true, false}) {
      auto run = [&](ConvPathPreference path) {
        EngineOptions opts;
        opts.fuse_conv_pool = fuse_pool;
        opts.conv_path = path;
        core::Engine engine(testing::test_device(), opts);
        const ExecutionPlan plan =
            net->compile(engine, BlobDesc{BlobKind::kU8, image.shape()});
        auto session = engine.create_session();
        return plan.run(session, core::Blob{image}).float_output();
      };
      // Bits only: the schedules differ, so modeled time legitimately moves.
      EXPECT_TRUE(allclose(run(ConvPathPreference::kGemm),
                           run(ConvPathPreference::kRowFused), 0.0f))
          << c.name << (fuse_pool ? " (fused pools)" : " (unfused pools)");
    }
  }
}

/// One batched forward through an N-image compiled plan must reproduce N
/// independent single-image forwards bit-exactly, for N = 1..4, under both
/// the auto planner and forced path D.
TEST(BitGemm, BatchedForwardMatchesSeparateForwards) {
  const FloatModel model = FloatModel::random(models::quicknet(10), 720);
  auto net = core::convert_to_phonebit(model);
  for (const ConvPathPreference path :
       {ConvPathPreference::kAuto, ConvPathPreference::kGemm}) {
    EngineOptions opts;
    opts.conv_path = path;
    core::Engine engine(testing::test_device(), opts);
    for (std::int64_t n = 1; n <= 4; ++n) {
      // Distinct image per batch row — a stacked-duplicates test would pass
      // even if the batch loop read row 0 everywhere.
      std::vector<U8Tensor> images;
      for (std::int64_t b = 0; b < n; ++b) {
        images.push_back(
            datasets::cifar_like_image(730 + static_cast<int>(4 * n + b)));
      }
      Shape bshape = images[0].shape();
      bshape.n = n;
      U8Tensor batch(bshape, images[0].layout());
      for (std::int64_t b = 0; b < n; ++b) {
        std::memcpy(batch.data() + b * images[0].elems(),
                    images[static_cast<std::size_t>(b)].data(),
                    static_cast<std::size_t>(images[0].elems()));
      }

      const ExecutionPlan bplan =
          net->compile(engine, BlobDesc{BlobKind::kU8, bshape});
      auto bsession = engine.create_session();
      const FloatTensor bout =
          bplan.run(bsession, core::Blob{batch}).float_output();
      ASSERT_EQ(bout.shape().n, n);

      const ExecutionPlan splan =
          net->compile(engine, BlobDesc{BlobKind::kU8, images[0].shape()});
      auto ssession = engine.create_session();
      const std::int64_t row = bout.elems() / n;
      for (std::int64_t b = 0; b < n; ++b) {
        const FloatTensor single =
            splan.run(ssession, core::Blob{images[static_cast<std::size_t>(b)]})
                .float_output();
        ASSERT_EQ(single.elems(), row);
        EXPECT_EQ(std::memcmp(bout.data() + b * row, single.data(),
                              static_cast<std::size_t>(row) * sizeof(float)),
                  0)
            << "path=" << static_cast<int>(path) << " n=" << n
            << " row " << b << " diverged from its single-image forward";
      }
    }
  }
}

/// Artifact round trip: a plan compiled with FORCED path D on a batched
/// (N=3) descriptor must save, load and run bit-exactly — including the
/// conv_path options field and the kConvGemm step variants.
TEST(BitGemm, ArtifactRoundTripWithGemmPathAndBatch) {
  const std::string path =
      ::testing::TempDir() + "phonebit_test_bitgemm.pba";
  const FloatModel model = FloatModel::random(models::quicknet(10), 740);
  auto net = core::convert_to_phonebit(model);

  const U8Tensor one = datasets::cifar_like_image(741);
  Shape bshape = one.shape();
  bshape.n = 3;
  U8Tensor batch(bshape, one.layout());
  for (std::int64_t b = 0; b < 3; ++b) {
    std::memcpy(batch.data() + b * one.elems(), one.data(),
                static_cast<std::size_t>(one.elems()));
  }

  EngineOptions opts;
  opts.conv_path = ConvPathPreference::kGemm;
  core::Engine engine(testing::test_device(), opts);
  const ExecutionPlan plan =
      net->compile(engine, BlobDesc{BlobKind::kU8, bshape});
  ASSERT_NE(plan.dump().find("path=D"), std::string::npos)
      << "forced-GEMM batched plan selected no D step:\n" << plan.dump();
  artifact::save(*net, plan, path);

  const artifact::LoadedArtifact loaded = engine.load_artifact(path);
  // The loaded plan IS the compiled plan — same steps (path D included),
  // same scratch peaks, so the replayed selection must agree exactly.
  EXPECT_EQ(loaded.plan.dump(), plan.dump());

  auto s1 = engine.create_session();
  auto s2 = engine.create_session();
  const auto fresh = plan.run(s1, core::Blob{batch});
  const auto replayed = loaded.plan.run(s2, core::Blob{batch});
  EXPECT_TRUE(testing::expect_bitexact(replayed, fresh))
      << "loaded artifact diverged from the in-memory compile";
  std::remove(path.c_str());
}

/// Auto-selection sanity: under kAuto the planner takes D exactly where its
/// cost model says the im2col + GEMM schedule wins — big multi-word convs
/// flip, small convs keep the row-fused window schedule — and the plan dump
/// advertises both the letter and the register tile.
TEST(BitGemm, AutoSelectionPrefersGemmOnlyWhereModeledFaster) {
  auto plan_dump = [&](std::int64_t hw, std::int64_t c, std::int64_t n) {
    const FloatTensor w =
        testing::random_sign_tensor(Shape{c, 3, 3, c}, 750);
    core::Network net("probe");
    net.emplace<core::BinaryConv2d>("conv", bitpack::pack_filter_signs(w),
                                    testing::random_bn(c, 751),
                                    std::vector<float>{},
                                    ConvGeometry{3, 3, 1, 1, 1, 1});
    core::Engine engine(testing::test_device());
    return net
        .compile(engine, BlobDesc{BlobKind::kPacked, Shape{n, hw, hw, c}})
        .dump();
  };
  const std::string big = plan_dump(26, 256, 1);
  EXPECT_NE(big.find("path=D"), std::string::npos) << big;
  EXPECT_NE(big.find("tile=4x8"), std::string::npos) << big;
  const std::string tiny = plan_dump(6, 16, 1);
  EXPECT_EQ(tiny.find("path=D"), std::string::npos) << tiny;
  EXPECT_NE(tiny.find("path=A"), std::string::npos) << tiny;
}

}  // namespace
}  // namespace phonebit
