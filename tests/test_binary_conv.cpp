// BinaryConv2d vs the float-domain reference, across geometries, channel
// widths (straddling the 8-filter packing threshold), execution paths and
// option toggles, plus a seeded differential oracle over random geometries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "baselines/float_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using baselines::conv2d_ref;
using core::BinaryConv2d;
using core::EngineOptions;
using core::ExecContext;

/// Reference: ±1 conv (pad -1), folded BN, Eqn 8 -> ±1 tensor.
FloatTensor reference_bconv(const FloatTensor& in, const FloatTensor& w,
                            const std::vector<core::BatchNormParams>& bn,
                            const std::vector<float>& bias,
                            const ConvGeometry& g) {
  const FloatTensor x1 = conv2d_ref(in, w, {}, g, -1.0f);
  const auto folded = core::fold_batch_norm(bn, bias);
  FloatTensor out(x1.shape(), Layout::kNHWC);
  const Shape& s = x1.shape();
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t wd = 0; wd < s.w; ++wd)
        for (std::int64_t c = 0; c < s.c; ++c) {
          const std::size_t ci = static_cast<std::size_t>(c);
          out(n, h, wd, c) =
              core::binarize_eqn8(x1(n, h, wd, c), folded.xi[ci],
                                  folded.gamma_pos[ci] != 0)
                  ? 1.0f
                  : -1.0f;
        }
  return out;
}

struct ConvCase {
  std::int64_t c_in, c_out, hw, k, stride, pad;
};

class BinaryConvParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(BinaryConvParam, MatchesFloatReference) {
  const ConvCase p = GetParam();
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(
                                        p.c_in * 31 + p.c_out * 7 + p.k);
  const FloatTensor in =
      testing::random_sign_tensor(Shape{1, p.hw, p.hw, p.c_in}, seed);
  const FloatTensor w = testing::random_sign_tensor(
      Shape{p.c_out, p.k, p.k, p.c_in}, seed + 1);
  const auto bn = testing::random_bn(p.c_out, seed + 2);
  const auto bias = testing::random_bias(p.c_out, seed + 3);
  ConvGeometry g;
  g.kernel_h = g.kernel_w = p.k;
  g.stride_h = g.stride_w = p.stride;
  g.pad_h = g.pad_w = p.pad;

  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, bias, g);
  const auto out = conv.forward(ctx, core::Blob{bitpack::pack_signs(in)});
  const auto& packed = std::get<bitpack::PackedTensor>(out);

  const FloatTensor ref = reference_bconv(in, w, bn, bias, g);
  EXPECT_TRUE(testing::packed_equals_signs(packed, ref))
      << "c_in=" << p.c_in << " c_out=" << p.c_out << " k=" << p.k
      << " stride=" << p.stride << " pad=" << p.pad;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BinaryConvParam,
    ::testing::Values(
        // channel widths straddling word and threshold boundaries
        ConvCase{8, 8, 6, 3, 1, 1}, ConvCase{16, 24, 7, 3, 1, 1},
        ConvCase{32, 16, 8, 3, 1, 0}, ConvCase{48, 8, 6, 3, 1, 1},
        ConvCase{64, 32, 6, 3, 1, 1}, ConvCase{96, 16, 5, 3, 1, 1},
        ConvCase{128, 8, 5, 3, 1, 1}, ConvCase{200, 16, 5, 3, 1, 1},
        ConvCase{256, 16, 4, 3, 1, 1},
        // > 256 input channels: separate packing path (B)
        ConvCase{320, 16, 4, 3, 1, 1}, ConvCase{512, 8, 3, 3, 1, 1},
        // kernel/stride/pad variations
        ConvCase{16, 16, 9, 1, 1, 0}, ConvCase{16, 16, 9, 5, 1, 2},
        ConvCase{16, 16, 9, 3, 2, 1}, ConvCase{16, 16, 11, 3, 3, 0},
        ConvCase{24, 40, 8, 2, 2, 0}));

TEST(BinaryConv, AllExecutionPathsAgree) {
  const Shape ishape{2, 9, 9, 40};
  const FloatTensor in = testing::random_sign_tensor(ishape, 42);
  const FloatTensor w = testing::random_sign_tensor(Shape{16, 3, 3, 40}, 43);
  const auto bn = testing::random_bn(16, 44);
  const auto bias = testing::random_bias(16, 45);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  auto run = [&](EngineOptions opts) {
    core::Engine engine(testing::test_device(), opts);
    auto session = engine.create_session();
    auto ctx = session.context();
    BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, bias, g);
    auto out = conv.forward(ctx, core::Blob{bitpack::pack_signs(in)});
    return bitpack::unpack_signs(std::get<bitpack::PackedTensor>(out));
  };

  EngineOptions fused;                       // path A
  EngineOptions separate_pack;               // path B
  separate_pack.integrate_packing = false;
  EngineOptions unfused;                     // path C
  unfused.fuse_bn_binarize = false;
  EngineOptions divergent;                   // Eqn 8 instead of Eqn 9
  divergent.branch_free_binarize = false;

  const FloatTensor a = run(fused);
  EXPECT_TRUE(allclose(a, run(separate_pack), 0.0f));
  EXPECT_TRUE(allclose(a, run(unfused), 0.0f));
  EXPECT_TRUE(allclose(a, run(divergent), 0.0f));
}

TEST(BinaryConv, PackWidthDoesNotChangeResults) {
  const FloatTensor in = testing::random_sign_tensor(Shape{1, 8, 8, 192}, 50);
  const FloatTensor w = testing::random_sign_tensor(Shape{8, 3, 3, 192}, 51);
  const auto bn = testing::random_bn(8, 52);
  ConvGeometry g;
  g.pad_h = g.pad_w = 1;

  FloatTensor first;
  bool have_first = false;
  for (const auto pw :
       {bitpack::PackWidth::k8, bitpack::PackWidth::k16, bitpack::PackWidth::k32,
        bitpack::PackWidth::k64, bitpack::PackWidth::k128,
        bitpack::PackWidth::k256, bitpack::PackWidth::k512,
        bitpack::PackWidth::k1024}) {
    EngineOptions opts;
    opts.auto_pack_width = false;
    opts.fixed_pack_width = pw;
    core::Engine engine(testing::test_device(), opts);
    auto session = engine.create_session();
    auto ctx = session.context();
    BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, {}, g);
    auto out = conv.forward(ctx, core::Blob{bitpack::pack_signs(in)});
    FloatTensor got = bitpack::unpack_signs(std::get<bitpack::PackedTensor>(out));
    if (!have_first) {
      first = std::move(got);
      have_first = true;
    } else {
      EXPECT_TRUE(allclose(first, got, 0.0f))
          << "pack width " << bitpack::bits(pw);
    }
  }
}

TEST(BinaryConv, RejectsWrongChannelCount) {
  const FloatTensor w = testing::random_sign_tensor(Shape{8, 3, 3, 16}, 60);
  const auto bn = testing::random_bn(8, 61);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  core::BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, {},
                          ConvGeometry{});
  const FloatTensor in = testing::random_sign_tensor(Shape{1, 6, 6, 24}, 62);
  EXPECT_THROW(conv.forward(ctx, core::Blob{bitpack::pack_signs(in)}),
               InvalidArgument);
}

TEST(BinaryConv, RejectsFloatInput) {
  const FloatTensor w = testing::random_sign_tensor(Shape{8, 3, 3, 16}, 63);
  const auto bn = testing::random_bn(8, 64);
  core::Engine engine(testing::test_device());
  auto session = engine.create_session();
  auto ctx = session.context();
  core::BinaryConv2d conv("conv", bitpack::pack_filter_signs(w), bn, {},
                          ConvGeometry{});
  EXPECT_THROW(
      conv.forward(ctx, core::Blob{testing::random_float_tensor(
                            Shape{1, 6, 6, 16}, 65)}),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Differential oracle: seeded random geometries through every conv path
// (A, B, C, D) with the interior split on and off, and path A fused with a
// following 2x2/s2 and 3x3/s3 pool, each compiled and run against the
// float-domain reference (conv2d_ref with -1 padding, folded BN, Eqn 8).
// Geometries cover layers with no interior at all (H or W below the
// kernel), whole-pad windows (pad up to k), per-axis strides, channel
// counts around word boundaries and, in a quarter of the draws, thresholds
// exactly on reachable sums and at +-inf (testing::tie_bn). The perfbench bit-exact gate cannot see a
// path-A bug (its reference plan runs path A too), so this is the check.
// A second set of draws gives every bank redundant filters (duplicate lanes
// and sparse sign flips) and runs each arm through a kAuto artifact: saved
// with compressed weight storage, loaded back, then run.
// ---------------------------------------------------------------------------

struct BconvCase {
  std::int64_t c_in, c_out, n, h, w, kh, kw, sh, sw, ph, pw;
  bool branch_free;
  bool ties;  ///< thresholds on reachable sums and at +-inf (tie_bn)
  /// Redundant filter bank, run through a saved and loaded kAuto artifact.
  bool compressed;
  std::uint64_t seed;

  /// One pasteable line that re-runs exactly this case.
  std::string repro() const {
    std::ostringstream os;
    os << std::boolalpha << "repro: check_bconv_case({" << c_in << ", "
       << c_out << ", " << n << ", " << h << ", " << w << ", " << kh << ", "
       << kw << ", " << sh << ", " << sw << ", " << ph << ", " << pw << ", "
       << branch_free << ", " << ties << ", " << compressed << ", " << seed
       << "});  // K = " << kh * kw * ((c_in + 63) / 64) << " words";
    return os.str();
  }
};

/// The case's filter bank. A compressed case overlays the redundancy of
/// trained binary banks on each group of 8 filters: lanes 1-3 copy lane 0,
/// lanes 4-5 copy it with one or two sign flips, lanes 6-7 stay random.
FloatTensor oracle_weights(const BconvCase& c) {
  FloatTensor w = testing::random_sign_tensor(
      Shape{c.c_out, c.kh, c.kw, c.c_in}, c.seed + 1);
  if (!c.compressed) return w;
  Rng rng(c.seed + 4);
  const std::int64_t fsize = c.kh * c.kw * c.c_in;
  for (std::int64_t f = 0; f < c.c_out; ++f) {
    const std::int64_t lane = f % 8;
    if (lane == 0 || lane > 5) continue;
    float* row = w.data() + f * fsize;
    std::copy(row - lane * fsize, row - lane * fsize + fsize, row);
    for (std::int64_t flips = lane < 4 ? 0 : 1 + lane - 4; flips > 0; --flips) {
      row[rng.below(static_cast<std::uint64_t>(fsize))] *= -1.0f;
    }
  }
  return w;
}

/// BN whose thresholds fall inside the range of the conv sums (about
/// sqrt(K) for random signs), so the output bits depend on the sums, not
/// just on their sign.
std::vector<core::BatchNormParams> oracle_bn(std::int64_t c_out,
                                             std::int64_t len,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const float scale = std::sqrt(static_cast<float>(len));
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < c_out; ++c) {
    core::BatchNormParams p;
    p.gamma = rng.uniform(0.3f, 1.5f) * (rng.uniform() < 0.3f ? -1.0f : 1.0f);
    p.beta = rng.normal() * 0.5f;
    p.mu = rng.normal() * scale;
    p.sigma = rng.uniform(0.5f, 2.0f);
    bn.push_back(p);
  }
  return bn;
}

void check_bconv_case(const BconvCase& c) {
  SCOPED_TRACE(c.repro());
  using Path = core::KernelVariant::Path;
  const Shape in_shape{c.n, c.h, c.w, c.c_in};
  const FloatTensor in = testing::random_sign_tensor(in_shape, c.seed);
  const FloatTensor w = oracle_weights(c);
  ConvGeometry g;
  g.kernel_h = c.kh;
  g.kernel_w = c.kw;
  g.stride_h = c.sh;
  g.stride_w = c.sw;
  g.pad_h = c.ph;
  g.pad_w = c.pw;
  // Tie thresholds need beta = 0 and no bias, so that xi = mu exactly.
  const auto bn =
      c.ties ? testing::tie_bn(conv2d_ref(in, w, {}, g, -1.0f), c.seed + 2)
             : oracle_bn(c.c_out, c.kh * c.kw * c.c_in, c.seed + 2);
  const auto bias = c.ties ? std::vector<float>{}
                           : testing::random_bias(c.c_out, c.seed + 3);
  const FloatTensor ref = reference_bconv(in, w, bn, bias, g);
  const core::Blob input{bitpack::pack_signs(in)};
  const core::BlobDesc desc = core::describe_blob(input);

  // Compiles conv (+ pool) under `opts`, checks the conv step took `path`
  // (and fused the pool), and compares the run with `want`. A compressed
  // case runs the plan of a kAuto artifact, saved and loaded back.
  const auto run = [&](const char* arm, core::EngineOptions opts, Path path,
                       const core::PoolGeometry* pool,
                       const FloatTensor& want) {
    SCOPED_TRACE(arm);
    opts.branch_free_binarize = c.branch_free;
    if (c.compressed) opts.weight_compress = core::WeightCompress::kAuto;
    core::Engine engine(testing::test_device(), opts);
    core::Network net("oracle");
    net.emplace<BinaryConv2d>("conv", bitpack::pack_filter_signs(w), bn,
                              bias, g);
    if (pool != nullptr) net.emplace<core::MaxPool2d>("pool", *pool);
    const core::ExecutionPlan compiled = net.compile(engine, desc);
    std::optional<artifact::LoadedArtifact> loaded;
    if (c.compressed) {
      const std::string file = testing::temp_path("oracle.pba");
      artifact::save(net, compiled, file);
      loaded.emplace(engine.load_artifact(file));
      std::remove(file.c_str());
    }
    const core::ExecutionPlan& plan = loaded ? loaded->plan : compiled;
    ASSERT_EQ(plan.steps().size(), 1u);
    ASSERT_EQ(plan.steps()[0].variant.path, path);
    ASSERT_EQ(plan.steps()[0].fused_pool != nullptr, pool != nullptr);
    auto session = engine.create_session();
    const core::ForwardResult r = plan.run(session, input);
    ASSERT_TRUE(testing::packed_equals_signs(
        std::get<bitpack::PackedTensor>(r.output), want))
        << "output diverged from the reference";
  };

  // Paths A and D (and the fused pool, a path-A step) need whole filter
  // groups; a partial last group runs paths B and C only.
  const bool whole_groups = c.c_out % 8 == 0;
  for (const bool split : {true, false}) {
    SCOPED_TRACE(split ? "interior_split on" : "interior_split off");
    EngineOptions a;
    a.interior_split = split;
    a.conv_path = core::ConvPathPreference::kRowFused;
    a.packing_channel_threshold = std::max<std::int64_t>(256, c.c_in);
    EngineOptions b = a;
    b.packing_channel_threshold = 0;
    EngineOptions cc = a;
    cc.fuse_bn_binarize = false;
    EngineOptions d = a;
    d.conv_path = core::ConvPathPreference::kGemm;
    run("path B", b, Path::kConvSeparatePack, nullptr, ref);
    run("path C", cc, Path::kConvUnfused, nullptr, ref);
    if (::testing::Test::HasFatalFailure()) return;
    if (!whole_groups) continue;
    run("path A", a, Path::kConvFused, nullptr, ref);
    run("path D", d, Path::kConvGemm, nullptr, ref);
    if (::testing::Test::HasFatalFailure()) return;

    // Path A fused with the pool that follows it: 2x2/s2 (darknet tail
    // padding when the conv map is narrower than the window) and 3x3/s3
    // with tail padding, so clamped windows run too.
    const Shape& os = ref.shape();
    core::PoolGeometry p2;
    p2.size = p2.stride = 2;
    p2.tail_pad = os.h < 2 || os.w < 2;
    core::PoolGeometry p3;
    p3.size = p3.stride = 3;
    p3.tail_pad = true;
    for (const core::PoolGeometry* p : {&p2, &p3}) {
      run(p == &p2 ? "path A + pool 2x2/s2" : "path A + pool 3x3/s3", a,
          Path::kConvFused, p, baselines::maxpool_ref(ref, *p, -1.0f));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

BconvCase random_bconv_case(Rng& rng, std::uint64_t seed) {
  static constexpr std::int64_t kKernels[] = {1, 3, 5, 7};
  static constexpr std::int64_t kWordEdges[] = {63, 64, 65, 130};
  const auto draw = [&rng](std::int64_t n) {
    return static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  BconvCase c{};
  c.c_in = draw(4) == 0 ? kWordEdges[draw(4)] : 1 + draw(200);
  // A quarter of the draws end on a partial group: C_out in 1-23, not a
  // multiple of 8.
  if (draw(4) == 0) {
    const std::int64_t k = 1 + draw(21);
    c.c_out = k + (k - 1) / 7;
  } else {
    c.c_out = 8 * (1 + draw(3));
  }
  c.n = draw(2) == 0 ? 1 : 3;
  c.kh = kKernels[draw(4)];
  c.kw = kKernels[draw(4)];
  c.sh = 1 + draw(3);
  c.sw = 1 + draw(3);
  c.h = 1 + draw(20);
  c.w = 1 + draw(20);
  // Pads up to k per axis, redrawn until the padded input holds a window.
  do {
    c.ph = draw(c.kh + 1);
  } while (c.h + 2 * c.ph < c.kh);
  do {
    c.pw = draw(c.kw + 1);
  } while (c.w + 2 * c.pw < c.kw);
  c.branch_free = draw(2) == 1;
  c.ties = draw(4) == 0;
  c.compressed = false;
  c.seed = seed;
  return c;
}

TEST(BinaryConvOracle, RandomGeometriesMatchFloatReference) {
  Rng rng(0xb1c0);
  for (int i = 0; i < 300; ++i) {
    check_bconv_case(
        random_bconv_case(rng, 9000 + static_cast<std::uint64_t>(i)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Compressed weight storage: redundant banks through kAuto artifacts.
/// Half the draws take C_in 63, 65 or 130, so mode-1 storage (dictionary +
/// deltas, picked only where smaller than raw) covers banks with pad bits
/// in their last word; the loader rebuilds those words from the dictionary.
TEST(BinaryConvOracle, CompressedStorageMatchesFloatReference) {
  static constexpr std::int64_t kPadded[] = {63, 65, 130};
  Rng rng(0xc0b1);
  std::map<std::int64_t, int> stored;  // C_in -> cases stored as mode 1
  for (int i = 0; i < 90; ++i) {
    BconvCase c = random_bconv_case(rng, 9600 + static_cast<std::uint64_t>(i));
    if (i % 2 == 0) c.c_in = kPadded[(i / 2) % 3];
    c.compressed = true;
    const bitpack::CompressStats cs =
        bitpack::CompressedFilterBank::build(
            bitpack::pack_filter_signs(oracle_weights(c)))
            .stats();
    if (cs.encoded_bytes < cs.raw_bytes) ++stored[c.c_in];
    check_bconv_case(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const std::int64_t c_in : kPadded) {
    EXPECT_GE(stored[c_in], 10) << "C_in " << c_in << ": too few banks stored as mode 1";
  }
}

TEST(BinaryConvOracle, WindowsLargerThanTheBorderPanel) {
  // K above BinaryConv2d::kBorderPanelWords: the group body scores each
  // border window alone, in K chunks of the stack panel. 700 channels are 11
  // words, so a 7x7 window is 539 words; 1500 channels (24 words) in a
  // 5x5 window are 600. The 3x7 case (210 words) fits two windows a fill.
  // The 12-filter case runs paths B and C on a zero-padded last group.
  static_assert(BinaryConv2d::kBorderPanelWords < 7 * 7 * 11);
  check_bconv_case(
      {700, 8, 1, 9, 8, 7, 7, 1, 2, 3, 2, true, false, false, 9500});
  check_bconv_case(
      {1500, 16, 1, 6, 7, 5, 5, 2, 1, 2, 4, false, true, false, 9501});
  check_bconv_case(
      {640, 8, 3, 5, 9, 3, 7, 1, 1, 1, 3, true, false, false, 9502});
  check_bconv_case(
      {700, 12, 1, 9, 8, 7, 7, 1, 2, 3, 2, false, false, false, 9503});
}

}  // namespace
}  // namespace phonebit
