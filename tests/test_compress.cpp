// Weight compression (DESIGN.md §12): the dictionary/index/delta
// factorization of packed filter banks and everything that consumes it.
// Compression only changes how artifacts store the weights; the kernels a
// plan runs are the same under kOff and kAuto.
//
// The suite proves that contract four ways:
//   1. algebraically: build → reconstruct is the identity on every bank;
//   2. differentially: zoo-wide (quicknet, yolov2tiny-s3), kAuto selects
//      the same kernels as kOff and produces bit-identical outputs —
//      compiled, loaded from an artifact, fused, batched N>1 and
//      fleet-served;
//   3. structurally: compressed artifacts round trip byte-identically,
//      record the compression option and shrink the network section
//      >= 1.3x on a redundant model;
//   4. adversarially: seeded bit flips across the compressed network
//      section (checksum resealed, so the STRUCTURAL validators are on
//      trial) never crash — every flip is either rejected with
//      InvalidArgument naming section + offset or loads a bank whose
//      invariants still hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bitpack/compress.hpp"
#include "bitpack/pack.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using bitpack::CompressedFilterBank;
using bitpack::PackedTensor;
using core::BlobDesc;
using core::BlobKind;
using core::EngineOptions;
using core::ExecutionPlan;
using core::FloatModel;
using core::WeightCompress;

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is ? std::streamoff(is.tellg()) : -1;
  if (size < 0) {
    ADD_FAILURE() << "cannot read " << path;
    return {};
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  return buf;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& buf) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
}

/// Re-seals an edited payload so the structural validators — not the
/// checksum — decide the corrupted file's fate.
void patch_checksum(std::vector<std::uint8_t>& buf) {
  ASSERT_GT(buf.size(), static_cast<std::size_t>(artifact::kHeaderBytes));
  const std::uint64_t sum =
      artifact::checksum(buf.data() + artifact::kHeaderBytes,
                         buf.size() - artifact::kHeaderBytes);
  std::memcpy(buf.data() + artifact::kChecksumOffset, &sum, sizeof(sum));
}

/// A redundant packed filter bank straight from the model generator: the
/// group-of-8 sharing in FloatModel::random_redundant is exactly the
/// redundancy profile trained BNNs show (PAPERS.md, kernel compression).
PackedTensor redundant_bank(std::uint64_t seed) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), seed);
  for (const auto& lw : model.weights) {
    if (const auto* cw = std::get_if<core::ConvWeights>(&lw)) {
      // Skip the 3-channel input conv: an interior bank with c_in >= 64
      // exercises full packed words, not a single padded lane.
      if (cw->w.shape().c >= 64) return bitpack::pack_signs(cw->w);
    }
  }
  ADD_FAILURE() << "no interior conv in quicknet";
  return PackedTensor{};
}

// ---------------------------------------------------------------------------
// 1. Algebraic: build/reconstruct identity.
// ---------------------------------------------------------------------------

TEST(CompressBank, ReconstructIsIdentityOnRedundantAndRandomBanks) {
  // Redundant bank: clustering must find the planted duplicates.
  const PackedTensor red = redundant_bank(901);
  const CompressedFilterBank bank = CompressedFilterBank::build(red);
  EXPECT_EQ(bank.reconstruct(), red);
  const auto& st = bank.stats();
  EXPECT_EQ(st.filters, red.shape().n);
  EXPECT_LT(st.unique_rows, st.filters) << "planted duplicates not found";
  EXPECT_GT(st.exact_dups, 0);
  EXPECT_GT(st.delta_filters, 0) << "sign-flipped lanes should patch";
  EXPECT_GE(st.ratio(), 1.3) << "redundant bank must shrink >= 1.3x";
  EXPECT_EQ(st.encoded_bytes,
            bitpack::compressed_encoded_bytes(st.filters, st.k_words,
                                              st.unique_rows, st.delta_words));

  // Incompressible bank: every row lands in the dictionary, encoding is
  // bigger than raw (save() will keep raw storage) — still exact.
  const FloatModel rnd = FloatModel::random(models::quicknet(10), 902);
  for (const auto& lw : rnd.weights) {
    const auto* cw = std::get_if<core::ConvWeights>(&lw);
    if (cw == nullptr) continue;
    const PackedTensor w = bitpack::pack_signs(cw->w);
    const CompressedFilterBank b = CompressedFilterBank::build(w);
    EXPECT_EQ(b.reconstruct(), w);
  }
}

TEST(CompressBank, ClusteringIsDeterministic) {
  const PackedTensor w = redundant_bank(903);
  const CompressedFilterBank a = CompressedFilterBank::build(w);
  const CompressedFilterBank b = CompressedFilterBank::build(w);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.stats(), b.stats());
}

// ---------------------------------------------------------------------------
// 2. Differential: zoo-wide, kAuto runs what kOff runs, bit-exactly.
// ---------------------------------------------------------------------------

struct ZooCase {
  std::string name;
  core::NetworkSpec spec;
  std::uint64_t seed;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  cases.push_back({"quicknet", models::quicknet(10), 910});
  models::ZooOptions yolo_zoo;
  yolo_zoo.shrink_log2 = 3;
  cases.push_back({"yolov2tiny-s3", models::yolov2_tiny(yolo_zoo), 911});
  return cases;
}

TEST(CompressForward, BitExactAcrossZooModesPathsAndBatches) {
  for (const ZooCase& c : zoo_cases()) {
    const FloatModel model = FloatModel::random_redundant(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);

    // N=4 batch of distinct images (batch b perturbs the seed).
    Shape bshape = image.shape();
    bshape.n = 4;
    U8Tensor batch(bshape, image.layout());
    for (std::int64_t b = 0; b < 4; ++b) {
      const U8Tensor one = datasets::random_image(
          model.spec.input, c.seed + static_cast<std::uint64_t>(b));
      std::memcpy(batch.data() + b * one.elems(), one.data(),
                  static_cast<std::size_t>(one.elems()));
    }

    // Fused default path and the bit-GEMM path — each compared against its
    // own kOff baseline so ONLY the compression knob differs.
    struct PathCase {
      const char* label;
      core::ConvPathPreference path;
    };
    for (const PathCase& p :
         {PathCase{"auto", core::ConvPathPreference::kAuto},
          PathCase{"gemm", core::ConvPathPreference::kGemm}}) {
      auto run = [&](WeightCompress wc, const U8Tensor& img) {
        EngineOptions opts;
        opts.conv_path = p.path;
        opts.weight_compress = wc;
        core::Engine engine(testing::test_device(), opts);
        const ExecutionPlan plan =
            net->compile(engine, BlobDesc{BlobKind::kU8, img.shape()});
        auto session = engine.create_session();
        return plan.run(session, core::Blob{img}).float_output();
      };
      EXPECT_TRUE(testing::expect_bitexact(run(WeightCompress::kAuto, image),
                                           run(WeightCompress::kOff, image)))
          << c.name << "/" << p.label << " single";
      EXPECT_TRUE(testing::expect_bitexact(run(WeightCompress::kAuto, batch),
                                           run(WeightCompress::kOff, batch)))
          << c.name << "/" << p.label << " batched N=4";
    }
  }
}

/// Compression is storage only: kAuto compiles exactly the kernels kOff
/// compiles — same paths, variants and priced launches, step for step —
/// on redundant weights, under roofline selection and with each path
/// pinned.
TEST(CompressForward, SelectionIsIdenticalToUncompressed) {
  const oclsim::DeviceProfile& p855 = testing::test_device()->profile();
  for (const ZooCase& c : zoo_cases()) {
    const FloatModel model = FloatModel::random_redundant(c.spec, c.seed);
    auto net = core::convert_to_phonebit(model);
    for (const auto path :
         {core::ConvPathPreference::kAuto, core::ConvPathPreference::kRowFused,
          core::ConvPathPreference::kGemm}) {
      SCOPED_TRACE(c.name + " conv_path " +
                   std::to_string(static_cast<int>(path)));
      const auto compile = [&](WeightCompress wc) {
        EngineOptions opts;
        opts.conv_path = path;
        opts.weight_compress = wc;
        return net->compile(opts, BlobDesc{BlobKind::kU8, model.spec.input});
      };
      const ExecutionPlan off = compile(WeightCompress::kOff);
      const ExecutionPlan comp = compile(WeightCompress::kAuto);
      ASSERT_EQ(off.steps().size(), comp.steps().size());
      for (std::size_t i = 0; i < off.steps().size(); ++i) {
        const core::PlanStep& a = off.steps()[i];
        const core::PlanStep& b = comp.steps()[i];
        EXPECT_EQ(a.variant.path, b.variant.path) << b.name();
        EXPECT_EQ(a.variant.kernel, b.variant.kernel) << b.name();
        EXPECT_EQ(a.variant.pack_width, b.variant.pack_width) << b.name();
        EXPECT_EQ(a.variant.tile_ow, b.variant.tile_ow) << b.name();
        EXPECT_EQ(a.fused_pool, b.fused_pool) << b.name();
        ASSERT_EQ(a.launches.size(), b.launches.size()) << b.name();
        for (std::size_t l = 0; l < a.launches.size(); ++l) {
          EXPECT_EQ(*a.launches[l].name, *b.launches[l].name) << b.name();
        }
      }
      EXPECT_EQ(off.modeled_ms(p855), comp.modeled_ms(p855));
    }
  }
}

class CompressArtifactTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : temp_paths_) std::remove(p.c_str());
  }

  std::string temp_path(const std::string& tag) {
    const std::string p =
        std::string(::testing::TempDir()) + "phonebit_compress_" + tag + ".pba";
    temp_paths_.push_back(p);
    return p;
  }

  /// Compiles `net` under `opts` and saves the artifact; returns the plan.
  ExecutionPlan save(core::Network& net, const EngineOptions& opts,
                     const Shape& input, const std::string& path) {
    core::Engine engine(testing::test_device(), opts);
    const ExecutionPlan plan =
        net.compile(engine, BlobDesc{BlobKind::kU8, input});
    artifact::save(net, plan, path);
    return plan;
  }

  std::vector<std::string> temp_paths_;
};

TEST_F(CompressArtifactTest, LoadedV4PlanReplaysBitExactZooWide) {
  for (const ZooCase& c : zoo_cases()) {
    const FloatModel model = FloatModel::random_redundant(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);

    EngineOptions opts;
    opts.weight_compress = WeightCompress::kAuto;
    const std::string path = temp_path(c.name);
    core::Engine engine(testing::test_device(), opts);
    const ExecutionPlan plan =
        net->compile(engine, BlobDesc{BlobKind::kU8, image.shape()});
    artifact::save(*net, plan, path);

    // Loader adopts the serialized bank — no re-clustering, no
    // re-selection, and the replay matches outputs AND modeled time.
    const artifact::LoadedArtifact loaded = engine.load_artifact(path);
    EXPECT_TRUE(loaded.plan.options() == plan.options()) << c.name;
    EXPECT_EQ(loaded.plan.dump(), plan.dump()) << c.name;
    auto s1 = engine.create_session();
    auto s2 = engine.create_session();
    EXPECT_TRUE(testing::expect_bitexact(
        loaded.plan.run(s2, core::Blob{image}),
        plan.run(s1, core::Blob{image})))
        << c.name;
    EXPECT_EQ(s2.stats().variant_selections, 0) << c.name;
    EXPECT_EQ(s2.stats().compiles, 0) << c.name;
  }
}

TEST_F(CompressArtifactTest, FleetServedCompressedArtifactBitExact) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 920);
  auto net = core::convert_to_phonebit(model);
  const Shape input{1, 32, 32, 3};

  EngineOptions off;
  const std::string off_path = temp_path("fleet_off");
  save(*net, off, input, off_path);
  EngineOptions comp;
  comp.weight_compress = WeightCompress::kAuto;
  const std::string comp_path = temp_path("fleet_auto");
  save(*net, comp, input, comp_path);

  serve::FleetConfig cfg;
  cfg.shards.push_back(serve::ShardSpec{"flag", "sd855", 2});
  cfg.shards.push_back(serve::ShardSpec{"mid", "sd660", 2});
  cfg.exec_workers = 2;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 8;
  serve::FleetServer fleet(cfg);
  fleet.load_model("qn-off", {off_path, off_path});
  fleet.load_model("qn-comp", {comp_path, comp_path});

  std::vector<serve::Request> w;
  for (int i = 0; i < 6; ++i) {
    const core::Blob img{
        datasets::cifar_like_image(921 + static_cast<std::uint64_t>(i))};
    w.push_back(serve::Request{"qn-off", img, 1000.0 * i, 0.0});
    w.push_back(serve::Request{"qn-comp", img, 1000.0 * i, 0.0});
  }
  const serve::FleetSummary s = fleet.run(std::move(w));
  ASSERT_EQ(s.ok, s.requests) << "fleet shed/failed under light load";
  ASSERT_EQ(s.results.size(), 12u);
  // Requests arrive in (off, comp) pairs with identical inputs: the
  // compressed artifact must serve bit-identical outputs.
  for (std::size_t i = 0; i < s.results.size(); i += 2) {
    EXPECT_TRUE(testing::expect_bitexact(s.results[i].result.output,
                                         s.results[i + 1].result.output))
        << "request pair " << i / 2;
  }
}

// ---------------------------------------------------------------------------
// 3. Structural: byte-stable round trip, section shrink.
// ---------------------------------------------------------------------------

TEST_F(CompressArtifactTest, RoundTripsByteIdenticallyAndRecordsOption) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 930);
  auto net = core::convert_to_phonebit(model);
  const std::string path = temp_path("auto");
  EngineOptions opts;
  opts.weight_compress = WeightCompress::kAuto;
  save(*net, opts, Shape{1, 32, 32, 3}, path);

  const std::vector<std::uint8_t> first = read_bytes(path);
  ASSERT_GE(first.size(), static_cast<std::size_t>(artifact::kHeaderBytes));
  std::uint32_t version = 0;
  std::memcpy(&version, first.data() + artifact::kVersionOffset, 4);
  EXPECT_EQ(version, artifact::kFormatVersion);

  // save(load(x)) == x: the codec loses nothing it writes — including
  // the adopted compressed banks, re-serialized without re-clustering.
  const artifact::LoadedArtifact loaded = artifact::load(path);
  EXPECT_TRUE(loaded.plan.options().weight_compress ==
              WeightCompress::kAuto);
  const std::string again = temp_path("auto_resave");
  artifact::save(*loaded.network, loaded.plan, again);
  EXPECT_EQ(read_bytes(again), first) << "round trip altered the bytes";
}

TEST_F(CompressArtifactTest, NetworkSectionShrinksOnRedundantModel) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 933);
  auto net = core::convert_to_phonebit(model);
  const Shape input{1, 32, 32, 3};

  const std::string off_path = temp_path("shrink_off");
  save(*net, EngineOptions{}, input, off_path);
  EngineOptions comp;
  comp.weight_compress = WeightCompress::kAuto;
  const std::string comp_path = temp_path("shrink_on");
  const ExecutionPlan plan = save(*net, comp, input, comp_path);

  const auto off_table = artifact::section_table(off_path);
  const auto comp_table = artifact::section_table(comp_path);
  ASSERT_FALSE(off_table.empty());
  ASSERT_FALSE(comp_table.empty());
  ASSERT_EQ(off_table[0].tag, artifact::Section::kNetwork);
  ASSERT_EQ(comp_table[0].tag, artifact::Section::kNetwork);
  // The network section also carries the (uncompressed) fp32 input conv,
  // dense head, BN and bias payloads, so the acceptance bar is on the
  // WEIGHT sections inside it: raw packed-filter bytes versus what the
  // file actually stores for them — the raw total minus the measured
  // section-size saving (the two sections differ only in per-conv weight
  // storage).
  std::int64_t raw = 0;
  for (const auto& step : plan.steps()) raw += step.wcomp.raw_bytes;
  ASSERT_GT(raw, 0);
  const std::int64_t saved =
      off_table[0].body_bytes - comp_table[0].body_bytes;
  ASSERT_GT(saved, 0) << "compressed storage did not shrink the section";
  const double ratio =
      static_cast<double>(raw) / static_cast<double>(raw - saved);
  EXPECT_GE(ratio, 1.3) << raw << " raw weight bytes, " << saved
                        << " saved in the .pba";
}

TEST_F(CompressArtifactTest, PlanRecordsPerStepCompressionStats) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 934);
  auto net = core::convert_to_phonebit(model);
  EngineOptions opts;
  opts.weight_compress = WeightCompress::kAuto;
  core::Engine engine(testing::test_device(), opts);
  const ExecutionPlan plan =
      net->compile(engine, BlobDesc{BlobKind::kU8, Shape{1, 32, 32, 3}});

  int conv_steps = 0;
  for (const auto& step : plan.steps()) {
    if (step.wcomp.unique_rows == 0) continue;
    ++conv_steps;
    EXPECT_GT(step.wcomp.raw_bytes, 0);
    EXPECT_GT(step.wcomp.encoded_bytes, 0);
  }
  EXPECT_GT(conv_steps, 0) << "no step recorded compression stats";
  EXPECT_NE(plan.dump().find("wcomp="), std::string::npos)
      << "plan dump does not surface the compression stats";
}

// ---------------------------------------------------------------------------
// 4. Adversarial: the bank's structural validators under random corruption.
// ---------------------------------------------------------------------------

TEST_F(CompressArtifactTest, CompressedSectionCorruptionSweepNeverCrashes) {
  const FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 940);
  auto net = core::convert_to_phonebit(model);
  const std::string path = temp_path("corrupt");
  EngineOptions opts;
  opts.weight_compress = WeightCompress::kAuto;
  save(*net, opts, Shape{1, 32, 32, 3}, path);
  const std::vector<std::uint8_t> clean = read_bytes(path);

  const auto table = artifact::section_table(path);
  ASSERT_FALSE(table.empty());
  ASSERT_EQ(table[0].tag, artifact::Section::kNetwork);
  const std::int64_t begin = table[0].body_offset;
  const std::int64_t bytes = table[0].body_bytes;
  ASSERT_GT(bytes, 0);

  // Seeded single-bit flips across the network section — the part carrying
  // the dictionary/index/delta payloads — with the checksum RESEALED, so
  // the structural validators (bounds, CSR monotonicity, referenced-row,
  // nonzero-mask, padding) stand alone. Every flip must either be rejected
  // with InvalidArgument naming section + offset, or land in don't-care
  // content (a dictionary word, a float) and load a bank whose invariants
  // still hold — proven by reconstructing through a forward. Never a
  // crash, hang, or out-of-bounds read.
  Rng rng(941);
  int rejected = 0;
  int loaded_ok = 0;
  for (int i = 0; i < 120; ++i) {
    std::vector<std::uint8_t> evil = clean;
    const auto at = static_cast<std::size_t>(
        begin + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                                      bytes)));
    evil[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    patch_checksum(evil);
    write_bytes(path, evil);
    SCOPED_TRACE("bit flip at byte " + std::to_string(at));
    try {
      const artifact::LoadedArtifact loaded = artifact::load(path);
      ++loaded_ok;
      // Structurally valid content mutation: the bank must still
      // reconstruct and run (pad bits clear, indices in range).
      core::Engine engine(testing::test_device(), opts);
      auto session = engine.create_session();
      (void)loaded.plan.run(session,
                            core::Blob{datasets::cifar_like_image(942)});
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("section '"), std::string::npos) << msg;
      EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
      ++rejected;
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
  // Both regimes must actually be exercised: flips that only ever load
  // would mean the validators never fire; flips that only ever reject
  // would mean the don't-care payload (dictionary words) is mislabeled.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded_ok, 0);
  EXPECT_EQ(rejected + loaded_ok, 120);
}

}  // namespace
}  // namespace phonebit
