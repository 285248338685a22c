// Serializable compiled artifacts (.pba): the save → load → run contract.
//
// The artifact is the deployment boundary (Fig. 2): the converted network
// plus the options and input descriptor it was compiled with cross the
// file boundary, and load() compiles the loaded network under them — so
// the loaded plan must be the producer's plan, step for step.
// This suite proves the contract three ways:
//   1. differentially: zoo-wide, fused and unfused, and under resealed
//      options, a loaded plan dumps like the in-memory compile and runs
//      its forward bit-exactly (outputs AND modeled time), with nothing
//      compiled or selected through the running session and zero warm
//      allocations;
//   2. structurally: artifact bytes are deterministic, the header layout
//      is pinned, and save(load(x)) is byte-identical to x;
//   3. adversarially: flipped magic, stale versions, truncations,
//      corrupted weight pad words, an input descriptor the network
//      rejects and a seeded random corruption sweep all throw
//      InvalidArgument naming the offending section and byte offset —
//      never crashing, never loading garbage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/alloc_count.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/batch_runner.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::BlobDesc;
using core::BlobKind;
using core::EngineOptions;
using core::ExecutionPlan;
using core::FloatModel;

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is ? std::streamoff(is.tellg()) : -1;
  if (size < 0) {
    // Non-fatal so the calling test reports ITS failure (an empty buffer
    // trips its own assertions) instead of the whole binary aborting on a
    // bogus giant allocation.
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

/// Re-seals a deliberately edited payload so the loader's STRUCTURAL
/// validators (not the checksum) are what reject it.
void patch_checksum(std::vector<std::uint8_t>& buf) {
  ASSERT_GT(buf.size(), static_cast<std::size_t>(artifact::kHeaderBytes));
  const std::uint64_t sum =
      artifact::checksum(buf.data() + artifact::kHeaderBytes,
                         buf.size() - artifact::kHeaderBytes);
  std::memcpy(buf.data() + artifact::kChecksumOffset, &sum, sizeof(sum));
}

/// load() must reject the file with InvalidArgument whose message names a
/// section and a byte offset (and contains `must_contain`).
void expect_rejected(const std::string& path,
                     const std::string& must_contain) {
  try {
    artifact::load(path);
    FAIL() << "load() accepted a corrupt artifact (wanted: " << must_contain
           << ")";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("section '"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find(must_contain), std::string::npos) << msg;
  } catch (const std::exception& e) {
    FAIL() << "wrong exception type: " << e.what();
  }
}

class ArtifactTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Builds a converted quicknet, compiles it under `opts` and writes the
  /// artifact. Returns the network so the caller can keep comparing.
  std::unique_ptr<core::Network> save_quicknet(const EngineOptions& opts = {},
                                               std::uint64_t seed = 601) {
    const FloatModel model = FloatModel::random(models::quicknet(10), seed);
    auto net = core::convert_to_phonebit(model);
    const ExecutionPlan plan = compile_quicknet(*net, opts);
    artifact::save(*net, plan, path_);
    return net;
  }

  static ExecutionPlan compile_quicknet(const core::Network& net,
                                        const EngineOptions& opts = {}) {
    return net.compile(opts, BlobDesc{BlobKind::kU8, Shape{1, 32, 32, 3}});
  }

  std::string path_ = ::testing::TempDir() + "phonebit_test_artifact.pba";
};

// ---------------------------------------------------------------------------
// 1. Differential: save → load → run bit-exactness across the zoo.
// ---------------------------------------------------------------------------

TEST_F(ArtifactTest, RoundTripBitExactAcrossZoo) {
  struct Case {
    std::string name;
    core::NetworkSpec spec;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  cases.push_back({"quicknet", models::quicknet(10), 610});
  models::ZooOptions yolo_zoo;
  yolo_zoo.shrink_log2 = 3;
  cases.push_back({"yolov2-tiny", models::yolov2_tiny(yolo_zoo), 611});
  models::ZooOptions big_zoo;
  big_zoo.shrink_log2 = 4;
  cases.push_back({"alexnet", models::alexnet(big_zoo), 612});
  cases.push_back({"vgg16", models::vgg16(big_zoo), 613});

  for (const Case& c : cases) {
    const FloatModel model = FloatModel::random(c.spec, c.seed);
    const U8Tensor image = datasets::random_image(model.spec.input, c.seed);
    auto net = core::convert_to_phonebit(model);

    // Both the fused steady-state plan and the unfused ablation plan must
    // survive the file boundary.
    for (const bool fuse : {true, false}) {
      EngineOptions opts;
      opts.fuse_conv_pool = fuse;
      core::Engine engine(testing::test_device());
      const ExecutionPlan plan =
          net->compile(opts, BlobDesc{BlobKind::kU8, image.shape()});
      artifact::save(*net, plan, path_);
      const artifact::LoadedArtifact loaded = engine.load_artifact(path_);

      // The loaded plan IS the compiled plan: same steps, same slots, same
      // peaks, same options snapshot, same printable form.
      ASSERT_EQ(loaded.plan.steps().size(), plan.steps().size()) << c.name;
      EXPECT_EQ(loaded.plan.slots().size(), plan.slots().size()) << c.name;
      EXPECT_EQ(loaded.plan.slab_bytes(), plan.slab_bytes()) << c.name;
      EXPECT_EQ(loaded.plan.peak_scratch_bytes(), plan.peak_scratch_bytes())
          << c.name;
      EXPECT_TRUE(loaded.plan.options() == plan.options()) << c.name;
      EXPECT_EQ(loaded.plan.dump(), plan.dump()) << c.name;
      EXPECT_EQ(loaded.network->param_bytes(), net->param_bytes()) << c.name;

      auto s1 = engine.create_session();
      auto s2 = engine.create_session();
      const auto fresh = plan.run(s1, core::Blob{image});
      const auto replay = loaded.plan.run(s2, core::Blob{image});
      EXPECT_TRUE(testing::expect_bitexact(replay, fresh))
          << c.name << (fuse ? " (fused)" : " (unfused)")
          << ": loaded plan diverged from in-memory compile";
    }
  }
}

/// The unfused-BN ablation path (path C) consumes the RAW batch-norm
/// parameters — the artifact must preserve them exactly, not re-synthesize
/// sign-equivalent substitutes from the folded constants.
TEST_F(ArtifactTest, RoundTripExactUnderAblationOptions) {
  const FloatModel model = FloatModel::random(models::quicknet(10), 620);
  const U8Tensor image = datasets::cifar_like_image(621);
  auto net = core::convert_to_phonebit(model);

  struct OptCase {
    const char* label;
    EngineOptions opts;
  };
  std::vector<OptCase> cases;
  EngineOptions no_fuse;
  no_fuse.fuse_bn_binarize = false;  // path C: raw BN on the hot path
  cases.push_back({"no-fusion", no_fuse});
  EngineOptions no_integrate;
  no_integrate.integrate_packing = false;  // path B
  cases.push_back({"separate-pack", no_integrate});
  EngineOptions taps;
  taps.interior_split = false;  // legacy per-tap loop
  cases.push_back({"per-tap", taps});

  for (const OptCase& c : cases) {
    core::Engine engine(testing::test_device());
    const ExecutionPlan plan =
        net->compile(c.opts, BlobDesc{BlobKind::kU8, image.shape()});
    artifact::save(*net, plan, path_);
    const artifact::LoadedArtifact loaded = engine.load_artifact(path_);
    auto s1 = engine.create_session();
    auto s2 = engine.create_session();
    EXPECT_TRUE(testing::expect_bitexact(
        loaded.plan.run(s2, core::Blob{image}),
        plan.run(s1, core::Blob{image})))
        << c.label;
  }
}

TEST_F(ArtifactTest, LoadedPlanZeroReselectionZeroGrowthZeroAlloc) {
  core::Engine engine(testing::test_device());
  auto net = save_quicknet();
  const artifact::LoadedArtifact loaded = engine.load_artifact(path_);
  const U8Tensor image = datasets::cifar_like_image(630);
  const core::Blob input{image};

  auto session = engine.create_session();
  // Warm-up run reserves the plan's exact scratch + slab peaks.
  const auto reference = loaded.plan.run(session, input);
  EXPECT_EQ(session.arena().capacity_bytes(),
            loaded.plan.peak_scratch_bytes() + loaded.plan.slab_bytes());

  // Steady state: zero arena growth, zero buffer allocations under the
  // alloc_count hook (borrowed-output mode).
  core::RunOptions borrow;
  borrow.borrow_output = true;
  const std::int64_t allocs_before = buffer_alloc_count();
  const int grows_before = session.arena().growth_events();
  for (int i = 0; i < 5; ++i) {
    const auto result = loaded.plan.run(session, input, borrow);
    EXPECT_TRUE(testing::expect_bitexact(result.float_output(),
                                         reference.float_output()))
        << "run " << i;
  }
  EXPECT_EQ(buffer_alloc_count(), allocs_before)
      << "a warm loaded-plan forward heap-allocated a buffer";
  EXPECT_EQ(session.arena().growth_events(), grows_before);
}

// ---------------------------------------------------------------------------
// 2. Structural: deterministic bytes, pinned header layout.
// ---------------------------------------------------------------------------

TEST_F(ArtifactTest, SaveIsDeterministicAndRoundTripStable) {
  auto net = save_quicknet();
  const std::vector<std::uint8_t> first = read_bytes(path_);

  // Same (network, plan) → byte-identical artifact.
  const ExecutionPlan plan = compile_quicknet(*net);
  artifact::save(*net, plan, path_);
  EXPECT_EQ(read_bytes(path_), first) << "save is not deterministic";

  // save(load(x)) == x: deserialization loses nothing the serializer
  // writes — the golden-checksum property without cross-machine pinning.
  const std::string again = path_ + ".resaved";
  {
    const artifact::LoadedArtifact loaded = artifact::load(path_);
    artifact::save(*loaded.network, loaded.plan, again);
    EXPECT_EQ(read_bytes(again), first) << "round trip altered the bytes";
  }

  // The same under both weight-storage modes, on redundant checkpoints so
  // kAuto really stores dictionary banks, for quicknet and a shrunk
  // YOLOv2-Tiny.
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;
  for (const core::NetworkSpec& spec :
       {models::quicknet(10), models::yolov2_tiny(zoo)}) {
    auto redundant =
        core::convert_to_phonebit(FloatModel::random_redundant(spec, 640));
    for (const core::WeightCompress wc :
         {core::WeightCompress::kOff, core::WeightCompress::kAuto}) {
      SCOPED_TRACE(spec.name + (wc == core::WeightCompress::kOff
                                    ? " kOff"
                                    : " kAuto"));
      EngineOptions opts;
      opts.weight_compress = wc;
      artifact::save(
          *redundant,
          redundant->compile(opts, BlobDesc{BlobKind::kU8, spec.input}),
          path_);
      const std::vector<std::uint8_t> saved = read_bytes(path_);
      const artifact::LoadedArtifact loaded = artifact::load(path_);
      artifact::save(*loaded.network, loaded.plan, again);
      EXPECT_EQ(read_bytes(again), saved) << "round trip altered the bytes";
    }
  }
  std::remove(again.c_str());
}

TEST_F(ArtifactTest, HeaderLayoutIsPinned) {
  const auto net = save_quicknet();
  const std::vector<std::uint8_t> buf = read_bytes(path_);
  ASSERT_GE(buf.size(), static_cast<std::size_t>(artifact::kHeaderBytes));

  // The documented contract (DESIGN.md §8), byte for byte.
  EXPECT_EQ(std::memcmp(buf.data(), "PBA!", 4), 0);
  std::uint32_t version, endian, header_bytes;
  std::uint64_t payload_bytes, stored_sum;
  std::memcpy(&version, buf.data() + artifact::kVersionOffset, 4);
  std::memcpy(&endian, buf.data() + artifact::kEndianOffset, 4);
  std::memcpy(&header_bytes, buf.data() + artifact::kHeaderBytesOffset, 4);
  std::memcpy(&payload_bytes, buf.data() + artifact::kPayloadBytesOffset, 8);
  std::memcpy(&stored_sum, buf.data() + artifact::kChecksumOffset, 8);
  EXPECT_EQ(version, artifact::kFormatVersion);
  EXPECT_EQ(endian, artifact::kEndianMark);
  EXPECT_EQ(header_bytes, static_cast<std::uint32_t>(artifact::kHeaderBytes));
  EXPECT_EQ(payload_bytes,
            buf.size() - static_cast<std::size_t>(artifact::kHeaderBytes));
  EXPECT_EQ(stored_sum,
            artifact::checksum(buf.data() + artifact::kHeaderBytes,
                               buf.size() - artifact::kHeaderBytes));

  // Sections arrive in their fixed order with in-bounds bodies.
  const auto table = artifact::section_table(path_);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].tag, artifact::Section::kNetwork);
  EXPECT_EQ(table[1].tag, artifact::Section::kOptions);
  EXPECT_EQ(table[2].tag, artifact::Section::kInput);
  EXPECT_EQ(table[3].tag, artifact::Section::kTarget);
  for (const auto& sec : table) {
    EXPECT_GE(sec.body_offset, artifact::kHeaderBytes);
    EXPECT_LE(sec.body_offset + sec.body_bytes,
              static_cast<std::int64_t>(buf.size()));
  }
  // The network section tracks the params: on top of them it carries
  // names, shapes and the raw BN parameters (16 B per channel where
  // param_bytes counts the folded ~4 B) — about 5 KB on quicknet.
  EXPECT_GE(table[0].body_bytes, net->param_bytes());
  EXPECT_LE(table[0].body_bytes, net->param_bytes() + 8192);
}

TEST_F(ArtifactTest, TargetProfileRoundTrips) {
  auto net = save_quicknet();
  // Untargeted save records an empty target (the v2 default).
  EXPECT_EQ(artifact::load(path_).target_profile, "");

  const ExecutionPlan plan = compile_quicknet(*net);
  artifact::save(*net, plan, path_, "sd660");
  const artifact::LoadedArtifact loaded = artifact::load(path_);
  EXPECT_EQ(loaded.target_profile, "sd660");
  EXPECT_EQ(artifact::section_table(path_).size(), 4u);
}

// ---------------------------------------------------------------------------
// 3. Adversarial: corruption fails loudly with section + offset.
// ---------------------------------------------------------------------------

TEST_F(ArtifactTest, FlippedMagicRejected) {
  save_quicknet();
  std::vector<std::uint8_t> buf = read_bytes(path_);
  buf[0] ^= 0xFF;  // header is not checksummed: the magic check itself fires
  write_bytes(path_, buf);
  expect_rejected(path_, "bad magic");
}

TEST_F(ArtifactTest, StaleVersionRejected) {
  save_quicknet();
  const std::vector<std::uint8_t> saved = read_bytes(path_);
  // The loader reads exactly one layout: older versions (3 and 4 wrote
  // other records, 5 carried a serialized plan section) and newer ones are
  // rejected at the version field.
  for (const std::uint32_t stale : {3u, 4u, 5u, 7u}) {
    SCOPED_TRACE("version " + std::to_string(stale));
    std::vector<std::uint8_t> buf = saved;
    std::memcpy(buf.data() + artifact::kVersionOffset, &stale, 4);
    write_bytes(path_, buf);
    expect_rejected(path_, "unsupported artifact format version " +
                               std::to_string(stale));
    expect_rejected(path_, "(section 'header', byte offset " +
                               std::to_string(artifact::kVersionOffset) +
                               ")");
  }
}

TEST_F(ArtifactTest, ForeignEndiannessRejected) {
  save_quicknet();
  std::vector<std::uint8_t> buf = read_bytes(path_);
  const std::uint32_t swapped = 0x04030201u;
  std::memcpy(buf.data() + artifact::kEndianOffset, &swapped, 4);
  write_bytes(path_, buf);
  expect_rejected(path_, "endianness mismatch");
}

TEST_F(ArtifactTest, TruncationSweepAlwaysRejects) {
  save_quicknet();
  const std::vector<std::uint8_t> full = read_bytes(path_);
  ASSERT_GT(full.size(), 64u);

  // Edge lengths plus a seeded random sample across the whole file: every
  // proper prefix must be rejected (header checks catch short files, the
  // payload-length check catches everything past the header).
  std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 15, 16, 23, 24, 31, 32,
                                   33, full.size() - 1};
  Rng rng(631);
  for (int i = 0; i < 24; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng() % full.size()));
  }
  for (const std::size_t cut : cuts) {
    if (cut >= full.size()) continue;
    write_bytes(path_, std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    expect_rejected(path_, "");
  }
}

TEST_F(ArtifactTest, CorruptedWeightPadWordRejected) {
  save_quicknet();
  std::vector<std::uint8_t> buf = read_bytes(path_);
  const auto table = artifact::section_table(path_);
  ASSERT_EQ(table[0].tag, artifact::Section::kNetwork);

  // Walk the documented network-section layout to the first packed weight
  // word of conv1 (an InputConv2d with C_in = 3, so bits 3..63 of every
  // weight word are pad): name, layer count, kind, layer name, geometry,
  // weight shape, word count — then the words themselves.
  auto u32at = [&](std::int64_t at) {
    std::uint32_t v;
    std::memcpy(&v, buf.data() + at, 4);
    return v;
  };
  std::int64_t off = table[0].body_offset;
  off += 4 + u32at(off);  // network name
  off += 4;               // layer count
  off += 1;               // layer kind (InputConv2d)
  off += 4 + u32at(off);  // layer name
  off += 6 * 8;           // conv geometry
  off += 4 * 8;           // weight bank shape
  off += 8;               // total word count
  buf[static_cast<std::size_t>(off + 7)] |= 0x80;  // set pad bit 63

  // Re-seal the checksum so the STRUCTURAL pad-word validator is what
  // rejects the file, not the checksum.
  patch_checksum(buf);
  write_bytes(path_, buf);
  expect_rejected(path_, "corrupted weight words");
}

TEST_F(ArtifactTest, WrappedPayloadLengthRejected) {
  // A 24-byte file with a valid header prefix and payload_bytes crafted to
  // equal the UNSIGNED-WRAPPED size-minus-header value: the loader must
  // reject it as a truncated header, never read the (absent) checksum
  // field past the end of the buffer.
  std::vector<std::uint8_t> evil(24, 0);
  std::memcpy(evil.data() + artifact::kMagicOffset, &artifact::kMagic, 4);
  std::memcpy(evil.data() + artifact::kVersionOffset,
              &artifact::kFormatVersion, 4);
  std::memcpy(evil.data() + artifact::kEndianOffset, &artifact::kEndianMark,
              4);
  const std::uint32_t hb = static_cast<std::uint32_t>(artifact::kHeaderBytes);
  std::memcpy(evil.data() + artifact::kHeaderBytesOffset, &hb, 4);
  const std::uint64_t wrapped =
      static_cast<std::uint64_t>(evil.size()) -
      static_cast<std::uint64_t>(artifact::kHeaderBytes);  // wraps huge
  std::memcpy(evil.data() + artifact::kPayloadBytesOffset, &wrapped, 8);
  write_bytes(path_, evil);
  expect_rejected(path_, "truncated header");
}

/// Options value 1 (the retired storage-only compression mode, which kAuto
/// now is) in a resealed file names its section and the offset just past
/// the byte.
TEST_F(ArtifactTest, ResealedRetiredCompressionBytesRejected) {
  EngineOptions opts;
  opts.weight_compress = core::WeightCompress::kAuto;
  save_quicknet(opts);
  std::vector<std::uint8_t> buf = read_bytes(path_);
  const auto table = artifact::section_table(path_);

  // weight_compress is the options record's last byte.
  ASSERT_EQ(table[1].tag, artifact::Section::kOptions);
  const std::int64_t at = table[1].body_offset + table[1].body_bytes - 1;
  ASSERT_EQ(buf[static_cast<std::size_t>(at)],
            static_cast<std::uint8_t>(core::WeightCompress::kAuto));
  buf[static_cast<std::size_t>(at)] = 1;
  patch_checksum(buf);
  write_bytes(path_, buf);
  expect_rejected(path_, "invalid weight compression mode 1 (section "
                         "'options', byte offset " +
                             std::to_string(at + 1) + ")");
}

/// The options section is all load() needs to rebuild the plan, so a
/// resealed options edit that names another valid configuration loads —
/// as exactly the plan compile builds under those options, running
/// bit-exactly like it.
TEST_F(ArtifactTest, ResealedOptionsLoadAsTheirCompiledPlan) {
  core::Engine engine(testing::test_device());
  auto net = save_quicknet();
  const std::vector<std::uint8_t> saved = read_bytes(path_);
  const auto table = artifact::section_table(path_);
  ASSERT_EQ(table[1].tag, artifact::Section::kOptions);
  // Options record: four flag bytes (fuse_conv_pool fourth), ..., then
  // conv_path and weight_compress as its last two bytes.
  const std::int64_t fuse_at = table[1].body_offset + 3;
  const std::int64_t path_at = table[1].body_offset + table[1].body_bytes - 2;
  ASSERT_EQ(saved[static_cast<std::size_t>(fuse_at)], 1);
  ASSERT_EQ(saved[static_cast<std::size_t>(path_at)],
            static_cast<std::uint8_t>(core::ConvPathPreference::kAuto));

  struct Edit {
    const char* label;
    std::int64_t at;
    std::uint8_t value;
    EngineOptions opts;
  };
  EngineOptions unfused;
  unfused.fuse_conv_pool = false;
  EngineOptions gemm;
  gemm.conv_path = core::ConvPathPreference::kGemm;
  const U8Tensor image = datasets::cifar_like_image(634);
  for (const Edit& e :
       {Edit{"fuse_conv_pool off", fuse_at, 0, unfused},
        Edit{"conv_path kGemm", path_at,
             static_cast<std::uint8_t>(core::ConvPathPreference::kGemm),
             gemm}}) {
    SCOPED_TRACE(e.label);
    std::vector<std::uint8_t> edited = saved;
    edited[static_cast<std::size_t>(e.at)] = e.value;
    patch_checksum(edited);
    write_bytes(path_, edited);
    const artifact::LoadedArtifact loaded = engine.load_artifact(path_);
    const ExecutionPlan want = net->compile(
        e.opts, BlobDesc{BlobKind::kU8, Shape{1, 32, 32, 3}});
    EXPECT_TRUE(loaded.plan.options() == e.opts);
    EXPECT_EQ(loaded.plan.dump(), want.dump());
    EXPECT_NE(want.dump(), compile_quicknet(*net).dump())
        << "the edit did not change the plan";
    auto s1 = engine.create_session();
    auto s2 = engine.create_session();
    EXPECT_TRUE(testing::expect_bitexact(loaded.plan.run(s2, core::Blob{image}),
                                         want.run(s1, core::Blob{image})));
  }
}

/// An input descriptor the network rejects (quicknet's conv1 takes 3
/// channels; the resealed descriptor says 4) fails the load-time compile,
/// reported at the input section's body offset.
TEST_F(ArtifactTest, ResealedInputTheNetworkRejectsNamesTheInputSection) {
  save_quicknet();
  std::vector<std::uint8_t> buf = read_bytes(path_);
  const auto table = artifact::section_table(path_);
  ASSERT_EQ(table[2].tag, artifact::Section::kInput);

  // Input record: blob kind byte, then the shape as n, h, w, c (i64 each).
  const std::int64_t c_at = table[2].body_offset + 1 + 3 * 8;
  std::int64_t c;
  std::memcpy(&c, buf.data() + c_at, 8);
  ASSERT_EQ(c, 3);
  const std::int64_t four = 4;
  std::memcpy(buf.data() + c_at, &four, 8);
  patch_checksum(buf);
  write_bytes(path_, buf);
  expect_rejected(path_, "network rejects the input descriptor u8[1,32,32,4]");
  expect_rejected(path_, "(section 'input', byte offset " +
                             std::to_string(table[2].body_offset) + ")");
}

TEST_F(ArtifactTest, RandomCorruptionSweepNeverCrashes) {
  save_quicknet();
  const std::vector<std::uint8_t> clean = read_bytes(path_);

  // Seeded single-bit flips across the whole file (header + payload): the
  // loader must reject every one with InvalidArgument + section + offset —
  // FNV-1a guarantees a single flipped payload byte changes the checksum,
  // and every header field is explicitly validated. No flip may crash,
  // hang, or load.
  Rng rng(632);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> evil = clean;
    const auto at = static_cast<std::size_t>(rng() % clean.size());
    evil[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    write_bytes(path_, evil);
    SCOPED_TRACE("bit flip at byte " + std::to_string(at));
    expect_rejected(path_, "");
  }
}

TEST_F(ArtifactTest, MissingFileRejected) {
  EXPECT_THROW(artifact::load("/nonexistent/dir/model.pba"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// API-level contracts: save-side validation, device-profile validation,
// artifact-backed serving.
// ---------------------------------------------------------------------------

TEST_F(ArtifactTest, SaveRejectsPlanFromAnotherNetwork) {
  // Same architecture, different weights: the plan's layer pointers do not
  // belong to the network being saved — a silent mixup would ship weights
  // under options and an input descriptor compiled for another network.
  const FloatModel m1 = FloatModel::random(models::quicknet(10), 640);
  const FloatModel m2 = FloatModel::random(models::quicknet(10), 641);
  auto net1 = core::convert_to_phonebit(m1);
  auto net2 = core::convert_to_phonebit(m2);
  const ExecutionPlan plan = compile_quicknet(*net1);
  EXPECT_THROW(artifact::save(*net2, plan, path_), InvalidArgument);
}

TEST_F(ArtifactTest, LoadValidatesDeviceProfileBudget) {
  // alexnet (shrunk 3×) still carries a ~2 MB fp32 head: it fits the
  // Snapdragon 855's 8 GB but not a 1 MB toy budget — load_artifact is
  // where a too-small phone finds out, not the first forward.
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;
  const FloatModel model = FloatModel::random(models::alexnet(zoo), 642);
  auto net = core::convert_to_phonebit(model);
  core::Engine big(testing::test_device());
  const ExecutionPlan plan = net->compile(
      core::EngineOptions{}, BlobDesc{BlobKind::kU8, model.spec.input});
  artifact::save(*net, plan, path_);

  EXPECT_GT(net->param_bytes(), std::int64_t{1} << 20);
  EXPECT_NO_THROW(big.load_artifact(path_));

  auto tiny_profile = oclsim::DeviceProfile::snapdragon855();
  tiny_profile.ram_mb = 1;
  core::Engine tiny(std::make_shared<oclsim::Device>(tiny_profile, 2));
  EXPECT_THROW(tiny.load_artifact(path_), OutOfMemoryError);

  // artifact::load itself is device-agnostic — only the engine validates.
  EXPECT_NO_THROW(artifact::load(path_));
}

TEST_F(ArtifactTest, BatchRunnerServesLoadedArtifact) {
  core::Engine engine(testing::test_device());
  auto net = save_quicknet();
  auto loaded = std::make_shared<const artifact::LoadedArtifact>(
      engine.load_artifact(path_));
  const ExecutionPlan plan = compile_quicknet(*net);

  serve::BatchRunner runner(engine, loaded, /*workers=*/4);
  std::vector<core::Blob> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.emplace_back(
        datasets::cifar_like_image(650 + static_cast<std::uint64_t>(i)));
  }
  const auto summary = runner.run(std::move(inputs));

  // The workers ran the loaded shared plan: every request is bit-exact
  // against the in-memory compiled plan.
  ASSERT_EQ(summary.results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto session = engine.create_session();
    const auto serial = plan.run(
        session, core::Blob{datasets::cifar_like_image(
                     650 + static_cast<std::uint64_t>(i))});
    EXPECT_TRUE(testing::expect_bitexact(
        summary.results[static_cast<std::size_t>(i)], serial))
        << "request " << i;
  }
}

}  // namespace
}  // namespace phonebit
