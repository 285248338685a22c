// The zero-allocation contract of compiled forwards (DESIGN.md §7),
// asserted through the buffer-allocation hook (common/alloc_count.hpp):
// every owning Tensor/PackedTensor allocation and every ScratchArena/
// ArenaPool growth bumps a process-wide counter, so snapshotting it around
// warm forwards proves the hot path allocated nothing. With slot-backed
// activations every intermediate is a borrowed view over the session
// arena's slab; the only per-forward allocation left is the owned output
// tensor handed to the caller — and RunOptions::borrow_output removes even
// that, for a true zero-allocation steady state.
#include <gtest/gtest.h>

#include <cstring>

#include "common/alloc_count.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using core::ExecutionPlan;
using core::FloatModel;
using core::RunOptions;

TEST(AllocCount, WarmCompiledForwardAllocatesNothing) {
  const FloatModel model = FloatModel::random(models::quicknet(10), 501);
  const U8Tensor image = datasets::cifar_like_image(502);
  auto net = core::convert_to_phonebit(model);
  core::Engine engine(testing::test_device());
  const ExecutionPlan plan = net->compile(
      core::EngineOptions{}, core::BlobDesc{core::BlobKind::kU8, image.shape(
          )});

  auto session = engine.create_session();
  // One input blob, reused across forwards (run() only reads it).
  const core::Blob input{image};
  // Warm-up: the first run reserves the exact scratch + slab peaks.
  const auto reference = plan.run(session, input);
  const FloatTensor expected = reference.float_output();

  // Steady state, borrowed output: ZERO buffer allocations per forward.
  RunOptions borrow;
  borrow.borrow_output = true;
  const std::int64_t before = buffer_alloc_count();
  const int grows_before = session.arena().growth_events();
  for (int i = 0; i < 5; ++i) {
    const auto result = plan.run(session, input, borrow);
    // The borrowed output is a slab view — correct until the next run.
    const auto* out = std::get_if<FloatTensor>(&result.output);
    ASSERT_NE(out, nullptr);
    EXPECT_FALSE(out->owns_storage()) << "run " << i;
    EXPECT_TRUE(testing::expect_bitexact(*out, expected)) << "run " << i;
  }
  EXPECT_EQ(buffer_alloc_count(), before)
      << "a warm compiled forward heap-allocated a buffer";
  EXPECT_EQ(session.arena().growth_events(), grows_before);

  // Default mode: exactly ONE owning allocation per forward — the output
  // tensor handed to the caller (which must outlive the session's slab).
  const std::int64_t before_owned = buffer_alloc_count();
  const auto owned = plan.run(session, input);
  EXPECT_EQ(buffer_alloc_count(), before_owned + 1);
  EXPECT_TRUE(std::get<FloatTensor>(owned.output).owns_storage());
  EXPECT_TRUE(testing::expect_bitexact(owned.float_output(), expected));
}

/// The contract holds with the conv→pool fusion off too (every layer its
/// own slot-backed step), and across the ablation conv paths B and C whose
/// intermediates live in arena scratch.
TEST(AllocCount, WarmForwardAllocatesNothingAcrossConvPaths) {
  struct OptCase {
    const char* label;
    core::EngineOptions opts;
  };
  std::vector<OptCase> cases;
  cases.push_back({"paper-default", core::EngineOptions{}});
  core::EngineOptions no_pool_fuse;
  no_pool_fuse.fuse_conv_pool = false;
  cases.push_back({"no-conv-pool-fusion", no_pool_fuse});
  core::EngineOptions no_fuse;
  no_fuse.fuse_bn_binarize = false;  // path C
  cases.push_back({"no-fusion", no_fuse});
  core::EngineOptions no_integrate;
  no_integrate.integrate_packing = false;  // path B
  cases.push_back({"separate-pack", no_integrate});
  core::EngineOptions gemm;
  gemm.conv_path = core::ConvPathPreference::kGemm;  // path D: im2col panel
  cases.push_back({"bit-gemm", gemm});

  const FloatModel model = FloatModel::random(models::quicknet(10), 503);
  const U8Tensor image = datasets::cifar_like_image(504);
  auto net = core::convert_to_phonebit(model);

  for (const OptCase& c : cases) {
    core::Engine engine(testing::test_device());
    const ExecutionPlan plan = net->compile(
        c.opts, core::BlobDesc{core::BlobKind::kU8, image.shape()});
    auto session = engine.create_session();
    const core::Blob input{image};
    plan.run(session, input);  // warm-up

    RunOptions borrow;
    borrow.borrow_output = true;
    const std::int64_t before = buffer_alloc_count();
    for (int i = 0; i < 3; ++i) {
      plan.run(session, input, borrow);
    }
    EXPECT_EQ(buffer_alloc_count(), before) << c.label;
  }
}

/// Batched (N > 1) plans keep both halves of the contract: the session
/// arena lands byte-exactly on the liveness pass's batched peaks (slab +
/// scratch scale with N — including path D's N-scaled im2col panel), and
/// warm borrowed-output forwards through the batched plan allocate nothing.
TEST(AllocCount, BatchedPlanPeaksExactAndWarmForwardAllocatesNothing) {
  const FloatModel model = FloatModel::random(models::quicknet(10), 505);
  const U8Tensor image = datasets::cifar_like_image(506);
  auto net = core::convert_to_phonebit(model);

  struct OptCase {
    const char* label;
    core::EngineOptions opts;
  };
  std::vector<OptCase> cases;
  cases.push_back({"auto", core::EngineOptions{}});
  core::EngineOptions gemm;
  gemm.conv_path = core::ConvPathPreference::kGemm;
  cases.push_back({"bit-gemm", gemm});

  for (const OptCase& c : cases) {
    for (const std::int64_t n : {std::int64_t{2}, std::int64_t{4}}) {
      Shape bshape = image.shape();
      bshape.n = n;
      U8Tensor batch(bshape, image.layout());
      for (std::int64_t b = 0; b < n; ++b) {
        std::memcpy(batch.data() + b * image.elems(), image.data(),
                    static_cast<std::size_t>(image.elems()));
      }
      core::Engine engine(testing::test_device());
      const ExecutionPlan plan = net->compile(
          c.opts, core::BlobDesc{core::BlobKind::kU8, bshape});
      auto session = engine.create_session();
      ASSERT_EQ(session.arena().capacity_bytes(), 0) << c.label;
      const core::Blob input{batch};
      plan.run(session, input);  // warm-up: reserves the exact peaks
      // Byte-exact: the batched liveness pass predicted this capacity.
      EXPECT_EQ(session.arena().capacity_bytes(),
                plan.peak_scratch_bytes() + plan.slab_bytes())
          << c.label << " n=" << n;

      RunOptions borrow;
      borrow.borrow_output = true;
      const std::int64_t before = buffer_alloc_count();
      const int grows_before = session.arena().growth_events();
      for (int i = 0; i < 3; ++i) {
        plan.run(session, input, borrow);
      }
      EXPECT_EQ(buffer_alloc_count(), before)
          << c.label << " n=" << n
          << ": a warm batched forward heap-allocated a buffer";
      EXPECT_EQ(session.arena().growth_events(), grows_before)
          << c.label << " n=" << n;
    }
  }
}

/// Compressed-weight plans keep the whole contract: the lazily built filter
/// banks live off the arena (a compile-time shared_ptr), so the arena lands
/// byte-exactly on the plan's peaks and warm forwards stay zero-allocation,
/// on both the fused default path and the bit-GEMM path.
TEST(AllocCount, WarmCompressedForwardAllocatesNothingAndPeaksExact) {
  const core::FloatModel model =
      FloatModel::random_redundant(models::quicknet(10), 507);
  const U8Tensor image = datasets::cifar_like_image(508);
  auto net = core::convert_to_phonebit(model);

  struct OptCase {
    const char* label;
    core::WeightCompress compress;
    core::ConvPathPreference path;
  };
  const OptCase cases[] = {
      {"auto", core::WeightCompress::kAuto, core::ConvPathPreference::kAuto},
      {"auto-gemm", core::WeightCompress::kAuto,
       core::ConvPathPreference::kGemm},
  };
  for (const OptCase& c : cases) {
    core::EngineOptions opts;
    opts.weight_compress = c.compress;
    opts.conv_path = c.path;
    core::Engine engine(testing::test_device());
    const ExecutionPlan plan = net->compile(
        opts, core::BlobDesc{core::BlobKind::kU8, image.shape()});
    auto session = engine.create_session();
    ASSERT_EQ(session.arena().capacity_bytes(), 0) << c.label;
    const core::Blob input{image};
    plan.run(session, input);  // warm-up: reserves the exact peaks
    // Byte-exact: compression changed neither scratch nor slab demand.
    EXPECT_EQ(session.arena().capacity_bytes(),
              plan.peak_scratch_bytes() + plan.slab_bytes())
        << c.label;

    RunOptions borrow;
    borrow.borrow_output = true;
    const std::int64_t before = buffer_alloc_count();
    const int grows_before = session.arena().growth_events();
    for (int i = 0; i < 3; ++i) {
      plan.run(session, input, borrow);
    }
    EXPECT_EQ(buffer_alloc_count(), before)
        << c.label << ": a warm compressed forward heap-allocated a buffer";
    EXPECT_EQ(session.arena().growth_events(), grows_before) << c.label;
  }
}

}  // namespace
}  // namespace phonebit
