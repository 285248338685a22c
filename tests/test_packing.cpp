// Channel packing: the packed-tensor word layout and sign round trips.
#include <gtest/gtest.h>

#include "bitpack/pack.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

using bitpack::PackedTensor;

TEST(PackedTensor, GetSetAndWordLayout) {
  PackedTensor p(Shape{1, 2, 2, 70});  // 2 words per pixel
  EXPECT_EQ(p.words_per_pixel(), 2);
  EXPECT_EQ(p.total_words(), 8);
  p.set(0, 1, 1, 69, true);
  EXPECT_TRUE(p.get(0, 1, 1, 69));
  EXPECT_FALSE(p.get(0, 1, 1, 68));
  // Bit 69 lives in word 1, bit 5 of the last pixel.
  EXPECT_EQ(p.data()[p.word_offset(0, 1, 1, 1)], std::uint64_t{1} << 5);
  p.set(0, 1, 1, 69, false);
  EXPECT_FALSE(p.get(0, 1, 1, 69));
}

TEST(PackedTensor, OutOfRangeThrows) {
  PackedTensor p(Shape{1, 2, 2, 8});
  EXPECT_THROW(p.get(0, 0, 0, 8), InvalidArgument);
  EXPECT_THROW(p.set(0, 2, 0, 0, true), InvalidArgument);
}

class PackRoundtrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PackRoundtrip, SignsSurvive) {
  const std::int64_t channels = GetParam();
  const FloatTensor t =
      testing::random_sign_tensor(Shape{2, 3, 4, channels},
                                  static_cast<std::uint64_t>(channels));
  const PackedTensor p = bitpack::pack_signs(t);
  EXPECT_TRUE(allclose(testing::unpack_signs(p), t, 0.0f));
  // Padding bits beyond the channel count stay zero (Eqn 1 relies on it).
  if (channels % 64 != 0) {
    const std::uint64_t last = p.data()[p.word_offset(1, 2, 3,
                                                      p.words_per_pixel() - 1)];
    const int used = static_cast<int>(channels % 64);
    EXPECT_EQ(last & ~low_mask<std::uint64_t>(used), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelWidths, PackRoundtrip,
                         ::testing::Values(1, 3, 8, 17, 63, 64, 65, 127, 128,
                                           200, 256));

TEST(Packing, ZeroBinarizesToPlusOne) {
  FloatTensor t(Shape{1, 1, 1, 4});
  t.fill(0.0f);
  const PackedTensor p = bitpack::pack_signs(t);
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(p.get(0, 0, 0, c));
}

TEST(Packing, RequiresNhwc) {
  FloatTensor t(Shape{1, 2, 2, 8}, Layout::kNCHW);
  EXPECT_THROW(bitpack::pack_signs(t), InvalidArgument);
}

}  // namespace
}  // namespace phonebit
