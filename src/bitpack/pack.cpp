#include "bitpack/pack.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace phonebit::bitpack {

PackedTensor pack_signs(const FloatTensor& t) {
  PB_CHECK(t.layout() == Layout::kNHWC,
           "pack_signs requires NHWC input (got " << to_string(t.layout())
                                                  << "); convert first");
  const Shape& s = t.shape();
  PackedTensor out(s);
  // Hot loop over raw spans: NHWC channels are contiguous per pixel, so
  // each packed word accumulates in a register and stores once — no
  // per-bit member loads or read-modify-write word traffic.
  const float* src = t.data();
  std::uint64_t* dst = out.data();
  const std::int64_t pixels = s.n * s.h * s.w;
  const std::int64_t wpp = out.words_per_pixel();
  for (std::int64_t p = 0; p < pixels; ++p) {
    const float* px = src + p * s.c;
    std::uint64_t* words = dst + p * wpp;
    for (std::int64_t j = 0; j < wpp; ++j) {
      const std::int64_t limit =
          std::min<std::int64_t>(kWordBits, s.c - j * kWordBits);
      std::uint64_t acc = 0;
      for (std::int64_t b = 0; b < limit; ++b) {
        if (px[j * kWordBits + b] >= 0.0f) acc |= std::uint64_t{1} << b;
      }
      words[j] = acc;
    }
  }
  return out;
}

FloatTensor unpack_signs(const PackedTensor& p) {
  const Shape& s = p.shape();
  FloatTensor out(s, Layout::kNHWC);
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t w = 0; w < s.w; ++w)
        for (std::int64_t c = 0; c < s.c; ++c)
          out(n, h, w, c) = p.get(n, h, w, c) ? 1.0f : -1.0f;
  return out;
}

namespace {

/// Bit b of `bits` as the float +1 (set) or -1: the bit lands in the sign
/// bit of 1.0f, inverted, with no branch, so the loops vectorize.
inline float sign_of_bit(std::uint32_t bits, int b) {
  return std::bit_cast<float>(0x3F800000u | ((~bits >> b) & 1u) << 31);
}

}  // namespace

void unpack_sign_words(const std::uint64_t* words, std::int64_t bits,
                       float* dst) {
  for (; bits > 0; bits -= kWordBits, dst += kWordBits) {
    const std::uint64_t w = *words++;
    const auto lo = static_cast<std::uint32_t>(w);
    const auto hi = static_cast<std::uint32_t>(w >> 32);
    if (bits >= kWordBits) {
      for (int b = 0; b < 32; ++b) dst[b] = sign_of_bit(lo, b);
      for (int b = 0; b < 32; ++b) dst[32 + b] = sign_of_bit(hi, b);
    } else {
      for (int b = 0; b < bits; ++b) {
        dst[b] = sign_of_bit(b < 32 ? lo : hi, b % 32);
      }
    }
  }
}

std::array<PackedTensor, 8> split_bit_planes(const U8Tensor& image) {
  PB_CHECK(image.layout() == Layout::kNHWC,
           "split_bit_planes requires NHWC input");
  const Shape& s = image.shape();
  std::array<PackedTensor, 8> planes{
      PackedTensor(s), PackedTensor(s), PackedTensor(s), PackedTensor(s),
      PackedTensor(s), PackedTensor(s), PackedTensor(s), PackedTensor(s)};
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t w = 0; w < s.w; ++w) {
        for (std::int64_t c = 0; c < s.c; ++c) {
          const std::uint8_t px = image(n, h, w, c);
          for (int k = 0; k < 8; ++k) {
            if ((px >> k) & 1) {
              planes[static_cast<std::size_t>(k)].set(n, h, w, c, true);
            }
          }
        }
      }
  return planes;
}

PackedTensor pack_filter_signs(const FloatTensor& filters) {
  return pack_signs(filters);
}

}  // namespace phonebit::bitpack
