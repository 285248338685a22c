// PhoneBit — packing/unpacking between float tensors and packed binary
// tensors, plus the bit-plane splitter for the 8-bit first layer (Eqn 2).
#pragma once

#include <array>
#include <cstdint>

#include "bitpack/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::bitpack {

/// Sign-binarizes a float NHWC tensor: bit = 1 iff value >= 0 (+1), else 0
/// (-1). This is the paper's Eqn 7 binarization applied at pack time.
PackedTensor pack_signs(const FloatTensor& t);

/// Expands a packed tensor back to floats in {-1, +1} (testing/debug).
FloatTensor unpack_signs(const PackedTensor& p);

/// Expands `bits` sign bits, bit i at bit i % 64 of words[i / 64], into
/// `dst[0..bits)` as +1 (bit set) or -1, one 64-bit word at a time: the
/// unpack kernel of the full-precision heads (one pixel's channel words).
void unpack_sign_words(const std::uint64_t* words, std::int64_t bits,
                       float* dst);

/// Splits an 8-bit NHWC image into 8 packed bit-planes: plane[k] holds bit k
/// of every pixel/channel (Eqn 2: I = sum_k 2^k * I_k, k = 0..7).
std::array<PackedTensor, 8> split_bit_planes(const U8Tensor& image);

/// Packs a float filter bank laid out as (C_out, KH, KW, C_in) NHWC into a
/// PackedTensor with the same logical shape (weights binarized by sign).
PackedTensor pack_filter_signs(const FloatTensor& filters);

}  // namespace phonebit::bitpack
