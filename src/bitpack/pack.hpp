// PhoneBit — packing float tensors into packed binary tensors, and the
// word-wise sign unpack of the full-precision heads.
#pragma once

#include <cstdint>

#include "bitpack/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::bitpack {

/// Sign-binarizes a float NHWC tensor: bit = 1 iff value >= 0 (+1), else 0
/// (-1). This is the paper's Eqn 7 binarization applied at pack time.
PackedTensor pack_signs(const FloatTensor& t);

/// Expands `bits` sign bits, bit i at bit i % 64 of words[i / 64], into
/// `dst[0..bits)` as +1 (bit set) or -1, one 64-bit word at a time: the
/// unpack kernel of the full-precision heads (one pixel's channel words).
void unpack_sign_words(const std::uint64_t* words, std::int64_t bits,
                       float* dst);

/// Packs a float filter bank laid out as (C_out, KH, KW, C_in) NHWC into a
/// PackedTensor with the same logical shape (weights binarized by sign).
PackedTensor pack_filter_signs(const FloatTensor& filters);

}  // namespace phonebit::bitpack
