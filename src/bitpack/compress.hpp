// PhoneBit — compile-time weight compression for packed binary filter banks.
//
// "Exploiting Kernel Compression on BNNs" (PAPERS.md) observes that trained
// binary filter banks are highly redundant: many flattened filter rows are
// bit-identical or differ in a handful of words. A packed conv weight bank
// (n=C_out, h=KH, w=KW, c=C_in) stores each filter as one contiguous row of
// k_words = KH*KW*ceil(C_in/64) words, so redundancy factors cleanly into
//
//   dictionary  — the unique (canonical) filter rows, k_words each
//   row_index   — per filter, which dictionary row it references
//   deltas      — per filter, a sparse XOR patch (word index + mask) applied
//                 on top of its dictionary row; exact duplicates have none
//
// Reconstruction is exact (dict[row_index[f]] ^ deltas[f] == filter f), so
// compression is lossless. It only changes how .pba artifacts store the
// weights (DESIGN.md §12): the loader reconstructs the packed bank and every
// conv path runs on it exactly as on uncompressed weights.
#pragma once

#include <cstdint>
#include <vector>

#include "bitpack/packed_tensor.hpp"

namespace phonebit::bitpack {

/// One sparse XOR patch entry: filter word `word` differs from its
/// dictionary row by the nonzero bit set `mask`.
struct FilterDelta {
  std::uint32_t word = 0;
  std::uint64_t mask = 0;
  friend bool operator==(const FilterDelta&, const FilterDelta&) = default;
};

/// Aggregate compression accounting for one filter bank (pbc compress-stats
/// and the per-step plan records are printed from this).
struct CompressStats {
  std::int64_t filters = 0;       ///< C_out
  std::int64_t k_words = 0;       ///< words per flattened filter row
  std::int64_t unique_rows = 0;   ///< dictionary rows
  std::int64_t exact_dups = 0;    ///< filters with a dup row and no deltas
  std::int64_t delta_filters = 0; ///< filters carrying a nonempty patch
  std::int64_t delta_words = 0;   ///< total patch entries across filters
  std::int64_t raw_bytes = 0;     ///< filters * k_words * 8
  std::int64_t encoded_bytes = 0; ///< serialized dict+index+delta footprint
  double ratio() const {
    return encoded_bytes > 0 ? static_cast<double>(raw_bytes) /
                                   static_cast<double>(encoded_bytes)
                             : 1.0;
  }
  friend bool operator==(const CompressStats&, const CompressStats&) = default;
};

/// Lossless dictionary/index/delta factorization of one packed filter bank.
/// Built deterministically from the weights (same bank for the same bytes,
/// on every thread and every load), or adopted verbatim from an artifact so
/// `Engine::load_artifact` never re-clusters.
class CompressedFilterBank {
 public:
  /// Deterministic single-pass clustering (DESIGN.md §12): filters in index
  /// order; a content-identical earlier filter shares its dictionary row and
  /// patch; otherwise the filter is matched against existing dictionary rows
  /// (lowest index wins ties) and encoded as a delta patch when it differs
  /// in at most k_words/3 words; otherwise it opens a new dictionary row.
  static CompressedFilterBank build(const PackedTensor& weights);

  /// Adopts pre-validated parts (the artifact loader). `filter_shape` is the
  /// weight-bank shape (n=C_out, h=KH, w=KW, c=C_in); vectors must satisfy
  /// the invariants build() guarantees — the loader revalidates before
  /// constructing.
  CompressedFilterBank(Shape filter_shape, std::vector<std::uint64_t> dict,
                       std::vector<std::uint32_t> row_index,
                       std::vector<std::uint32_t> delta_begin,
                       std::vector<FilterDelta> deltas);

  const Shape& filter_shape() const noexcept { return shape_; }
  std::int64_t k_words() const noexcept { return k_words_; }
  std::int64_t unique_rows() const noexcept {
    return static_cast<std::int64_t>(dict_.size()) / k_words_;
  }
  const std::uint64_t* dict_row(std::int64_t i) const noexcept {
    return dict_.data() + i * k_words_;
  }
  const std::vector<std::uint64_t>& dict() const noexcept { return dict_; }
  const std::vector<std::uint32_t>& row_index() const noexcept {
    return row_index_;
  }
  /// CSR offsets into deltas(): filter f's patch is [begin[f], begin[f+1]).
  const std::vector<std::uint32_t>& delta_begin() const noexcept {
    return delta_begin_;
  }
  const std::vector<FilterDelta>& deltas() const noexcept { return deltas_; }
  const CompressStats& stats() const noexcept { return stats_; }

  /// Exact inverse of build(): the packed weight bank, bit-identical to the
  /// tensor the bank was built from.
  PackedTensor reconstruct() const;

  friend bool operator==(const CompressedFilterBank& a,
                         const CompressedFilterBank& b) {
    return a.shape_ == b.shape_ && a.dict_ == b.dict_ &&
           a.row_index_ == b.row_index_ && a.delta_begin_ == b.delta_begin_ &&
           a.deltas_ == b.deltas_;
  }

 private:
  CompressedFilterBank() = default;  // build() fills the parts in place

  void finalize();  // stats_ from the parts

  Shape shape_{};
  std::int64_t k_words_ = 0;
  std::vector<std::uint64_t> dict_;
  std::vector<std::uint32_t> row_index_;
  std::vector<std::uint32_t> delta_begin_;
  std::vector<FilterDelta> deltas_;
  CompressStats stats_{};
};

/// Serialized byte footprint of the dictionary/index/delta sections exactly
/// as the artifact writer frames them (k_words i64 + unique u32 + dict
/// words + per-filter index u32 + delta count u32 + CSR offsets u32 + 12
/// bytes per delta entry). save() picks compressed storage only when this
/// beats filters*k_words*8.
std::int64_t compressed_encoded_bytes(std::int64_t filters,
                                      std::int64_t k_words,
                                      std::int64_t unique_rows,
                                      std::int64_t delta_words) noexcept;

}  // namespace phonebit::bitpack
