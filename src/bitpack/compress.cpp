#include "bitpack/compress.hpp"

#include <cstring>
#include <map>

namespace phonebit::bitpack {

std::int64_t compressed_encoded_bytes(std::int64_t filters,
                                      std::int64_t k_words,
                                      std::int64_t unique_rows,
                                      std::int64_t delta_words) noexcept {
  return 8 +                        // k_words (i64)
         4 +                        // unique row count (u32)
         unique_rows * k_words * 8  // dictionary words
         + filters * 4              // per-filter row index (u32)
         + 4                        // total delta count (u32)
         + (filters + 1) * 4        // CSR delta offsets (u32)
         + delta_words * 12;        // word (u32) + mask (u64) per entry
}

CompressedFilterBank CompressedFilterBank::build(const PackedTensor& weights) {
  PB_CHECK(weights.data() != nullptr, "cannot compress an empty filter bank");
  const Shape shape = weights.shape();
  const std::int64_t nf = shape.n;
  const std::int64_t k = shape.h * shape.w * weights.words_per_pixel();

  CompressedFilterBank bank;
  bank.shape_ = shape;
  bank.k_words_ = k;
  bank.row_index_.reserve(static_cast<std::size_t>(nf));
  bank.delta_begin_.reserve(static_cast<std::size_t>(nf) + 1);
  bank.delta_begin_.push_back(0);

  // Content -> first filter index with that content. std::map (not
  // unordered) so iteration/clustering is fully deterministic.
  std::map<std::vector<std::uint64_t>, std::int64_t> seen;

  for (std::int64_t f = 0; f < nf; ++f) {
    const std::uint64_t* row = weights.pixel(f, 0, 0);
    std::vector<std::uint64_t> key(row, row + k);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      // Exact duplicate of an earlier filter: share its whole encoding.
      const std::int64_t prev = it->second;
      bank.row_index_.push_back(bank.row_index_[prev]);
      for (std::uint32_t e = bank.delta_begin_[prev];
           e < bank.delta_begin_[prev + 1]; ++e) {
        bank.deltas_.push_back(bank.deltas_[e]);
      }
      bank.delta_begin_.push_back(
          static_cast<std::uint32_t>(bank.deltas_.size()));
      continue;
    }
    seen.emplace(std::move(key), f);

    // Nearest existing dictionary row by differing-word count; lowest index
    // wins ties so the pass is order-deterministic.
    const std::int64_t unique = bank.unique_rows();
    std::int64_t best_u = -1;
    std::int64_t best_cnt = k + 1;
    for (std::int64_t u = 0; u < unique; ++u) {
      const std::uint64_t* d = bank.dict_row(u);
      std::int64_t cnt = 0;
      for (std::int64_t w = 0; w < k && cnt < best_cnt; ++w) {
        cnt += (row[w] != d[w]) ? 1 : 0;
      }
      if (cnt < best_cnt) {
        best_cnt = cnt;
        best_u = u;
      }
    }
    // Near-duplicate threshold: a patch is worth it while it touches at
    // most a third of the row — 12 bytes/entry vs 8 bytes/word raw.
    if (best_u >= 0 && best_cnt * 3 <= k) {
      bank.row_index_.push_back(static_cast<std::uint32_t>(best_u));
      const std::uint64_t* d = bank.dict_row(best_u);
      for (std::int64_t w = 0; w < k; ++w) {
        if (row[w] != d[w]) {
          bank.deltas_.push_back(
              {static_cast<std::uint32_t>(w), row[w] ^ d[w]});
        }
      }
    } else {
      bank.row_index_.push_back(static_cast<std::uint32_t>(unique));
      bank.dict_.insert(bank.dict_.end(), row, row + k);
    }
    bank.delta_begin_.push_back(
        static_cast<std::uint32_t>(bank.deltas_.size()));
  }

  bank.finalize();
  return bank;
}

CompressedFilterBank::CompressedFilterBank(Shape filter_shape,
                                           std::vector<std::uint64_t> dict,
                                           std::vector<std::uint32_t> row_index,
                                           std::vector<std::uint32_t> delta_begin,
                                           std::vector<FilterDelta> deltas)
    : shape_(filter_shape),
      k_words_(filter_shape.h * filter_shape.w *
               ceil_div(filter_shape.c, kWordBits)),
      dict_(std::move(dict)),
      row_index_(std::move(row_index)),
      delta_begin_(std::move(delta_begin)),
      deltas_(std::move(deltas)) {
  PB_CHECK(k_words_ > 0 && !dict_.empty() &&
               static_cast<std::int64_t>(dict_.size()) % k_words_ == 0,
           "compressed bank dictionary size " << dict_.size()
                                              << " not a multiple of k_words "
                                              << k_words_);
  PB_CHECK(static_cast<std::int64_t>(row_index_.size()) == shape_.n &&
               static_cast<std::int64_t>(delta_begin_.size()) == shape_.n + 1,
           "compressed bank index sizes do not match filter count "
               << shape_.n);
  finalize();
}

void CompressedFilterBank::finalize() {
  const std::int64_t nf = shape_.n;
  stats_.filters = nf;
  stats_.k_words = k_words_;
  stats_.unique_rows = unique_rows();
  stats_.delta_words = static_cast<std::int64_t>(deltas_.size());
  std::int64_t empty_patches = 0;
  for (std::int64_t f = 0; f < nf; ++f) {
    if (delta_begin_[f + 1] == delta_begin_[f]) {
      ++empty_patches;
    } else {
      ++stats_.delta_filters;
    }
  }
  // Every dictionary row is owned by exactly one patch-free filter (the one
  // appended verbatim); any other patch-free filter is an exact duplicate.
  stats_.exact_dups = empty_patches - stats_.unique_rows;
  stats_.raw_bytes = nf * k_words_ * 8;
  stats_.encoded_bytes = compressed_encoded_bytes(
      nf, k_words_, stats_.unique_rows, stats_.delta_words);
}

PackedTensor CompressedFilterBank::reconstruct() const {
  PackedTensor weights(shape_);
  for (std::int64_t f = 0; f < shape_.n; ++f) {
    std::uint64_t* row = weights.pixel(f, 0, 0);
    std::memcpy(row, dict_row(row_index_[f]),
                static_cast<std::size_t>(k_words_) * 8);
    for (std::uint32_t e = delta_begin_[f]; e < delta_begin_[f + 1]; ++e) {
      row[deltas_[e].word] ^= deltas_[e].mask;
    }
  }
  return weights;
}

}  // namespace phonebit::bitpack
