// PhoneBit — engine configuration.
//
// Every optimization the paper describes is a switch here so the ablation
// benchmarks can turn them off one at a time (DESIGN.md §3). Defaults are
// the paper's configuration.
#pragma once

#include <cstdint>

#include "bitpack/binary_ops.hpp"
#include "tensor/shape.hpp"

namespace phonebit::core {

/// Which conv execution path the planner may pick for BinaryConv2d steps.
/// kAuto lets ahead-of-time selection choose between the row-fused window
/// schedule (path A) and the register-tiled bit-GEMM lowering (path D) per
/// geometry via the roofline model on a fixed reference profile, so the
/// choice is a pure function of (options, geometry): an artifact stores only
/// the options, and the plan compiled at load selects what the producer's
/// compile selected, on any device. The pinned values exist for
/// ablation benches and for tests that assert a specific kernel shape.
enum class ConvPathPreference : std::uint8_t {
  kAuto = 0,      ///< roofline-selected per geometry (default)
  kRowFused = 1,  ///< always the window-streaming paths A/B/C
  kGemm = 2,      ///< always the bit-GEMM path D (where legal)
};

/// Weight-compression policy (DESIGN.md §12). Compression is always
/// lossless — the dictionary/index/delta factorization reconstructs the
/// packed filter bank bit-exactly — and only changes how artifacts store
/// the weights: every conv path runs on the reconstructed bank either way.
/// kOff stores raw weight records; kAuto stores each conv bank compressed
/// where that is smaller. Value 1 is retired and loaders reject it.
enum class WeightCompress : std::uint8_t {
  kOff = 0,   ///< raw weights (default)
  kAuto = 2,  ///< compressed .pba storage where smaller
};

/// Tunable engine behaviour (all paper defaults ON).
struct EngineOptions {
  /// §V-B layer integration: fuse binary-conv + batch-norm + binarization
  /// into a single kernel using the folded threshold ξ.
  bool fuse_bn_binarize = true;

  /// §VI-C: use the Karnaugh-reduced branch-free Eqn 9 instead of the
  /// divergent four-way Eqn 8.
  bool branch_free_binarize = true;

  /// §VI-B workload optimization: one work item computes 8 filters and packs
  /// their bits into one byte in private memory (Fig. 4).
  bool integrate_packing = true;

  /// Plan-level cross-layer fusion (DESIGN.md §7): rewrite compiled
  /// `BinaryConv2d → MaxPool` step chains into one fused step whose conv
  /// epilogue applies the pool max (bitwise OR over conv output bytes) in
  /// registers and emits the pooled packed map directly — the full-size
  /// conv activation map is never written. Fuses only when the producing
  /// conv compiled to the fully fused path A and the pool windows are
  /// non-overlapping and gap-free (stride == size, size <= 3); other chains
  /// keep their separate steps. Off = every layer is its own step (the
  /// per-layer-attribution / ablation configuration).
  bool fuse_conv_pool = true;

  /// §VI-B: channel threshold above which packing runs as a separate kernel
  /// (private memory cannot hold the 8-filter working set).
  std::int64_t packing_channel_threshold = 256;

  /// Interior/border specialization of the binary conv (DESIGN.md §4): the
  /// output rectangle whose windows never touch padding runs a branch-free
  /// row-fused fast path (one strided xor+popcount per window); only border
  /// rows/columns take the guarded path. When false, every window runs the
  /// pre-optimization per-tap loop — kept as the ablation baseline.
  bool interior_split = true;

  /// Output-x tile width of the conv fast path: one work item owns a run of
  /// `conv_tile_ow` consecutive output columns, amortizing per-item dispatch
  /// and keeping the filter row hot. 0 means one tile spans the whole row.
  std::int64_t conv_tile_ow = 8;

  /// §V-A.2: pick xor/popcount vector granularity per layer from its channel
  /// count. When false, `fixed_pack_width` is used everywhere.
  bool auto_pack_width = true;
  bitpack::PackWidth fixed_pack_width = bitpack::PackWidth::k64;

  /// Conv path policy (DESIGN.md §11): under kAuto the planner compares the
  /// modeled time of the window-streaming schedule against the bit-GEMM
  /// lowering per conv geometry and records the winner in the plan; kRowFused
  /// / kGemm force one side (the ablation / bench configuration). Path D is
  /// only ever eligible when the fused epilogue applies (fuse_bn_binarize &&
  /// integrate_packing && c_out % 8 == 0) — otherwise the A/B/C fallback
  /// rules decide exactly as before this option existed.
  ConvPathPreference conv_path = ConvPathPreference::kAuto;

  /// Weight-compression policy (DESIGN.md §12): kAuto stores conv filter
  /// banks as dictionary + row indices + XOR deltas in artifacts where that
  /// is smaller; kOff stores them raw. Execution is the same under both.
  WeightCompress weight_compress = WeightCompress::kOff;

  /// §VI-A.1 vectorized load/store. Turning this off models scalar loads:
  /// worse effective bandwidth and extra per-access overhead.
  bool vectorized_loads = true;

  /// §V-A.1 data layout. kNCHW models the Caffe/Torch default for the layout
  /// ablation (bit packing then walks a strided channel dimension).
  Layout layout = Layout::kNHWC;

  friend bool operator==(const EngineOptions&, const EngineOptions&) =
      default;

  /// Resolves the pack width for a layer with `channels` input channels.
  bitpack::PackWidth pack_width_for(std::int64_t channels) const {
    return auto_pack_width ? bitpack::select_pack_width(channels)
                           : fixed_pack_width;
  }

  /// Resolves the pack width for a kernel streaming contiguous spans of
  /// `span_words` words: keyed on the span (minimizing the per-span
  /// instruction count, tail included).
  bitpack::PackWidth pack_width_for_span(std::int64_t span_words) const {
    return auto_pack_width ? bitpack::select_pack_width_for_span(span_words)
                           : fixed_pack_width;
  }

  /// Pack width of a conv's inner loop under the current keying: the fused
  /// row span `kw * words` when the interior split fuses rows, the per-tap
  /// channel count otherwise. Shared by the binary and bit-plane convs so
  /// their variant selection cannot drift.
  bitpack::PackWidth conv_pack_width(std::int64_t channels,
                                     std::int64_t kernel_w) const {
    const std::int64_t words = ceil_div(channels, bitpack::kWordBits);
    return interior_split ? pack_width_for_span(kernel_w * words)
                          : pack_width_for(channels);
  }
};

}  // namespace phonebit::core
