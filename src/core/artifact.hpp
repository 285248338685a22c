// PhoneBit — serializable compiled artifacts (.pba), the one model file.
//
// PhoneBit's deployment story (Fig. 2) is ahead-of-time: the converter runs
// on a workstation and the phone receives a ready-to-run artifact, never
// paying conversion or planning cost at startup. The artifact ships the
// *compiled* network — the layer graph with its BN-folded packed weights
// PLUS the ExecutionPlan that Network::compile produced: per-step kernel
// selections (conv path, pack width, interior split, tile, fusion
// rewrites), the activation-slot table with its fixed slab offsets, and the
// exact scratch/slab peaks. load() reconstructs an immutable Network +
// ExecutionPlan with ZERO re-planning: no shape inference, no liveness
// pass, no kernel selection — the plan's implicit in-memory invariants are
// an explicit on-disk contract, validated field by field.
//
// Container layout (all fields host little-endian; DESIGN.md §8):
//
//   byte  0  u32  magic            "PBA!" (0x21414250)
//   byte  4  u32  format version   (kFormatVersion; nothing else loads)
//   byte  8  u32  endianness mark  0x01020304 as written by the producer
//   byte 12  u32  header bytes     32
//   byte 16  u64  payload bytes    (file size - 32 must equal this)
//   byte 24  u64  payload FNV-1a64 checksum
//   byte 32  payload: five framed sections, in fixed order
//              [u32 tag | u64 body bytes | body]
//            tags: 1 network, 2 options, 3 input, 4 plan, 5 target
//
// The target section holds the device-profile key the artifact was
// compiled (and RAM-validated) for — empty when the producer did not
// target a specific profile. Fleet repositories route on it; `pbc dump`
// prints it.
//
// Weight compression (DESIGN.md §12) is a storage choice recorded in three
// places: the options record carries the weight_compress knob, every plan
// step carries its compression stats (zero unless the step is a binary conv
// under a compressing plan), and every BinaryConv2d record carries a
// storage-mode byte — mode 1 stores the filter bank as dictionary + row
// indices + XOR deltas (picked per layer, under kAuto, only when strictly
// smaller than raw; the loader reconstructs the exact weights and hands the
// layer the decoded bank, so loading never re-clusters). Compression never
// changes the kernels a plan runs.
//
// Every load-time mismatch — bad magic/version/endianness, truncation,
// checksum failure, invalid enum, violated structural invariant (weight
// pad words, slot-table layout, step edges, scratch peaks) — throws
// InvalidArgument naming the offending section and absolute byte offset.
// The loader never trusts a length or enum it has not checked, so a
// corrupted or truncated file fails loudly instead of crashing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/plan.hpp"
#include "oclsim/device_profile.hpp"

namespace phonebit::artifact {

// --- container constants (the stable on-disk contract; tests pin these) ---

inline constexpr std::uint32_t kMagic = 0x21414250u;  // "PBA!" little-endian
/// The one layout save() writes and load() accepts; any layout change bumps
/// it.
inline constexpr std::uint32_t kFormatVersion = 5;
inline constexpr std::uint32_t kEndianMark = 0x01020304u;
inline constexpr std::int64_t kHeaderBytes = 32;

/// Header field offsets (bytes from the start of the file).
inline constexpr std::int64_t kMagicOffset = 0;
inline constexpr std::int64_t kVersionOffset = 4;
inline constexpr std::int64_t kEndianOffset = 8;
inline constexpr std::int64_t kHeaderBytesOffset = 12;
inline constexpr std::int64_t kPayloadBytesOffset = 16;
inline constexpr std::int64_t kChecksumOffset = 24;

/// Section tags, in their required file order.
enum class Section : std::uint32_t {
  kNetwork = 1,  ///< layer graph + packed weights + raw BN/bias params
  kOptions = 2,  ///< the EngineOptions snapshot the plan was compiled with
  kInput = 3,    ///< the BlobDesc the plan accepts
  kPlan = 4,     ///< steps, kernel variants, slot table, peaks
  kTarget = 5,   ///< device-profile key the artifact targets (may be empty)
};

const char* section_name(Section s) noexcept;

/// One entry of an artifact's section table (body offsets are absolute file
/// offsets). Exposed for tooling (`pbc dump`) and for the corruption tests,
/// which need to aim byte flips at a specific section.
struct SectionInfo {
  Section tag{};
  std::int64_t body_offset = 0;
  std::int64_t body_bytes = 0;
};

/// Reads just the header + section frames of `path` (magic/version/
/// endianness/length validated; checksum and bodies NOT decoded).
std::vector<SectionInfo> section_table(const std::string& path);

/// A deserialized artifact: the network owns the layers, the plan holds
/// non-owning pointers into them — keep both together (moving the struct is
/// safe; layers live on the heap behind stable unique_ptrs).
struct LoadedArtifact {
  std::unique_ptr<core::Network> network;
  core::ExecutionPlan plan;
  /// Device-profile key (oclsim::profile_by_name vocabulary) the producer
  /// compiled for; empty when untargeted.
  std::string target_profile;
};

/// Serializes `net` + the plan compiled from it to `path`. Throws
/// InvalidArgument when the plan does not belong to `net` or a layer is not
/// serializable, FormatError on I/O failure. Output is deterministic: the
/// same (network, plan, target) always produces byte-identical files, so
/// artifact checksums are stable build outputs. `target_profile` is
/// recorded verbatim in the target section (empty = untargeted).
void save(const core::Network& net, const core::ExecutionPlan& plan,
          const std::string& path, const std::string& target_profile = {});

/// Loads an artifact written by save(): reconstructs the Network and its
/// ExecutionPlan with zero re-planning, validating the full structural
/// contract along the way. Throws InvalidArgument naming the offending
/// section and byte offset on any mismatch.
LoadedArtifact load(const std::string& path);

/// The artifact payload checksum (FNV-1a 64) — exposed so tests and tools
/// can recompute/patch the header after a deliberate payload edit.
std::uint64_t checksum(const void* data, std::size_t n) noexcept;

/// Byte-exact RAM fit check shared by Engine::load_artifact and
/// compile_for_profile: params + activation slab + scratch peak must fit
/// `profile.ram_mb`. Throws OutOfMemoryError itemizing every component
/// against the budget (so fleet placement failures are diagnosable);
/// profiles with no RAM figure (ram_mb == 0) skip the check. `context`
/// names the artifact/model in the message.
void check_profile_fit(const core::Network& net,
                       const core::ExecutionPlan& plan,
                       const oclsim::DeviceProfile& profile,
                       const std::string& context);

/// Compile-once-per-profile entry point (the Fig. 2 converter's fleet
/// mode): compiles `net` for `input` under `opts`, validates the byte-exact
/// RAM fit against the profile registered under `profile_key`
/// (oclsim::profile_by_name), and writes the artifact to `path` with the
/// key recorded in the target section. Throws OutOfMemoryError when the
/// compiled plan cannot fit that device, before anything is written.
core::ExecutionPlan compile_for_profile(const core::Network& net,
                                        const core::EngineOptions& opts,
                                        const core::BlobDesc& input,
                                        const std::string& profile_key,
                                        const std::string& path);

}  // namespace phonebit::artifact
