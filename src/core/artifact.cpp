#include "core/artifact.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "bitpack/compress.hpp"
#include "core/binary_conv.hpp"
#include "core/dense.hpp"
#include "core/engine.hpp"
#include "core/float_conv.hpp"
#include "core/input_conv.hpp"
#include "core/pooling.hpp"
#include "core/wire.hpp"

namespace phonebit::artifact {

namespace {

using core::BlobDesc;
using core::BlobKind;
using core::EngineOptions;
using core::Network;
using core::PlanStep;
using core::wire::ByteReader;
using core::wire::ByteWriter;
using core::wire::LayerKind;

/// Upper bound on the serialized layer count: far above every real
/// network, low enough that a corrupted count field fails fast instead of
/// driving a giant loop.
constexpr std::uint32_t kMaxCount = 65536;

[[noreturn]] void fail_at(const std::string& path, const char* section,
                          std::int64_t offset, const std::string& what) {
  std::ostringstream os;
  os << "artifact '" << path << "': " << what << " (section '" << section
     << "', byte offset " << offset << ")";
  throw InvalidArgument(os.str());
}

/// Runs `fn` — a LAYER CONSTRUCTOR call, never a reader call — converting
/// the PhoneBit exception a constructor PB_CHECK throws (which has no file
/// context) into a reader failure carrying the section and byte offset.
/// Reader methods must NOT be routed through this: their failures already
/// carry section + offset, and re-wrapping would stack a second, wrong
/// offset onto the message.
template <typename Fn>
auto contextualized(ByteReader& r, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error& e) {
    r.fail(e.what());
  }
}

bool read_bool(ByteReader& r) {
  const auto v = r.pod<std::uint8_t>();
  if (v > 1) r.fail("corrupt boolean flag");
  return v != 0;
}

bitpack::PackWidth read_pack_width(ByteReader& r) {
  const auto bits = r.pod<std::uint32_t>();
  switch (bits) {
    case 8: return bitpack::PackWidth::k8;
    case 16: return bitpack::PackWidth::k16;
    case 32: return bitpack::PackWidth::k32;
    case 64: return bitpack::PackWidth::k64;
    case 128: return bitpack::PackWidth::k128;
    case 256: return bitpack::PackWidth::k256;
    case 512: return bitpack::PackWidth::k512;
    case 1024: return bitpack::PackWidth::k1024;
    default: r.fail("invalid pack width " + std::to_string(bits) + " bits");
  }
}

// --- blob descriptors ------------------------------------------------------

void write_blob_desc(ByteWriter& w, const BlobDesc& d) {
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(d.kind));
  w.shape(d.shape);
}

BlobDesc read_blob_desc(ByteReader& r) {
  const auto kind = r.pod<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(BlobKind::kPacked)) {
    r.fail("invalid blob kind " + std::to_string(kind));
  }
  BlobDesc d;
  d.kind = static_cast<BlobKind>(kind);
  d.shape = r.positive_shape();
  return d;
}

// --- network section -------------------------------------------------------

/// Mode-1 BinaryConv2d weight storage (DESIGN.md §12): the
/// dictionary/index/delta factorization instead of the raw packed words.
/// Framed exactly as compressed_encoded_bytes() accounts it, after the
/// filter-bank shape.
void write_compressed_bank(ByteWriter& w,
                           const bitpack::CompressedFilterBank& bank) {
  w.shape(bank.filter_shape());
  w.pod<std::int64_t>(bank.k_words());
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(bank.unique_rows()));
  w.raw(bank.dict().data(), bank.dict().size() * 8);
  for (const std::uint32_t idx : bank.row_index()) w.pod<std::uint32_t>(idx);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(bank.deltas().size()));
  for (const std::uint32_t b : bank.delta_begin()) w.pod<std::uint32_t>(b);
  for (const bitpack::FilterDelta& d : bank.deltas()) {
    w.pod<std::uint32_t>(d.word);
    w.pod<std::uint64_t>(d.mask);
  }
}

/// `compress`: the plan was compiled with weight compression on, so a
/// BinaryConv2d stores its bank in mode 1 where that is smaller.
void write_network(ByteWriter& w, const Network& net, bool compress) {
  w.str(net.name());
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(net.size()));
  for (const auto& layer : net.layers()) {
    if (const auto* l = dynamic_cast<const core::InputConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kInputConv));
      w.str(l->name());
      w.geom(l->geometry());
      w.packed(l->weights());
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::BinaryConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kBinaryConv));
      w.str(l->name());
      w.geom(l->geometry());
      // Storage-mode byte: 1 (dictionary/index/delta) only under a
      // compressing plan and when the encoding is STRICTLY smaller than the
      // raw words — incompressible banks keep mode 0, so compression never
      // grows a file.
      const bool compressed =
          compress && l->compressed_bank().stats().encoded_bytes <
                          l->compressed_bank().stats().raw_bytes;
      w.pod<std::uint8_t>(compressed ? 1 : 0);
      if (compressed) {
        write_compressed_bank(w, l->compressed_bank());
      } else {
        w.packed(l->weights());
      }
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::MaxPool2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kMaxPool));
      w.str(l->name());
      w.pod<std::int64_t>(l->geometry().size);
      w.pod<std::int64_t>(l->geometry().stride);
      w.pod<std::int64_t>(l->geometry().pad);
      w.pod<std::uint8_t>(l->geometry().tail_pad ? 1 : 0);
    } else if (const auto* l =
                   dynamic_cast<const core::BinaryDense*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kBinaryDense));
      w.str(l->name());
      w.packed(l->weights());
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::FloatConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kFloatConv));
      w.str(l->name());
      w.geom(l->geometry());
      w.float_tensor(l->weights());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::FloatDense*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kFloatDense));
      w.str(l->name());
      w.float_tensor(l->weights());
      w.floats(l->bias());
    } else {
      throw InvalidArgument("layer '" + layer->name() +
                            "' is not artifact-serializable");
    }
  }
}

/// Packed weight banks must arrive with the pad-word invariant intact: bits
/// beyond the true channel count are zero, or the Eqn-1 dot silently counts
/// phantom channels. Checked per deserialized bank, at its file position.
bitpack::PackedTensor read_weights(ByteReader& r, const std::string& name) {
  bitpack::PackedTensor p = r.packed();
  if (!p.padding_clear()) {
    r.fail("corrupted weight words: pad bits beyond channel " +
           std::to_string(p.channels()) + " are set in layer '" + name + "'");
  }
  return p;
}

/// Mode-1 decoder: revalidates EVERY structural invariant build() guarantees
/// before handing the parts to the bank constructor — a resealed edit to any
/// section (dictionary, index, CSR offsets, delta entries) fails here with
/// the section + byte offset, never inside a kernel. Allocation is always
/// preceded by a need_ahead() against the remaining bytes, so corrupt counts
/// fail as truncation instead of giant allocation attempts.
std::shared_ptr<const bitpack::CompressedFilterBank> read_compressed_bank(
    ByteReader& r, const std::string& name) {
  const Shape s = r.positive_shape();
  const std::int64_t k_words = s.h * s.w * ceil_div(s.c, bitpack::kWordBits);
  const auto stored_k = r.pod<std::int64_t>();
  if (stored_k != k_words) {
    r.fail("compressed bank records " + std::to_string(stored_k) +
           " words per filter, shape " + s.str() + " implies " +
           std::to_string(k_words) + " in layer '" + name + "'");
  }
  const auto unique = r.pod<std::uint32_t>();
  if (unique == 0 || static_cast<std::int64_t>(unique) > s.n) {
    r.fail("implausible dictionary size " + std::to_string(unique) + " for " +
           std::to_string(s.n) + " filters in layer '" + name + "'");
  }
  r.need_ahead(static_cast<std::size_t>(unique) *
               static_cast<std::size_t>(k_words) * 8);
  std::vector<std::uint64_t> dict(static_cast<std::size_t>(unique) *
                                  static_cast<std::size_t>(k_words));
  r.raw(dict.data(), dict.size() * 8);

  const std::size_t nf = static_cast<std::size_t>(s.n);
  r.need_ahead(nf * 4);
  std::vector<std::uint32_t> row_index(nf);
  r.raw(row_index.data(), nf * 4);
  std::vector<std::uint8_t> referenced(unique, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    if (row_index[f] >= unique) {
      r.fail("filter " + std::to_string(f) + " references dictionary row " +
             std::to_string(row_index[f]) + " of " + std::to_string(unique) +
             " in layer '" + name + "'");
    }
    referenced[row_index[f]] = 1;
  }
  // Canonical-encoding check: build() never emits an orphan row, so one in a
  // file means the dictionary or index section was tampered with.
  for (std::uint32_t u = 0; u < unique; ++u) {
    if (referenced[u] == 0) {
      r.fail("dictionary row " + std::to_string(u) +
             " is referenced by no filter in layer '" + name + "'");
    }
  }

  const auto total = r.pod<std::uint32_t>();
  if (static_cast<std::int64_t>(total) > s.n * k_words) {
    r.fail("implausible delta count " + std::to_string(total) +
           " in layer '" + name + "'");
  }
  r.need_ahead((nf + 1) * 4);
  std::vector<std::uint32_t> delta_begin(nf + 1);
  r.raw(delta_begin.data(), (nf + 1) * 4);
  if (delta_begin[0] != 0) {
    r.fail("delta offsets must start at 0 in layer '" + name + "'");
  }
  for (std::size_t f = 1; f <= nf; ++f) {
    if (delta_begin[f] < delta_begin[f - 1]) {
      r.fail("delta offsets decrease at filter " + std::to_string(f) +
             " in layer '" + name + "'");
    }
  }
  if (delta_begin[nf] != total) {
    r.fail("delta offsets end at " + std::to_string(delta_begin[nf]) +
           ", delta count says " + std::to_string(total) + " in layer '" +
           name + "'");
  }

  r.need_ahead(static_cast<std::size_t>(total) * 12);
  std::vector<bitpack::FilterDelta> deltas;
  deltas.reserve(total);
  for (std::size_t f = 0; f < nf; ++f) {
    std::int64_t prev = -1;
    for (std::uint32_t i = delta_begin[f]; i < delta_begin[f + 1]; ++i) {
      bitpack::FilterDelta d;
      d.word = r.pod<std::uint32_t>();
      d.mask = r.pod<std::uint64_t>();
      if (static_cast<std::int64_t>(d.word) >= k_words ||
          static_cast<std::int64_t>(d.word) <= prev) {
        r.fail("filter " + std::to_string(f) + " delta word " +
               std::to_string(d.word) +
               " out of order or out of range in layer '" + name + "'");
      }
      if (d.mask == 0) {
        r.fail("filter " + std::to_string(f) +
               " carries an empty delta mask in layer '" + name + "'");
      }
      prev = static_cast<std::int64_t>(d.word);
      deltas.push_back(d);
    }
  }
  return contextualized(r, [&] {
    return std::make_shared<const bitpack::CompressedFilterBank>(
        s, std::move(dict), std::move(row_index), std::move(delta_begin),
        std::move(deltas));
  });
}

std::unique_ptr<Network> read_network(ByteReader& r) {
  auto net = std::make_unique<Network>(r.str());
  const auto count = r.pod<std::uint32_t>();
  if (count == 0 || count > kMaxCount) {
    r.fail("implausible layer count " + std::to_string(count));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto kind = r.pod<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(LayerKind::kFloatDense)) {
      r.fail("unknown layer kind " + std::to_string(kind));
    }
    const std::string name = r.str();
    switch (static_cast<LayerKind>(kind)) {
      case LayerKind::kInputConv: {
        const ConvGeometry g = r.geom();
        auto weights = read_weights(r, name);
        auto bn = r.bn_params();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::InputConv2d>(name, std::move(weights),
                                          std::move(bn), std::move(bias), g);
          return 0;
        });
        break;
      }
      case LayerKind::kBinaryConv: {
        const ConvGeometry g = r.geom();
        const auto mode = r.pod<std::uint8_t>();
        if (mode > 1) {
          r.fail("invalid weight storage mode " + std::to_string(mode) +
                 " in layer '" + name + "'");
        }
        if (mode == 1) {
          auto bank = read_compressed_bank(r, name);
          // Reconstruct the exact packed bank and hold it to the same
          // pad-word invariant raw weights are held to — then hand the
          // decoded bank to the layer so loading never re-clusters.
          bitpack::PackedTensor weights = bank->reconstruct();
          if (!weights.padding_clear()) {
            r.fail("corrupted compressed weights: pad bits beyond channel " +
                   std::to_string(weights.channels()) +
                   " are set in layer '" + name + "'");
          }
          auto bn = r.bn_params();
          auto bias = r.floats();
          contextualized(r, [&] {
            auto& conv = net->emplace<core::BinaryConv2d>(
                name, std::move(weights), std::move(bn), std::move(bias), g);
            conv.adopt_bank(std::move(bank));
            return 0;
          });
        } else {
          auto weights = read_weights(r, name);
          auto bn = r.bn_params();
          auto bias = r.floats();
          contextualized(r, [&] {
            net->emplace<core::BinaryConv2d>(name, std::move(weights),
                                             std::move(bn), std::move(bias),
                                             g);
            return 0;
          });
        }
        break;
      }
      case LayerKind::kMaxPool: {
        core::PoolGeometry g;
        g.size = r.pod<std::int64_t>();
        g.stride = r.pod<std::int64_t>();
        g.pad = r.pod<std::int64_t>();
        g.tail_pad = read_bool(r);
        if (g.size <= 0 || g.stride <= 0 || g.pad < 0) {
          r.fail("invalid pool geometry in layer '" + name + "'");
        }
        net->emplace<core::MaxPool2d>(name, g);
        break;
      }
      case LayerKind::kBinaryDense: {
        auto weights = read_weights(r, name);
        auto bn = r.bn_params();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::BinaryDense>(name, std::move(weights),
                                          std::move(bn), std::move(bias));
          return 0;
        });
        break;
      }
      case LayerKind::kFloatConv: {
        const ConvGeometry g = r.geom();
        auto weights = r.float_tensor();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::FloatConv2d>(name, std::move(weights),
                                          std::move(bias), g);
          return 0;
        });
        break;
      }
      case LayerKind::kFloatDense: {
        auto weights = r.float_tensor();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::FloatDense>(name, std::move(weights),
                                         std::move(bias));
          return 0;
        });
        break;
      }
    }
  }
  return net;
}

// --- options section -------------------------------------------------------

void write_options(ByteWriter& w, const EngineOptions& o) {
  w.pod<std::uint8_t>(o.fuse_bn_binarize ? 1 : 0);
  w.pod<std::uint8_t>(o.branch_free_binarize ? 1 : 0);
  w.pod<std::uint8_t>(o.integrate_packing ? 1 : 0);
  w.pod<std::uint8_t>(o.fuse_conv_pool ? 1 : 0);
  w.pod<std::int64_t>(o.packing_channel_threshold);
  w.pod<std::uint8_t>(o.interior_split ? 1 : 0);
  w.pod<std::int64_t>(o.conv_tile_ow);
  w.pod<std::uint8_t>(o.auto_pack_width ? 1 : 0);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(
      bitpack::bits(o.fixed_pack_width)));
  w.pod<std::uint8_t>(o.vectorized_loads ? 1 : 0);
  w.pod<std::uint8_t>(o.layout == Layout::kNCHW ? 1 : 0);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(o.conv_path));
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(o.weight_compress));
}

EngineOptions read_options(ByteReader& r) {
  EngineOptions o;
  o.fuse_bn_binarize = read_bool(r);
  o.branch_free_binarize = read_bool(r);
  o.integrate_packing = read_bool(r);
  o.fuse_conv_pool = read_bool(r);
  o.packing_channel_threshold = r.pod<std::int64_t>();
  if (o.packing_channel_threshold < 0) r.fail("negative packing threshold");
  o.interior_split = read_bool(r);
  o.conv_tile_ow = r.pod<std::int64_t>();
  if (o.conv_tile_ow < 0) r.fail("negative conv tile width");
  o.auto_pack_width = read_bool(r);
  o.fixed_pack_width = read_pack_width(r);
  o.vectorized_loads = read_bool(r);
  o.layout = read_bool(r) ? Layout::kNCHW : Layout::kNHWC;
  const auto conv_path = r.pod<std::uint8_t>();
  if (conv_path > static_cast<std::uint8_t>(core::ConvPathPreference::kGemm)) {
    r.fail("invalid conv path preference " + std::to_string(conv_path));
  }
  o.conv_path = static_cast<core::ConvPathPreference>(conv_path);
  const auto wc = r.pod<std::uint8_t>();
  // Value 1 is the retired storage-only mode, which kAuto now is.
  if (wc != static_cast<std::uint8_t>(core::WeightCompress::kOff) &&
      wc != static_cast<std::uint8_t>(core::WeightCompress::kAuto)) {
    r.fail("invalid weight compression mode " + std::to_string(wc));
  }
  o.weight_compress = static_cast<core::WeightCompress>(wc);
  return o;
}

/// save() writes the options and input of `plan` next to `net`'s layers,
/// so the plan must have been compiled from `net`: a plan of another
/// network would ship weights under a foreign snapshot.
void check_plan_of(const Network& net, const core::ExecutionPlan& plan) {
  PB_CHECK(plan.network_name() == net.name(),
           "plan '" << plan.network_name()
                    << "' was not compiled from network '" << net.name()
                    << "'");
  for (const PlanStep& step : plan.steps()) {
    PB_CHECK(net.index_of(step.layer) >= 0 &&
                 (step.fused_pool == nullptr ||
                  net.index_of(step.fused_pool) >= 0),
             "plan step '" << step.name()
                           << "' references a layer that is not part of "
                              "network '"
                           << net.name() << "'");
  }
}

/// Appends one framed section: tag, body length (back-patched), body.
template <typename Body>
void write_section(ByteWriter& w, Section tag, Body&& body) {
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(tag));
  const std::int64_t len_at = w.offset();
  w.pod<std::uint64_t>(0);
  const std::int64_t start = w.offset();
  body(w);
  const std::uint64_t len = static_cast<std::uint64_t>(w.offset() - start);
  w.patch(len_at, &len, sizeof(len));
}

/// Reads one section frame, checks the tag and hands the body bounds back.
std::int64_t open_section(ByteReader& r, Section expected) {
  r.set_section("sections");
  const auto tag = r.pod<std::uint32_t>();
  if (tag != static_cast<std::uint32_t>(expected)) {
    r.fail(std::string("expected section '") + section_name(expected) +
           "' (tag " +
           std::to_string(static_cast<std::uint32_t>(expected)) +
           "), found tag " + std::to_string(tag));
  }
  const auto body = r.pod<std::uint64_t>();
  // Compare UNSIGNED: a corrupt length >= 2^63 would wrap negative under a
  // signed cast and sail past this bound.
  if (body > static_cast<std::uint64_t>(r.remaining())) {
    r.fail(std::string("section '") + section_name(expected) +
           "' body runs past end of file: " + std::to_string(body) +
           " bytes declared, " + std::to_string(r.remaining()) + " remain");
  }
  r.set_section(section_name(expected));
  return static_cast<std::int64_t>(body);
}

void close_section(ByteReader& r, Section sec, std::int64_t body_start,
                   std::int64_t body_bytes) {
  if (r.offset() != body_start + body_bytes) {
    r.fail(std::string("section '") + section_name(sec) +
           "' body length mismatch: declared " + std::to_string(body_bytes) +
           " bytes, decoded " + std::to_string(r.offset() - body_start));
  }
}

/// Header checks shared by load() and section_table().
void check_header(ByteReader& r, const std::vector<std::uint8_t>& buf,
                  const std::string& path) {
  r.set_section("header");
  // Reject short files up front: the payload-length comparison below and
  // load()'s direct checksum read both assume at least a full header, and
  // `buf.size() - kHeaderBytes` would wrap on anything shorter.
  if (buf.size() < static_cast<std::size_t>(kHeaderBytes)) {
    fail_at(path, "header", static_cast<std::int64_t>(buf.size()),
            "truncated header: " + std::to_string(buf.size()) +
                " bytes, need " + std::to_string(kHeaderBytes));
  }
  const auto magic = r.pod<std::uint32_t>();
  if (magic != kMagic) {
    fail_at(path, "header", kMagicOffset,
            "bad magic (not a PhoneBit artifact)");
  }
  const auto version = r.pod<std::uint32_t>();
  if (version != kFormatVersion) {
    fail_at(path, "header", kVersionOffset,
            "unsupported artifact format version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kFormatVersion) + " only)");
  }
  const auto endian = r.pod<std::uint32_t>();
  if (endian != kEndianMark) {
    fail_at(path, "header", kEndianOffset,
            endian == 0x04030201u
                ? std::string("endianness mismatch: artifact was written on "
                              "a foreign-endian machine")
                : "corrupt endianness marker");
  }
  const auto header_bytes = r.pod<std::uint32_t>();
  if (header_bytes != static_cast<std::uint32_t>(kHeaderBytes)) {
    fail_at(path, "header", kHeaderBytesOffset,
            "unexpected header size " + std::to_string(header_bytes));
  }
  const auto payload_bytes = r.pod<std::uint64_t>();
  if (payload_bytes !=
      static_cast<std::uint64_t>(buf.size()) -
          static_cast<std::uint64_t>(kHeaderBytes)) {
    fail_at(path, "header", kPayloadBytesOffset,
            "payload length mismatch: header declares " +
                std::to_string(payload_bytes) + " bytes, file carries " +
                std::to_string(buf.size() - kHeaderBytes));
  }
}

}  // namespace

const char* section_name(Section s) noexcept {
  switch (s) {
    case Section::kNetwork: return "network";
    case Section::kOptions: return "options";
    case Section::kInput: return "input";
    case Section::kTarget: return "target";
  }
  return "?";
}

std::uint64_t checksum(const void* data, std::size_t n) noexcept {
  return core::wire::fnv1a64(data, n);
}

void save(const Network& net, const core::ExecutionPlan& plan,
          const std::string& path, const std::string& target_profile) {
  check_plan_of(net, plan);
  const bool compress =
      plan.options().weight_compress != core::WeightCompress::kOff;
  ByteWriter payload;
  write_section(payload, Section::kNetwork,
                [&](ByteWriter& w) { write_network(w, net, compress); });
  write_section(payload, Section::kOptions,
                [&](ByteWriter& w) { write_options(w, plan.options()); });
  write_section(payload, Section::kInput,
                [&](ByteWriter& w) { write_blob_desc(w, plan.input()); });
  // Always framed, even when empty: every artifact has exactly four
  // sections, so readers need no optional-section logic.
  write_section(payload, Section::kTarget,
                [&](ByteWriter& w) { w.str(target_profile); });

  ByteWriter header;
  header.pod<std::uint32_t>(kMagic);
  header.pod<std::uint32_t>(kFormatVersion);
  header.pod<std::uint32_t>(kEndianMark);
  header.pod<std::uint32_t>(static_cast<std::uint32_t>(kHeaderBytes));
  header.pod<std::uint64_t>(
      static_cast<std::uint64_t>(payload.buffer().size()));
  header.pod<std::uint64_t>(
      checksum(payload.buffer().data(), payload.buffer().size()));

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw FormatError("cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(header.buffer().data()),
           static_cast<std::streamsize>(header.buffer().size()));
  os.write(reinterpret_cast<const char*>(payload.buffer().data()),
           static_cast<std::streamsize>(payload.buffer().size()));
  if (!os) throw FormatError("write failure on '" + path + "'");
}

LoadedArtifact load(const std::string& path) {
  const std::vector<std::uint8_t> buf = core::wire::read_file(path);
  ByteReader r(buf.data(), buf.size(), path);
  check_header(r, buf, path);

  const std::uint64_t stored = [&] {
    std::uint64_t v;
    std::memcpy(&v, buf.data() + kChecksumOffset, sizeof(v));
    return v;
  }();
  const std::uint64_t computed =
      checksum(buf.data() + kHeaderBytes, buf.size() - kHeaderBytes);
  if (stored != computed) {
    std::ostringstream os;
    os << "payload checksum mismatch (stored 0x" << std::hex << stored
       << ", computed 0x" << computed << ") — the file is corrupt";
    fail_at(path, "checksum", kChecksumOffset, os.str());
  }
  r.skip(sizeof(std::uint64_t));  // past the verified checksum field

  std::unique_ptr<Network> network;
  {
    const std::int64_t body = open_section(r, Section::kNetwork);
    const std::int64_t start = r.offset();
    network = read_network(r);
    close_section(r, Section::kNetwork, start, body);
  }
  EngineOptions opts;
  {
    const std::int64_t body = open_section(r, Section::kOptions);
    const std::int64_t start = r.offset();
    opts = read_options(r);
    close_section(r, Section::kOptions, start, body);
  }
  BlobDesc input;
  std::int64_t input_at = 0;
  {
    const std::int64_t body = open_section(r, Section::kInput);
    input_at = r.offset();
    input = read_blob_desc(r);
    close_section(r, Section::kInput, input_at, body);
  }
  std::string target;
  {
    const std::int64_t body = open_section(r, Section::kTarget);
    const std::int64_t start = r.offset();
    target = r.str();
    close_section(r, Section::kTarget, start, body);
  }
  r.set_section("trailer");
  if (r.remaining() != 0) {
    r.fail("trailing bytes after the last section");
  }
  // The loaded plan is the compiled plan: compile is the one plan builder,
  // and it establishes every bound the kernels rely on (fused-pool
  // legality, tile caps, whole filter groups on paths A and D, the slot,
  // scratch and slab layout). A network that rejects the stored input
  // descriptor is a corrupt artifact, reported at the input section.
  core::ExecutionPlan plan = [&] {
    try {
      return network->compile(opts, input);
    } catch (const Error& e) {
      fail_at(path, section_name(Section::kInput), input_at,
              std::string("network rejects the input descriptor ") +
                  input.str() + ": " + e.what());
    }
  }();
  return LoadedArtifact{std::move(network), std::move(plan),
                        std::move(target)};
}

std::vector<SectionInfo> section_table(const std::string& path) {
  const std::vector<std::uint8_t> buf = core::wire::read_file(path);
  ByteReader r(buf.data(), buf.size(), path);
  check_header(r, buf, path);
  r.skip(sizeof(std::uint64_t));  // checksum (not verified here)
  std::vector<SectionInfo> table;
  r.set_section("sections");
  while (r.remaining() > 0) {
    SectionInfo info;
    const auto tag = r.pod<std::uint32_t>();
    if (tag < static_cast<std::uint32_t>(Section::kNetwork) ||
        tag > static_cast<std::uint32_t>(Section::kTarget)) {
      r.fail("unknown section tag " + std::to_string(tag));
    }
    info.tag = static_cast<Section>(tag);
    const auto body = r.pod<std::uint64_t>();
    if (body > static_cast<std::uint64_t>(r.remaining())) {
      r.fail("section body runs past end of file");
    }
    info.body_offset = r.offset();
    info.body_bytes = static_cast<std::int64_t>(body);
    r.skip(body);
    table.push_back(info);
  }
  return table;
}

void check_profile_fit(const core::Network& net,
                       const core::ExecutionPlan& plan,
                       const oclsim::DeviceProfile& profile,
                       const std::string& context) {
  const std::int64_t budget = profile.ram_mb << 20;
  if (budget <= 0) return;  // profile publishes no RAM figure
  const std::int64_t params = net.param_bytes();
  const std::int64_t slab = plan.slab_bytes();
  const std::int64_t scratch = plan.peak_scratch_bytes();
  const std::int64_t need = params + slab + scratch;
  if (need <= budget) return;
  // Itemized so a fleet operator can see WHICH component blows the budget
  // (params are fixed per model; slab/scratch scale with the input shape).
  std::ostringstream os;
  os << context << " needs " << need << " bytes but profile '"
     << profile.soc_name << " / " << profile.gpu_name << "' has " << budget
     << " bytes of RAM (" << profile.ram_mb << " MB); breakdown: " << params
     << " param bytes + " << slab << " activation-slab bytes + " << scratch
     << " scratch-peak bytes, over budget by " << (need - budget)
     << " bytes";
  throw OutOfMemoryError(os.str());
}

core::ExecutionPlan compile_for_profile(const core::Network& net,
                                        const core::EngineOptions& opts,
                                        const core::BlobDesc& input,
                                        const std::string& profile_key,
                                        const std::string& path) {
  const oclsim::DeviceProfile profile = oclsim::profile_by_name(profile_key);
  core::ExecutionPlan plan = net.compile(opts, input);
  check_profile_fit(net, plan, profile,
                    "artifact '" + path + "' (target '" + profile_key + "')");
  save(net, plan, path, profile_key);
  return plan;
}

}  // namespace phonebit::artifact

namespace phonebit::core {

artifact::LoadedArtifact Engine::load_artifact(const std::string& path) const {
  artifact::LoadedArtifact art = artifact::load(path);
  // Device-profile validation: the loaded plan's peaks are byte-exact, so
  // the fit test is exact too — params + activation slab + scratch must fit
  // the simulated phone's RAM (profiles with no RAM figure skip the check).
  artifact::check_profile_fit(*art.network, art.plan, device_->profile(),
                              "artifact '" + path + "'");
  return art;
}

std::shared_ptr<const artifact::LoadedArtifact> Engine::load_artifact_shared(
    const std::string& path) const {
  return std::make_shared<const artifact::LoadedArtifact>(
      load_artifact(path));
}

}  // namespace phonebit::core
