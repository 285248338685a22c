// PhoneBit — wire-format primitives of the .pba artifact container
// (artifact.cpp).
//
// The artifact is a compact little-endian binary container; this header
// owns its primitive encode/decode layer:
//
//   ByteWriter — appends PODs/strings/tensors to an in-memory payload
//     buffer. Building the payload in memory (rather than streaming to the
//     file) is what makes the artifact checksum and the exact
//     payload-length header field cheap to produce.
//   ByteReader — consumes a fully-loaded buffer, tracking the absolute
//     byte offset and a caller-maintained section label. EVERY decode
//     failure (truncation, implausible length, invalid enum, violated
//     invariant) funnels through fail(), which throws InvalidArgument
//     formatted "artifact '<path>': <what> (section '<name>', byte offset
//     <off>)".
//
// Byte order: fields are memcpy'd in host order. The artifact header
// records an endianness marker (artifact.hpp) so a foreign-endian file
// fails loudly instead of decoding garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bitpack/packed_tensor.hpp"
#include "common/error.hpp"
#include "core/bn_fold.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::core::wire {

/// FNV-1a 64-bit hash — the artifact payload checksum. Stable, dependency
/// free, and byte-order independent (it hashes the serialized bytes).
inline std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Guard against decoding a corrupted length field into a giant allocation:
/// no serialized string/array in an artifact is anywhere near this.
inline constexpr std::uint64_t kMaxWireString = 1u << 20;

/// Largest element count a deserialized tensor shape may describe. Checked
/// dimension by dimension (overflow-safe) before any allocation.
inline constexpr std::int64_t kMaxWireElems = std::int64_t{1} << 40;

/// Layer discriminators of the artifact's network section.
enum class LayerKind : std::uint8_t {
  kInputConv = 0,
  kBinaryConv = 1,
  kMaxPool = 2,
  kBinaryDense = 3,
  kFloatConv = 4,
  kFloatDense = 5,
};

/// Slurps a whole file; throws InvalidArgument when it cannot be read.
inline std::vector<std::uint8_t> read_file(const std::string& path) {
  const auto fail = [](const std::string& what) {
    throw InvalidArgument("artifact: " + what);
  };
  // ifstream happily opens directories on Linux and tellg() then reports a
  // garbage "size" (huge on tmpfs, -1 elsewhere) — gate on the file type
  // first so a wrong path fails with the contractual exception instead of
  // a bad_alloc from sizing a bogus buffer.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    fail("cannot read '" + path + "' (not a regular file)");
  }
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) fail("cannot open '" + path + "'");
  const std::streamoff size = is.tellg();
  if (size < 0) fail("cannot read '" + path + "'");
  is.seekg(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  if (size > 0) is.read(reinterpret_cast<char*>(buf.data()), size);
  if (!is) fail("cannot read '" + path + "'");
  return buf;
}

class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }

  void raw(const void* data, std::size_t n) {
    if (n == 0) return;  // empty bias/array: data may be null
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void str(const std::string& s) {
    PB_CHECK(s.size() <= kMaxWireString, "string too long to serialize");
    pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void shape(const Shape& s) {
    pod<std::int64_t>(s.n);
    pod<std::int64_t>(s.h);
    pod<std::int64_t>(s.w);
    pod<std::int64_t>(s.c);
  }

  void geom(const ConvGeometry& g) {
    pod<std::int64_t>(g.kernel_h);
    pod<std::int64_t>(g.kernel_w);
    pod<std::int64_t>(g.stride_h);
    pod<std::int64_t>(g.stride_w);
    pod<std::int64_t>(g.pad_h);
    pod<std::int64_t>(g.pad_w);
  }

  void packed(const bitpack::PackedTensor& p) {
    shape(p.shape());
    pod<std::int64_t>(p.total_words());
    raw(p.data(), static_cast<std::size_t>(p.total_words()) * 8);
  }

  void floats(const std::vector<float>& v) {
    // Mirror the reader's cap: a file we can write but never read back
    // would fail at the wrong end, blaming the loader.
    PB_CHECK(v.size() <= kMaxWireString, "float array too long to serialize");
    pod<std::uint64_t>(v.size());
    raw(v.data(), v.size() * 4);
  }

  void float_tensor(const FloatTensor& t) {
    PB_CHECK(t.layout() == Layout::kNHWC, "serialize NHWC tensors only");
    shape(t.shape());
    raw(t.data(), static_cast<std::size_t>(t.bytes()));
  }

  /// Raw (unfolded) batch-norm parameters: the artifact stores these so a
  /// reconstructed layer re-folds to bit-identical constants AND keeps the
  /// exact float parameters the no-integration ablation path consumes.
  void bn_params(const std::vector<BatchNormParams>& bn) {
    PB_CHECK(bn.size() <= kMaxWireString,
             "BN param array too long to serialize");
    pod<std::uint64_t>(bn.size());
    for (const BatchNormParams& p : bn) {
      pod<float>(p.gamma);
      pod<float>(p.beta);
      pod<float>(p.mu);
      pod<float>(p.sigma);
    }
  }

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::int64_t offset() const noexcept {
    return static_cast<std::int64_t>(buf_.size());
  }

  /// Overwrites `n` previously written bytes at `at` (header back-patching).
  void patch(std::int64_t at, const void* data, std::size_t n) {
    PB_CHECK(at >= 0 && static_cast<std::size_t>(at) + n <= buf_.size(),
             "patch outside written region");
    std::memcpy(buf_.data() + at, data, n);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  /// `path` names the file in every failure message.
  ByteReader(const std::uint8_t* data, std::size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  /// Labels subsequent failures ("header", "network", "options", ...).
  void set_section(std::string name) { section_ = std::move(name); }
  const std::string& section() const noexcept { return section_; }

  std::int64_t offset() const noexcept {
    return static_cast<std::int64_t>(cursor_);
  }
  std::int64_t remaining() const noexcept {
    return static_cast<std::int64_t>(size_ - cursor_);
  }

  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << "artifact '" << path_ << "': " << what << " (section '" << section_
       << "', byte offset " << offset() << ")";
    throw InvalidArgument(os.str());
  }

  void need(std::size_t n) const {
    if (size_ - cursor_ < n) {
      std::ostringstream os;
      os << "truncated input: need " << n << " bytes, " << (size_ - cursor_)
         << " remain";
      fail(os.str());
    }
  }

  /// Like need(), for storage a decoded length field implies: checked
  /// before the allocation, so corrupt lengths fail as truncation errors
  /// rather than multi-gigabyte allocation attempts.
  void need_ahead(std::size_t n) const { need(n); }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    need(sizeof(T));
    std::memcpy(&v, data_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return v;
  }

  void raw(void* dst, std::size_t n) {
    if (n == 0) return;  // empty array: dst may be null
    need(n);
    std::memcpy(dst, data_ + cursor_, n);
    cursor_ += n;
  }

  void skip(std::size_t n) {
    need(n);
    cursor_ += n;
  }

  std::string str() {
    const auto len = pod<std::uint32_t>();
    if (len > kMaxWireString) fail("implausible string length");
    std::string s(len, '\0');
    raw(s.data(), len);
    return s;
  }

  Shape shape() {
    Shape s;
    s.n = pod<std::int64_t>();
    s.h = pod<std::int64_t>();
    s.w = pod<std::int64_t>();
    s.c = pod<std::int64_t>();
    return s;
  }

  /// A shape that must describe a real tensor (every dim positive, total
  /// element count bounded). The product is accumulated with an
  /// overflow-safe guard — Shape::elems() would signed-overflow (UB) on
  /// adversarial dims and a wrapped product could sneak past the cap.
  Shape positive_shape() {
    const Shape s = shape();
    std::int64_t elems = 1;
    for (const std::int64_t d : {s.n, s.h, s.w, s.c}) {
      if (d <= 0 || d > kMaxWireElems / elems) {
        fail("invalid tensor shape " + s.str());
      }
      elems *= d;
    }
    return s;
  }

  ConvGeometry geom() {
    ConvGeometry g;
    g.kernel_h = pod<std::int64_t>();
    g.kernel_w = pod<std::int64_t>();
    g.stride_h = pod<std::int64_t>();
    g.stride_w = pod<std::int64_t>();
    g.pad_h = pod<std::int64_t>();
    g.pad_w = pod<std::int64_t>();
    if (g.kernel_h <= 0 || g.kernel_w <= 0 || g.stride_h <= 0 ||
        g.stride_w <= 0 || g.pad_h < 0 || g.pad_w < 0) {
      fail("invalid conv geometry");
    }
    return g;
  }

  bitpack::PackedTensor packed() {
    const Shape s = positive_shape();
    // Bound the implied storage against the remaining bytes BEFORE
    // allocating, so a corrupted shape fails as a truncation instead of a
    // giant allocation attempt.
    const std::int64_t words =
        s.n * s.h * s.w * ceil_div(s.c, bitpack::kWordBits);
    need_ahead(static_cast<std::size_t>(words) * 8 + 8);
    bitpack::PackedTensor p(s);
    if (pod<std::int64_t>() != p.total_words()) {
      fail("packed word count mismatch");
    }
    raw(p.data(), static_cast<std::size_t>(words) * 8);
    return p;
  }

  std::vector<float> floats() {
    const auto n = pod<std::uint64_t>();
    if (n > kMaxWireString) fail("implausible float array length");
    need_ahead(n * 4);
    std::vector<float> v(n);
    raw(v.data(), n * 4);
    return v;
  }

  FloatTensor float_tensor() {
    const Shape s = positive_shape();
    need_ahead(static_cast<std::size_t>(s.elems()) * 4);
    FloatTensor t(s, Layout::kNHWC);
    raw(t.data(), static_cast<std::size_t>(t.bytes()));
    return t;
  }

  std::vector<BatchNormParams> bn_params() {
    const auto n = pod<std::uint64_t>();
    if (n > kMaxWireString) fail("implausible BN param count");
    std::vector<BatchNormParams> bn(n);
    for (BatchNormParams& p : bn) {
      p.gamma = pod<float>();
      p.beta = pod<float>();
      p.mu = pod<float>();
      p.sigma = pod<float>();
    }
    return bn;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
  std::string path_;
  std::string section_ = "header";
};

}  // namespace phonebit::core::wire
