// PhoneBit — reusable scratch arena for intermediate kernel buffers AND the
// slot-backed activation slab of compiled forwards.
//
// Path B/C of the binary conv (and any layer needing a materialized
// intermediate) used to heap-allocate activation-sized vectors on every
// forward — exactly the hot-path overhead the fast mobile engines avoid by
// reserving intermediates once per engine. The arena keeps one typed pool
// per element kind, grown geometrically to the high-water mark of the
// network and then reused verbatim across ExecutionPlan::run calls. Growth is
// accounted against the simulated device via Device::allocate so the OOM
// behaviour of real GPU buffers is preserved, and growth events are counted
// (and fed to the buffer-allocation hook, common/alloc_count.hpp) so tests
// can assert the hot path stops allocating after warm-up.
//
// Lifetime contract: a span returned by i32()/f32()/u8()/words() stays valid
// until the *next* request of the same kind — layers grab their buffers up
// front and kernels (eagerly executed) consume them within the same forward.
// The SLAB pool is different: it backs the compiled plan's activation slots
// (ExecutionPlan hands layers disjoint slot offsets into it), so its
// contents stay live across the steps of one forward and are clobbered by
// the next forward on the same session.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/bitops.hpp"
#include "common/error.hpp"
#include "oclsim/runtime.hpp"

namespace phonebit::core {

class ScratchArena {
 public:
  /// `device` (optional) receives simulated-allocation accounting.
  explicit ScratchArena(oclsim::Device* device = nullptr) : device_(device) {}

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  ~ScratchArena() {
    if (device_ != nullptr) device_->release(accounted_bytes_);
  }

  /// int32 scratch of at least `n` elements (conv sums, pooling counts).
  std::int32_t* i32(std::int64_t n) { return ensure(i32_, n); }

  /// float scratch of at least `n` elements (full-precision head
  /// intermediates: unpacked ±1 activations, flattened feature vectors).
  float* f32(std::int64_t n) { return ensure(f32_, n); }

  /// byte scratch of at least `n` elements (unpacked 0/1 bit maps).
  std::uint8_t* u8(std::int64_t n) { return ensure(u8_, n); }

  /// uint64 scratch of at least `n` words.
  std::uint64_t* words(std::int64_t n) { return ensure(words_, n); }

  /// uint64 scratch of `n` words, cleared to zero (the packed all-(-1)
  /// padding span). The memset is O(words_per_pixel), not an allocation.
  std::uint64_t* zero_words(std::int64_t n) {
    std::uint64_t* p = ensure(words_, n);
    std::memset(p, 0, static_cast<std::size_t>(n) * sizeof(std::uint64_t));
    return p;
  }

  /// The activation slab of at least `bytes` bytes (8-byte aligned words):
  /// backs the compiled plan's activation slots. Unlike the scratch pools,
  /// slab contents persist across the steps of one forward.
  std::uint64_t* slab(std::int64_t bytes) {
    return ensure(slab_, ceil_div(bytes, 8));
  }

  /// Pre-grows the typed pools to EXACTLY the given element counts (no
  /// geometric rounding), so a compiled plan's liveness prediction matches
  /// capacity_bytes() byte-for-byte on a fresh arena. A strict no-op — no
  /// growth event, no device-accounting movement, no resize — whenever the
  /// pools already cover the request, so re-running a plan on a warm
  /// session with identical peaks costs nothing. Growth (warm-up only, not
  /// hot path) is counted like any other growth.
  void reserve(std::int64_t i32_elems, std::int64_t f32_elems,
               std::int64_t u8_elems, std::int64_t word_elems,
               std::int64_t slab_bytes) {
    reserve_pool(i32_, i32_elems);
    reserve_pool(f32_, f32_elems);
    reserve_pool(u8_, u8_elems);
    reserve_pool(words_, word_elems);
    reserve_pool(slab_, ceil_div(slab_bytes, 8));
  }

  /// Number of times any pool had to grow since construction. Stable after
  /// warm-up: the no-allocation-on-the-hot-path test asserts this does not
  /// move across repeated forwards.
  int growth_events() const noexcept { return growth_events_; }

  /// Total bytes currently reserved across all pools (slab included).
  std::int64_t capacity_bytes() const noexcept { return accounted_bytes_; }

 private:
  template <typename T>
  T* ensure(std::vector<T>& pool, std::int64_t n) {
    PB_CHECK(n >= 0, "negative scratch request");
    const auto need = static_cast<std::size_t>(n);
    if (pool.size() < need) {
      // Geometric growth so a pyramid of layer sizes settles in O(log) grows.
      std::size_t cap = pool.size() < 64 ? 64 : pool.size();
      while (cap < need) cap *= 2;
      grow(pool, cap);
    }
    return pool.data();
  }

  template <typename T>
  void reserve_pool(std::vector<T>& pool, std::int64_t n) {
    PB_CHECK(n >= 0, "negative scratch reservation");
    const auto need = static_cast<std::size_t>(n);
    if (pool.size() >= need) return;  // warm no-op: nothing moves
    grow(pool, need);
  }

  template <typename T>
  void grow(std::vector<T>& pool, std::size_t to) {
    const std::int64_t delta =
        static_cast<std::int64_t>((to - pool.size()) * sizeof(T));
    if (device_ != nullptr) device_->allocate(delta);
    accounted_bytes_ += delta;
    pool.resize(to);
    ++growth_events_;
    count_buffer_alloc();  // the zero-allocation proof hook
  }

  oclsim::Device* device_;
  std::vector<std::int32_t> i32_;
  std::vector<float> f32_;
  std::vector<std::uint8_t> u8_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> slab_;
  std::int64_t accounted_bytes_ = 0;
  int growth_events_ = 0;
};

/// Engine-owned pool of warm scratch arenas, checked out one per execution
/// session. A session returns its arena on destruction, so the next session
/// inherits the high-water-mark buffers instead of re-growing them — with a
/// bounded number of concurrent sessions, device-memory accounting is flat
/// after warm-up. Thread-safe: sessions are created/destroyed from worker
/// threads (serve::BatchRunner).
class ArenaPool {
 public:
  /// `device` (optional) receives the simulated-allocation accounting of
  /// every arena created by this pool.
  explicit ArenaPool(oclsim::Device* device = nullptr) : device_(device) {}

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// Pops a warm arena, or creates a cold one when every arena is in use.
  std::unique_ptr<ScratchArena> acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        auto arena = std::move(idle_.back());
        idle_.pop_back();
        return arena;
      }
      ++created_;
    }
    count_buffer_alloc();  // cold arena minted — warm checkout is free
    return std::make_unique<ScratchArena>(device_);
  }

  /// Returns an arena to the pool for reuse (keeps its grown buffers warm).
  void release(std::unique_ptr<ScratchArena> arena) {
    if (arena == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(std::move(arena));
  }

  /// Arenas created over the pool's lifetime. Stable once enough arenas
  /// exist to cover peak session concurrency — the pool-level analogue of
  /// ScratchArena::growth_events().
  int created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return created_;
  }

  /// Arenas currently checked in (idle, warm).
  std::size_t idle_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_.size();
  }

 private:
  oclsim::Device* device_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ScratchArena>> idle_;
  int created_ = 0;
};

}  // namespace phonebit::core
