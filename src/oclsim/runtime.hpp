// PhoneBit — OpenCL-style simulated runtime.
//
// Mirrors the host-side OpenCL objects PhoneBit uses on a phone:
// Device -> Context/CommandQueue -> NDRange kernel enqueue. Kernels are real
// C++ work-item functions executed in parallel on a host thread pool, so
// results are bit-exact; alongside the real execution each dispatch logs a
// KernelCost from which the device-time model produces the "phone"
// milliseconds reported by the benchmarks (see DESIGN.md §2). The engine
// never builds a KernelCost at dispatch: a KernelCost is a pure function of
// the plan step and its options (never of the device that runs it), so each
// layer prices its launches once when a plan is compiled or loaded, and
// enqueue() logs that stored tally.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "oclsim/cost_model.hpp"
#include "oclsim/device_profile.hpp"

namespace phonebit::oclsim {

/// Global work size of a kernel dispatch (OpenCL NDRange, up to rank 3).
struct NDRange {
  std::int64_t x = 1;
  std::int64_t y = 1;
  std::int64_t z = 1;

  std::int64_t items() const noexcept { return x * y * z; }
};

/// Per-work-item coordinates handed to a kernel body
/// (get_global_id(0..2) in OpenCL C).
struct WorkItem {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
};

/// Profiling record of one completed dispatch (cl_event equivalent).
struct KernelEvent {
  std::string name;
  NDRange range;
  KernelCost cost;
  ExecUnit unit = ExecUnit::kGpu;
  double modeled_ms = 0.0;  ///< device-time model output
  double host_ms = 0.0;     ///< wall time of the real host execution
};

/// A simulated SoC: owns the profile, a memory budget and the worker pool.
/// One Device can back many CommandQueues (engines). Allocation accounting
/// is thread-safe: concurrent sessions grow their arenas against the same
/// budget.
class Device {
 public:
  /// `host_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit Device(DeviceProfile profile, int host_threads = 0);

  const DeviceProfile& profile() const noexcept { return profile_; }
  ThreadPool& pool() noexcept { return *pool_; }

  /// Tracks a simulated allocation against `budget_bytes` limits; throws
  /// OutOfMemoryError when the budget would be exceeded. Budget of 0 means
  /// "device RAM". Used by engines to reproduce framework OOM behaviour.
  void allocate(std::int64_t bytes, std::int64_t budget_bytes = 0);

  /// Releases a simulated allocation.
  void release(std::int64_t bytes) noexcept;

  /// Bytes currently allocated on the simulated device.
  std::int64_t allocated_bytes() const noexcept {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    return allocated_;
  }

 private:
  DeviceProfile profile_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex alloc_mu_;
  std::int64_t allocated_ = 0;
};

/// Aggregate of a contiguous run of profiling events — the per-layer report
/// slice Network::forward cuts out of a session queue's event log.
struct EventSlice {
  double modeled_ms = 0.0;
  double host_ms = 0.0;
  int launches = 0;
  KernelCost cost = KernelCost::accumulator();
};

/// In-order command queue with profiling enabled (the only mode PhoneBit
/// uses). enqueue() runs the kernel to completion; finish() is a no-op kept
/// for API parity but retained so engine code reads like OpenCL host code.
class CommandQueue {
 public:
  CommandQueue(Device& device, ExecUnit unit);

  /// Executes `body(const WorkItem&)` over `range` on the device pool and
  /// records an event with both modeled device time and measured host time.
  /// Each chunk of the flattened range walks its items in x, y, z order
  /// with incremental coordinates, and the body is called directly, so it
  /// inlines into the chunk loop.
  template <class Body>
  void enqueue(const std::string& name, NDRange range, const KernelCost& cost,
               const Body& body) {
    enqueue_chunked(name, range, cost,
                    [&range, &body](std::int64_t begin, std::int64_t end) {
                      const std::int64_t row = begin / range.x;
                      WorkItem item;
                      item.x = begin - row * range.x;
                      item.y = row % range.y;
                      item.z = row / range.y;
                      for (std::int64_t i = begin; i < end; ++i) {
                        body(static_cast<const WorkItem&>(item));
                        if (++item.x == range.x) {
                          item.x = 0;
                          if (++item.y == range.y) {
                            item.y = 0;
                            ++item.z;
                          }
                        }
                      }
                    });
  }

  /// Like enqueue(), but the body receives a contiguous chunk
  /// [begin, end) of the *flattened* range — cheaper for very fine-grained
  /// kernels (one virtual call per chunk instead of per item).
  using ChunkBody = std::function<void(std::int64_t, std::int64_t)>;
  void enqueue_chunked(const std::string& name, NDRange range,
                       const KernelCost& cost, const ChunkBody& body);

  /// Waits for queued work (kept for OpenCL parity; execution is eager).
  void finish() {}

  /// Profiling log of every dispatch since the last reset.
  const std::vector<KernelEvent>& events() const noexcept { return events_; }
  void reset_events() { events_.clear(); }

  /// Index of the next event to be recorded; pair with slice_events() to
  /// aggregate the dispatches of one logical step (a layer, a forward).
  std::size_t event_mark() const noexcept { return events_.size(); }

  /// Aggregates events [begin, events().size()) — launches sum exactly (no
  /// re-count of the accumulator's launch baseline).
  EventSlice slice_events(std::size_t begin) const;

  /// Sum of modeled device milliseconds over all logged events.
  double total_modeled_ms() const noexcept;
  /// Sum of host wall milliseconds over all logged events.
  double total_host_ms() const noexcept;

  Device& device() noexcept { return device_; }
  ExecUnit unit() const noexcept { return unit_; }

 private:
  Device& device_;
  ExecUnit unit_;
  std::vector<KernelEvent> events_;
};

}  // namespace phonebit::oclsim
