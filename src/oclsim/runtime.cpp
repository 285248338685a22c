#include "oclsim/runtime.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace phonebit::oclsim {

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

}  // namespace

Device::Device(DeviceProfile profile, int host_threads)
    : profile_(std::move(profile)) {
  int threads = host_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
}

void Device::allocate(std::int64_t bytes, std::int64_t budget_bytes) {
  PB_CHECK(bytes >= 0, "negative allocation");
  const std::int64_t budget =
      budget_bytes > 0 ? budget_bytes : profile_.ram_mb * 1024 * 1024;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  if (allocated_ + bytes > budget) {
    throw OutOfMemoryError(
        "simulated device allocation of " + std::to_string(bytes) +
        " bytes exceeds budget " + std::to_string(budget) + " (" +
        std::to_string(allocated_) + " already allocated) on " +
        profile_.soc_name);
  }
  allocated_ += bytes;
}

void Device::release(std::int64_t bytes) noexcept {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  allocated_ -= bytes;
  if (allocated_ < 0) allocated_ = 0;
}

CommandQueue::CommandQueue(Device& device, ExecUnit unit)
    : device_(device), unit_(unit) {}

void CommandQueue::enqueue_chunked(const std::string& name, NDRange range,
                                   const KernelCost& cost,
                                   const ChunkBody& body) {
  PB_CHECK(range.x > 0 && range.y > 0 && range.z > 0,
           "NDRange dims must be positive");
  const double t0 = now_ms();
  device_.pool().parallel_for(range.items(), body);
  const double t1 = now_ms();

  KernelEvent ev;
  ev.name = name;
  ev.range = range;
  ev.cost = cost;
  ev.unit = unit_;
  ev.modeled_ms = modeled_ms(cost, device_.profile(), unit_);
  ev.host_ms = t1 - t0;
  PB_LOG_DEBUG << "kernel " << name << " range=" << range.items()
               << " modeled=" << ev.modeled_ms << "ms host=" << ev.host_ms
               << "ms";
  events_.push_back(std::move(ev));
}

EventSlice CommandQueue::slice_events(std::size_t begin) const {
  EventSlice s;
  for (std::size_t i = begin; i < events_.size(); ++i) {
    const KernelEvent& ev = events_[i];
    s.modeled_ms += ev.modeled_ms;
    s.host_ms += ev.host_ms;
    s.launches += ev.cost.launches;
    s.cost.accumulate(ev.cost);
  }
  return s;
}

double CommandQueue::total_modeled_ms() const noexcept {
  double s = 0.0;
  for (const auto& e : events_) s += e.modeled_ms;
  return s;
}

double CommandQueue::total_host_ms() const noexcept {
  double s = 0.0;
  for (const auto& e : events_) s += e.host_ms;
  return s;
}

}  // namespace phonebit::oclsim
