#include "gpu/gpu.hpp"

#include <algorithm>
#include <cstring>

namespace gnndrive {

GpuDevice::GpuDevice(GpuConfig config, Telemetry* telemetry)
    : config_(config), telemetry_(telemetry), engine_free_(Clock::now()) {
  dma_thread_ = std::thread([this] { dma_loop(); });
}

GpuDevice::~GpuDevice() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  dma_thread_.join();
}

void GpuDevice::alloc(std::uint64_t bytes, const char* what) {
  std::lock_guard lock(mu_);
  if (allocated_ + bytes > config_.device_memory_bytes) {
    throw SimOutOfMemory(std::string("device OOM allocating ") +
                         std::to_string(bytes) + " bytes for " + what +
                         " (allocated " + std::to_string(allocated_) +
                         " of " + std::to_string(config_.device_memory_bytes) +
                         ")");
  }
  allocated_ += bytes;
}

void GpuDevice::free(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  GD_CHECK_MSG(bytes <= allocated_, "device free exceeds allocation");
  allocated_ -= bytes;
}

std::uint64_t GpuDevice::allocated() const {
  std::lock_guard lock(mu_);
  return allocated_;
}

void GpuDevice::memcpy_h2d_scatter_async(std::vector<H2dPart> parts,
                                         std::function<void()> on_complete) {
  Duration service{};
  for (const H2dPart& p : parts) {
    const double transfer_us =
        config_.copy_overhead_us +
        static_cast<double>(p.bytes) / config_.pcie_bandwidth_mb_s;
    service += from_us(transfer_us * config_.time_scale);
  }
  bool wake;
  {
    std::lock_guard lock(mu_);
    const TimePoint start = std::max(Clock::now(), engine_free_);
    const TimePoint done = start + service;
    engine_free_ = done;
    wake = done < wake_at_;
    if (wake) wake_at_ = TimePoint::min();
    copies_.push(Copy{done, std::move(parts), std::move(on_complete)});
    ++in_flight_;
  }
  if (wake) cv_.notify_one();
}

void GpuDevice::memcpy_h2d_sync(void* dst, const void* src,
                                std::uint64_t bytes) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  memcpy_h2d_async(dst, src, bytes, [&] {
    std::lock_guard lk(m);
    done = true;
    done_cv.notify_one();
  });
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lk(m);
  done_cv.wait(lk, [&] { return done; });
}

void GpuDevice::sync() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [&] { return in_flight_ == 0; });
}

void GpuDevice::launch(const std::function<void()>& fn) {
  ScopedTrace trace(telemetry_, TraceCat::kGpuBusy);
  fn();
}

void GpuDevice::dma_loop() {
  std::vector<Copy> due;  // run outside the lock, in done_at order
  std::unique_lock lock(mu_);
  for (;;) {
    // Take every copy that is due now under this one lock hold.
    const TimePoint now = Clock::now();
    while (!copies_.empty() && copies_.top().done_at <= now) {
      due.push_back(std::move(const_cast<Copy&>(copies_.top())));
      copies_.pop();
    }
    if (due.empty()) {
      if (copies_.empty()) {
        if (stop_) return;
        wake_at_ = TimePoint::max();
        cv_.wait(lock);
      } else {
        wake_at_ = copies_.top().done_at;
        cv_.wait_until(lock, wake_at_);
      }
      wake_at_ = TimePoint::min();
      continue;
    }
    lock.unlock();
    for (Copy& copy : due) {
      const auto moves = [](const H2dPart& p) {
        return p.dst != nullptr && p.bytes > 0;
      };
      if (std::any_of(copy.parts.begin(), copy.parts.end(), moves)) {
        ScopedTrace trace(telemetry_, TraceCat::kGpuBusy);
        for (const H2dPart& p : copy.parts) {
          if (moves(p)) std::memcpy(p.dst, p.src, p.bytes);
        }
      }
      if (copy.on_complete) copy.on_complete();
    }
    const std::size_t completed = due.size();
    due.clear();
    lock.lock();
    in_flight_ -= completed;
    if (in_flight_ == 0) drained_.notify_all();
  }
}

}  // namespace gnndrive
