#include "storage/ssd.hpp"

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

namespace {
/// Far-future completion time for injected stuck requests: practically
/// "never", but safe for condition_variable::wait_until (TimePoint::max()
/// overflows some implementations when a service delta is added).
TimePoint stuck_deadline() {
  return Clock::now() + std::chrono::hours(24 * 365);
}

/// Synchronous operations carry a watchdog of their own: a request that
/// never completes (injected stuck, or a real device going away) is
/// cancelled after this deadline and surfaces as -ETIMEDOUT instead of
/// blocking the caller forever. Far above any modeled service time, spiked
/// or queued, so it never fires on a healthy device.
Duration sync_timeout(Duration service) {
  return std::chrono::duration_cast<Duration>(service * 200) +
         std::chrono::seconds(10);
}
}  // namespace

FileBackend::FileBackend(const std::string& path, std::uint64_t size)
    : size_(size) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  GD_CHECK_MSG(fd_ >= 0, "FileBackend: cannot open backing file");
  GD_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(size)) == 0,
               "FileBackend: ftruncate failed");
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

std::int32_t FileBackend::read(std::uint64_t offset, std::uint32_t len,
                               void* dst) {
  GD_CHECK(offset + len <= size_);
  auto* p = static_cast<std::uint8_t*>(dst);
  std::uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, p + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted, not an error: retry
      GD_LOG_WARN("FileBackend: pread(%llu, %u) failed: errno=%d",
                  static_cast<unsigned long long>(offset + done), len - done,
                  errno);
      return -errno;
    }
    if (n == 0) {
      // Unexpected EOF inside the ftruncated extent: surface as I/O error.
      GD_LOG_WARN("FileBackend: short pread at %llu (EOF)",
                  static_cast<unsigned long long>(offset + done));
      return -EIO;
    }
    done += static_cast<std::uint32_t>(n);
  }
  return 0;
}

std::int32_t FileBackend::write(std::uint64_t offset, std::uint32_t len,
                                const void* src) {
  GD_CHECK(offset + len <= size_);
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, p + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      GD_LOG_WARN("FileBackend: pwrite(%llu, %u) failed: errno=%d",
                  static_cast<unsigned long long>(offset + done), len - done,
                  errno);
      return -errno;
    }
    if (n == 0) {
      GD_LOG_WARN("FileBackend: pwrite made no progress at %llu",
                  static_cast<unsigned long long>(offset + done));
      return -EIO;
    }
    done += static_cast<std::uint32_t>(n);
  }
  return 0;
}

FaultInjector::Decision FaultInjector::decide(bool is_read,
                                              std::uint64_t offset,
                                              std::uint32_t len) {
  Decision d;
  for (const auto& range : config_.bad_ranges) {
    if (offset < range.end && offset + len > range.begin && is_read) {
      d.res = -EIO;
      return d;
    }
  }
  // One RNG draw per knob keeps the sequence deterministic regardless of
  // which faults actually fire.
  const double u_eio = rng_.next_double();
  const double u_stuck = rng_.next_double();
  const double u_spike = rng_.next_double();
  if (u_eio < config_.eio_probability) {
    d.res = -EIO;
    return d;
  }
  if (u_stuck < config_.stuck_probability) {
    d.stuck = true;
    return d;
  }
  if (u_spike < config_.spike_probability) {
    d.latency_multiplier = config_.spike_multiplier;
  }
  return d;
}

SsdDevice::SsdDevice(SsdConfig config, std::shared_ptr<SsdBackend> backend)
    : config_(config), backend_(std::move(backend)),
      own_registry_(std::make_unique<MetricsRegistry>()),
      m_(*own_registry_, kCountNames),
      m_pending_(&own_registry_->gauge("ssd.pending")) {
  GD_CHECK(config_.channels > 0);
  channel_free_.assign(config_.channels, Clock::now());
  device_thread_ = std::thread([this] { device_loop(); });
}

SsdDevice::~SsdDevice() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  device_thread_.join();
}

Duration SsdDevice::service_time(Op op, std::uint32_t len) const {
  const double base_us =
      op == Op::kRead ? config_.read_latency_us : config_.write_latency_us;
  const double per_channel_mb_s =
      config_.bandwidth_mb_s / static_cast<double>(config_.channels);
  const double transfer_us =
      static_cast<double>(len) / per_channel_mb_s;  // bytes / (MB/s) == us
  return from_us((base_us + transfer_us) * config_.time_scale);
}

void SsdDevice::set_fault_config(const SsdFaultConfig& config) {
  // Validate loudly before arming: a NaN or out-of-range probability would
  // silently disable (or always fire) the corresponding fault, turning a
  // test-configuration typo into a meaningless soak run.
  if (config.enabled) {
    const auto check_probability = [](const char* name, double p) {
      if (!(p >= 0.0 && p <= 1.0)) {  // !(..) also rejects NaN
        throw std::invalid_argument(
            std::string("SsdFaultConfig::") + name +
            " must be a probability in [0, 1], got " + std::to_string(p));
      }
    };
    check_probability("eio_probability", config.eio_probability);
    check_probability("spike_probability", config.spike_probability);
    check_probability("stuck_probability", config.stuck_probability);
    if (!(config.spike_multiplier >= 1.0) ||
        !(config.spike_multiplier <= 1e6)) {
      throw std::invalid_argument(
          "SsdFaultConfig::spike_multiplier must be in [1, 1e6], got " +
          std::to_string(config.spike_multiplier));
    }
    for (const auto& range : config.bad_ranges) {
      if (range.begin >= range.end) {
        throw std::invalid_argument(
            "SsdFaultConfig::bad_ranges entry [" +
            std::to_string(range.begin) + ", " + std::to_string(range.end) +
            ") is empty or inverted");
      }
    }
  }
  std::lock_guard lock(mu_);
  injector_ = config.enabled ? std::make_unique<FaultInjector>(config)
                             : nullptr;
}

SsdFaultConfig SsdDevice::fault_config() const {
  std::lock_guard lock(mu_);
  return injector_ ? injector_->config() : SsdFaultConfig{};
}

std::uint64_t SsdDevice::submit(Op op, std::uint64_t offset, std::uint32_t len,
                                void* buf, Completion on_complete) {
  Request req{op, offset, len, buf, std::move(on_complete)};
  submit_batch(std::span<Request>(&req, 1));
  return req.token;
}

void SsdDevice::submit_batch(std::span<Request> requests) {
  for (const Request& r : requests) {
    GD_CHECK(r.offset + r.len <= backend_->size());
  }
  const TimePoint now = Clock::now();
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    for (Request& r : requests) {
      Duration service = service_time(r.op, r.len);
      Pending req;
      req.op = r.op;
      req.offset = r.offset;
      req.len = r.len;
      req.buf = r.buf;
      req.on_complete = std::move(r.on_complete);
      r.token = req.token = next_token_++;
      if (injector_) {
        const auto d = injector_->decide(r.op == Op::kRead, r.offset, r.len);
        req.injected_res = d.res;
        req.stuck = d.stuck;
        if (d.res < 0) {
          m_[kInjectedEio].add();
        } else if (d.stuck) {
          m_[kInjectedStuck].add();
        } else if (d.latency_multiplier > 1.0) {
          m_[kInjectedSpikes].add();
          service = std::chrono::duration_cast<Duration>(
              service * d.latency_multiplier);
        }
      }
      if (req.stuck) {
        // Never scheduled for completion; occupies no channel (the modeled
        // firmware lost it). Cancellation is the only way out.
        req.done_at = stuck_deadline();
        r.start = now;
      } else {
        // Pick the channel that frees up earliest (c-server queue).
        auto it = std::min_element(channel_free_.begin(), channel_free_.end());
        r.start = std::max(now, *it);
        req.done_at = r.start + service;
        *it = req.done_at;
        add_busy_locked(service);
      }
      if (r.op == Op::kRead) {
        m_[kReads].add();
        m_[kBytesRead].add(r.len);
      } else {
        m_[kWrites].add();
        m_[kBytesWritten].add(r.len);
      }
      wake = wake || req.done_at < wake_at_;
      pending_.push(std::move(req));
    }
    in_flight_ += requests.size();
    set_pending_locked();
    // The thread re-reads the heap when it wakes, so later submitters need
    // not notify again until it sleeps.
    if (wake) wake_at_ = TimePoint::min();
  }
  if (wake) cv_.notify_one();
}

bool SsdDevice::try_cancel(std::uint64_t token) {
  std::lock_guard lock(mu_);
  if (token == 0 || token >= next_token_) return false;
  if (cancelled_.count(token) != 0) return false;  // already cancelled
  // A request is cancellable exactly while it sits in the heap. The device
  // thread pops every due request under mu_ and completes them after
  // releasing it, so a request that is due has left the heap: it is
  // completing, the scan below misses it, and its completion still runs.
  // A pending one is marked for lazy deletion from the heap.
  bool found = false;
  {
    // priority_queue has no iteration API; use the underlying container via
    // a const reference trick. Pending order does not matter for the scan.
    struct Opener : std::priority_queue<Pending, std::vector<Pending>,
                                        std::greater<>> {
      static const std::vector<Pending>& container(
          const std::priority_queue<Pending, std::vector<Pending>,
                                    std::greater<>>& q) {
        return q.*&Opener::c;
      }
    };
    for (const Pending& p : Opener::container(pending_)) {
      if (p.token == token) {
        found = true;
        break;
      }
    }
  }
  if (!found) return false;
  cancelled_.insert(token);
  m_[kCancelled].add();
  --in_flight_;
  set_pending_locked();
  if (in_flight_ == 0) drained_.notify_all();
  cv_.notify_one();
  return true;
}

std::int32_t SsdDevice::read_sync(std::uint64_t offset, std::uint32_t len,
                                  void* dst) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  std::int32_t result = 0;
  const std::uint64_t token =
      submit(Op::kRead, offset, len, dst, [&](std::int32_t res) {
        std::lock_guard lk(m);
        done = true;
        result = res;
        done_cv.notify_one();
      });
  const Duration timeout = sync_timeout(service_time(Op::kRead, len));
  std::unique_lock lk(m);
  if (!done_cv.wait_for(lk, timeout, [&] { return done; })) {
    lk.unlock();
    // Cancelled: the completion will never run and dst is never written.
    if (try_cancel(token)) return -ETIMEDOUT;
    // The request beat the cancel and is completing right now.
    lk.lock();
    done_cv.wait(lk, [&] { return done; });
  }
  return result;
}

std::int32_t SsdDevice::write_sync(std::uint64_t offset, std::uint32_t len,
                                   const void* src) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  std::int32_t result = 0;
  const std::uint64_t token =
      submit(Op::kWrite, offset, len, const_cast<void*>(src),
             [&](std::int32_t res) {
               std::lock_guard lk(m);
               done = true;
               result = res;
               done_cv.notify_one();
             });
  const Duration timeout = sync_timeout(service_time(Op::kWrite, len));
  std::unique_lock lk(m);
  if (!done_cv.wait_for(lk, timeout, [&] { return done; })) {
    lk.unlock();
    if (try_cancel(token)) return -ETIMEDOUT;
    lk.lock();
    done_cv.wait(lk, [&] { return done; });
  }
  return result;
}

void SsdDevice::drain() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [&] { return in_flight_ == 0; });
}

SsdStats SsdDevice::stats() const {
  std::lock_guard lock(mu_);
  return SsdStats{
      .reads = m_.view(kReads),
      .writes = m_.view(kWrites),
      .bytes_read = m_.view(kBytesRead),
      .bytes_written = m_.view(kBytesWritten),
      .busy_seconds = static_cast<double>(m_.view(kBusyUs)) / 1e6,
      .injected_eio = m_.view(kInjectedEio),
      .injected_spikes = m_.view(kInjectedSpikes),
      .injected_stuck = m_.view(kInjectedStuck),
      .cancelled = m_.view(kCancelled)};
}

void SsdDevice::reset_stats() {
  std::lock_guard lock(mu_);
  m_.rebase();
}

void SsdDevice::set_telemetry(Telemetry* telemetry) {
  std::lock_guard lock(mu_);
  MetricsRegistry& reg = registry_or_own(telemetry, own_registry_);
  m_.rebind(reg);
  m_pending_ = &reg.gauge("ssd.pending");
  set_pending_locked();
}

void SsdDevice::add_busy_locked(Duration service) {
  busy_rest_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(service).count());
  m_[kBusyUs].add(busy_rest_ns_ / 1000);
  busy_rest_ns_ %= 1000;
}

void SsdDevice::set_pending_locked() {
  m_pending_->set(static_cast<std::int64_t>(in_flight_));
}

void SsdDevice::device_loop() {
  std::vector<Pending> due;  // completed outside the lock, in done_at order
  std::unique_lock lock(mu_);
  for (;;) {
    // Take every request that is due now under this one lock hold.
    // Cancelled requests are discarded eagerly so they neither delay the
    // heap top nor keep the loop alive at shutdown.
    const TimePoint now = Clock::now();
    while (!pending_.empty()) {
      const Pending& top = pending_.top();
      if (!cancelled_.empty() && cancelled_.erase(top.token) != 0) {
        pending_.pop();
        continue;
      }
      if (stop_ && top.stuck) {
        // Shutdown with an uncancelled stuck request: abandon it (its
        // completion never runs) instead of blocking destruction for a year.
        pending_.pop();
        --in_flight_;
        set_pending_locked();
        if (in_flight_ == 0) drained_.notify_all();
        continue;
      }
      if (top.done_at > now) break;
      due.push_back(std::move(const_cast<Pending&>(top)));
      pending_.pop();
    }
    if (due.empty()) {
      if (pending_.empty()) {
        if (stop_) return;
        wake_at_ = TimePoint::max();
        cv_.wait(lock);
      } else {
        wake_at_ = pending_.top().done_at;
        cv_.wait_until(lock, wake_at_);
      }
      wake_at_ = TimePoint::min();
      continue;
    }
    // Data movement and callbacks run without the lock.
    lock.unlock();
    for (Pending& req : due) {
      std::int32_t res = req.injected_res;
      if (res == 0) {
        res = req.op == Op::kRead
                  ? backend_->read(req.offset, req.len, req.buf)
                  : backend_->write(req.offset, req.len, req.buf);
      }
      if (req.on_complete) {
        req.on_complete(res < 0 ? res : static_cast<std::int32_t>(req.len));
      }
    }
    const std::size_t completed = due.size();
    due.clear();
    lock.lock();
    in_flight_ -= completed;
    set_pending_locked();
    if (in_flight_ == 0) drained_.notify_all();
  }
}

}  // namespace gnndrive
