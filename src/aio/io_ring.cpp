#include "aio/io_ring.hpp"

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gnndrive {

IoRing::IoRing(SsdDevice& ssd, IoRingConfig config, PageCache* cache,
               Telemetry* telemetry)
    : ssd_(ssd), config_(config), cache_(cache), telemetry_(telemetry) {
  if (!config_.direct && cache_ == nullptr) {
    // Configuration error, not an internal invariant: report it to the
    // caller instead of aborting the process.
    throw std::invalid_argument("buffered IoRing requires a page cache");
  }
  staged_.reserve(config_.queue_depth);
  MetricsRegistry& reg = registry_or_own(telemetry_, own_registry_);
  m_submitted_ = &reg.counter("io.submitted");
  m_latency_ = &reg.histogram("io.request_us");
  m_inflight_ = &reg.gauge("io.inflight");
  m_io_errors_ = &reg.counter(fault_counter_name(FaultCounter::kIoErrors));
  m_io_timeouts_ = &reg.counter(fault_counter_name(FaultCounter::kIoTimeouts));
}

IoRing::~IoRing() {
  // Device completions capture `this`; wait for them before tearing down.
  std::unique_lock lock(mu_);
  all_done_.wait(lock, [&] { return in_flight_ == 0; });
}

bool IoRing::prep_read(std::uint64_t offset, std::uint32_t len, void* buf,
                       std::uint64_t user_data) {
  if (staged_.size() >= config_.queue_depth) return false;
  staged_.push_back(Sqe{SsdDevice::Op::kRead, offset, len, buf, user_data});
  return true;
}

bool IoRing::prep_write(std::uint64_t offset, std::uint32_t len,
                        const void* buf, std::uint64_t user_data) {
  if (staged_.size() >= config_.queue_depth) return false;
  staged_.push_back(Sqe{SsdDevice::Op::kWrite, offset, len,
                        const_cast<void*>(buf), user_data});
  return true;
}

void IoRing::complete(std::uint64_t ring_id, std::int32_t res) {
  const TimePoint now = Clock::now();
  // One lock hold per completion. in_flight_ == 0 releases the destructor,
  // so this hold is the thread's last touch of the ring, and both notifies
  // stay under it: a woken waiter cannot destroy the condvars mid-notify.
  std::lock_guard lock(mu_);
  auto it = inflight_.find(ring_id);
  if (it == inflight_.end()) return;  // cancelled by the watchdog
  m_latency_->add_us(
      std::chrono::duration<double, std::micro>(now - it->second.submitted_at)
          .count());
  m_inflight_->sub(1);
  if (res < 0) m_io_errors_->add();
  // One thread reaps, and it checks the queue under mu_ before it waits,
  // so only the empty -> non-empty edge can find it waiting.
  if (cq_.empty()) cq_ready_.notify_one();
  cq_.push_back(Cqe{it->second.user_data, res});
  inflight_.erase(it);
  if (--in_flight_ == 0) all_done_.notify_all();
}

std::int32_t IoRing::validate(const Sqe& sqe) const {
  // O_DIRECT alignment violation: fail the request like the kernel would,
  // without touching the device.
  if (config_.direct &&
      (sqe.offset % kSectorSize != 0 || sqe.len % kSectorSize != 0)) {
    return -EINVAL;
  }
  // Degenerate or oversized request (a coalescing-planner bug would show
  // up here): fail it before it can overrun the caller's buffer.
  if (sqe.len == 0 || (config_.max_transfer_bytes != 0 &&
                       sqe.len > config_.max_transfer_bytes)) {
    return -EINVAL;
  }
  return 0;
}

unsigned IoRing::submit() {
  const unsigned n = static_cast<unsigned>(staged_.size());
  if (n == 0) return 0;
  m_submitted_->add(n);
  m_inflight_->add(n);
  const TimePoint now = Clock::now();
  std::uint64_t first_id;
  {
    std::lock_guard lock(mu_);
    in_flight_ += n;
    first_id = next_ring_id_;
    next_ring_id_ += n;
    for (unsigned i = 0; i < n; ++i) {
      inflight_.emplace(first_id + i,
                        InFlight{staged_[i].user_data, 0, now, now});
    }
  }
  batch_.clear();
  batch_ids_.clear();
  const bool buffered = !config_.direct;
  for (unsigned i = 0; i < n; ++i) {
    const Sqe& sqe = staged_[i];
    const std::uint64_t ring_id = first_id + i;
    if (const std::int32_t err = validate(sqe); err < 0) {
      complete(ring_id, err);
      continue;
    }
    if (buffered && sqe.op == SsdDevice::Op::kRead &&
        cache_->try_read_resident(sqe.offset, sqe.len, sqe.buf)) {
      // Buffered read fully served by the page cache: completes immediately.
      complete(ring_id, static_cast<std::int32_t>(sqe.len));
      continue;
    }
    SsdDevice::Completion done;
    if (buffered) {
      done = [this, offset = sqe.offset, len = sqe.len,
              ring_id](std::int32_t res) {
        if (res >= 0) cache_->note_resident(offset, len);
        complete(ring_id, res);
      };
    } else {
      // Small enough for std::function's inline storage: no allocation.
      done = [this, ring_id](std::int32_t res) { complete(ring_id, res); };
    }
    batch_.push_back(
        SsdDevice::Request{sqe.op, sqe.offset, sqe.len, sqe.buf,
                           std::move(done)});
    batch_ids_.push_back(ring_id);
  }
  staged_.clear();
  if (batch_.empty()) return n;
  ssd_.submit_batch(batch_);
  // Completions may already have fired and erased their entries; only the
  // still-live ones learn their device token (needed for cancellation) and
  // service start (the watchdog's age).
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    auto it = inflight_.find(batch_ids_[i]);
    if (it == inflight_.end()) continue;
    it->second.device_token = batch_[i].token;
    it->second.started_at = batch_[i].start;
  }
  return n;
}

unsigned IoRing::cancel_expired(Duration timeout) {
  const TimePoint cutoff = Clock::now() - timeout;
  // Collect candidates first: try_cancel takes the device lock, and holding
  // mu_ across it is safe (the device thread never holds its lock while
  // calling complete()) but kept short anyway.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates;
  {
    std::lock_guard lock(mu_);
    for (const auto& [ring_id, entry] : inflight_) {
      if (entry.device_token != 0 && entry.started_at <= cutoff) {
        candidates.emplace_back(ring_id, entry.device_token);
      }
    }
  }
  unsigned cancelled = 0;
  for (const auto& [ring_id, token] : candidates) {
    if (!ssd_.try_cancel(token)) continue;  // completing; CQE will arrive
    TimePoint submitted_at;
    {
      std::lock_guard lock(mu_);
      auto it = inflight_.find(ring_id);
      if (it == inflight_.end()) continue;  // raced with completion
      submitted_at = it->second.submitted_at;
      cq_.push_back(Cqe{it->second.user_data, -ETIMEDOUT});
      inflight_.erase(it);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
    m_latency_->add_us(
        std::chrono::duration<double, std::micro>(Clock::now() - submitted_at)
            .count());
    m_inflight_->sub(1);
    ++cancelled;
    m_io_timeouts_->add();
    m_io_errors_->add();
    cq_ready_.notify_one();
  }
  return cancelled;
}

std::optional<Cqe> IoRing::peek_cqe() {
  std::lock_guard lock(mu_);
  if (cq_.empty()) return std::nullopt;
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

unsigned IoRing::peek_cqes(std::vector<Cqe>& out) {
  std::lock_guard lock(mu_);
  const auto n = static_cast<unsigned>(cq_.size());
  out.insert(out.end(), cq_.begin(), cq_.end());
  cq_.clear();
  return n;
}

Cqe IoRing::wait_cqe() {
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lock(mu_);
  cq_ready_.wait(lock, [&] { return !cq_.empty(); });
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

std::optional<Cqe> IoRing::wait_cqe_for(Duration timeout) {
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lock(mu_);
  if (!cq_ready_.wait_for(lock, timeout, [&] { return !cq_.empty(); })) {
    return std::nullopt;
  }
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

unsigned IoRing::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_ + static_cast<unsigned>(cq_.size());
}

void stream_range(SsdDevice& ssd, Telemetry* telemetry, bool write,
                  std::uint64_t offset, std::uint8_t* data, std::uint64_t len,
                  std::uint32_t chunk_bytes, unsigned depth) {
  const std::uint64_t body = round_down(len, kSectorSize);
  GD_CHECK_MSG(!write || body == len, "stream_range: partial-sector write");
  IoRingConfig rc;
  rc.queue_depth = depth;
  rc.direct = true;
  IoRing ring(ssd, rc, nullptr, telemetry);
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  while (done < body) {
    while (submitted < body && ring.in_flight() < depth) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_bytes, body - submitted));
      if (write) {
        ring.prep_write(offset + submitted, n, data + submitted, n);
      } else {
        ring.prep_read(offset + submitted, n, data + submitted, n);
      }
      ring.submit();
      submitted += n;
    }
    const Cqe cqe = ring.wait_cqe();
    GD_CHECK(cqe.res >= 0);
    done += cqe.user_data;
  }
  if (body < len) {
    alignas(64) std::uint8_t tail[kSectorSize];
    GD_CHECK(ssd.read_sync(offset + body, kSectorSize, tail) >= 0);
    std::memcpy(data + body, tail, len - body);
  }
}

}  // namespace gnndrive
