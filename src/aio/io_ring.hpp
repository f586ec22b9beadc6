// io_uring-style asynchronous I/O ring over the simulated SSD.
//
// liburing is unavailable in this environment, so this module reproduces the
// programming model GNNDrive uses (Appendix A): a submission queue of SQEs
// filled by prep_read/prep_write, a submit() call that hands them to the
// device, and a completion queue of CQEs reaped with peek/wait. Exactly one
// thread drives a ring (as in the paper: one extractor owns the asynchronous
// extraction of a mini-batch), while completions arrive from the device
// thread.
//
// Two modes, matching O_DIRECT semantics:
//  * direct: requests bypass the page cache and must be 512 B-aligned in
//    offset and length; violations complete with res == -EINVAL.
//  * buffered: requests consume the simulated OS page cache (hits complete
//    without device service; misses fault through the device and leave the
//    pages resident) — the page-cache pollution GNNDrive avoids.
//
// Error handling: device failures (injected or real FileBackend errno)
// complete their CQEs with res < 0 instead of asserting. The ring tracks
// when the device began serving each request so a stage watchdog can
// cancel_expired() overdue requests — each cancelled request synthesizes a
// CQE with -ETIMEDOUT, and the device guarantees a cancelled request never
// touches its buffer (no use-after-reuse of staging rows).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "memsim/page_cache.hpp"
#include "storage/ssd.hpp"
#include "util/common.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

struct Cqe {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;  ///< >=0: bytes transferred; <0: -errno.
};

struct IoRingConfig {
  unsigned queue_depth = 64;  ///< Max staged-but-unsubmitted SQEs.
  bool direct = true;         ///< O_DIRECT semantics.
  /// Upper bound on one request's length; longer (or zero-length) requests
  /// complete with -EINVAL, like a block layer's max_sectors_kb limit.
  /// 0 disables the cap (zero-length requests still fail). Callers that
  /// coalesce reads set this to their staging-row size so a planner bug
  /// can never scribble past a staging slot.
  std::uint32_t max_transfer_bytes = 0;
};

class IoRing : NonCopyable {
 public:
  /// `cache` is required in buffered mode (throws std::invalid_argument
  /// otherwise), ignored in direct mode. Without `telemetry` the ring
  /// counts into a private registry.
  IoRing(SsdDevice& ssd, IoRingConfig config, PageCache* cache = nullptr,
         Telemetry* telemetry = nullptr);
  ~IoRing();

  /// Stages a read SQE. Returns false when the submission queue is full
  /// (submit() first, like io_uring_get_sqe returning NULL).
  bool prep_read(std::uint64_t offset, std::uint32_t len, void* buf,
                 std::uint64_t user_data);
  bool prep_write(std::uint64_t offset, std::uint32_t len, const void* buf,
                  std::uint64_t user_data);

  /// Submits all staged SQEs; returns how many were submitted. The batch
  /// takes ring ids under one ring-lock acquisition and reaches the device
  /// in one SsdDevice::submit_batch call.
  unsigned submit();

  /// Non-blocking CQE reap.
  std::optional<Cqe> peek_cqe();

  /// Non-blocking batch reap (io_uring_peek_batch_cqe): appends every
  /// available CQE to `out` under one lock acquisition; returns how many.
  unsigned peek_cqes(std::vector<Cqe>& out);

  /// Blocking CQE reap; the wait is attributed to TraceCat::kIoWait.
  Cqe wait_cqe();

  /// Bounded-wait CQE reap: returns nullopt when no CQE arrived within
  /// `timeout` (the watchdog poll primitive).
  std::optional<Cqe> wait_cqe_for(Duration timeout);

  /// Watchdog sweep: cancels every in-flight request whose device service
  /// began more than `timeout` ago and that is still cancellable,
  /// synthesizing a CQE with res == -ETIMEDOUT for each. A request ages
  /// from its channel start, not from its submission, so a backlog of
  /// healthy reads never reads as a timeout. Requests already completing on
  /// the device are left alone (their CQEs arrive normally). Returns the
  /// number of requests cancelled. Pass Duration::zero() to cancel
  /// everything cancellable (abort path).
  unsigned cancel_expired(Duration timeout);

  /// Number of submitted requests whose CQEs have not been reaped yet.
  unsigned in_flight() const;

  const IoRingConfig& config() const { return config_; }

 private:
  struct Sqe {
    SsdDevice::Op op;
    std::uint64_t offset;
    std::uint32_t len;
    void* buf;
    std::uint64_t user_data;
  };
  struct InFlight {
    std::uint64_t user_data = 0;
    std::uint64_t device_token = 0;  ///< 0 while the submit call is racing
    TimePoint submitted_at;  ///< io.request_us counts from here
    TimePoint started_at;    ///< device service start; set with device_token
  };

  /// Posts the CQE of request `ring_id` unless the watchdog cancelled it.
  void complete(std::uint64_t ring_id, std::int32_t res);
  /// -EINVAL for an SQE the ring refuses before it reaches the device
  /// (O_DIRECT misalignment, zero length, over max_transfer_bytes); else 0.
  std::int32_t validate(const Sqe& sqe) const;

  SsdDevice& ssd_;
  const IoRingConfig config_;
  PageCache* cache_;
  Telemetry* telemetry_;  ///< I/O-wait tracing only; may be null

  std::vector<Sqe> staged_;
  // submit() scratch, reused across calls (one thread drives the ring).
  std::vector<SsdDevice::Request> batch_;
  std::vector<std::uint64_t> batch_ids_;  ///< ring id of batch_[i]

  mutable std::mutex mu_;
  std::condition_variable cq_ready_;
  std::condition_variable all_done_;
  std::deque<Cqe> cq_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;  ///< by ring id
  std::uint64_t next_ring_id_ = 1;
  unsigned in_flight_ = 0;

  // Instruments, from the telemetry's registry or own_registry_. Multiple
  // rings share them: counters/histograms aggregate, the in-flight gauge is
  // updated with deltas so it sums across rings.
  std::unique_ptr<MetricsRegistry> own_registry_;
  Counter* m_submitted_;            ///< io.submitted
  ConcurrentHistogram* m_latency_;  ///< io.request_us
  Gauge* m_inflight_;               ///< io.inflight
  Counter* m_io_errors_;            ///< fault.io_errors (error CQEs)
  Counter* m_io_timeouts_;          ///< fault.io_timeouts (cancelled)
};

/// Streams [offset, offset + len) between the device and the contiguous
/// buffer `data` through a direct ring: sector-aligned chunks of at most
/// `chunk_bytes`, at most `depth` in flight. The unaligned tail of a read
/// bounces through one synchronous sector read; a write must be whole
/// sectors. Aborts on an I/O error.
void stream_range(SsdDevice& ssd, Telemetry* telemetry, bool write,
                  std::uint64_t offset, std::uint8_t* data, std::uint64_t len,
                  std::uint32_t chunk_bytes, unsigned depth);

}  // namespace gnndrive
