// Simulated solid-state drive.
//
// The paper's experiments run against a SAMSUNG PM883 SATA SSD (and an Intel
// DC S3510 on the multi-GPU box). This environment has no dedicated storage
// device, so the SSD is modeled as a discrete-event device that completes
// requests on a *wall-clock* schedule:
//
//   service_time = base_latency(op) + length / per_channel_bandwidth
//
// with `channels` independent service channels (internal NAND parallelism).
// A request's completion time is max(now, earliest_free_channel) + service.
// Because completions happen in real time on a device thread, synchronous
// callers genuinely block for the modeled latency and asynchronous callers
// genuinely overlap — the exact mechanism Appendix A/B of the paper measures.
//
// Data is held by a backend (RAM image by default; a real file optionally),
// so reads return real bytes and extraction correctness is testable.
//
// Fault model: an optional seeded FaultInjector perturbs requests at submit
// time — per-request EIO, latency spikes, stuck requests (never complete
// until cancelled) and targeted bad-sector ranges. Completions carry a
// result code (bytes transferred or -errno) so callers see failures instead
// of asserting; see DESIGN.md "Fault model & recovery".
#pragma once

#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace gnndrive {

class Telemetry;

/// Storage for the simulated drive's contents. read/write return 0 on
/// success or a negative errno (e.g. -EIO) on failure; partial transfers
/// are handled inside the backend.
class SsdBackend {
 public:
  virtual ~SsdBackend() = default;
  virtual std::int32_t read(std::uint64_t offset, std::uint32_t len,
                            void* dst) = 0;
  virtual std::int32_t write(std::uint64_t offset, std::uint32_t len,
                             const void* src) = 0;
  virtual std::uint64_t size() const = 0;
};

/// RAM-image backend: deterministic and fast; the default for experiments.
class MemBackend final : public SsdBackend {
 public:
  explicit MemBackend(std::uint64_t size) : data_(size) {}
  std::int32_t read(std::uint64_t offset, std::uint32_t len,
                    void* dst) override {
    GD_CHECK(offset + len <= data_.size());
    std::memcpy(dst, data_.data() + offset, len);
    return 0;
  }
  std::int32_t write(std::uint64_t offset, std::uint32_t len,
                     const void* src) override {
    GD_CHECK(offset + len <= data_.size());
    std::memcpy(data_.data() + offset, src, len);
    return 0;
  }
  std::uint64_t size() const override { return data_.size(); }
  /// Direct access for cheap dataset initialization (bypasses the device
  /// model; only used before an experiment starts).
  std::uint8_t* raw() { return data_.data(); }

 private:
  std::vector<std::uint8_t> data_;
};

/// Real-file backend: pread/pwrite against a file on the host filesystem.
/// Short transfers are looped, EINTR is retried, and real errno failures
/// surface as negative return values instead of aborting the process.
class FileBackend final : public SsdBackend {
 public:
  /// Creates (or truncates) `path` with `size` bytes.
  FileBackend(const std::string& path, std::uint64_t size);
  ~FileBackend() override;
  std::int32_t read(std::uint64_t offset, std::uint32_t len,
                    void* dst) override;
  std::int32_t write(std::uint64_t offset, std::uint32_t len,
                     const void* src) override;
  std::uint64_t size() const override { return size_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

struct SsdConfig {
  double read_latency_us = 80.0;    ///< Base service latency per read.
  double write_latency_us = 25.0;   ///< Base service latency per write.
  double bandwidth_mb_s = 2000.0;   ///< Aggregate device bandwidth.
  unsigned channels = 16;           ///< Internal parallelism.
  double time_scale = 1.0;          ///< Multiplier on all service times.
};

/// Fault-injection knobs. Disabled by default; the device takes no extra
/// locked work per request while `enabled` is false. Deterministic per seed:
/// the same request sequence produces the same fault sequence.
struct SsdFaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0xfa417ULL;
  double eio_probability = 0.0;    ///< per-request chance of -EIO
  double spike_probability = 0.0;  ///< per-request chance of a latency spike
  double spike_multiplier = 20.0;  ///< service-time multiplier for spikes
  double stuck_probability = 0.0;  ///< request never completes (until cancel)
  struct Range {
    std::uint64_t begin = 0;  ///< byte offset, inclusive
    std::uint64_t end = 0;    ///< byte offset, exclusive
  };
  /// Requests intersecting any range fail with -EIO deterministically,
  /// regardless of eio_probability (media errors pinned to an address).
  std::vector<Range> bad_ranges;
};

/// A view of the ssd.* registry counters: their growth since the device was
/// built or last reset_stats().
struct SsdStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double busy_seconds = 0.0;  ///< Sum of per-channel service time.
  // Fault-injection accounting (all zero when the injector is off).
  std::uint64_t injected_eio = 0;    ///< requests failed with -EIO
  std::uint64_t injected_spikes = 0; ///< requests given a latency spike
  std::uint64_t injected_stuck = 0;  ///< requests that will never complete
  std::uint64_t cancelled = 0;       ///< requests removed via try_cancel
};

/// Seeded, deterministic per-request fault decision maker. Owned by the
/// device; callers configure it through SsdDevice::set_fault_config.
class FaultInjector {
 public:
  explicit FaultInjector(const SsdFaultConfig& config)
      : config_(config), rng_(splitmix64(config.seed)) {}

  struct Decision {
    std::int32_t res = 0;            ///< 0 ok; -EIO for injected failures
    double latency_multiplier = 1.0; ///< >1 for injected spikes
    bool stuck = false;              ///< request never completes
  };
  /// One decision per request; advances the RNG deterministically.
  Decision decide(bool is_read, std::uint64_t offset, std::uint32_t len);

  const SsdFaultConfig& config() const { return config_; }

 private:
  SsdFaultConfig config_;
  Rng rng_;
};

class SsdDevice : NonCopyable {
 public:
  enum class Op { kRead, kWrite };

  /// Completion callback: res >= 0 is bytes transferred, res < 0 is -errno.
  using Completion = std::function<void(std::int32_t res)>;

  SsdDevice(SsdConfig config, std::shared_ptr<SsdBackend> backend);
  ~SsdDevice();

  /// One asynchronous request for submit_batch().
  struct Request {
    Op op = Op::kRead;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    void* buf = nullptr;
    Completion on_complete;
    std::uint64_t token = 0;  ///< set by submit_batch (for try_cancel)
    /// Set by submit_batch: when the request's channel begins serving it,
    /// after the requests queued ahead of it; submission time for a stuck
    /// request, which never occupies a channel.
    TimePoint start{};
  };

  /// Submits every request under one device-lock acquisition and wakes the
  /// device thread at most once — only when a request is due before the
  /// deadline it sleeps until, or when it is idle. Each request's
  /// `on_complete` runs on the device thread after its modeled service time
  /// elapsed and its data moved; it must be cheap and must not call back
  /// into the device. Consumes the callbacks and fills each `token` and
  /// `start`.
  void submit_batch(std::span<Request> requests);

  /// submit_batch() of one request; returns its try_cancel() token.
  std::uint64_t submit(Op op, std::uint64_t offset, std::uint32_t len,
                       void* buf, Completion on_complete);

  /// Cancels a submitted-but-not-yet-due request. Returns true when the
  /// request was still pending: its buffer will never be touched and its
  /// completion will never run (the caller owns synthesizing an error).
  /// Returns false when the request already completed or is completing
  /// (it was due and the device thread took it; its completion runs).
  bool try_cancel(std::uint64_t token);

  /// Convenience synchronous operations (submit + block until completion).
  /// Return bytes transferred or -errno. A request that never completes
  /// (injected stuck) is self-cancelled after a generous deadline and
  /// returns -ETIMEDOUT, so synchronous callers cannot hang forever either.
  std::int32_t read_sync(std::uint64_t offset, std::uint32_t len, void* dst);
  std::int32_t write_sync(std::uint64_t offset, std::uint32_t len,
                          const void* src);

  /// Blocks until every submitted request has completed or been cancelled.
  /// Note: an injected *stuck* request counts as outstanding until a caller
  /// cancels it.
  void drain();

  /// Installs (enabled) or removes (disabled) the fault injector. Runtime
  /// togglable; takes effect for subsequently submitted requests. An
  /// enabled config is validated first — probabilities must lie in [0, 1]
  /// (NaN rejected), spike_multiplier in [1, 1e6], and bad_ranges must be
  /// non-empty intervals — and a bad value throws std::invalid_argument
  /// without touching the installed injector.
  void set_fault_config(const SsdFaultConfig& config);
  SsdFaultConfig fault_config() const;

  const SsdConfig& config() const { return config_; }
  SsdBackend& backend() { return *backend_; }
  /// Counts since construction or the last reset_stats(), read from the
  /// ssd.* registry counters. reset_stats() moves the baseline; the
  /// counters themselves never go backwards.
  SsdStats stats() const;
  void reset_stats();

  /// Counts into `telemetry`'s metrics registry from now on: "ssd.*"
  /// counters (reads, writes, bytes_read, bytes_written, busy_us,
  /// injected_eio, injected_spikes, injected_stuck, cancelled) and the
  /// ssd.pending gauge. nullptr switches back to the device's private
  /// registry. stats() carries on across the switch. `telemetry` must
  /// outlive the device: its thread sets ssd.pending until destruction.
  void set_telemetry(Telemetry* telemetry);

  /// Modeled service time for a request of `len` bytes (no queueing).
  Duration service_time(Op op, std::uint32_t len) const;

 private:
  struct Pending {
    TimePoint done_at;
    Op op;
    std::uint64_t offset;
    std::uint32_t len;
    void* buf;
    Completion on_complete;
    std::uint64_t token = 0;
    std::int32_t injected_res = 0;  ///< <0: fail without data movement
    bool stuck = false;
    bool operator>(const Pending& other) const {
      return done_at > other.done_at;
    }
  };

  void device_loop();
  /// Adds `service` to ssd.busy_us, carrying the sub-microsecond rest.
  void add_busy_locked(Duration service);
  void set_pending_locked();

  enum Count : std::size_t {
    kReads, kWrites, kBytesRead, kBytesWritten, kBusyUs,
    kInjectedEio, kInjectedSpikes, kInjectedStuck, kCancelled, kNumCounts
  };
  static constexpr CounterSet<kNumCounts>::Names kCountNames = {
      "ssd.reads",           "ssd.writes",         "ssd.bytes_read",
      "ssd.bytes_written",   "ssd.busy_us",        "ssd.injected_eio",
      "ssd.injected_spikes", "ssd.injected_stuck", "ssd.cancelled"};

  const SsdConfig config_;
  std::shared_ptr<SsdBackend> backend_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending_;
  std::unordered_set<std::uint64_t> cancelled_;  ///< lazy heap deletion
  std::vector<TimePoint> channel_free_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_token_ = 1;
  bool stop_ = false;
  /// When the device thread next wakes by itself: TimePoint::max() while
  /// it waits with nothing pending, the heap top's done_at while it sleeps
  /// on that, TimePoint::min() while it runs (or a wake is already on its
  /// way). A submitter notifies only for a request due before this.
  TimePoint wake_at_ = TimePoint::min();
  std::unique_ptr<FaultInjector> injector_;  ///< null when faults are off

  // The ssd.* instruments — the only store of the device's counts — in the
  // telemetry's registry or own_registry_; updated under mu_.
  std::unique_ptr<MetricsRegistry> own_registry_;
  CounterSet<kNumCounts> m_;
  Gauge* m_pending_;  ///< ssd.pending (device queue depth)
  std::uint64_t busy_rest_ns_ = 0;  ///< service time short of a whole us

  std::thread device_thread_;
};

}  // namespace gnndrive
