// Time-bucketed activity tracing.
//
// The paper's Figures 3 and 11 plot CPU utilization, GPU utilization and the
// ratio of I/O wait time over a window of three epochs. On the real testbed
// these come from OS counters; in the simulation every thread reports its
// busy/blocked intervals here instead, bucketed on a wall-clock grid, and the
// benches turn the buckets into the same utilization series.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/common.hpp"

namespace gnndrive {

class BottleneckAttributor;
class Counter;
class MetricsRegistry;
class SloWatcher;
class SpanTracer;
class TimeSeriesSampler;

enum class TraceCat : int {
  kCpuBusy = 0,   ///< Thread doing computation (sampling, training math, ...).
  kIoWait = 1,    ///< Thread blocked waiting for storage I/O completion.
  kGpuBusy = 2,   ///< Simulated GPU executing compute or copies.
  kCount = 3,
};

/// Monotonic event counters for the fault-tolerance layer, so benches can
/// print fault-mode summaries next to the utilization series.
enum class FaultCounter : int {
  kIoErrors = 0,      ///< error CQEs observed by ring consumers
  kIoRetries = 1,     ///< reads re-submitted after a transient failure
  kIoTimeouts = 2,    ///< requests cancelled by a stage watchdog
  kFailedBatches = 3, ///< mini-batches abandoned after exhausting retries
  kCount = 4,
};

/// The registry counter behind `c` ("fault.io_errors", ...).
const char* fault_counter_name(FaultCounter c);

/// One activity trace. Not a singleton: each experiment owns one and wires it
/// into the components it wants profiled. Thread-safe via atomics.
class Telemetry {
 public:
  /// `bucket_ms`: grid width; `max_buckets`: trace length cap.
  explicit Telemetry(double bucket_ms = 100.0, std::size_t max_buckets = 8192);
  ~Telemetry();

  /// Marks t=0 of the trace. Intervals before start() are dropped.
  void start();
  bool started() const { return started_.load(std::memory_order_acquire); }

  /// Records that `cat` was active during [begin, end); the interval is
  /// apportioned across the buckets it overlaps.
  void record(TraceCat cat, TimePoint begin, TimePoint end);

  struct Bucket {
    double t_seconds;  ///< Bucket start relative to trace start.
    double cpu_busy;   ///< Busy thread-seconds in this bucket.
    double io_wait;
    double gpu_busy;
  };
  /// Snapshot of all buckets up to the last one touched.
  std::vector<Bucket> snapshot() const;

  double bucket_seconds() const { return bucket_ms_ / 1e3; }

  /// Total seconds recorded per category (for summary ratios).
  double total_seconds(TraceCat cat) const;

  /// Fault/retry/timeout counters (independent of start(); always active),
  /// kept in the metrics registry under "fault.*" names.
  void count(FaultCounter c, std::uint64_t n = 1);
  std::uint64_t counter(FaultCounter c) const;

  // -- Observability subsystem (src/obs) ------------------------------------
  // The telemetry object is the one handle every component already receives,
  // so it also owns the unified metrics registry and the per-batch span
  // tracer. Metrics are always live (relaxed atomics, negligible); span
  // recording is gated on the single set_tracing() flag and is near-zero
  // cost while off (one relaxed load per would-be record).

  /// Named counters/gauges/histograms shared by all instrumented components.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Per-mini-batch span tracer (Chrome trace export). Never null.
  SpanTracer* tracer() { return tracer_.get(); }
  const SpanTracer* tracer() const { return tracer_.get(); }

  /// Master switch for span recording and the pipeline's periodic
  /// queue/buffer sampling. Off by default.
  void set_tracing(bool on);
  bool tracing() const;

  /// Registry time-series sampler (runs only while leased; the pipeline,
  /// serve engine and HTTP endpoint each hold a lease while active). Its
  /// on_tick hook is wired to the SLO watcher. Never null.
  TimeSeriesSampler* sampler() { return sampler_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }

  /// Bottleneck attributor (epoch reports published by the pipeline; the
  /// /attribution route reads it). Never null.
  BottleneckAttributor* attributor() { return attributor_.get(); }
  const BottleneckAttributor* attributor() const { return attributor_.get(); }

  /// Threshold rules over the time-series; evaluated every sampler tick.
  /// Never null.
  SloWatcher* slo() { return slo_.get(); }
  const SloWatcher* slo() const { return slo_.get(); }

 private:
  const double bucket_ms_;
  std::atomic<bool> started_{false};
  TimePoint t0_{};
  std::atomic<std::size_t> hi_bucket_{0};
  // nanoseconds per (bucket, category)
  std::vector<std::array<std::atomic<std::uint64_t>, 3>> cells_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SpanTracer> tracer_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<BottleneckAttributor> attributor_;
  std::unique_ptr<SloWatcher> slo_;
  /// The registry's "fault.*" counters, resolved at construction.
  std::array<Counter*, static_cast<int>(FaultCounter::kCount)>
      fault_counters_{};
};

/// The registry a component counts into: `telemetry`'s, or — for a
/// component built without telemetry — a private one created in `own`. The
/// component's instruments are therefore never null.
MetricsRegistry& registry_or_own(Telemetry* telemetry,
                                 std::unique_ptr<MetricsRegistry>& own);

/// Thread-local accumulator of I/O-wait seconds, so compute scopes can
/// subtract time the thread actually spent blocked on storage.
double thread_io_wait_seconds();
void add_thread_io_wait(double seconds);

/// RAII helper: records the lifetime of the scope under `cat`.
class ScopedTrace : NonCopyable {
 public:
  ScopedTrace(Telemetry* t, TraceCat cat)
      : t_(t), cat_(cat), begin_(Clock::now()) {}
  ~ScopedTrace() {
    const TimePoint end = Clock::now();
    if (cat_ == TraceCat::kIoWait) {
      add_thread_io_wait(to_seconds(end - begin_));
    }
    if (t_ != nullptr && t_->started()) t_->record(cat_, begin_, end);
  }

 private:
  Telemetry* t_;
  TraceCat cat_;
  TimePoint begin_;
};

/// RAII helper for CPU work that may block on I/O inside: records the scope
/// duration *minus* the I/O wait accumulated within it as kCpuBusy, so the
/// utilization plots show CPU dropping while I/O wait rises (Figs. 3/11).
class BusyScope : NonCopyable {
 public:
  BusyScope(Telemetry* t, TraceCat cat = TraceCat::kCpuBusy)
      : t_(t), cat_(cat), begin_(Clock::now()),
        io_at_begin_(thread_io_wait_seconds()) {}
  ~BusyScope() {
    const TimePoint end = Clock::now();
    if (t_ == nullptr || !t_->started()) return;
    const double io = thread_io_wait_seconds() - io_at_begin_;
    const double busy = to_seconds(end - begin_) - io;
    if (busy > 0) {
      t_->record(cat_, begin_, begin_ + from_us(busy * 1e6));
    }
  }

 private:
  Telemetry* t_;
  TraceCat cat_;
  TimePoint begin_;
  double io_at_begin_;
};

}  // namespace gnndrive
