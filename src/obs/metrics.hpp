// Unified metrics registry for the observability layer.
//
// The registry is the only store of the system's event counts: SSD
// requests (ssd.*), page-cache hits and misses (pagecache.*), feature-buffer
// triage (fb.*), serving outcomes (serve.*) and faults (fault.*) are each
// counted once, here, under stable dotted names. The per-component Stats
// structs (SsdStats, PageCacheStats, FeatureBufferStats, ServeReport) are
// views: registry values minus a baseline the component takes at
// construction or reset_stats() (CounterSet below). A component built
// without telemetry counts into a private registry (registry_or_own in
// util/telemetry.hpp), so every instrument pointer is non-null. Three
// instrument kinds:
//
//   Counter   — monotonic event count (relaxed atomic add); never decreases.
//   Gauge     — instantaneous level (queue depth, in-flight requests) with a
//               high-watermark.
//   Histogram — thread-safe log2-bucket latency histogram; snapshots into
//               the query-side LatencyHistogram for p50/p95/p99.
//
// Hot-path cost: one relaxed atomic RMW per update, no locks. Registration
// (name lookup) takes a mutex and is meant for construction time — callers
// resolve instruments once and keep the pointer. Instruments are owned by
// the registry and never move, so resolved pointers stay valid for the
// registry's lifetime. Metric names are listed in docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/stats.hpp"

namespace gnndrive {

class Counter : NonCopyable {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Overwrites the value. Breaks monotonicity, so no component counts with
  /// it; it remains for tests of registry readers that must cope with a
  /// counter going backwards (see perfbench's RegistryDiff).
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge : NonCopyable {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t d) {
    raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Thread-safe variant of LatencyHistogram: atomic buckets, no lock.
/// Sum/max are tracked in integer nanoseconds so concurrent adds stay exact.
class ConcurrentHistogram : NonCopyable {
 public:
  void add_us(double us) {
    count_.fetch_add(1, std::memory_order_relaxed);
    const auto ns = static_cast<std::uint64_t>(std::max(us, 0.0) * 1e3);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
    buckets_[LatencyHistogram::bucket_of(us)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Drops every sample so the next window starts fresh (per-epoch
  /// histogram hygiene). Adds racing with a reset may land on either side
  /// of the window boundary — both attributions are valid for windowed
  /// reporting. Prefer snapshot() + LatencyHistogram::diff_since when the
  /// cumulative series must keep growing (Prometheus exposition).
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

  /// Consistent-enough copy for reporting (buckets are read individually;
  /// a racing add may be off by one sample, which percentiles tolerate).
  LatencyHistogram snapshot() const {
    std::uint64_t raw[LatencyHistogram::kBuckets];
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      raw[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return LatencyHistogram::from_raw(
        raw, static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e3,
        static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e3);
  }

 private:
  std::atomic<std::uint64_t> buckets_[LatencyHistogram::kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Instruments that belong to no registry and are never read: the default
/// target of an instrument pointer a caller may leave unset (see
/// ExtractMetricHooks), so the code updating it needs no null test.
struct UnreadInstruments {
  Counter counter;
  Gauge gauge;
  ConcurrentHistogram histogram;
  static UnreadInstruments& get();
};

class MetricsRegistry : NonCopyable {
 public:
  /// Find-or-create by name. Returned references stay valid for the
  /// registry's lifetime; resolve once, then update lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  ConcurrentHistogram& histogram(const std::string& name);

  struct GaugeValue {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, GaugeValue>> gauges;
    std::vector<std::pair<std::string, LatencyHistogram>> histograms;
  };
  /// Name-sorted copy of every instrument's current value.
  Snapshot snapshot() const;

  /// Human-readable report: counters, gauges (value/max), histograms with
  /// count/mean/p50/p95/p99. One line per instrument, sorted by name.
  std::string format_report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ConcurrentHistogram>> histograms_;
};

/// A component's named registry counters, read as their growth since a
/// baseline: the store behind a Stats view. Index with the component's own
/// enum; the counters themselves never go backwards.
template <std::size_t N>
class CounterSet {
 public:
  using Names = std::array<const char*, N>;

  /// Resolves `names` in `registry`; every view starts at zero.
  CounterSet(MetricsRegistry& registry, const Names& names) : names_(names) {
    for (std::size_t i = 0; i < N; ++i) c_[i] = &registry.counter(names_[i]);
    rebase();
  }
  Counter& operator[](std::size_t i) const { return *c_[i]; }
  std::uint64_t view(std::size_t i) const { return c_[i]->value() - base_[i]; }
  /// Restarts every view at zero (reset_stats()).
  void rebase() {
    for (std::size_t i = 0; i < N; ++i) base_[i] = c_[i]->value();
  }
  /// Counts into `registry`'s counters of the same names from now on; the
  /// views carry on unchanged (unsigned wrap keeps the difference right).
  void rebind(MetricsRegistry& registry) {
    for (std::size_t i = 0; i < N; ++i) {
      const std::uint64_t v = view(i);
      c_[i] = &registry.counter(names_[i]);
      base_[i] = c_[i]->value() - v;
    }
  }

 private:
  Names names_;
  std::array<Counter*, N> c_;
  std::array<std::uint64_t, N> base_;
};

}  // namespace gnndrive
