#include "util/telemetry.hpp"

#include <algorithm>
#include <iterator>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gnndrive {

namespace {
thread_local double tl_io_wait_seconds = 0.0;
}

const char* fault_counter_name(FaultCounter c) {
  static constexpr const char* kNames[] = {
      "fault.io_errors", "fault.io_retries", "fault.io_timeouts",
      "fault.failed_batches"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(FaultCounter::kCount));
  return kNames[static_cast<int>(c)];
}

MetricsRegistry& registry_or_own(Telemetry* telemetry,
                                 std::unique_ptr<MetricsRegistry>& own) {
  if (telemetry != nullptr) return *telemetry->metrics();
  if (own == nullptr) own = std::make_unique<MetricsRegistry>();
  return *own;
}

double thread_io_wait_seconds() { return tl_io_wait_seconds; }
void add_thread_io_wait(double seconds) { tl_io_wait_seconds += seconds; }

Telemetry::Telemetry(double bucket_ms, std::size_t max_buckets)
    : bucket_ms_(bucket_ms), cells_(max_buckets),
      metrics_(std::make_unique<MetricsRegistry>()),
      tracer_(std::make_unique<SpanTracer>()),
      sampler_(std::make_unique<TimeSeriesSampler>(metrics_.get(),
                                                   tracer_.get())),
      attributor_(std::make_unique<BottleneckAttributor>()),
      slo_(std::make_unique<SloWatcher>()) {
  sampler_->set_on_tick(
      [slo = slo_.get()](const TimeSeriesSampler& ts) { slo->evaluate(ts); });
  for (auto& row : cells_) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
  for (int i = 0; i < static_cast<int>(FaultCounter::kCount); ++i) {
    fault_counters_[i] =
        &metrics_->counter(fault_counter_name(static_cast<FaultCounter>(i)));
  }
}

Telemetry::~Telemetry() = default;

void Telemetry::count(FaultCounter c, std::uint64_t n) {
  fault_counters_[static_cast<int>(c)]->add(n);
}

std::uint64_t Telemetry::counter(FaultCounter c) const {
  return fault_counters_[static_cast<int>(c)]->value();
}

void Telemetry::set_tracing(bool on) { tracer_->set_enabled(on); }
bool Telemetry::tracing() const { return tracer_->enabled(); }

void Telemetry::start() {
  t0_ = Clock::now();
  hi_bucket_.store(0, std::memory_order_relaxed);
  started_.store(true, std::memory_order_release);
}

void Telemetry::record(TraceCat cat, TimePoint begin, TimePoint end) {
  if (!started() || end <= begin) return;
  if (begin < t0_) begin = t0_;
  if (end <= t0_) return;

  const double bucket_ns = bucket_ms_ * 1e6;
  const auto rel_begin = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(begin - t0_)
          .count());
  const auto rel_end = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - t0_).count());

  std::size_t b = static_cast<std::size_t>(rel_begin / bucket_ns);
  const std::size_t b_end = static_cast<std::size_t>(rel_end / bucket_ns);
  const int c = static_cast<int>(cat);
  double cursor = rel_begin;
  while (b < cells_.size()) {
    const double bucket_hi = static_cast<double>(b + 1) * bucket_ns;
    const double slice = std::min(rel_end, bucket_hi) - cursor;
    if (slice > 0) {
      cells_[b][c].fetch_add(static_cast<std::uint64_t>(slice),
                             std::memory_order_relaxed);
    }
    if (b >= b_end) break;
    cursor = bucket_hi;
    ++b;
  }
  std::size_t hi = std::min(b_end, cells_.size() - 1);
  std::size_t cur = hi_bucket_.load(std::memory_order_relaxed);
  while (cur < hi &&
         !hi_bucket_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
}

std::vector<Telemetry::Bucket> Telemetry::snapshot() const {
  const std::size_t n =
      std::min(hi_bucket_.load(std::memory_order_relaxed) + 1, cells_.size());
  std::vector<Bucket> out;
  out.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    Bucket bk;
    bk.t_seconds = static_cast<double>(b) * bucket_ms_ / 1e3;
    bk.cpu_busy = static_cast<double>(
                      cells_[b][0].load(std::memory_order_relaxed)) /
                  1e9;
    bk.io_wait = static_cast<double>(
                     cells_[b][1].load(std::memory_order_relaxed)) /
                 1e9;
    bk.gpu_busy = static_cast<double>(
                      cells_[b][2].load(std::memory_order_relaxed)) /
                  1e9;
    out.push_back(bk);
  }
  return out;
}

double Telemetry::total_seconds(TraceCat cat) const {
  const int c = static_cast<int>(cat);
  std::uint64_t total = 0;
  const std::size_t n =
      std::min(hi_bucket_.load(std::memory_order_relaxed) + 1, cells_.size());
  for (std::size_t b = 0; b < n; ++b) {
    total += cells_[b][c].load(std::memory_order_relaxed);
  }
  return static_cast<double>(total) / 1e9;
}

}  // namespace gnndrive
