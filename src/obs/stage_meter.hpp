// One pipeline stage's instruments, fed by one record() per batch: the
// run-local histogram behind EpochObs / ServeReport, the registry histogram
// it mirrors (stage.*.us / serve.*.us) and, while tracing, the stage span.
// Stage totals (EpochStats seconds, trained batches) are read back from the
// run-local histogram instead of being counted a second time.
#pragma once

#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

/// Per-stage latency distribution over one run (microseconds per batch).
struct StageLatency {
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;

  /// One report line: "  <name>   n=... p50=...us p95=... p99=... mean=...".
  std::string row(const char* name) const {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-8s n=%-5llu p50=%9.1fus p95=%9.1fus p99=%9.1fus "
                  "mean=%9.1fus\n",
                  name, static_cast<unsigned long long>(count), p50_us, p95_us,
                  p99_us, mean_us);
    return line;
  }
};

class StageMeter : NonCopyable {
 public:
  /// Without telemetry only the run-local histogram is kept; a null `span`
  /// records no span.
  StageMeter(Telemetry* telemetry, const char* metric, const char* span)
      : span_(span) {
    if (telemetry == nullptr) return;
    registry_ = &telemetry->metrics()->histogram(metric);
    if (span_ != nullptr) tracer_ = telemetry->tracer();
  }

  void record(std::uint64_t batch_id, std::uint32_t epoch, TimePoint begin,
              TimePoint end) {
    const double us = to_seconds(end - begin) * 1e6;
    local_.add_us(us);
    if (registry_ != nullptr) registry_->add_us(us);
    if (tracer_ != nullptr) tracer_->record(span_, batch_id, epoch, begin, end);
  }

  StageLatency latency() const {
    const LatencyHistogram h = local_.snapshot();
    return StageLatency{h.count(), h.mean_us(), h.percentile_us(0.50),
                        h.percentile_us(0.95), h.percentile_us(0.99)};
  }
  std::uint64_t count() const { return local_.count(); }
  double total_seconds() const { return local_.snapshot().sum_us() / 1e6; }

 private:
  const char* span_;
  ConcurrentHistogram local_;
  ConcurrentHistogram* registry_ = nullptr;
  SpanTracer* tracer_ = nullptr;
};

}  // namespace gnndrive
