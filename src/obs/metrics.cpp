#include "obs/metrics.hpp"

#include <cstdio>

namespace gnndrive {

UnreadInstruments& UnreadInstruments::get() {
  static UnreadInstruments sink;
  return sink;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

ConcurrentHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<ConcurrentHistogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, GaugeValue{g->value(), g->max()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

std::string MetricsRegistry::format_report() const {
  const Snapshot snap = snapshot();
  std::string out;
  char line[256];
  for (const auto& [name, v] : snap.counters) {
    std::snprintf(line, sizeof(line), "counter   %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [name, g] : snap.gauges) {
    std::snprintf(line, sizeof(line), "gauge     %-32s %lld (max %lld)\n",
                  name.c_str(), static_cast<long long>(g.value),
                  static_cast<long long>(g.max));
    out += line;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::snprintf(line, sizeof(line),
                  "histogram %-32s n=%llu mean=%.1fus p50=%.1fus p95=%.1fus "
                  "p99=%.1fus max=%.1fus\n",
                  name.c_str(), static_cast<unsigned long long>(h.count()),
                  h.mean_us(), h.percentile_us(0.50), h.percentile_us(0.95),
                  h.percentile_us(0.99), h.max_us());
    out += line;
  }
  return out;
}

}  // namespace gnndrive
