// Arithmetic of the benchmark: percentile selection with a tail-sample
// rule, ratios that refuse a zero base, registry snapshot diffs and the
// seed plumbing that turns --seed into a workload's inputs. Header-only so
// the unit tests exercise exactly what gnnbench links.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using gnndrive::LatencyHistogram;
using gnndrive::NodeId;

/// Samples a percentile must leave beyond it before the benchmark reports
/// it (a p99 needs at least 1000 samples).
inline constexpr std::uint64_t kMinTailSamples = 10;

/// Nearest rank of percentile `p` in (0, 1) over `n` samples (1-based).
inline std::uint64_t nearest_rank(double p, std::uint64_t n) {
  const double r = std::ceil(p * static_cast<double>(n));
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(r), 1, n);
}

/// Whether `n` samples leave at least kMinTailSamples beyond percentile `p`.
inline bool tail_is_sampled(double p, std::uint64_t n) {
  return n > 0 && n - nearest_rank(p, n) >= kMinTailSamples;
}

/// Nearest-rank percentile of exact samples; nullopt when fewer than
/// kMinTailSamples samples lie beyond it.
inline std::optional<double> tail_percentile(std::vector<double> xs,
                                             double p) {
  if (!tail_is_sampled(p, xs.size())) return std::nullopt;
  const std::uint64_t rank = nearest_rank(p, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1),
                   xs.end());
  return xs[rank - 1];
}

/// Same rule over a log2-bucket histogram (values interpolated in-bucket).
inline std::optional<double> tail_percentile(const LatencyHistogram& h,
                                             double p) {
  if (!tail_is_sampled(p, h.count())) return std::nullopt;
  return h.percentile_us(p);
}

/// Median of exact samples (mean of the middle pair for even counts);
/// nullopt for an empty set.
inline std::optional<double> median(std::vector<double> xs) {
  if (xs.empty()) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// One answered request: when it completed, in seconds since its phase
/// began, and how long it took.
struct Completion {
  double t_s = 0.0;
  double latency_ms = 0.0;
};

struct WindowedMedians {
  std::optional<double> rate_per_s;  ///< median over windows of completions/s
  std::optional<double> p50_ms;      ///< median over windows of the p50
};

/// Splits a `wall_s`-second phase into `windows` equal windows and takes the
/// median over windows of the completion rate and of the median latency, so
/// a host stall that covers fewer than half the windows moves neither.
inline WindowedMedians windowed_medians(const std::vector<Completion>& done,
                                        double wall_s, int windows) {
  if (windows <= 0 || !(wall_s > 0.0)) return {};
  const double len = wall_s / windows;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(windows));
  for (const Completion& c : done) {
    const int w = std::clamp(static_cast<int>(c.t_s / len), 0, windows - 1);
    lat[static_cast<std::size_t>(w)].push_back(c.latency_ms);
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  for (const auto& l : lat) {
    rates.push_back(static_cast<double>(l.size()) / len);
    if (const auto m = median(l)) p50s.push_back(*m);
  }
  return {median(rates), median(p50s)};
}

/// num / den; nullopt when the base is zero or either side is not finite.
inline std::optional<double> ratio(double num, double den) {
  if (den == 0.0 || !std::isfinite(num) || !std::isfinite(den)) {
    return std::nullopt;
  }
  return num / den;
}

/// What a registry recorded between two snapshots: counter increments and
/// windowed histograms. A counter absent from `before` started at zero; one
/// that went backwards (a mirrored counter reset) reports zero and is named
/// in `regressed`.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, LatencyHistogram> histograms;
  std::vector<std::string> regressed;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
  }
  LatencyHistogram histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it != histograms.end() ? it->second : LatencyHistogram{};
  }
};

inline RegistryDelta diff(const gnndrive::MetricsRegistry::Snapshot& before,
                          const gnndrive::MetricsRegistry::Snapshot& after) {
  std::map<std::string, std::uint64_t> c0(before.counters.begin(),
                                          before.counters.end());
  std::map<std::string, LatencyHistogram> h0(before.histograms.begin(),
                                             before.histograms.end());
  RegistryDelta d;
  for (const auto& [name, v] : after.counters) {
    const auto it = c0.find(name);
    const std::uint64_t base = it != c0.end() ? it->second : 0;
    if (v < base) d.regressed.push_back(name);
    d.counters[name] = v >= base ? v - base : 0;
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = h0.find(name);
    d.histograms[name] =
        it != h0.end() ? h.diff_since(it->second) : h;
  }
  return d;
}

// -- Seed plumbing -----------------------------------------------------------

/// Independent 64-bit seed for one named input stream of a run.
inline std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t h = gnndrive::splitmix64(seed);
  for (const char c : stream) {
    h = gnndrive::splitmix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

/// The node ids closed-loop client `client` requests, drawn in order.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::uint32_t client, NodeId num_nodes)
      : rng_(derive_seed(seed, "serve.client." + std::to_string(client))),
        num_nodes_(num_nodes) {}
  NodeId next() { return static_cast<NodeId>(rng_.next_below(num_nodes_)); }

 private:
  gnndrive::Rng rng_;
  NodeId num_nodes_;
};

}  // namespace perfbench
