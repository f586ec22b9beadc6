// Telemetry plane: time-series sampler (ring, windows, lease lifecycle),
// Prometheus/JSON exposition, bottleneck attribution (synthetic snapshot
// pairs and real pipeline runs), SLO watcher transitions, and the HTTP
// endpoint — including liveness while training and serving run concurrently.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/attribution.hpp"
#include "obs/exposition.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

// -- Minimal JSON validator ---------------------------------------------------
// Structural parser covering the exposition grammar (objects, arrays,
// strings, numbers, bare literals). Rejects trailing garbage.
struct JsonParser {
  const char* p;
  const char* end;
  explicit JsonParser(const std::string& s)
      : p(s.data()), end(s.data() + s.size()) {}
  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool value() {
    ws();
    if (p >= end) return false;
    if (*p == '{') return object();
    if (*p == '[') return array();
    if (*p == '"') return string();
    return number_or_literal();
  }
  bool object() {
    ++p;
    ws();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (p >= end || *p != ':') return false;
      ++p;
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++p;
    ws();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') ++p;
      ++p;
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool number_or_literal() {
    const char* s = p;
    while (p < end && (std::isalnum(static_cast<unsigned char>(*p)) ||
                       *p == '-' || *p == '+' || *p == '.')) {
      ++p;
    }
    return p > s;
  }
  bool parse() {
    if (!value()) return false;
    ws();
    return p == end;
  }
};

// -- Prometheus text-format validator -----------------------------------------
// Line-level check of format 0.0.4: every line is a "# TYPE"/"# HELP"
// comment or `name{labels} value` with a well-formed metric name and a
// parseable float value; the exposition must end with a newline.
bool valid_name_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

::testing::AssertionResult prometheus_text_valid(const std::string& text) {
  if (text.empty() || text.back() != '\n') {
    return ::testing::AssertionFailure() << "missing trailing newline";
  }
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) != 0 && line.rfind("# HELP ", 0) != 0) {
        return ::testing::AssertionFailure() << "bad comment: " << line;
      }
      continue;
    }
    std::size_t i = 0;
    if (!valid_name_char(line[0], true)) {
      return ::testing::AssertionFailure() << "bad name start: " << line;
    }
    while (i < line.size() && valid_name_char(line[i], false)) ++i;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) {
        return ::testing::AssertionFailure() << "unclosed labels: " << line;
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return ::testing::AssertionFailure() << "no value separator: " << line;
    }
    const char* vbegin = line.c_str() + i + 1;
    char* vend = nullptr;
    std::strtod(vbegin, &vend);
    if (vend == vbegin || *vend != '\0') {
      return ::testing::AssertionFailure() << "bad value: " << line;
    }
  }
  return ::testing::AssertionSuccess();
}

// -- Time-series sampler ------------------------------------------------------

TEST(TimeSeries, RingWrapKeepsNewestSamples) {
  MetricsRegistry reg;
  TimeSeriesConfig cfg;
  cfg.capacity = 4;
  TimeSeriesSampler ts(&reg, nullptr, cfg);
  EXPECT_EQ(ts.sample_count(), 0u);
  TimeSeriesSample latest;
  EXPECT_FALSE(ts.latest(&latest));

  for (int i = 0; i < 10; ++i) {
    reg.counter("c").add(1);
    ts.tick();
  }
  EXPECT_EQ(ts.sample_count(), 10u);
  const auto v = ts.samples();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.front().seq, 6u);
  EXPECT_EQ(v.back().seq, 9u);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_EQ(v[i].seq, v[i - 1].seq + 1);
    EXPECT_GE(v[i].t_seconds, v[i - 1].t_seconds);
  }
  ASSERT_TRUE(ts.latest(&latest));
  EXPECT_EQ(latest.seq, 9u);
  ASSERT_EQ(latest.snap.counters.size(), 1u);
  EXPECT_EQ(latest.snap.counters[0].second, 10u);
}

TEST(TimeSeries, CounterWindowDeltaAndRate) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  Counter& c = reg.counter("io.reads");
  ts.tick();
  c.add(10);
  ts.tick();
  c.add(90);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ts.tick();

  // Wide window: bounded by the oldest retained sample (counter at 0).
  const auto wide = ts.counter_window("io.reads", 60.0);
  ASSERT_TRUE(wide.valid);
  EXPECT_EQ(wide.first, 0u);
  EXPECT_EQ(wide.last, 100u);
  EXPECT_EQ(wide.delta, 100u);
  ASSERT_GT(wide.dt_seconds, 0.0);
  EXPECT_NEAR(wide.rate_per_s,
              static_cast<double>(wide.delta) / wide.dt_seconds, 1e-9);

  // Window narrower than one tick: falls back to the second-newest sample.
  const auto narrow = ts.counter_window("io.reads", 0.0);
  ASSERT_TRUE(narrow.valid);
  EXPECT_EQ(narrow.first, 10u);
  EXPECT_EQ(narrow.delta, 90u);

  EXPECT_FALSE(ts.counter_window("no.such.series", 60.0).valid);
}

TEST(TimeSeries, GaugeWindowMeanMaxLast) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  Gauge& g = reg.gauge("q.depth");
  g.set(2);
  ts.tick();
  g.set(10);
  ts.tick();
  g.set(4);
  ts.tick();

  const auto w = ts.gauge_window("q.depth", 60.0);
  ASSERT_TRUE(w.valid);
  EXPECT_NEAR(w.mean, (2.0 + 10.0 + 4.0) / 3.0, 1e-9);
  EXPECT_EQ(w.max, 10);
  EXPECT_EQ(w.last, 4);
  EXPECT_FALSE(ts.gauge_window("no.such.gauge", 60.0).valid);
}

TEST(TimeSeries, HistogramWindowIsBucketDiff) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  ConcurrentHistogram& h = reg.histogram("lat.us");
  ts.tick();
  for (int i = 0; i < 3; ++i) h.add_us(100.0);
  ts.tick();
  for (int i = 0; i < 5; ++i) h.add_us(500.0);
  ts.tick();

  const LatencyHistogram wide = ts.histogram_window("lat.us", 60.0);
  EXPECT_EQ(wide.count(), 8u);
  EXPECT_NEAR(wide.sum_us(), 3 * 100.0 + 5 * 500.0, 1.0);

  // Narrow window: only the last inter-tick batch of samples.
  const LatencyHistogram narrow = ts.histogram_window("lat.us", 0.0);
  EXPECT_EQ(narrow.count(), 5u);
  EXPECT_NEAR(narrow.sum_us(), 5 * 500.0, 1.0);

  EXPECT_EQ(ts.histogram_window("no.such.hist", 60.0).count(), 0u);
}

TEST(TimeSeries, LeaseLifecycleStartsAndStopsThread) {
  MetricsRegistry reg;
  TimeSeriesConfig cfg;
  cfg.interval_ms = 2.0;
  TimeSeriesSampler ts(&reg, nullptr, cfg);
  EXPECT_FALSE(ts.running());

  ts.retain();
  EXPECT_TRUE(ts.running());
  EXPECT_GE(ts.sample_count(), 1u);  // retain takes an immediate sample
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_GE(ts.sample_count(), 5u);  // the thread is actually ticking

  // Nested leases keep one thread alive.
  ts.retain();
  ts.release();
  EXPECT_TRUE(ts.running());
  const std::uint64_t before = ts.sample_count();
  ts.release();
  EXPECT_FALSE(ts.running());
  EXPECT_GT(ts.sample_count(), before);  // final sample closes the window
}

TEST(TimeSeries, BackToBackLeasesDoNotDeadlock) {
  // Regression: consecutive run_epoch calls do release-then-retain in quick
  // succession; joining the previous sampling thread must never happen
  // under the lock that thread needs to observe its stop flag.
  MetricsRegistry reg;
  TimeSeriesConfig cfg;
  cfg.interval_ms = 1.0;
  TimeSeriesSampler ts(&reg, nullptr, cfg);
  for (int i = 0; i < 200; ++i) {
    SamplerLease lease(&ts);
    EXPECT_TRUE(ts.running());
  }
  EXPECT_FALSE(ts.running());
  EXPECT_GE(ts.sample_count(), 400u);  // one tick on retain + one on release
}

TEST(TimeSeries, DisabledSamplerIsANoOp) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  ts.set_enabled(false);
  ts.tick();
  EXPECT_EQ(ts.sample_count(), 0u);
  {
    SamplerLease lease(&ts);
    EXPECT_FALSE(ts.running());  // leases are counted but no thread starts
    EXPECT_EQ(ts.sample_count(), 0u);
  }
  ts.set_enabled(true);
  ts.tick();
  EXPECT_EQ(ts.sample_count(), 1u);
  SamplerLease null_lease(nullptr);  // null sampler is harmless
}

TEST(TimeSeries, OnTickHookSeesTheNewSample) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  std::uint64_t seen = 0;
  ts.set_on_tick(
      [&seen](const TimeSeriesSampler& s) { seen = s.sample_count(); });
  ts.tick();
  EXPECT_EQ(seen, 1u);
  ts.tick();
  EXPECT_EQ(seen, 2u);
}

TEST(TimeSeries, TickMirrorsGaugesAsTraceCounterTracks) {
  Telemetry tel;
  tel.set_tracing(true);
  tel.metrics()->gauge("fb.standby").set(7);
  tel.metrics()->gauge("pipeline.extract_q.depth").set(3);
  tel.sampler()->tick();
  const std::string json = tel.tracer()->chrome_trace_json();
  EXPECT_NE(json.find("fb.standby"), std::string::npos);
  EXPECT_NE(json.find("pipeline.extract_q.depth"), std::string::npos);
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse());
}

// -- Histogram windowing primitives -------------------------------------------

TEST(HistogramWindowing, ResetAndDiffSince) {
  LatencyHistogram a;
  for (int i = 0; i < 5; ++i) a.add_us(100.0);
  LatencyHistogram b = a;
  for (int i = 0; i < 7; ++i) b.add_us(900.0);

  const LatencyHistogram d = b.diff_since(a);
  EXPECT_EQ(d.count(), 7u);
  EXPECT_NEAR(d.sum_us(), 7 * 900.0, 1.0);
  EXPECT_GE(d.percentile_us(0.5), 500.0);

  b.reset();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.sum_us(), 0.0);
  EXPECT_EQ(b.max_us(), 0.0);

  ConcurrentHistogram ch;
  ch.add_us(50.0);
  ch.add_us(150.0);
  EXPECT_EQ(ch.count(), 2u);
  ch.reset();
  EXPECT_EQ(ch.count(), 0u);
  EXPECT_EQ(ch.snapshot().count(), 0u);
}

// -- Prometheus / JSON exposition ---------------------------------------------

TEST(Exposition, MetricNameSanitization) {
  EXPECT_EQ(prometheus_metric_name("io.coalesce.rows"), "io_coalesce_rows");
  EXPECT_EQ(prometheus_metric_name("stage.train.us"), "stage_train_us");
  EXPECT_EQ(prometheus_metric_name("a-b/c"), "a_b_c");
  EXPECT_EQ(prometheus_metric_name("9lives"), "_9lives");
}

TEST(Exposition, LabelValueEscaping) {
  EXPECT_EQ(prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
}

TEST(Exposition, PrometheusRenderFormat) {
  MetricsRegistry reg;
  reg.counter("io.coalesce.rows").add(5);
  Gauge& g = reg.gauge("q.depth");
  g.set(7);
  g.set(3);
  ConcurrentHistogram& h = reg.histogram("lat.us");
  for (int i = 0; i < 7; ++i) h.add_us(100.0 * (i + 1));

  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_TRUE(prometheus_text_valid(text));
  EXPECT_NE(text.find("# TYPE io_coalesce_rows_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("io_coalesce_rows_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE q_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("q_depth 3"), std::string::npos);
  EXPECT_NE(text.find("q_depth_max 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 7"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 7"), std::string::npos);

  // The bucket ladder must be cumulative (non-decreasing counts).
  std::size_t pos = 0;
  long long prev = -1;
  int buckets = 0;
  const std::string key = "lat_us_bucket{le=\"";
  while ((pos = text.find(key, pos)) != std::string::npos) {
    const std::size_t sp = text.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const long long v = std::atoll(text.c_str() + sp + 2);
    EXPECT_GE(v, prev);
    prev = v;
    ++buckets;
    pos = sp;
  }
  EXPECT_GT(buckets, 2);
  EXPECT_EQ(prev, 7);  // the +Inf bucket equals _count
}

TEST(Exposition, PrometheusLabelsAttachToEverySeries) {
  MetricsRegistry reg;
  reg.counter("io.coalesce.rows").add(5);
  const std::string text =
      render_prometheus(reg.snapshot(), {{"job", "a\"b\\c\nd"}});
  EXPECT_TRUE(prometheus_text_valid(text));
  EXPECT_NE(text.find("io_coalesce_rows_total{job=\"a\\\"b\\\\c\\nd\"} 5"),
            std::string::npos);
}

TEST(Exposition, VarsJsonParsesAndEscapes) {
  MetricsRegistry reg;
  reg.counter("fb.loads").add(7);
  reg.gauge("fb.standby").set(42);
  reg.histogram("stage.train.us").add_us(250.0);
  const std::string json = render_vars_json(reg.snapshot());
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"fb.loads\""), std::string::npos);
  EXPECT_NE(json.find("\"fb.standby\""), std::string::npos);
  EXPECT_NE(json.find("\"stage.train.us\""), std::string::npos);

  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// -- Bottleneck attribution over synthetic snapshot pairs ---------------------

TEST(Attribution, SyntheticIoCongestionNamesTheSsd) {
  MetricsRegistry reg;
  const auto begin = reg.snapshot();
  // 1.9 s of device busy time over a 1 s window with 2 channels: 95%
  // utilized, while the trainer used 0.1 s (10%).
  reg.counter("ssd.busy_us").add(1'900'000);
  reg.gauge("ssd.pending").set(12);
  reg.histogram("stage.train.us").add_us(100'000.0);
  const auto end = reg.snapshot();

  AttributionConfig cfg;
  cfg.ssd_channels = 2;
  BottleneckAttributor at(cfg);
  const AttributionReport rep = at.attribute(begin, end, 1.0, "test");
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kIoCongested)
      << rep.summary();
  EXPECT_EQ(rep.binding, "ssd");
  ASSERT_FALSE(rep.ranked.empty());
  EXPECT_EQ(rep.ranked.front().resource, "ssd");
  EXPECT_NEAR(rep.ranked.front().utilization, 0.95, 0.01);
  EXPECT_EQ(rep.summary().rfind("I/O-congested:", 0), 0u) << rep.summary();
  EXPECT_STREQ(AttributionReport::verdict_name(rep.verdict), "io_congested");

  const std::string json = rep.to_json();
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"verdict\":\"io_congested\""), std::string::npos);
  EXPECT_NE(json.find("\"binding\":\"ssd\""), std::string::npos);
}

TEST(Attribution, SyntheticThrashingCacheNamesMemoryContention) {
  MetricsRegistry reg;
  const auto begin = reg.snapshot();
  // 95% of misses force an eviction and fault stalls ate 60% of the window:
  // the buffered-I/O contention signature (working set far beyond cache
  // capacity, pages recycling under the accessor).
  reg.counter("pagecache.hits").add(100);
  reg.counter("pagecache.misses").add(400);
  reg.counter("pagecache.evictions").add(380);
  reg.counter("pagecache.fault_wait_us").add(600'000);
  const auto end = reg.snapshot();

  BottleneckAttributor at;
  const AttributionReport rep = at.attribute(begin, end, 1.0, "test");
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kMemoryContended)
      << rep.summary();
  EXPECT_EQ(rep.binding, "pagecache");
  ASSERT_FALSE(rep.ranked.empty());
  EXPECT_EQ(rep.ranked.front().resource, "pagecache");
  EXPECT_EQ(rep.summary().rfind("memory-contended:", 0), 0u) << rep.summary();
}

TEST(Attribution, ColdCacheMissesAreNotContention) {
  MetricsRegistry reg;
  const auto begin = reg.snapshot();
  // A cold cache misses everything once but evicts nothing: activity and
  // even some fault time, yet nothing recycles — not contention.
  reg.counter("pagecache.misses").add(400);
  reg.counter("pagecache.fault_wait_us").add(300'000);
  const auto end = reg.snapshot();

  BottleneckAttributor at;
  const AttributionReport rep = at.attribute(begin, end, 1.0, "test");
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kBalanced)
      << rep.summary();
  EXPECT_NE(rep.verdict, AttributionReport::Verdict::kMemoryContended);
}

TEST(Attribution, SyntheticBusyTrainerIsComputeBound) {
  MetricsRegistry reg;
  const auto begin = reg.snapshot();
  reg.histogram("stage.train.us").add_us(900'000.0);
  reg.counter("ssd.busy_us").add(100'000);
  const auto end = reg.snapshot();

  AttributionConfig cfg;
  cfg.ssd_channels = 2;
  BottleneckAttributor at(cfg);
  const AttributionReport rep = at.attribute(begin, end, 1.0, "test");
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kComputeBound)
      << rep.summary();
  EXPECT_EQ(rep.binding, "trainer");
}

TEST(Attribution, QuietWindowIsIdleAndZeroDtIsSafe) {
  MetricsRegistry reg;
  const auto snap = reg.snapshot();
  BottleneckAttributor at;
  const AttributionReport quiet = at.attribute(snap, snap, 1.0, "test");
  EXPECT_EQ(quiet.verdict, AttributionReport::Verdict::kIdle);
  EXPECT_EQ(std::string(AttributionReport::verdict_name(quiet.verdict)),
            "idle");

  const AttributionReport degenerate = at.attribute(snap, snap, 0.0, "test");
  EXPECT_EQ(degenerate.verdict, AttributionReport::Verdict::kIdle);
  const std::string json = degenerate.to_json();
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
}

TEST(Attribution, PublishStoresLatestReport) {
  BottleneckAttributor at;
  EXPECT_FALSE(at.has_report());
  AttributionReport rep;
  rep.verdict = AttributionReport::Verdict::kIoCongested;
  rep.binding = "ssd";
  rep.scope = "epoch 3";
  at.publish(rep);
  ASSERT_TRUE(at.has_report());
  EXPECT_EQ(at.latest().verdict, AttributionReport::Verdict::kIoCongested);
  EXPECT_EQ(at.latest().scope, "epoch 3");
}

TEST(Attribution, WindowAttributionUsesTheSampler) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  BottleneckAttributor at;

  // Fewer than two samples: an explicitly idle "window" report.
  EXPECT_EQ(at.attribute_window(ts, 2.0).scope, "window");
  EXPECT_EQ(at.attribute_window(ts, 2.0).verdict,
            AttributionReport::Verdict::kIdle);

  ts.tick();
  reg.counter("ssd.busy_us").add(500'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ts.tick();
  const AttributionReport rep = at.attribute_window(ts, 60.0);
  EXPECT_EQ(rep.scope, "window");
  EXPECT_GT(rep.window_seconds, 0.0);
  EXPECT_NE(rep.verdict, AttributionReport::Verdict::kIdle);
}

// -- SLO watcher --------------------------------------------------------------

TEST(Slo, CounterRateRuleFiresAndResolves) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  SloWatcher slo;
  SloRule rule;
  rule.name = "fault_rate";
  rule.kind = SloRule::Kind::kCounterRate;
  rule.metric = "faults";
  rule.threshold = 10.0;  // events/s
  rule.window_s = 0.03;   // narrower than the sleeps below
  slo.add_rule(rule);
  EXPECT_EQ(slo.rule_count(), 1u);

  // No samples yet: unmeasurable, nothing fires.
  slo.evaluate(ts);
  EXPECT_EQ(slo.firing_count(), 0u);

  ts.tick();
  reg.counter("faults").add(1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(55));
  ts.tick();
  slo.evaluate(ts);
  EXPECT_EQ(slo.firing_count(), 1u);
  auto alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_EQ(alerts[0].rule, "fault_rate");
  EXPECT_GT(alerts[0].value, rule.threshold);
  EXPECT_EQ(alerts[0].fire_count, 1u);

  // A quiet window (no new events between the last two ticks) resolves it.
  std::this_thread::sleep_for(std::chrono::milliseconds(55));
  ts.tick();
  slo.evaluate(ts);
  EXPECT_EQ(slo.firing_count(), 0u);
  alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_FALSE(alerts[0].firing);
  EXPECT_EQ(alerts[0].fire_count, 1u);

  const std::string json = slo.to_json();
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
}

TEST(Slo, HistogramQuantileRuleWatchesWindowedTail) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(&reg, nullptr);
  SloWatcher slo;
  SloRule rule;
  rule.name = "serve_p99_slo";
  rule.kind = SloRule::Kind::kHistogramQuantile;
  rule.metric = "serve.latency.us";
  rule.quantile = 0.99;
  rule.threshold = 5000.0;
  rule.window_s = 60.0;
  slo.add_rule(rule);

  ts.tick();
  ConcurrentHistogram& h = reg.histogram("serve.latency.us");
  for (int i = 0; i < 100; ++i) h.add_us(10'000.0);
  ts.tick();
  slo.evaluate(ts);
  EXPECT_EQ(slo.firing_count(), 1u);
  const auto alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_GT(alerts[0].value, 5000.0);
}

TEST(Slo, AddRuleReplacesByName) {
  SloWatcher slo;
  SloRule rule;
  rule.name = "r";
  rule.kind = SloRule::Kind::kGaugeLevel;
  rule.metric = "g";
  rule.threshold = 5.0;
  slo.add_rule(rule);
  rule.threshold = 50.0;
  slo.add_rule(rule);
  EXPECT_EQ(slo.rule_count(), 1u);
  const auto alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].threshold, 50.0);
}

TEST(Slo, TelemetryWiresWatcherIntoSamplerTicks) {
  // Telemetry's sampler evaluates its SLO watcher on every tick — a gauge
  // rule fires and resolves with no explicit evaluate() calls.
  Telemetry tel;
  SloRule rule;
  rule.name = "queue_depth_high";
  rule.kind = SloRule::Kind::kGaugeLevel;
  rule.metric = "q.depth";
  rule.threshold = 5.0;
  rule.window_s = 60.0;
  tel.slo()->add_rule(rule);

  tel.metrics()->gauge("q.depth").set(10);
  tel.sampler()->tick();  // first sample: windows still unbounded
  tel.sampler()->tick();
  EXPECT_EQ(tel.slo()->firing_count(), 1u);

  tel.metrics()->gauge("q.depth").set(0);
  tel.sampler()->tick();
  EXPECT_EQ(tel.slo()->firing_count(), 0u);
}

// -- HTTP endpoint ------------------------------------------------------------

TEST(ObsServer, RoutesServeExpectedFormats) {
  Telemetry tel;
  tel.metrics()->counter("io.reads").add(3);
  tel.metrics()->gauge("fb.standby").set(9);
  tel.metrics()->histogram("lat.us").add_us(120.0);

  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  std::string body;
  std::string ctype;

  EXPECT_EQ(server.handle("/healthz", &body, &ctype), 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(server.handle("/metrics", &body, &ctype), 200);
  EXPECT_NE(ctype.find("text/plain"), std::string::npos);
  EXPECT_TRUE(prometheus_text_valid(body));
  EXPECT_NE(body.find("io_reads_total 3"), std::string::npos);

  EXPECT_EQ(server.handle("/vars", &body, &ctype), 200);
  EXPECT_NE(ctype.find("application/json"), std::string::npos);
  {
    JsonParser parser(body);
    EXPECT_TRUE(parser.parse()) << body;
  }
  EXPECT_NE(body.find("\"alerts\""), std::string::npos);

  // Nothing running: not ready.
  EXPECT_EQ(server.handle("/readyz", &body, &ctype), 503);
  tel.metrics()->gauge("pipeline.running").set(1);
  EXPECT_EQ(server.handle("/readyz", &body, &ctype), 200);
  {
    JsonParser parser(body);
    EXPECT_TRUE(parser.parse()) << body;
  }
  tel.metrics()->gauge("pipeline.running").set(0);

  // /attribution falls back to a live window over the sampler.
  tel.sampler()->tick();
  tel.sampler()->tick();
  EXPECT_EQ(server.handle("/attribution", &body, &ctype), 200);
  {
    JsonParser parser(body);
    EXPECT_TRUE(parser.parse()) << body;
  }
  EXPECT_NE(body.find("\"verdict\""), std::string::npos);

  EXPECT_EQ(server.handle("/no/such/route", &body, &ctype), 404);
}

TEST(ObsServer, ServesOverRealSockets) {
  Telemetry tel;
  tel.metrics()->counter("io.reads").add(42);
  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  // Listening holds a sampler lease: the time-series moves while idle.
  EXPECT_TRUE(tel.sampler()->running());

  HttpResponse resp;
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/healthz", &resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");

  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/metrics", &resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(prometheus_text_valid(resp.body));
  EXPECT_NE(resp.body.find("io_reads_total 42"), std::string::npos);

  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/readyz", &resp));
  EXPECT_EQ(resp.status, 503);

  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/nope", &resp));
  EXPECT_EQ(resp.status, 404);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(tel.sampler()->running());
}

// -- Pipeline + serve integration ---------------------------------------------

struct ObsPlaneFixture : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(128)));
  }
  static void TearDownTestSuite() {
    delete dataset;
    dataset = nullptr;
  }
  static Dataset* dataset;

  struct Env {
    std::unique_ptr<Telemetry> telemetry;
    std::unique_ptr<SsdDevice> ssd;
    std::unique_ptr<HostMemory> mem;
    std::unique_ptr<PageCache> cache;
    RunContext ctx;
  };
  Env make_env(const SsdConfig& ssd_cfg, std::uint64_t mem_bytes) {
    Env env;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(mem_bytes);
    env.telemetry = std::make_unique<Telemetry>();
    env.ssd->set_telemetry(env.telemetry.get());
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd,
                                            env.telemetry.get());
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), env.telemetry.get()};
    return env;
  }
  Env make_env() {
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    return make_env(ssd_cfg, 64ull << 20);
  }

  GnnDriveConfig base_config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5, 5};
    cfg.common.batch_seeds = 16;
    return cfg;
  }
};
Dataset* ObsPlaneFixture::dataset = nullptr;

TEST_F(ObsPlaneFixture, EpochPopulatesLivenessGaugesAndReport) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  const EpochStats stats = system.run_epoch(0);
  ASSERT_GT(stats.result.trained_batches, 0u);

  MetricsRegistry& reg = *env.telemetry->metrics();
  EXPECT_EQ(reg.gauge("pipeline.running").value(), 0);
  EXPECT_GE(reg.gauge("pipeline.running").max(), 1);
  EXPECT_EQ(reg.gauge("pipeline.epoch").value(), 0);
  EXPECT_GE(reg.gauge("ssd.pending").max(), 1);
  EXPECT_EQ(reg.gauge("io.staging_in_use").value(), 0);
  EXPECT_GE(reg.gauge("io.staging_in_use").max(), 1);
  // Topology reads go through the (buffered) page cache.
  EXPECT_GT(reg.counter("pagecache.misses").value(), 0u);

  // The epoch leaves a published attribution report behind.
  BottleneckAttributor* at = env.telemetry->attributor();
  ASSERT_TRUE(at->has_report());
  EXPECT_EQ(at->latest().scope, "epoch 0");
  EXPECT_NE(at->latest().verdict, AttributionReport::Verdict::kIdle)
      << at->latest().summary();
  // The epoch's sampler lease left a bounded time-series behind.
  EXPECT_GE(env.telemetry->sampler()->sample_count(), 2u);
}

// The registry's fb.* and serve.* counters are shared by every instance on
// one telemetry; each instance's stats()/report() view must still count only
// its own events.
TEST_F(ObsPlaneFixture, SecondSystemOnAUsedContextViewsOnlyItsOwnBufferTraffic) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.num_samplers = 1;  // deterministic triage: both runs see the same
  cfg.num_extractors = 1;
  FeatureBufferStats first;
  {
    GnnDrive system(env.ctx, cfg);
    system.run_epoch(0);
    first = system.feature_buffer().stats();
  }
  ASSERT_GT(first.loads, 0u);

  GnnDrive second(env.ctx, cfg);
  EXPECT_EQ(second.feature_buffer().stats().lookups(), 0u);
  const EpochStats s = second.run_epoch(0);
  const FeatureBufferStats own = second.feature_buffer().stats();
  EXPECT_EQ(own.loads, first.loads);
  EXPECT_EQ(own.reuse_hits, first.reuse_hits);
  EXPECT_EQ(own.loads, s.obs.fb_loads);
  EXPECT_EQ(second.feature_buffer().stats(FbClient::kTrain).loads, own.loads);
  EXPECT_EQ(env.telemetry->metrics()->counter("fb.loads").value(),
            first.loads + own.loads);
}

TEST_F(ObsPlaneFixture, SecondServeEngineOnAUsedContextReportsOnlyItsOwnRequests) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.slo.deadline_ms = 0.0;  // nothing shed
  const auto serve = [&](NodeId requests) {
    ServeEngine engine(env.ctx, cfg, system);
    engine.start();
    std::vector<std::future<InferResult>> futs;
    for (NodeId v = 0; v < requests; ++v) futs.push_back(engine.submit(v));
    for (auto& f : futs) EXPECT_EQ(f.get().status, InferStatus::kOk);
    engine.stop();
    return engine.report();
  };
  const ServeReport a = serve(6);
  const ServeReport b = serve(4);
  EXPECT_EQ(a.submitted, 6u);
  EXPECT_EQ(a.completed, 6u);
  EXPECT_EQ(b.submitted, 4u);
  EXPECT_EQ(b.completed, 4u);
  EXPECT_EQ(b.failed + b.rejected + b.shed_deadline, 0u);
  EXPECT_EQ(env.telemetry->metrics()->counter("serve.completed").value(), 10u);
}

TEST_F(ObsPlaneFixture, CongestedConfigIsAttributedToTheSsd) {
  // Fig. 3 regime: one device channel, slow reads, ample host memory — the
  // SSD queue saturates while the (tiny) trainer idles. The trainer's time
  // is host math, which a sanitizer build slows many times over, while the
  // SSD's is modeled; so the device is slowed 4x and the model kept minimal
  // (fanouts 2, hidden 2) for the SSD to dominate at any host speed.
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 400.0;
  ssd_cfg.bandwidth_mb_s = 100.0;
  ssd_cfg.channels = 1;
  ssd_cfg.time_scale = 4.0;
  auto env = make_env(ssd_cfg, 64ull << 20);
  GnnDriveConfig cfg = base_config();
  cfg.common.model.hidden_dim = 2;
  cfg.common.sampler.fanouts = {2, 2, 2};
  // Epoch 0 runs against a cold feature buffer, so every feature comes off
  // the device (a warm epoch on the toy graph does no I/O at all).
  GnnDrive system(env.ctx, cfg);
  system.run_epoch(0);

  ASSERT_TRUE(env.telemetry->attributor()->has_report());
  const AttributionReport rep = env.telemetry->attributor()->latest();
  EXPECT_EQ(rep.scope, "epoch 0");
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kIoCongested)
      << rep.summary();
  EXPECT_EQ(rep.binding, "ssd") << rep.summary();
}

TEST_F(ObsPlaneFixture, MemoryTightBufferedConfigIsAttributedToThePageCache) {
  // Fig. 2 regime: wide features (one 4 KiB page per node, 16 MiB total)
  // read through a page cache squeezed by a tight host budget — misses
  // evict exactly what the next access needs. As above, a 4x slower device
  // and a minimal model keep the fault stalls a large share of the epoch
  // even when a sanitizer build slows the host math.
  Dataset wide = Dataset::build(toy_spec(1024));
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 400.0;
  ssd_cfg.time_scale = 4.0;
  Env env;
  env.ssd = wide.make_device(ssd_cfg);
  env.mem = std::make_unique<HostMemory>(14ull << 20);
  env.telemetry = std::make_unique<Telemetry>();
  env.ssd->set_telemetry(env.telemetry.get());
  env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd,
                                          env.telemetry.get());
  env.ctx = RunContext{&wide, env.ssd.get(), env.mem.get(), env.cache.get(),
                       env.telemetry.get()};

  GnnDriveConfig cfg = base_config();
  cfg.direct_io = false;           // features through the page cache
  cfg.staging_fraction = 0.9;      // pin most of what's left of the host
  cfg.feature_buffer_scale = 0.1;  // little cross-batch reuse in the fb
  cfg.common.model.hidden_dim = 2;
  cfg.common.sampler.fanouts = {2, 2, 2};
  GnnDrive system(env.ctx, cfg);
  system.run_epoch(0);

  ASSERT_TRUE(env.telemetry->attributor()->has_report());
  const AttributionReport rep = env.telemetry->attributor()->latest();
  EXPECT_EQ(rep.verdict, AttributionReport::Verdict::kMemoryContended)
      << rep.summary();
  EXPECT_EQ(rep.binding, "pagecache") << rep.summary();
}

TEST_F(ObsPlaneFixture, EndpointStaysLiveDuringTrainAndServe) {
  auto env = make_env();

  ObsServer server(env.telemetry->metrics(), env.telemetry->sampler(),
                   env.telemetry->attributor(), env.telemetry->slo());
  ASSERT_TRUE(server.start());
  HttpResponse resp;

  // Nothing running yet: alive but not ready.
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/readyz", &resp));
  EXPECT_EQ(resp.status, 503);

  // Standalone serving substrate sharing the pipeline's telemetry.
  FeatureBuffer fb(FeatureBufferConfig{2048, dataset->spec().feature_dim},
                   dataset->spec().num_nodes, env.telemetry.get());
  ModelConfig mc;
  mc.kind = ModelKind::kSage;
  mc.in_dim = dataset->spec().feature_dim;
  mc.hidden_dim = 16;
  mc.num_classes = dataset->spec().num_classes;
  mc.num_layers = 2;
  GnnModel model(mc);
  ServeConfig serve_cfg;
  serve_cfg.sampler.fanouts = {5, 5};
  serve_cfg.workers = 1;
  serve_cfg.max_batch = 8;
  serve_cfg.max_wait_us = 200.0;
  serve_cfg.slo.deadline_ms = 50.0;  // registers the serve p99 SLO rule
  ServeEngine engine(env.ctx, serve_cfg,
                     ServeSubstrate{&fb, &model, nullptr, 0});
  engine.start();
  EXPECT_GE(env.telemetry->slo()->rule_count(), 1u);

  // Serving alone makes the process ready.
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/readyz", &resp));
  EXPECT_EQ(resp.status, 200);

  GnnDrive system(env.ctx, base_config());
  std::thread trainer([&system] { system.run_epoch(0); });

  // Scrape every route while training and serving run concurrently.
  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 8; ++v) futs.push_back(engine.submit(v));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/metrics", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_TRUE(prometheus_text_valid(resp.body));
    ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/vars", &resp));
    EXPECT_EQ(resp.status, 200);
    JsonParser vars(resp.body);
    EXPECT_TRUE(vars.parse());
    ASSERT_TRUE(
        obs_http_get("127.0.0.1", server.port(), "/attribution", &resp));
    EXPECT_EQ(resp.status, 200);
    JsonParser attr(resp.body);
    EXPECT_TRUE(attr.parse());
    ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/readyz", &resp));
    EXPECT_EQ(resp.status, 200);
  }
  for (auto& f : futs) f.get();
  trainer.join();

  // The finished epoch published a report the endpoint now serves verbatim.
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/attribution", &resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"scope\":\"epoch 0\""), std::string::npos);

  engine.stop();
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/readyz", &resp));
  EXPECT_EQ(resp.status, 503);
  server.stop();
}

}  // namespace
}  // namespace gnndrive
