// Observability layer: metrics registry, span tracer, Chrome-trace export,
// and the end-to-end pipeline acceptance check — every trained batch must
// show sample/extract/train/release spans in the exported trace, and the
// end-of-epoch report must carry per-stage percentiles and queue gauges.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

// -- Minimal JSON validator ---------------------------------------------------
// Structural parser covering the tracer's output grammar (objects, arrays,
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

/// Extracts (span name -> set of batch args) from the exported trace by
/// scanning the fixed event layout the tracer emits.
std::map<std::string, std::set<std::uint64_t>> spans_by_name(
    const std::string& json) {
  std::map<std::string, std::set<std::uint64_t>> out;
  std::size_t pos = 0;
  const std::string name_key = "{\"name\":\"";
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    const std::size_t name_end = json.find('"', pos);
    if (name_end == std::string::npos) break;
    const std::string name = json.substr(pos, name_end - pos);
    const std::size_t obj_end = json.find('}', name_end);
    const std::size_t batch_key = json.find("\"batch\":", name_end);
    if (batch_key != std::string::npos && batch_key < json.find(name_key, name_end)) {
      out[name].insert(std::strtoull(json.c_str() + batch_key + 8, nullptr, 10));
    } else {
      out[name];  // counter event: name seen, no batch
    }
    pos = obj_end == std::string::npos ? name_end : obj_end;
  }
  return out;
}

// -- Metrics registry ---------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("io.submitted");
  Counter& c2 = reg.counter("io.submitted");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  c2.add();
  EXPECT_EQ(c1.value(), 4u);

  Gauge& g = reg.gauge("q.depth");
  g.set(5);
  g.add(2);
  g.sub(4);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);

  ConcurrentHistogram& h = reg.histogram("lat.us");
  for (int i = 0; i < 100; ++i) h.add_us(100.0);
  EXPECT_EQ(h.count(), 100u);
  const LatencyHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 100u);
  EXPECT_NEAR(snap.mean_us(), 100.0, 0.5);
  EXPECT_LE(snap.percentile_us(0.99), snap.max_us());
}

TEST(MetricsRegistry, SnapshotAndReportContainInstruments) {
  MetricsRegistry reg;
  reg.counter("fb.loads").add(7);
  reg.gauge("fb.standby").set(42);
  reg.histogram("stage.train.us").add_us(250.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "fb.loads");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second.value, 42);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 1u);

  const std::string report = reg.format_report();
  EXPECT_NE(report.find("fb.loads"), std::string::npos);
  EXPECT_NE(report.find("fb.standby"), std::string::npos);
  EXPECT_NE(report.find("stage.train.us"), std::string::npos);
}

TEST(ConcurrentHistogram, MatchesSingleThreadedHistogram) {
  ConcurrentHistogram ch;
  LatencyHistogram ground;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ch, t] {
      for (int i = 0; i < 250; ++i) {
        ch.add_us(static_cast<double>((t * 250 + i) % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < 1000; ++i) ground.add_us(static_cast<double>(i % 1000));
  const LatencyHistogram snap = ch.snapshot();
  EXPECT_EQ(snap.count(), ground.count());
  EXPECT_NEAR(snap.mean_us(), ground.mean_us(), 0.01);
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(snap.bucket(i), ground.bucket(i)) << "bucket " << i;
  }
  EXPECT_NEAR(snap.percentile_us(0.5), ground.percentile_us(0.5), 1e-9);
}

// -- Span tracer --------------------------------------------------------------

TEST(SpanTracer, DisabledRecordsNothing) {
  SpanTracer tracer;
  const TimePoint t = Clock::now();
  tracer.record(kSpanTrain, 1, 0, t, t + from_us(100.0));
  tracer.record_rel(kSpanSsdWait, 1, 0, 0, 1000);
  tracer.sample_counter("q", 3.0);
  { ScopedSpan s(&tracer, kSpanSample, 2, 0); }
  { ScopedSpan s(nullptr, kSpanSample, 2, 0); }  // null tracer harmless
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.now_ns(), 0u);
}

TEST(SpanTracer, RecordExportAndSummary) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  const TimePoint t = Clock::now();
  tracer.record(kSpanSample, 417, 2, t, t + from_us(50.0));
  tracer.record(kSpanExtract, 417, 2, t + from_us(60.0), t + from_us(200.0));
  tracer.record_rel(kSpanSsdWait, 417, 2, 60000, 90000);
  tracer.sample_counter("extract_q", 4.0);
  EXPECT_EQ(tracer.span_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].begin_ns, spans[i - 1].begin_ns);  // sorted
  }
  EXPECT_EQ(spans[0].batch, 417u);
  EXPECT_EQ(spans[0].epoch, 2u);

  const std::string json = tracer.chrome_trace_json();
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\":417"), std::string::npos);

  const std::string summary = tracer.summary();
  EXPECT_NE(summary.find("extract"), std::string::npos);
  EXPECT_NE(summary.find("sample"), std::string::npos);
}

TEST(SpanTracer, BoundedBufferCountsDrops) {
  SpanTracer tracer(/*max_records=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.record_rel(kSpanTrain, i, 0, i * 1000, 500);
  }
  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_NE(tracer.summary().find("dropped"), std::string::npos);
}

TEST(SpanTracer, ResetClearsBuffer) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.record_rel(kSpanTrain, 1, 0, 0, 100);
  ASSERT_EQ(tracer.span_count(), 1u);
  tracer.reset();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(Telemetry, TracingFlagGatesTracer) {
  Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  ASSERT_NE(tel.tracer(), nullptr);
  EXPECT_FALSE(tel.tracer()->enabled());
  tel.set_tracing(true);
  EXPECT_TRUE(tel.tracing());
  EXPECT_TRUE(tel.tracer()->enabled());
  tel.set_tracing(false);
  EXPECT_FALSE(tel.tracing());
}

// -- Pipeline end-to-end ------------------------------------------------------

struct ObsPipelineFixture : ::testing::Test {
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
  Env make_env() {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(64ull << 20);
    env.telemetry = std::make_unique<Telemetry>();
    env.ssd->set_telemetry(env.telemetry.get());
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd,
                                            env.telemetry.get());
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), env.telemetry.get()};
    return env;
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
Dataset* ObsPipelineFixture::dataset = nullptr;

TEST_F(ObsPipelineFixture, TraceCoversEveryTrainedBatchInAllFourStages) {
  auto env = make_env();
  env.telemetry->set_tracing(true);
  GnnDrive system(env.ctx, base_config());
  const EpochStats stats = system.run_epoch(0);
  ASSERT_GT(stats.result.trained_batches, 0u);
  EXPECT_EQ(stats.result.failed_batches, 0u);

  SpanTracer* tracer = env.telemetry->tracer();
  const std::string json = tracer->chrome_trace_json();
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse());

  const auto by_name = spans_by_name(json);
  ASSERT_TRUE(by_name.count(kSpanTrain));
  const std::set<std::uint64_t>& trained = by_name.at(kSpanTrain);
  EXPECT_EQ(trained.size(), stats.result.trained_batches);
  // Every trained batch went through all four stages; its id must appear
  // under each stage's span name.
  for (const char* stage : {kSpanSample, kSpanExtract, kSpanRelease}) {
    ASSERT_TRUE(by_name.count(stage)) << stage;
    for (std::uint64_t b : trained) {
      EXPECT_TRUE(by_name.at(stage).count(b))
          << "batch " << b << " missing a '" << stage << "' span";
    }
  }
  // The periodic snapshot thread produced counter tracks.
  EXPECT_NE(json.find("extract_q"), std::string::npos);
  EXPECT_NE(json.find("fb.standby"), std::string::npos);
}

TEST_F(ObsPipelineFixture, WriteChromeTraceRoundTrips) {
  auto env = make_env();
  env.telemetry->set_tracing(true);
  GnnDrive system(env.ctx, base_config());
  system.run_epoch(0);
  const std::string path = ::testing::TempDir() + "gnndrive_trace_test.json";
  ASSERT_TRUE(env.telemetry->tracer()->write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  JsonParser parser(content);
  EXPECT_TRUE(parser.parse());
  for (const char* stage :
       {kSpanSample, kSpanExtract, kSpanTrain, kSpanRelease}) {
    EXPECT_NE(content.find(std::string("\"name\":\"") + stage + "\""),
              std::string::npos)
        << stage;
  }
}

TEST_F(ObsPipelineFixture, EpochObsReportPopulated) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  // Tracing stays OFF: the epoch report and metrics must populate anyway.
  const EpochStats stats = system.run_epoch(0);
  EXPECT_EQ(env.telemetry->tracer()->span_count(), 0u);

  const EpochObs& obs = stats.obs;
  EXPECT_EQ(obs.sample.count, stats.batches);
  EXPECT_EQ(obs.extract.count, stats.batches);
  EXPECT_EQ(obs.train.count, stats.result.trained_batches);
  EXPECT_EQ(obs.release.count, stats.result.trained_batches);
  EXPECT_GT(obs.extract.p50_us, 0.0);
  EXPECT_LE(obs.extract.p50_us, obs.extract.p95_us);
  EXPECT_LE(obs.extract.p95_us, obs.extract.p99_us);
  EXPECT_GE(obs.extract_q_max, 1u);
  EXPECT_GE(obs.train_q_max, 1u);
  EXPECT_GE(obs.release_q_max, 1u);
  EXPECT_GT(obs.fb_loads, 0u);
  EXPECT_GE(obs.fb_hit_rate(), 0.0);
  EXPECT_LE(obs.fb_hit_rate(), 1.0);

  const std::string report = obs.format();
  for (const char* key : {"sample", "extract", "train", "release", "p50",
                          "p95", "p99", "extract_q", "hit-rate"}) {
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }

  // The registry carries the unified instruments the pipeline published.
  const auto snap = env.telemetry->metrics()->snapshot();
  std::set<std::string> counters, gauges, histograms;
  for (const auto& [name, v] : snap.counters) counters.insert(name);
  for (const auto& [name, v] : snap.gauges) gauges.insert(name);
  for (const auto& [name, v] : snap.histograms) histograms.insert(name);
  for (const char* c : {"fb.loads", "fb.reuse_hits", "io.submitted",
                        "ssd.reads", "fault.io_errors"}) {
    EXPECT_TRUE(counters.count(c)) << c;
  }
  for (const char* g :
       {"pipeline.extract_q.depth", "io.inflight", "fb.standby"}) {
    EXPECT_TRUE(gauges.count(g)) << g;
  }
  for (const char* h : {"stage.sample.us", "stage.extract.us",
                        "stage.train.us", "stage.release.us",
                        "io.request_us"}) {
    EXPECT_TRUE(histograms.count(h)) << h;
  }
}

TEST_F(ObsPipelineFixture, SsdCountersMirrorDeviceStats) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  system.run_epoch(0);
  const SsdStats ssd = env.ssd->stats();
  MetricsRegistry& reg = *env.telemetry->metrics();
  EXPECT_EQ(reg.counter("ssd.reads").value(), ssd.reads);
  EXPECT_EQ(reg.counter("ssd.bytes_read").value(), ssd.bytes_read);
  EXPECT_GT(ssd.reads, 0u);
  // Ring submissions are a subset of device reads (topology reads through
  // the page cache also hit the device, but never go through a ring).
  EXPECT_GT(reg.counter("io.submitted").value(), 0u);
  EXPECT_GE(ssd.reads, reg.counter("io.submitted").value());
  EXPECT_GT(reg.histogram("io.request_us").count(), 0u);
}

}  // namespace
}  // namespace gnndrive
