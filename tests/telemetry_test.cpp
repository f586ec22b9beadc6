// Telemetry details: BusyScope I/O-wait subtraction, thread-local wait
// accounting, queue reopen, monotonic registry counters, env knobs.
#include <gtest/gtest.h>

#include <thread>

#include "memsim/page_cache.hpp"
#include "obs/metrics.hpp"
#include "storage/ssd.hpp"
#include "util/env.hpp"
#include "util/queue.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

TEST(BusyScope, SubtractsIoWaitFromCpuBusy) {
  Telemetry tel(50.0);
  tel.start();
  {
    BusyScope busy(&tel);
    // 10 ms of "compute" ...
    const TimePoint until = Clock::now() + std::chrono::milliseconds(10);
    while (Clock::now() < until) {
    }
    // ... and 30 ms blocked on I/O.
    ScopedTrace io(&tel, TraceCat::kIoWait);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const double cpu = tel.total_seconds(TraceCat::kCpuBusy);
  const double io = tel.total_seconds(TraceCat::kIoWait);
  EXPECT_NEAR(io, 0.030, 0.01);
  EXPECT_NEAR(cpu, 0.010, 0.008);  // the 30 ms wait must NOT count as busy
}

TEST(BusyScope, NoTelemetryIsHarmless) {
  BusyScope busy(nullptr);
  ScopedTrace io(nullptr, TraceCat::kIoWait);
}

TEST(ThreadIoWait, AccumulatesPerThread) {
  const double before = thread_io_wait_seconds();
  {
    ScopedTrace io(nullptr, TraceCat::kIoWait);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(thread_io_wait_seconds() - before, 0.004);

  // A different thread has its own accumulator.
  double other = -1;
  std::thread t([&] { other = thread_io_wait_seconds(); });
  t.join();
  EXPECT_EQ(other, 0.0);
}

TEST(Telemetry, SyncDeviceReadCountsAsIoWaitViaPageCache) {
  auto image = std::make_shared<MemBackend>(64 * kPageSize);
  SsdConfig cfg;
  cfg.read_latency_us = 2000.0;
  SsdDevice ssd(cfg, image);
  HostMemory mem(32 * kPageSize);
  Telemetry tel(10.0);
  tel.start();
  PageCache cache(mem, ssd, &tel);
  std::uint8_t buf[8];
  cache.read(0, 8, buf);  // cold miss: ~2 ms modeled wait
  EXPECT_GE(tel.total_seconds(TraceCat::kIoWait), 1.5e-3);
}

TEST(BoundedQueue, ReopenAfterClose) {
  BoundedQueue<int> q(2);
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
  q.reopen();
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(Telemetry, IntervalApportionsAcrossManyBuckets) {
  // A 47 ms interval on a 10 ms grid must spread across at least 5 buckets
  // and conserve its total duration (no double counting at bucket edges).
  Telemetry tel(/*bucket_ms=*/10.0);
  tel.start();
  const TimePoint t0 = Clock::now();
  tel.record(TraceCat::kCpuBusy, t0, t0 + std::chrono::milliseconds(47));
  const auto buckets = tel.snapshot();
  std::size_t touched = 0;
  double total = 0.0;
  for (const auto& b : buckets) {
    if (b.cpu_busy > 0) ++touched;
    total += b.cpu_busy;
    // No bucket can hold more than its own width from a single thread.
    EXPECT_LE(b.cpu_busy, tel.bucket_seconds() + 1e-6);
  }
  EXPECT_GE(touched, 5u);
  EXPECT_NEAR(total, 0.047, 1e-4);
  EXPECT_NEAR(tel.total_seconds(TraceCat::kCpuBusy), 0.047, 1e-4);
}

TEST(Telemetry, IntervalsBeforeStartAreDropped) {
  Telemetry tel(10.0);
  const TimePoint t0 = Clock::now();
  // Not started yet: recording is a no-op.
  tel.record(TraceCat::kCpuBusy, t0, t0 + std::chrono::milliseconds(20));
  EXPECT_DOUBLE_EQ(tel.total_seconds(TraceCat::kCpuBusy), 0.0);
  for (const auto& b : tel.snapshot()) {
    EXPECT_DOUBLE_EQ(b.cpu_busy, 0.0);
    EXPECT_DOUBLE_EQ(b.io_wait, 0.0);
    EXPECT_DOUBLE_EQ(b.gpu_busy, 0.0);
  }
  tel.start();
  tel.record(TraceCat::kCpuBusy, Clock::now(),
             Clock::now() + std::chrono::milliseconds(5));
  EXPECT_NEAR(tel.total_seconds(TraceCat::kCpuBusy), 0.005, 1e-4);
}

TEST(Telemetry, FaultCountersCountAndMirrorIntoRegistry) {
  Telemetry tel;
  // Active without start(), and additive.
  tel.count(FaultCounter::kIoErrors);
  tel.count(FaultCounter::kIoErrors, 2);
  tel.count(FaultCounter::kIoRetries, 5);
  tel.count(FaultCounter::kIoTimeouts);
  tel.count(FaultCounter::kFailedBatches, 3);
  EXPECT_EQ(tel.counter(FaultCounter::kIoErrors), 3u);
  EXPECT_EQ(tel.counter(FaultCounter::kIoRetries), 5u);
  EXPECT_EQ(tel.counter(FaultCounter::kIoTimeouts), 1u);
  EXPECT_EQ(tel.counter(FaultCounter::kFailedBatches), 3u);
  // The same values are visible as registry counters under fault.* names.
  MetricsRegistry& reg = *tel.metrics();
  EXPECT_EQ(reg.counter("fault.io_errors").value(), 3u);
  EXPECT_EQ(reg.counter("fault.io_retries").value(), 5u);
  EXPECT_EQ(reg.counter("fault.io_timeouts").value(), 1u);
  EXPECT_EQ(reg.counter("fault.failed_batches").value(), 3u);
}

// reset_stats() moves a component's baseline, never its registry counters:
// after it, stats() counts from zero while the registry keeps growing.
TEST(Telemetry, SsdResetStatsLeavesRegistryCountersMonotonic) {
  Telemetry tel;  // declared first: the device counts into it until the end
  SsdConfig cfg;
  cfg.read_latency_us = 5.0;
  SsdDevice ssd(cfg, std::make_shared<MemBackend>(64 * kPageSize));
  ssd.set_telemetry(&tel);
  Counter& reads = tel.metrics()->counter("ssd.reads");
  std::uint8_t buf[kPageSize];
  for (int i = 0; i < 3; ++i) ASSERT_GE(ssd.read_sync(0, kPageSize, buf), 0);
  EXPECT_NEAR(static_cast<double>(tel.metrics()->counter("ssd.busy_us").value()),
              ssd.stats().busy_seconds * 1e6, 1.0);

  const std::uint64_t r0 = reads.value();
  ASSERT_EQ(r0, 3u);
  ssd.reset_stats();
  EXPECT_EQ(ssd.stats().reads, 0u);
  constexpr std::uint64_t k = 5;
  for (std::uint64_t i = 0; i < k; ++i) {
    ASSERT_GE(ssd.read_sync(kPageSize, kPageSize, buf), 0);
  }
  EXPECT_EQ(ssd.stats().reads, k);
  EXPECT_EQ(ssd.stats().bytes_read, k * kPageSize);
  EXPECT_EQ(reads.value(), r0 + k);
}

TEST(Telemetry, PageCacheResetStatsLeavesRegistryCountersMonotonic) {
  Telemetry tel;
  SsdConfig cfg;
  cfg.read_latency_us = 5.0;
  SsdDevice ssd(cfg, std::make_shared<MemBackend>(64 * kPageSize));
  HostMemory mem(32 * kPageSize);
  PageCache cache(mem, ssd, &tel);
  Counter& hits = tel.metrics()->counter("pagecache.hits");
  std::uint8_t buf[8];
  cache.read(0, 8, buf);  // miss
  cache.read(0, 8, buf);  // hit
  const std::uint64_t r0 = hits.value();
  ASSERT_EQ(r0, 1u);
  cache.reset_stats();
  constexpr std::uint64_t k = 4;
  for (std::uint64_t i = 0; i < k; ++i) cache.read(0, 8, buf);
  EXPECT_EQ(cache.stats().hits, k);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(hits.value(), r0 + k);
}

TEST(EnvKnobs, DefaultsAndParsing) {
  ::unsetenv("GNNDRIVE_BENCH_MODE");
  EXPECT_FALSE(bench_full_mode());
  ::setenv("GNNDRIVE_BENCH_MODE", "full", 1);
  EXPECT_TRUE(bench_full_mode());
  ::unsetenv("GNNDRIVE_BENCH_MODE");

  ::setenv("GD_TEST_KNOB", "17", 1);
  EXPECT_EQ(env_long("GD_TEST_KNOB", 0), 17);
  EXPECT_DOUBLE_EQ(env_double("GD_TEST_KNOB", 0.0), 17.0);
  EXPECT_EQ(env_str("GD_TEST_KNOB", ""), "17");
  ::unsetenv("GD_TEST_KNOB");
  EXPECT_EQ(env_long("GD_TEST_KNOB", 5), 5);
}

}  // namespace
}  // namespace gnndrive
