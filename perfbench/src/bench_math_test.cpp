// Unit tests for the benchmark's own arithmetic: percentile selection,
// zero-base ratios, registry snapshot diffs and seed plumbing.
#include <gtest/gtest.h>

#include <numeric>

#include "bench_math.hpp"
#include "rig.hpp"
#include "util/crc32c.hpp"

namespace perfbench {
namespace {

using namespace gnndrive;

std::vector<NodeId> request_nodes(std::uint64_t seed, std::uint32_t client,
                                  NodeId num_nodes, std::size_t count) {
  RequestStream stream(seed, client, num_nodes);
  std::vector<NodeId> out(count);
  for (auto& v : out) v = stream.next();
  return out;
}

/// Content hash of a built dataset: the on-disk image, the host-resident
/// index pointers, labels and splits.
std::uint32_t dataset_fingerprint(const Dataset& ds) {
  MemBackend& image = *ds.image();
  std::uint32_t crc = crc32c(image.raw(), image.size());
  const auto mix = [&crc](const auto& v) {
    crc = crc32c(v.data(), v.size() * sizeof(v[0]), crc);
  };
  mix(ds.indptr());
  mix(ds.labels());
  mix(ds.train_nodes());
  mix(ds.valid_nodes());
  return crc;
}

std::vector<double> one_to(int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  // p99 of 999 samples is rank 990: only 9 lie beyond it.
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());
  // 1000 samples leave exactly 10 beyond rank 990.
  const auto p99 = tail_percentile(one_to(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  EXPECT_FALSE(tail_percentile(std::vector<double>{}, 0.5).has_value());
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(one_to(20), 0.5), 10.0);
}

TEST(Percentile, NearestRankIgnoresInputOrder) {
  std::vector<double> xs = one_to(2000);
  std::reverse(xs.begin(), xs.end());
  EXPECT_DOUBLE_EQ(*tail_percentile(xs, 0.99), 1980.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(xs, 0.5), 1000.0);
}

TEST(Percentile, HistogramFollowsTheSameRule) {
  LatencyHistogram h;
  for (int i = 0; i < 999; ++i) h.add_us(100.0);
  EXPECT_FALSE(tail_percentile(h, 0.99).has_value());
  h.add_us(100.0);
  ASSERT_TRUE(tail_percentile(h, 0.99).has_value());
  EXPECT_LE(*tail_percentile(h, 0.99), 100.0);
  EXPECT_GT(*tail_percentile(h, 0.99), 64.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(*median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

TEST(Windowed, StallInOneWindowMovesNeitherMedian) {
  // 100 requests/s at 10 ms for 5 s, but the third second stalls: only 20
  // requests, at 200 ms.
  std::vector<Completion> done;
  for (int i = 0; i < 500; ++i) {
    const double t = i / 100.0;
    if (t >= 2.0 && t < 3.0 && i % 5 != 0) continue;
    done.push_back({t, t >= 2.0 && t < 3.0 ? 200.0 : 10.0});
  }
  const WindowedMedians w = windowed_medians(done, 5.0, 5);
  EXPECT_DOUBLE_EQ(*w.rate_per_s, 100.0);
  EXPECT_DOUBLE_EQ(*w.p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(*windowed_medians(done, 5.0, 1).rate_per_s, 420.0 / 5.0);
}

TEST(Windowed, EmptyOrDegeneratePhaseHasNoValue) {
  EXPECT_FALSE(windowed_medians({}, 0.0, 5).rate_per_s.has_value());
  EXPECT_FALSE(windowed_medians({{0.5, 1.0}}, 1.0, 0).p50_ms.has_value());
  // A completion stamped at the very end lands in the last window.
  const WindowedMedians w = windowed_medians({{1.0, 3.0}}, 1.0, 2);
  EXPECT_DOUBLE_EQ(*w.rate_per_s, 1.0);  // median of {0, 2} per second
  EXPECT_DOUBLE_EQ(*w.p50_ms, 3.0);
}

TEST(Ratio, ZeroBaseHasNoValue) {
  EXPECT_FALSE(ratio(5.0, 0.0).has_value());
  EXPECT_FALSE(ratio(0.0, 0.0).has_value());
  EXPECT_FALSE(ratio(1.0, std::nan("")).has_value());
  EXPECT_FALSE(ratio(HUGE_VAL, 2.0).has_value());
  EXPECT_DOUBLE_EQ(*ratio(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(*ratio(3.0, -2.0), -1.5);
}

TEST(RegistryDiff, CountersAndHistograms) {
  MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.histogram("h").add_us(10.0);
  const auto before = reg.snapshot();
  reg.counter("a").add(7);
  reg.counter("b").add(3);  // registered after the first snapshot
  reg.histogram("h").add_us(1000.0);
  reg.histogram("h").add_us(1000.0);
  const RegistryDelta d = diff(before, reg.snapshot());
  EXPECT_EQ(d.counter("a"), 7u);
  EXPECT_EQ(d.counter("b"), 3u);
  EXPECT_EQ(d.counter("missing"), 0u);
  EXPECT_EQ(d.histogram("h").count(), 2u);
  EXPECT_GT(d.histogram("h").percentile_us(0.5), 512.0);
  EXPECT_TRUE(d.regressed.empty());
}

TEST(RegistryDiff, BackwardsCounterReportsZeroAndIsNamed) {
  MetricsRegistry reg;
  reg.counter("mirrored").store(10);
  const auto before = reg.snapshot();
  reg.counter("mirrored").store(4);
  const RegistryDelta d = diff(before, reg.snapshot());
  EXPECT_EQ(d.counter("mirrored"), 0u);
  ASSERT_EQ(d.regressed.size(), 1u);
  EXPECT_EQ(d.regressed[0], "mirrored");
}

TEST(RegistryDiff, AcrossAnEpochMatchesTheSystemsOwnCounts) {
  const Dataset ds = Dataset::build(toy_spec());
  GnnDriveConfig cfg = train_config(7);
  cfg.num_samplers = 1;
  cfg.num_extractors = 1;
  auto rig = make_rig(ds, 32.0, cfg);
  rig->system->run_epoch(0);
  const auto before = rig->registry().snapshot();
  const SsdStats ssd0 = rig->ssd->stats();
  const EpochStats s = rig->system->run_epoch(1);
  const RegistryDelta d = diff(before, rig->registry().snapshot());
  const SsdStats ssd1 = rig->ssd->stats();
  ASSERT_GT(s.result.trained_batches, 0u);
  EXPECT_EQ(d.counter("fb.loads"), s.obs.fb_loads);
  EXPECT_EQ(d.counter("io.coalesce.segments"), s.obs.io_segments);
  EXPECT_EQ(d.counter("io.coalesce.rows"), s.obs.io_rows);
  EXPECT_EQ(d.counter("ssd.reads"), ssd1.reads - ssd0.reads);
  EXPECT_EQ(d.histogram("stage.train.us").count(), s.result.trained_batches);
  EXPECT_TRUE(d.regressed.empty());
}

TEST(Seeds, SameSeedSameInputs) {
  EXPECT_EQ(request_nodes(11, 0, 1000, 64), request_nodes(11, 0, 1000, 64));
  EXPECT_NE(request_nodes(11, 0, 1000, 64), request_nodes(12, 0, 1000, 64));
  EXPECT_NE(request_nodes(11, 0, 1000, 64), request_nodes(11, 1, 1000, 64));
  for (const NodeId v : request_nodes(3, 2, 17, 256)) EXPECT_LT(v, 17u);

  EXPECT_EQ(train_config(5).common.run_seed, train_config(5).common.run_seed);
  EXPECT_NE(train_config(5).common.run_seed, train_config(6).common.run_seed);
  EXPECT_NE(train_config(5).common.sampler.seed,
            train_config(6).common.sampler.seed);
  EXPECT_NE(derive_seed(5, "a"), derive_seed(5, "b"));
}

TEST(Seeds, DatasetFingerprintIsReproducible) {
  const std::uint32_t a = dataset_fingerprint(Dataset::build(toy_spec()));
  EXPECT_EQ(a, dataset_fingerprint(Dataset::build(toy_spec())));
  DatasetSpec other = toy_spec();
  other.seed += 1;
  EXPECT_NE(a, dataset_fingerprint(Dataset::build(other)));
}

TEST(Workloads, DefinitionsAndSpecs) {
  EXPECT_EQ(dataset_spec(workload_by_name("train-io")).feature_dim, 128u);
  EXPECT_EQ(dataset_spec(workload_by_name("serve-closed")).feature_dim, 128u);
  const Workload tight = workload_by_name("train-memtight");
  EXPECT_EQ(dataset_spec(tight).feature_dim, 512u);
  EXPECT_LT(tight.host_mem_gb, workload_by_name("train-io").host_mem_gb);
  EXPECT_THROW(workload_by_name("train-compute"), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
