// Multi-GPU data parallelism: replica lock-step, gradient equivalence,
// batch coverage, epoch aggregation, and replica failures (degraded batches
// must not strand a sibling at the gradient barrier; a replica's exception
// surfaces from run_epoch).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/multi_gpu.hpp"

namespace gnndrive {
namespace {

struct MultiGpuFixture : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(64)));
  }
  static void TearDownTestSuite() {
    delete dataset;
    dataset = nullptr;
  }
  static Dataset* dataset;

  struct Env {
    std::unique_ptr<SsdDevice> ssd;
    std::unique_ptr<HostMemory> mem;
    std::unique_ptr<PageCache> cache;
    RunContext ctx;
  };
  Env make_env() {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 10.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(256ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  MultiGpuConfig config(std::uint32_t replicas) {
    MultiGpuConfig cfg;
    cfg.replica.common.model.kind = ModelKind::kSage;
    cfg.replica.common.model.hidden_dim = 16;
    cfg.replica.common.sampler.fanouts = {4, 4, 4};
    cfg.replica.common.batch_seeds = 16;
    cfg.num_replicas = replicas;
    return cfg;
  }
};
Dataset* MultiGpuFixture::dataset = nullptr;

TEST_F(MultiGpuFixture, TwoReplicasTrainAndConverge) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(2));
  const EpochStats first = system.run_epoch(0);
  EXPECT_GT(first.batches, 0u);
  EpochStats last{};
  for (int e = 1; e < 4; ++e) last = system.run_epoch(e);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(system.evaluate(), 0.4);
}

TEST_F(MultiGpuFixture, ReplicasStayInLockStep) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(2));
  system.run_epoch(0);
  // Per-step gradient averaging from identical init keeps parameters
  // bitwise identical across replicas.
  auto& m0 = system.replica(0).model();
  auto& m1 = system.replica(1).model();
  for (std::size_t p = 0; p < m0.params().size(); ++p) {
    const Tensor& a = m0.params()[p]->value;
    const Tensor& b = m1.params()[p]->value;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "param " << p << " idx " << i;
    }
  }
}

TEST_F(MultiGpuFixture, BatchCountsEqualAcrossReplicas) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(3));
  const EpochStats stats = system.run_epoch(0);
  // Aggregated count is replicas x equal per-replica count.
  EXPECT_EQ(stats.batches % 3, 0u);
  EXPECT_GT(stats.batches, 0u);
}

// Makes every read of feature rows [first, first + rows) fail permanently.
void fail_feature_rows(SsdDevice& ssd, const Dataset& ds, std::uint64_t first,
                       std::uint64_t rows) {
  const auto& lay = ds.layout();
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.features_offset + first * lay.feature_row_bytes,
       lay.features_offset + (first + rows) * lay.feature_row_bytes});
  ssd.set_fault_config(faults);
}

TEST_F(MultiGpuFixture, DegradedBatchesDoNotStrandASibling) {
  auto env = make_env();
  // One bad row that only some batches sample. Two-hop fanouts and per-row
  // reads make the failed set exactly the batches holding the row, and on
  // this seed the replicas' segments degrade different numbers of them
  // (4 and 0): one replica ends its epoch with fewer gradient syncs than
  // its sibling, which must not leave the sibling waiting at the barrier.
  fail_feature_rows(*env.ssd, *dataset, dataset->spec().num_nodes * 5 / 8, 1);
  MultiGpuConfig cfg = config(2);
  cfg.replica.common.sampler.fanouts = {4, 4};
  cfg.replica.coalesce.enabled = false;
  cfg.replica.fault.backoff_initial_us = 10.0;  // the range never heals
  MultiGpuGnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_EQ(stats.result.trained_batches + stats.result.failed_batches,
            stats.batches);
  EXPECT_GT(stats.result.failed_batches, 0u);
  EXPECT_GT(stats.result.trained_batches, 0u);
  EXPECT_GT(stats.result.io_errors, 0u);
  EXPECT_FALSE(stats.interrupted);
}

TEST_F(MultiGpuFixture, FailFastReplicaErrorRethrows) {
  auto env = make_env();
  // Mid-range rows every toy batch samples: each replica's first batch
  // fails, and fail_fast turns that into an exception in its thread.
  fail_feature_rows(*env.ssd, *dataset, dataset->spec().num_nodes / 2, 8);
  MultiGpuConfig cfg = config(2);
  cfg.replica.fault.fail_fast = true;
  cfg.replica.fault.backoff_initial_us = 10.0;
  MultiGpuGnnDrive system(env.ctx, cfg);
  try {
    system.run_epoch(0);
    FAIL() << "run_epoch did not rethrow the replica's error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fail_fast"), std::string::npos)
        << e.what();
  }
}

TEST_F(MultiGpuFixture, SingleReplicaMatchesPlainPipeline) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(1));
  const EpochStats stats = system.run_epoch(0);
  const std::size_t expected = div_ceil(dataset->train_nodes().size(), 16);
  EXPECT_EQ(stats.batches, expected);
}

}  // namespace
}  // namespace gnndrive
