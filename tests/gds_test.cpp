// GPUDirect-Storage extraction mode (Sect. 4.4 future work): correctness
// and memory-footprint properties.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace gnndrive {
namespace {

struct GdsFixture : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(128)));
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
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(64ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  GnnDriveConfig config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5, 5};
    cfg.common.batch_seeds = 16;
    cfg.gds_mode = true;
    return cfg;
  }
};
Dataset* GdsFixture::dataset = nullptr;

TEST_F(GdsFixture, ExtractedFeaturesMatchGroundTruth) {
  auto env = make_env();
  GnnDrive system(env.ctx, config());
  system.run_epoch(0);
  const auto dim = dataset->spec().feature_dim;
  std::vector<float> truth(dim);
  std::uint64_t checked = 0;
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    const auto e = system.feature_buffer().entry(v);
    if (!e.valid) continue;
    dataset->read_feature_row(v, truth.data());
    const float* got = system.feature_buffer().slot_data(e.slot);
    for (std::uint32_t k = 0; k < dim; ++k) {
      ASSERT_EQ(got[k], truth[k]) << "node " << v << " dim " << k;
    }
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(GdsFixture, NoHostStagingPinned) {
  auto env_gds = make_env();
  GnnDrive gds(env_gds.ctx, config());
  auto env_std = make_env();
  GnnDriveConfig std_cfg = config();
  std_cfg.gds_mode = false;
  GnnDrive standard(env_std.ctx, std_cfg);
  // GDS eliminates the staging buffer: the host pin shrinks to metadata.
  EXPECT_LT(env_gds.mem->pinned(), env_std.mem->pinned());
  EXPECT_LT(env_gds.mem->pinned(),
            dataset->host_metadata_bytes() + (64 << 10));
}

TEST_F(GdsFixture, TrainsToSameAccuracyAsStandardMode) {
  auto env_gds = make_env();
  GnnDrive gds(env_gds.ctx, config());
  for (int e = 0; e < 3; ++e) gds.run_epoch(e);
  const double gds_acc = gds.evaluate();

  auto env_std = make_env();
  GnnDriveConfig std_cfg = config();
  std_cfg.gds_mode = false;
  GnnDrive standard(env_std.ctx, std_cfg);
  for (int e = 0; e < 3; ++e) standard.run_epoch(e);
  const double std_acc = standard.evaluate();
  // Identical seeds + identical math: same trajectory up to reordering.
  EXPECT_NEAR(gds_acc, std_acc, 0.1);
  EXPECT_GT(gds_acc, 0.5);
}

TEST_F(GdsFixture, BatchLossesMatchStandardMode) {
  // One sampler and one extractor train batches in order, and GDS delivers
  // the same feature bytes, so every batch loss matches exactly.
  const auto run = [&](bool gds) {
    auto env = make_env();
    GnnDriveConfig cfg = config();
    cfg.gds_mode = gds;
    cfg.num_samplers = 1;
    cfg.num_extractors = 1;
    cfg.record_batch_losses = true;
    GnnDrive system(env.ctx, cfg);
    return system.run_epoch(0).batch_losses;
  };
  const std::vector<double> gds = run(true);
  ASSERT_FALSE(gds.empty());
  EXPECT_EQ(gds, run(false));
}

TEST_F(GdsFixture, CoalescesPageReadsWithinTheBounceBudget) {
  struct Run {
    EpochObs obs;
    std::uint64_t reads = 0;
    std::uint64_t device_bytes = 0;
  };
  const auto run = [&](bool coalesce) {
    auto env = make_env();
    GnnDriveConfig cfg = config();
    cfg.num_samplers = 1;
    cfg.num_extractors = 1;
    cfg.coalesce.enabled = coalesce;
    GnnDrive system(env.ctx, cfg);
    Run r;
    r.device_bytes = system.gpu()->allocated();
    r.obs = system.run_epoch(0).obs;
    r.reads = env.ssd->stats().reads;
    return r;
  };
  const Run off = run(false);
  const Run on = run(true);
  // Per-row baseline: one 4 KiB-aligned read per loaded row.
  EXPECT_GT(off.obs.fb_loads, 0u);
  EXPECT_EQ(off.obs.io_segments, off.obs.fb_loads);
  EXPECT_EQ(off.obs.io_rows, off.obs.fb_loads);
  // Coalesced: the same rows arrive in fewer reads.
  EXPECT_EQ(on.obs.io_rows, on.obs.fb_loads);
  EXPECT_LT(on.obs.io_segments, on.obs.fb_loads);
  EXPECT_LT(on.reads, off.reads);
  // Wider segment rows are cut from the same bounce bytes.
  EXPECT_LE(on.device_bytes, off.device_bytes);
}

TEST_F(GdsFixture, BounceAreaFitsBesideAScaledFeatureBuffer) {
  // The bounce area is carved out of device memory before the feature
  // buffer is sized, so a buffer scaled up to the device limit still
  // leaves room for it.
  auto env = make_env();
  GnnDriveConfig cfg = config();
  cfg.feature_buffer_scale = 10.0;
  GnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.result.trained_batches, stats.batches);
  EXPECT_LE(system.gpu()->allocated(), system.gpu()->capacity());
}

TEST_F(GdsFixture, CpuTrainingRejected) {
  auto env = make_env();
  GnnDriveConfig cfg = config();
  cfg.cpu_training = true;
  EXPECT_DEATH(GnnDrive(env.ctx, cfg), "GDS mode requires GPU training");
}

}  // namespace
}  // namespace gnndrive
