// Hotness-aware feature caching (src/cache): construction-time
// validation, pinned hot-partition semantics, pre-sampling determinism, the
// Belady planner and comparator, the cold_slots >= Ne x Mb deadlock invariant
// (train-only and train+serve) and the byte-identical-training differential
// against the LRU baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <future>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/belady.hpp"
#include "cache/policy.hpp"
#include "core/pipeline.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace gnndrive {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gnndrive-" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// -- Construction-time validation -------------------------------------------

TEST(CacheValidation, FeatureBufferRejectsZeroSlots) {
  EXPECT_THROW(FeatureBuffer(FeatureBufferConfig{0, 4}, 10),
               std::invalid_argument);
}

TEST(CacheValidation, FeatureBufferRejectsZeroRowFloats) {
  EXPECT_THROW(FeatureBuffer(FeatureBufferConfig{8, 0}, 10),
               std::invalid_argument);
}

TEST(CacheValidation, HotFractionMustLieInUnitInterval) {
  CachePolicyConfig cfg;
  cfg.policy = CachePolicy::kHotness;
  cfg.hot_fraction = -0.01;
  EXPECT_THROW(validate_cache_config(cfg), std::invalid_argument);
  cfg.hot_fraction = 1.01;
  EXPECT_THROW(validate_cache_config(cfg), std::invalid_argument);
  cfg.hot_fraction = 0.0;
  EXPECT_NO_THROW(validate_cache_config(cfg));
  cfg.hot_fraction = 1.0;
  EXPECT_NO_THROW(validate_cache_config(cfg));
}

TEST(CacheValidation, HotnessNeedsProfilingBatches) {
  CachePolicyConfig cfg;
  cfg.policy = CachePolicy::kHotness;
  cfg.presample_batches = 0;
  EXPECT_THROW(validate_cache_config(cfg), std::invalid_argument);
  cfg.policy = CachePolicy::kLru;  // LRU never profiles: 0 is fine
  EXPECT_NO_THROW(validate_cache_config(cfg));
}

TEST(CacheValidation, PinHotRejectsBadHotSets) {
  FeatureBuffer fb(FeatureBufferConfig{8, 4}, 100);
  // The hot set may never consume every slot (cold region would be empty).
  std::vector<NodeId> all(8);
  for (NodeId v = 0; v < 8; ++v) all[v] = v;
  EXPECT_THROW(fb.pin_hot(all), std::invalid_argument);
  EXPECT_THROW(fb.pin_hot({1, 2, 1}), std::invalid_argument);  // duplicate
  EXPECT_THROW(fb.pin_hot({200}), std::invalid_argument);  // out of range
  // A failed pin leaves the buffer fully evictable...
  EXPECT_EQ(fb.standby_size(), 8u);
  EXPECT_EQ(fb.hot_slots(), 0u);
  // ...and a successful pin is one-shot.
  fb.pin_hot({1, 2});
  EXPECT_THROW(fb.pin_hot({3}), std::logic_error);
}

// -- Hot-partition mapping-table semantics ----------------------------------

TEST(HotPartition, PinnedNodesResolveWithoutReferences) {
  FeatureBuffer fb(FeatureBufferConfig{8, 4}, 100);
  const std::vector<NodeId> hot = {10, 20, 30};
  const std::vector<SlotId> slots = fb.pin_hot(hot);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(fb.hot_slots(), 3u);
  EXPECT_EQ(fb.cold_slots(), 5u);
  EXPECT_EQ(fb.standby_size(), 5u);  // pinned slots left standby for good

  // Unsealed: the lock-free resolver refuses, the locked path demands a
  // loaded row.
  EXPECT_EQ(fb.hot_slot(10), kNoSlot);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    float* row = fb.slot_data(slots[i]);
    for (int k = 0; k < 4; ++k) row[k] = static_cast<float>(hot[i] + k);
    fb.mark_valid(hot[i]);
  }
  fb.seal_hot();
  ASSERT_TRUE(fb.hot_sealed());
  EXPECT_EQ(fb.hot_slot(10), slots[0]);
  EXPECT_EQ(fb.hot_slot(11), kNoSlot);  // cold node

  // check_and_ref on a pinned node: ready, NO reference taken.
  const auto r = fb.check_and_ref(20);
  EXPECT_EQ(r.status, FeatureBuffer::CheckStatus::kReady);
  EXPECT_EQ(r.slot, slots[1]);
  EXPECT_EQ(fb.entry(20).ref_count, 0u);
  // Symmetric release is a no-op — the slot never rejoins standby.
  fb.release_one(20);
  EXPECT_EQ(fb.standby_size(), 5u);
  EXPECT_EQ(fb.entry(20).ref_count, 0u);

  // Cold nodes keep the normal lifecycle alongside the partition.
  const auto c = fb.check_and_ref(50);
  EXPECT_EQ(c.status, FeatureBuffer::CheckStatus::kMustLoad);
  const SlotId cs = fb.allocate_slot(50);
  EXPECT_EQ(fb.standby_size(), 4u);
  fb.mark_valid(50);
  fb.release_one(50);
  EXPECT_EQ(fb.standby_size(), 5u);
  // Cold allocations can never claim a pinned slot.
  EXPECT_TRUE(std::find(slots.begin(), slots.end(), cs) == slots.end());

  // Stats: the hot hit was counted once, attributed to the default (train)
  // client; a serve-attributed lookup lands in the serve bucket.
  EXPECT_EQ(fb.stats().hot_hits, 1u);
  EXPECT_EQ(fb.stats(FbClient::kTrain).hot_hits, 1u);
  EXPECT_EQ(fb.stats(FbClient::kServe).hot_hits, 0u);
  fb.check_and_ref(30, FbClient::kServe);
  EXPECT_EQ(fb.stats(FbClient::kServe).hot_hits, 1u);
  EXPECT_EQ(fb.stats().hot_hits, 2u);
  fb.record_hot_hits(3, FbClient::kServe);
  EXPECT_EQ(fb.stats(FbClient::kServe).hot_hits, 4u);
  EXPECT_EQ(fb.stats().hot_hits, 5u);
  EXPECT_EQ(fb.stats(FbClient::kTrain).loads, 1u);  // node 50
}

// -- Pipeline-level fixture --------------------------------------------------

struct CachePolicyFixture : ::testing::Test {
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
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(64ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  GnnDriveConfig base_config(CachePolicy policy = CachePolicy::kLru) {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 16;
    cfg.cache.policy = policy;
    cfg.cache.presample_batches = 8;
    return cfg;
  }
};
Dataset* CachePolicyFixture::dataset = nullptr;

// -- cold_slots >= Ne x Mb invariant ----------------------------------------

TEST_F(CachePolicyFixture, TrainOnlyRejectsHotPartitionEatingTheReserve) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config(CachePolicy::kHotness);
  // hot = floor(1.0 x slots) leaves zero cold slots < Ne x Mb: the pipeline
  // must reject at construction, not deadlock mid-epoch.
  cfg.cache.hot_fraction = 1.0;
  EXPECT_THROW(GnnDrive(env.ctx, cfg), std::invalid_argument);
  // A barely-too-greedy fraction also fails (default sizing has a
  // reserve/total ratio of Ne / (Ne + train_queue_cap) = 1/2).
  cfg.cache.hot_fraction = 0.75;
  EXPECT_THROW(GnnDrive(env.ctx, cfg), std::invalid_argument);
  // The boundary fraction (cold == reserve exactly) is legal.
  cfg.cache.hot_fraction = 0.5;
  EXPECT_NO_THROW(GnnDrive(env.ctx, cfg));
}

TEST_F(CachePolicyFixture, TrainOnlyHotnessEpochIsDeadlockFreeAtBoundary) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config(CachePolicy::kHotness);
  cfg.cache.hot_fraction = 0.5;  // cold region == the Ne x Mb reserve
  GnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_TRUE(stats.result.ok());
  EXPECT_GT(stats.batches, 0u);
  FeatureBuffer& fb = system.feature_buffer();
  const std::uint64_t reserve =
      static_cast<std::uint64_t>(system.effective_extractors()) *
      system.max_batch_nodes();
  EXPECT_GE(fb.cold_slots(), reserve);
  // After the epoch every cold slot is back on standby; pinned slots never
  // were.
  EXPECT_EQ(fb.standby_size(), fb.cold_slots());
  EXPECT_GT(stats.obs.fb_hot_hits, 0u);
}

TEST_F(CachePolicyFixture, ServePinBudgetComesFromTheColdRegion) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config(CachePolicy::kHotness);
  cfg.cache.hot_fraction = 0.25;
  GnnDrive system(env.ctx, cfg);

  ServeConfig scfg;
  scfg.workers = 1;
  scfg.max_batch = 4;
  scfg.max_wait_us = 100.0;
  scfg.slo.deadline_ms = 0.0;
  ServeEngine engine(env.ctx, scfg, system);

  // Attaching serving materialized the hot partition, and the pin budget is
  // carved from the cold region net of training's Ne x Mb reserve.
  FeatureBuffer& fb = system.feature_buffer();
  EXPECT_GT(fb.hot_slots(), 0u);
  const std::uint64_t reserve =
      static_cast<std::uint64_t>(system.effective_extractors()) *
      system.max_batch_nodes();
  ASSERT_GT(fb.cold_slots(), reserve);
  EXPECT_EQ(engine.pin_budget(), fb.cold_slots() - reserve);

  // Serving hot nodes resolves through the pinned region: serve-attributed
  // hot hits move, and nothing leaks references.
  engine.start();
  ASSERT_FALSE(system.hot_nodes().empty());
  std::vector<std::future<InferResult>> futs;
  for (std::size_t i = 0; i < 16 && i < system.hot_nodes().size(); ++i) {
    futs.push_back(engine.submit(system.hot_nodes()[i]));
  }
  for (auto& f : futs) EXPECT_EQ(f.get().status, InferStatus::kOk);
  engine.stop();
  EXPECT_GT(fb.stats(FbClient::kServe).hot_hits, 0u);
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    ASSERT_EQ(fb.entry(v).ref_count, 0u) << "leaked reference on node " << v;
  }
  EXPECT_EQ(fb.standby_size(), fb.cold_slots());
}

TEST(HotPartitionServe, RejectsWhenColdRegionCannotCoverTheReserve) {
  // Standalone substrate: a buffer whose cold region exactly equals the
  // training reserve leaves serving zero headroom — construction must fail
  // loudly instead of deadlocking the first batch.
  Dataset ds = Dataset::build(toy_spec(16));
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  auto ssd = ds.make_device(ssd_cfg);
  HostMemory mem(32ull << 20);
  PageCache cache(mem, *ssd);
  RunContext ctx{&ds, ssd.get(), &mem, &cache, nullptr};

  FeatureBuffer fb(FeatureBufferConfig{256, ds.spec().feature_dim},
                   ds.spec().num_nodes);
  std::vector<NodeId> hot(64);
  for (NodeId v = 0; v < 64; ++v) hot[v] = v;
  const auto slots = fb.pin_hot(hot);
  std::vector<float> row(ds.spec().feature_dim);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    ds.read_feature_row(hot[i], row.data());
    std::copy(row.begin(), row.end(), fb.slot_data(slots[i]));
    fb.mark_valid(hot[i]);
  }
  fb.seal_hot();
  ASSERT_EQ(fb.cold_slots(), 192u);

  ModelConfig mc;
  mc.kind = ModelKind::kSage;
  mc.in_dim = ds.spec().feature_dim;
  mc.hidden_dim = 8;
  mc.num_classes = ds.spec().num_classes;
  mc.num_layers = 2;
  GnnModel model(mc);
  ServeConfig scfg;
  scfg.sampler.fanouts = {3, 3};
  scfg.workers = 1;

  ServeSubstrate tight{&fb, &model, nullptr, /*reserved_slots=*/192};
  EXPECT_THROW(ServeEngine(ctx, scfg, tight), std::invalid_argument);

  ServeSubstrate roomy{&fb, &model, nullptr, /*reserved_slots=*/128};
  ServeEngine engine(ctx, scfg, roomy);
  EXPECT_EQ(engine.pin_budget(), 64u);
}

// -- Pre-sampling ------------------------------------------------------------

TEST_F(CachePolicyFixture, PresampleIsDeterministicAndCoversTraffic) {
  auto env = make_env();
  SamplerConfig scfg;
  scfg.fanouts = {5, 5};
  const PresampleResult a = presample_hot_set(
      *dataset, *env.cache, scfg, /*batch_seeds=*/16, /*run_seed=*/99,
      /*num_batches=*/8, /*max_hot=*/200);
  const PresampleResult b = presample_hot_set(
      *dataset, *env.cache, scfg, 16, 99, 8, 200);
  EXPECT_EQ(a.hot_nodes, b.hot_nodes);
  EXPECT_EQ(a.batches_profiled, 8u);
  EXPECT_EQ(a.hot_nodes.size(), 200u);
  EXPECT_GT(a.accesses, 0u);
  EXPECT_GT(a.coverage(), 0.0);
  EXPECT_LE(a.coverage(), 1.0);
  // No duplicates (pin_hot would reject them).
  std::unordered_set<NodeId> uniq(a.hot_nodes.begin(), a.hot_nodes.end());
  EXPECT_EQ(uniq.size(), a.hot_nodes.size());
}

TEST_F(CachePolicyFixture, PresampleLeavesTrainingRngUntouched) {
  // Two identical LRU runs, one with a profiling pass wedged between
  // construction and the epoch: identical per-batch losses prove the
  // pre-sampler's RNG streams are disjoint from training's. One sampler and
  // one extractor keep training order deterministic (as in ckpt_test) so
  // trajectories are comparable double-for-double.
  auto env1 = make_env();
  GnnDriveConfig cfg = base_config(CachePolicy::kLru);
  cfg.record_batch_losses = true;
  cfg.num_samplers = 1;
  cfg.num_extractors = 1;
  GnnDrive plain(env1.ctx, cfg);
  const EpochStats base = plain.run_epoch(0);

  auto env2 = make_env();
  GnnDrive probed(env2.ctx, cfg);
  (void)presample_hot_set(*dataset, *env2.cache, cfg.common.sampler,
                          cfg.common.batch_seeds, cfg.common.run_seed, 8,
                          100);
  const EpochStats after = probed.run_epoch(0);
  ASSERT_EQ(base.batch_losses.size(), after.batch_losses.size());
  EXPECT_EQ(base.batch_losses, after.batch_losses);
}

// -- Belady oracle comparator ------------------------------------------------

TEST_F(CachePolicyFixture, BeladyUpperBoundsLruAtEveryBudget) {
  auto env = make_env();
  SamplerConfig scfg;
  scfg.fanouts = {5, 5};
  const AccessTrace trace = record_access_trace(
      *dataset, *env.cache, scfg, /*batch_seeds=*/16, /*run_seed=*/99,
      /*epoch=*/0, /*max_batches=*/16);
  ASSERT_EQ(trace.size(), 16u);
  std::uint64_t max_batch = 0;
  for (const auto& b : trace) {
    max_batch = std::max<std::uint64_t>(max_batch, b.size());
  }
  for (const std::uint64_t slots :
       {max_batch + 8, max_batch * 2, max_batch * 4}) {
    const CacheSimResult lru = simulate_lru(trace, slots);
    const CacheSimResult opt = simulate_belady(trace, slots);
    EXPECT_EQ(lru.lookups, opt.lookups);
    EXPECT_GE(opt.hits, lru.hits) << "slots=" << slots;
    EXPECT_LE(opt.hit_rate(), 1.0);
  }
}

TEST_F(CachePolicyFixture, HotnessSimulatorBeatsLruOnSkewedTraffic) {
  auto env = make_env();
  SamplerConfig scfg;
  scfg.fanouts = {5, 5};
  const AccessTrace trace = record_access_trace(*dataset, *env.cache, scfg,
                                                16, 99, 0, 16);
  std::uint64_t max_batch = 0;
  for (const auto& b : trace) {
    max_batch = std::max<std::uint64_t>(max_batch, b.size());
  }
  const std::uint64_t slots = max_batch * 2;
  const PresampleResult prof = presample_hot_set(
      *dataset, *env.cache, scfg, 16, 99, 8, slots / 2);
  const CacheSimResult lru = simulate_lru(trace, slots);
  const CacheSimResult hot = simulate_hotness(trace, slots, prof.hot_nodes);
  const CacheSimResult opt = simulate_belady(trace, slots);
  EXPECT_GT(hot.hits, lru.hits);   // community graphs skew hard enough
  EXPECT_GE(opt.hits, hot.hits);   // the oracle stays an upper bound
}

// -- The Belady planner -----------------------------------------------------

TEST_F(CachePolicyFixture, BeladyPlanKeepsEveryBatchResidentWithinSlots) {
  auto env = make_env();
  SamplerConfig scfg;
  scfg.fanouts = {5, 5};
  const AccessTrace trace = record_access_trace(*dataset, *env.cache, scfg,
                                                16, 99, 0, 16);
  std::uint64_t max_batch = 0;
  for (const auto& b : trace) {
    const std::unordered_set<NodeId> uniq(b.begin(), b.end());
    max_batch = std::max<std::uint64_t>(max_batch, uniq.size());
  }
  EXPECT_THROW(plan_belady(trace, max_batch - 1), std::invalid_argument);

  for (const std::uint64_t slots : {max_batch, max_batch + 8, max_batch * 2}) {
    const std::vector<BeladyStep> plan = plan_belady(trace, slots);
    ASSERT_EQ(plan.size(), trace.size());
    std::unordered_map<NodeId, std::uint32_t> slot_of;  // the resident set
    std::vector<bool> slot_used(slots, false);
    std::uint64_t loads = 0;
    std::uint64_t evictions = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      const std::unordered_set<NodeId> batch(trace[k].begin(),
                                             trace[k].end());
      for (const NodeId v : plan[k].evictions) {
        EXPECT_EQ(batch.count(v), 0u) << "evicted batch member " << v;
        const auto it = slot_of.find(v);
        ASSERT_NE(it, slot_of.end()) << "evicted non-resident " << v;
        slot_used[it->second] = false;
        slot_of.erase(it);
        ++evictions;
      }
      for (const auto& [v, slot] : plan[k].loads) {
        ASSERT_LT(slot, slots);
        EXPECT_FALSE(slot_used[slot]) << "slot " << slot << " reassigned";
        EXPECT_TRUE(slot_of.emplace(v, slot).second) << "reloaded " << v;
        slot_used[slot] = true;
        ++loads;
      }
      EXPECT_LE(slot_of.size(), slots);
      // Nothing is evicted while a slot is free: the first `slots` loads
      // fill the empty cache (Ginex's warm start relies on it).
      EXPECT_EQ(evictions, std::max(loads, slots) - slots) << "batch " << k;
      for (const NodeId v : batch) {
        EXPECT_EQ(slot_of.count(v), 1u) << "batch " << k << " lacks " << v;
      }
    }
    const CacheSimResult sim = simulate_belady(trace, slots);
    EXPECT_EQ(sim.lookups - sim.hits, loads);
  }
}

/// Fewest misses any cold-start, batch-pinned, load-on-miss cache of
/// `slots` rows can take on `trace` (batch k as a bitmask over nodes < 8)
/// from batch `k` on with `resident` cached: exhaustive search over every
/// choice of victims at every batch, memoized on (k, resident).
std::uint64_t min_misses(const std::vector<std::uint32_t>& trace,
                         std::uint64_t slots, std::size_t k,
                         std::uint32_t resident,
                         std::vector<std::uint64_t>& memo) {
  constexpr std::uint64_t kUnknown = std::numeric_limits<std::uint64_t>::max();
  if (k == trace.size()) return 0;
  std::uint64_t& best = memo[k * 256 + resident];
  if (best != kUnknown) return best;
  const std::uint32_t batch = trace[k];
  const std::uint32_t filled = resident | batch;
  const int excess =
      std::max(std::popcount(filled) - static_cast<int>(slots), 0);
  const std::uint32_t evictable = resident & ~batch;
  // Every subset of the evictable nodes with exactly `excess` members.
  for (std::uint32_t e = evictable;; e = (e - 1) & evictable) {
    if (std::popcount(e) == excess) {
      best = std::min(best, min_misses(trace, slots, k + 1, filled & ~e, memo));
    }
    if (e == 0) break;
  }
  best += static_cast<std::uint64_t>(std::popcount(batch & ~resident));
  return best;
}

TEST_F(CachePolicyFixture, BeladyMatchesExhaustiveOptimumOnTinyTraces) {
  Rng rng(2024);
  for (int t = 0; t < 2000; ++t) {
    const auto nodes = static_cast<std::uint32_t>(1 + rng.next_below(8));
    const std::size_t batches = 1 + rng.next_below(7);
    std::vector<std::uint32_t> masks;  // batch k as a node bitmask
    AccessTrace trace;
    std::uint64_t max_batch = 1;
    for (std::size_t k = 0; k < batches; ++k) {
      std::uint32_t mask = 0;
      while (mask == 0) {
        mask = static_cast<std::uint32_t>(rng.next_below(1u << nodes));
      }
      std::vector<NodeId> batch;
      for (NodeId v = 0; v < nodes; ++v) {
        if ((mask >> v) & 1u) batch.push_back(v);
      }
      std::shuffle(batch.begin(), batch.end(), rng);
      max_batch = std::max<std::uint64_t>(max_batch, batch.size());
      masks.push_back(mask);
      trace.push_back(std::move(batch));
    }
    const std::uint64_t slots =
        max_batch + rng.next_below(nodes - max_batch + 1);
    const CacheSimResult opt = simulate_belady(trace, slots);
    std::vector<std::uint64_t> memo(masks.size() * 256,
                                    std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(opt.lookups - opt.hits, min_misses(masks, slots, 0, 0, memo))
        << "trace " << t << ": " << nodes << " nodes, " << batches
        << " batches, " << slots << " slots";
  }
}

// -- Differential: hotness training == LRU training, byte for byte ----------

TEST_F(CachePolicyFixture, HotnessTrainingIsByteIdenticalToLru) {
  // In-order pipeline (one sampler, one extractor) so the per-batch loss
  // trajectories of the two runs are directly comparable; multi-worker
  // reordering would shuffle them for LRU and hotness alike.
  GnnDriveConfig lru_cfg = base_config(CachePolicy::kLru);
  lru_cfg.record_batch_losses = true;
  lru_cfg.num_samplers = 1;
  lru_cfg.num_extractors = 1;
  GnnDriveConfig hot_cfg = lru_cfg;
  hot_cfg.cache.policy = CachePolicy::kHotness;
  hot_cfg.cache.hot_fraction = 0.4;

  auto env1 = make_env();
  GnnDrive lru_sys(env1.ctx, lru_cfg);
  auto env2 = make_env();
  GnnDrive hot_sys(env2.ctx, hot_cfg);

  for (std::uint64_t e = 0; e < 2; ++e) {
    const EpochStats a = lru_sys.run_epoch(e);
    const EpochStats b = hot_sys.run_epoch(e);
    ASSERT_TRUE(a.result.ok());
    ASSERT_TRUE(b.result.ok());
    ASSERT_EQ(a.batches, b.batches);
    // The acceptance bar: caching is a pure I/O optimization, so the loss
    // trajectory matches double-for-double.
    ASSERT_EQ(a.batch_losses.size(), b.batch_losses.size());
    for (std::size_t i = 0; i < a.batch_losses.size(); ++i) {
      ASSERT_EQ(a.batch_losses[i], b.batch_losses[i])
          << "epoch " << e << " batch " << i;
    }
    EXPECT_EQ(a.loss, b.loss);
    if (e == 0) EXPECT_GT(b.obs.fb_hot_hits, 0u);
  }
  EXPECT_EQ(hot_sys.hot_source(), GnnDrive::HotSetSource::kProfiled);

  // Every resident feature row — pinned or cold — holds the exact on-disk
  // bytes of its node.
  FeatureBuffer& fb = hot_sys.feature_buffer();
  const std::uint32_t dim = dataset->spec().feature_dim;
  std::vector<float> truth(dim);
  std::uint64_t checked_hot = 0;
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    const auto e = fb.entry(v);
    if (!e.valid) continue;
    dataset->read_feature_row(v, truth.data());
    const float* got = fb.slot_data(e.slot);
    for (std::uint32_t k = 0; k < dim; ++k) {
      ASSERT_EQ(got[k], truth[k]) << "node " << v << " dim " << k;
    }
    if (fb.hot_slot(v) != kNoSlot) ++checked_hot;
  }
  EXPECT_GT(checked_hot, 0u);
}

// -- Checkpoint adoption -----------------------------------------------------

TEST_F(CachePolicyFixture, ResumeAdoptsCheckpointedHotSetWithoutReprofiling) {
  GnnDriveConfig cfg = base_config(CachePolicy::kHotness);
  cfg.cache.hot_fraction = 0.4;
  cfg.ckpt.enabled = true;
  cfg.ckpt.dir = fresh_dir("hot-set-adoption");

  std::vector<NodeId> profiled;
  {
    auto env = make_env();
    GnnDrive system(env.ctx, cfg);
    system.run_epoch(0);
    EXPECT_EQ(system.hot_source(), GnnDrive::HotSetSource::kProfiled);
    profiled = system.hot_nodes();
    ASSERT_FALSE(profiled.empty());
    system.checkpoint();
  }
  {
    auto env = make_env();
    GnnDrive resumed(env.ctx, cfg);
    const auto info = resumed.resume();
    ASSERT_TRUE(info.has_value());
    // The pinned set came from the checkpoint — no second profiling pass.
    EXPECT_EQ(resumed.hot_source(), GnnDrive::HotSetSource::kCheckpoint);
    EXPECT_EQ(resumed.hot_nodes(), profiled);
    EXPECT_TRUE(resumed.feature_buffer().hot_sealed());
    const EpochStats stats = resumed.run_epoch(info->epoch);
    EXPECT_TRUE(stats.result.ok());
    EXPECT_GT(stats.obs.fb_hot_hits, 0u);
  }
}

}  // namespace
}  // namespace gnndrive
