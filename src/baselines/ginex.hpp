// Ginex baseline (Park et al., VLDB'22).
//
// Ginex restructures SET training around *superbatches* (bundles of many
// mini-batches; 1500 in the paper, scaled here) and two pinned caches:
//  * a neighbor cache — adjacency of the hottest nodes, for sampling;
//  * a feature cache — managed with a provably optimal (Belady) replacement
//    policy computed in an *inspect* pass over the superbatch's sampling
//    results.
// The cost structure the paper measures comes from its phase sequence per
// superbatch:
//  1. sample every mini-batch up front and STORE the sampling results on the
//     SSD (extra write I/O, longer sampling);
//  2. inspect: read the results back, compute the Belady plan (CPU + I/O)
//     with plan_belady (src/cache/belady.hpp);
//  3. synchronously initialize the feature cache for this superbatch;
//  4. train: per mini-batch, read the stored sample back, serve hits from
//     the feature cache, load misses synchronously, transfer, train.
// All I/O on the training path is synchronous — Ginex still suffers the
// paper's Observation 2 (I/O congestion), just less than PyG+.
#pragma once

#include "baselines/common.hpp"
#include "core/system.hpp"
#include "sampling/topology.hpp"

namespace gnndrive {

struct GinexConfig {
  CommonTrainConfig common;
  /// Cache budgets as fractions of the host-memory budget. Defaults follow
  /// the paper's "caches occupy at least 85%" rule (6 GB neighbor + 24 GB
  /// feature on the 32 GB default box).
  double neighbor_cache_frac = 0.14;
  double feature_cache_frac = 0.66;
  std::uint32_t superbatch = 384;  ///< mini-batches per superbatch (scaled)
  std::uint32_t num_workers = 4;   ///< sampling-phase threads
  unsigned miss_ring_depth = 16;   ///< sync-multithread-equivalent I/O depth
  GpuConfig gpu;
};

class Ginex final : public TrainSystem {
 public:
  Ginex(const RunContext& ctx, GinexConfig config);

  const char* name() const override { return "Ginex"; }
  EpochStats run_epoch(std::uint64_t epoch) override;
  double evaluate() override;

  std::uint64_t feature_cache_rows() const { return cache_rows_; }
  const CachedTopology& neighbor_cache() const { return *neighbor_cache_; }

 private:
  RunContext ctx_;
  GinexConfig config_;
  NeighborSampler sampler_;
  PinnedBytes metadata_pin_;
  PinnedBytes neighbor_cache_pin_;
  PinnedBytes feature_cache_pin_;
  std::unique_ptr<CachedTopology> neighbor_cache_;
  std::unique_ptr<GpuTrainer> trainer_;

  std::uint64_t cache_rows_ = 0;
  std::vector<float> cache_storage_;  ///< feature cache payload
};

}  // namespace gnndrive
