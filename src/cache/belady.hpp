// Belady replacement for a batch-pinned feature cache, and the trace-driven
// cache comparator built on it.
//
// plan_belady is the one Belady implementation: Ginex's inspect pass
// (src/baselines/ginex.cpp) runs it over each superbatch, and
// bench/cache_policy replays a recorded epoch-0 access trace through three
// cache simulators:
//
//   * simulate_lru      — mirrors the FeatureBuffer's standby discipline
//                         (nodes of the in-flight batch are referenced and
//                         unevictable; retired slots rejoin at the MRU end),
//   * simulate_hotness  — a pinned always-resident hot set over an LRU cold
//                         remainder of (slots - |hot|),
//   * simulate_belady   — the hits of plan_belady's plan.
//
// The plan starts cold, loads only on a miss and keeps each batch resident
// until the batch is done, like the real buffer. Within those rules it is
// optimal: no cold-start, batch-pinned policy (LRU among them) hits more.
// It is not a bound on simulate_hotness, whose hot set is prefetched for
// free: once the hot set nearly covers the working set, hotness can beat it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dataset.hpp"
#include "sampling/sampler.hpp"

namespace gnndrive {

class PageCache;

/// Per-mini-batch node access sets, in epoch order (deduplicated within a
/// batch, like a triaged load set).
using AccessTrace = std::vector<std::vector<NodeId>>;

/// Samples the exact mini-batch sequence run_epoch(epoch) would extract —
/// same shuffle seed (splitmix64(run_seed ^ (epoch+1))) and batch-id stream
/// (((epoch+1)<<24) | b) — and records each batch's node set. `max_batches`
/// truncates the trace (0 = whole epoch).
AccessTrace record_access_trace(const Dataset& dataset, PageCache& page_cache,
                                const SamplerConfig& sampler_config,
                                std::uint32_t batch_seeds,
                                std::uint64_t run_seed, std::uint64_t epoch,
                                std::uint32_t max_batches = 0);

struct CacheSimResult {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  double hit_rate() const {
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

/// LRU with the FeatureBuffer's batch semantics. Requires `slots` to cover
/// the largest batch (the real buffer's deadlock-freedom precondition).
CacheSimResult simulate_lru(const AccessTrace& trace, std::uint64_t slots);

/// Pinned hot set + LRU over the remaining (slots - hot.size()) slots.
CacheSimResult simulate_hotness(const AccessTrace& trace, std::uint64_t slots,
                                const std::vector<NodeId>& hot);

/// One batch's step of a Belady plan: evict `evictions`, then read each
/// (node, slot) of `loads` into its slot.
struct BeladyStep {
  std::vector<NodeId> evictions;
  std::vector<std::pair<NodeId, std::uint32_t>> loads;
};

/// Plans a cold-start cache of `slots` rows over `trace`: a miss takes the
/// next free slot, or else the slot of the resident node whose next batch of
/// use is farthest away (never used again counts as farthest), never a
/// member of the current batch; ties go to the larger node id. Until the
/// cache is full no eviction happens, so the first min(slots, distinct
/// nodes) loads are exactly those into free slots. Throws
/// std::invalid_argument when `slots` is smaller than a deduplicated batch.
std::vector<BeladyStep> plan_belady(const AccessTrace& trace,
                                    std::uint64_t slots);

/// Hits of plan_belady: lookups minus the plan's loads.
CacheSimResult simulate_belady(const AccessTrace& trace, std::uint64_t slots);

}  // namespace gnndrive
