#include "cache/belady.hpp"

#include <algorithm>
#include <limits>
#include <list>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "memsim/page_cache.hpp"
#include "sampling/topology.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace gnndrive {

namespace {

/// Deduplicates one batch's node list, keeping first-occurrence order (the
/// order triage sees).
std::vector<NodeId> unique_nodes(const std::vector<NodeId>& nodes) {
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  std::unordered_set<NodeId> seen;
  seen.reserve(nodes.size());
  for (NodeId v : nodes) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// LRU core shared by simulate_lru and the cold region of simulate_hotness.
/// `hot` (optional) marks always-resident nodes that bypass the cache.
CacheSimResult run_lru(const AccessTrace& trace, std::uint64_t slots,
                       const std::unordered_set<NodeId>* hot,
                       CacheSimResult seed) {
  CacheSimResult result = seed;
  // Residency + standby modelled on the real buffer: nodes of the current
  // batch hold references (unevictable); at batch end they retire to the
  // MRU end of the standby list.
  std::unordered_set<NodeId> resident;
  std::list<NodeId> standby;  // front = LRU, back = MRU
  std::unordered_map<NodeId, std::list<NodeId>::iterator> standby_pos;
  std::uint64_t occupied = 0;

  for (const auto& raw : trace) {
    const std::vector<NodeId> batch = unique_nodes(raw);
    std::vector<NodeId> mine;  // cold nodes this batch references
    mine.reserve(batch.size());
    for (NodeId v : batch) {
      if (hot != nullptr && hot->count(v) > 0) {
        ++result.lookups;
        ++result.hits;
        continue;  // pinned: always resident, never occupies a cold slot
      }
      ++result.lookups;
      mine.push_back(v);
      if (resident.count(v) > 0) {
        ++result.hits;
        const auto it = standby_pos.find(v);
        if (it != standby_pos.end()) {
          // Referenced again: leaves standby (cannot be reclaimed).
          standby.erase(it->second);
          standby_pos.erase(it);
        }
        continue;
      }
      // Miss: take a free slot or evict the LRU retired one.
      if (occupied < slots) {
        ++occupied;
      } else {
        GD_CHECK_MSG(!standby.empty(),
                     "cache simulation under-provisioned: batch larger than "
                     "the slot budget");
        const NodeId victim = standby.front();
        standby.pop_front();
        standby_pos.erase(victim);
        resident.erase(victim);
      }
      resident.insert(v);
    }
    // Release: this batch's nodes retire to the MRU end, in batch order.
    for (NodeId v : mine) {
      standby.push_back(v);
      standby_pos[v] = std::prev(standby.end());
    }
  }
  return result;
}

}  // namespace

AccessTrace record_access_trace(const Dataset& dataset, PageCache& page_cache,
                                const SamplerConfig& sampler_config,
                                std::uint32_t batch_seeds,
                                std::uint64_t run_seed, std::uint64_t epoch,
                                std::uint32_t max_batches) {
  NeighborSampler sampler(sampler_config);
  MmapTopology topo(dataset, page_cache);
  const auto batches =
      make_minibatches(dataset.train_nodes(), batch_seeds,
                       splitmix64(run_seed ^ (epoch + 1)));
  std::size_t n = batches.size();
  if (max_batches > 0) n = std::min<std::size_t>(n, max_batches);

  AccessTrace trace;
  trace.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    SampledBatch batch =
        sampler.sample(((epoch + 1) << 24) | b, batches[b], topo, nullptr);
    trace.push_back(std::move(batch.nodes));
  }
  return trace;
}

CacheSimResult simulate_lru(const AccessTrace& trace, std::uint64_t slots) {
  return run_lru(trace, slots, nullptr, CacheSimResult{});
}

CacheSimResult simulate_hotness(const AccessTrace& trace, std::uint64_t slots,
                                const std::vector<NodeId>& hot) {
  GD_CHECK_MSG(hot.size() < slots,
               "simulate_hotness: hot set must leave cold slots");
  const std::unordered_set<NodeId> hot_set(hot.begin(), hot.end());
  return run_lru(trace, slots - hot_set.size(), &hot_set, CacheSimResult{});
}

std::vector<BeladyStep> plan_belady(const AccessTrace& trace,
                                    std::uint64_t slots) {
  std::vector<std::vector<NodeId>> batches;
  batches.reserve(trace.size());
  for (const auto& raw : trace) {
    batches.push_back(unique_nodes(raw));
    if (batches.back().size() > slots) {
      throw std::invalid_argument(
          "plan_belady: " + std::to_string(slots) +
          " slots cannot hold batch " + std::to_string(batches.size() - 1) +
          " (" + std::to_string(batches.back().size()) + " distinct nodes)");
    }
  }

  // next_use[k][i]: the next batch after k that uses batches[k][i].
  constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::vector<std::uint32_t>> next_use(batches.size());
  std::unordered_map<NodeId, std::uint32_t> upcoming;
  for (std::size_t k = batches.size(); k-- > 0;) {
    next_use[k].reserve(batches[k].size());
    for (NodeId v : batches[k]) {
      const auto [it, first] =
          upcoming.try_emplace(v, static_cast<std::uint32_t>(k));
      next_use[k].push_back(first ? kNever : it->second);
      it->second = static_cast<std::uint32_t>(k);
    }
  }

  std::unordered_map<NodeId, std::uint32_t> slot_of;  // the resident set
  // Resident nodes outside the current batch by (next use, node); the
  // victim is the largest. A resident member of batch k is keyed (k, node),
  // so it leaves the set when the batch reaches it and, until then, ranks
  // below every non-member: slots >= |batch| leaves a non-member to evict
  // whenever the cache is full and a miss needs a slot.
  std::set<std::pair<std::uint32_t, NodeId>> evictable;
  std::uint64_t next_free = 0;
  std::vector<BeladyStep> plan(batches.size());
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto now = static_cast<std::uint32_t>(k);
    BeladyStep& step = plan[k];
    for (NodeId v : batches[k]) {
      if (slot_of.count(v) != 0) {
        evictable.erase({now, v});  // hit: pinned for the batch
        continue;
      }
      std::uint32_t slot;
      if (next_free < slots) {
        slot = static_cast<std::uint32_t>(next_free++);
      } else {
        const auto victim = std::prev(evictable.end());
        const auto it = slot_of.find(victim->second);
        slot = it->second;
        step.evictions.push_back(victim->second);
        slot_of.erase(it);
        evictable.erase(victim);
      }
      slot_of.emplace(v, slot);
      step.loads.emplace_back(v, slot);
    }
    // The batch is done: its members become evictable at their next use.
    for (std::size_t i = 0; i < batches[k].size(); ++i) {
      evictable.insert({next_use[k][i], batches[k][i]});
    }
  }
  return plan;
}

CacheSimResult simulate_belady(const AccessTrace& trace, std::uint64_t slots) {
  CacheSimResult result;
  for (const auto& raw : trace) result.lookups += unique_nodes(raw).size();
  result.hits = result.lookups;
  for (const BeladyStep& step : plan_belady(trace, slots)) {
    result.hits -= step.loads.size();
  }
  return result;
}

}  // namespace gnndrive
