// GNNDrive's feature buffer manager (Sect. 4.2, Fig. 6, Algorithm 1).
//
// Four components, exactly as the paper describes:
//  * mapping table  — per graph node: {slot index, reference count, valid
//    bit}. States: (slot=-1, valid=0) not buffered; (slot>=0, valid=0) being
//    extracted; (slot>=0, valid=1) ready. (slot=-1, valid=1) is unreachable.
//  * buffer         — the slot storage itself (device memory for GPU
//    training, host memory for the CPU variant).
//  * reverse map    — slot -> node currently occupying it (-1 when empty).
//  * standby list   — LRU list of slots with zero reference count: free
//    slots plus retired-but-reusable ones. Reusing a slot for a *new* node
//    lazily invalidates the previous occupant's mapping entry.
//
// The two-pass protocol mirrors Algorithm 1: extractors first
// check_and_ref() every sampled node (reuse / wait-list / to-load triage,
// reference counts bumped), then allocate_slot() + asynchronous load +
// mark_valid() for the to-load set, and finally wait_valid() on wait-listed
// nodes. The releaser calls release() after training.
//
// Hot partition (src/cache). A hotness-aware policy may pin the top-K nodes
// by estimated access frequency into a dedicated slot region via pin_hot():
// pinned slots never enter the standby list, carry no reference counts, and
// once seal_hot() publishes them they can be resolved lock-free through
// hot_slot(). The cold remainder keeps the LRU standby discipline below.
//
// Thread-safe; allocate_slot() blocks when the standby list is empty until a
// release arrives. Deadlock freedom requires cold_slots >= Ne x Mb (number
// of extractors x max nodes per mini-batch, counting only the unpinned
// region) — enforced by the pipeline and stress-tested.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/lru.hpp"

namespace gnndrive {

class Telemetry;

/// Which workload a feature-buffer lookup is attributed to. Training and
/// serving share one buffer; per-client counters let a cache win be traced
/// to the workload that benefits (docs/observability.md, fb.train.* /
/// fb.serve.*).
enum class FbClient : std::uint8_t { kTrain = 0, kServe = 1 };
inline constexpr std::size_t kNumFbClients = 2;

struct FeatureBufferConfig {
  std::uint64_t num_slots = 0;
  std::uint32_t row_floats = 0;  ///< floats per slot (feature dimension)
};

/// A view of the fb.* registry counters: their growth since the buffer was
/// built (FeatureBuffer::stats()).
struct FeatureBufferStats {
  std::uint64_t hot_hits = 0;      ///< node resolved from the pinned region
  std::uint64_t reuse_hits = 0;    ///< node found valid in the buffer
  std::uint64_t wait_hits = 0;     ///< node being loaded by another thread
  std::uint64_t loads = 0;         ///< nodes that required an SSD load
  std::uint64_t slot_waits = 0;    ///< times allocate_slot had to block
  std::uint64_t failed_loads = 0;  ///< nodes marked failed by an extractor
  /// Mutex acquisitions taken by the batched entry points
  /// (check_and_ref_batch / allocate_slots / release): together with
  /// `lookups()` this exposes the per-node-lock traffic the batched APIs
  /// eliminated.
  std::uint64_t batch_lock_acquisitions = 0;

  /// Total triages observed (lock-free hot resolutions included).
  std::uint64_t lookups() const {
    return hot_hits + reuse_hits + wait_hits + loads;
  }
  /// (hot + reuse + wait) / lookups, guarded against the zero-lookup case
  /// (a buffer that never served a batch reports 0, not NaN).
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total > 0 ? static_cast<double>(hot_hits + reuse_hits + wait_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  /// Hit rate of the standby (cold) region alone — what the LRU list itself
  /// delivers once hot hits are taken out. The A/B bench compares this
  /// across policies.
  double standby_hit_rate() const {
    const std::uint64_t total = reuse_hits + wait_hits + loads;
    return total > 0 ? static_cast<double>(reuse_hits + wait_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

class FeatureBuffer : NonCopyable {
 public:
  /// `telemetry` (optional) receives the hit/miss/eviction counters and the
  /// standby-list gauge in its metrics registry under "fb.*" names; without
  /// it the buffer counts into a private registry.
  /// Throws std::invalid_argument when the config is unusable (zero slots,
  /// more slots than the LRU index space, zero-width rows) — construction
  /// is the validation point, not the first hot-path GD_CHECK.
  FeatureBuffer(const FeatureBufferConfig& config, NodeId num_nodes,
                Telemetry* telemetry = nullptr);

  enum class CheckStatus {
    kReady,     ///< valid in the buffer; slot returned
    kInFlight,  ///< another thread is extracting it; add to wait list
    kMustLoad,  ///< caller must allocate a slot and load it
  };
  struct CheckResult {
    CheckStatus status;
    SlotId slot;  ///< valid for kReady; may be kNoSlot for kInFlight
  };

  /// Pass 1 of Algorithm 1 for one node: triages and increments the node's
  /// reference count (the caller now holds a reference regardless of status).
  /// Pinned hot nodes short-circuit to kReady without a reference bump
  /// (their slots can never be reclaimed, so no reference is needed; a
  /// symmetric release() on them is a no-op).
  CheckResult check_and_ref(NodeId node, FbClient client = FbClient::kTrain);

  /// Pass 1 for a whole batch under a single mutex acquisition. Triage
  /// results are written to `out[0..n)` and are identical to n sequential
  /// check_and_ref calls in the same order (duplicates within the batch
  /// triage like repeated calls would: first occurrence decides, later
  /// duplicates see kInFlight/kReady).
  void check_and_ref_batch(const NodeId* nodes, std::size_t n,
                           CheckResult* out,
                           FbClient client = FbClient::kTrain);

  /// Pass 2: assigns the LRU standby slot to `node` (which must be in the
  /// kMustLoad state), lazily invalidating the slot's previous occupant.
  /// Blocks while the standby list is empty.
  SlotId allocate_slot(NodeId node);

  /// Pass 2 for a group of kMustLoad nodes under (at minimum) a single
  /// mutex acquisition; writes each node's slot to `out[0..n)`. Blocking
  /// semantics match n sequential allocate_slot calls — the wait happens
  /// per node as the standby list drains, so the deadlock-freedom argument
  /// (num_slots >= Ne x Mb) is unchanged.
  void allocate_slots(const NodeId* nodes, std::size_t n, SlotId* out);

  /// Marks the node's data ready (after load + transfer) and wakes waiters.
  void mark_valid(NodeId node);

  /// Marks a node whose load permanently failed; wakes waiters, which see
  /// kNoSlot from wait_ready(). The node's references stay owed — when the
  /// last one is released the entry fully resets (slot back to standby,
  /// failed flag cleared) so a later batch can retry the load from scratch.
  /// Valid both for nodes with an allocated slot and for kMustLoad nodes
  /// whose extractor aborted before allocate_slot().
  void mark_failed(NodeId node);

  /// Blocks until `node` is valid; returns its slot (wait-list resolution).
  SlotId wait_valid(NodeId node);

  /// Fault-tolerant wait-list resolution: returns the slot once valid,
  /// kNoSlot if the loading extractor marked the node failed, and nullopt if
  /// neither happened within `timeout` (loader died — the caller should fail
  /// its batch rather than deadlock).
  std::optional<SlotId> wait_ready(NodeId node, Duration timeout);

  /// Releaser path: drops one reference per node; slots reaching zero are
  /// appended at the MRU end of the standby list. Mapping entries stay valid
  /// for potential inter-batch reuse (lazy invalidation).
  void release(const std::vector<NodeId>& nodes);
  void release_one(NodeId node);

  float* slot_data(SlotId slot) {
    return storage_.data() + static_cast<std::size_t>(slot) * row_floats_;
  }
  const float* slot_data(SlotId slot) const {
    return storage_.data() + static_cast<std::size_t>(slot) * row_floats_;
  }

  std::uint64_t num_slots() const { return num_slots_; }
  std::uint32_t row_floats() const { return row_floats_; }
  std::uint64_t storage_bytes() const { return storage_.size() * 4; }

  // -- Hot partition (src/cache hotness policy) -----------------------------
  /// Claims one slot per node and pins it: the slot leaves the standby list
  /// permanently and the node maps to it for the buffer's lifetime. Must be
  /// called on an idle buffer (every slot still on standby, no prior pin);
  /// throws std::invalid_argument on an oversized or duplicate-bearing hot
  /// set and std::logic_error when the buffer is not idle. Returns the slot
  /// of hot_nodes[i] at out[i]. The caller then loads each row and
  /// mark_valid()s it; seal_hot() publishes the partition.
  std::vector<SlotId> pin_hot(const std::vector<NodeId>& hot_nodes);
  /// Publishes the pinned partition for lock-free hot_slot() resolution.
  /// Every pinned node must have been mark_valid()ed first.
  void seal_hot();
  bool hot_sealed() const {
    return hot_sealed_.load(std::memory_order_acquire);
  }
  /// Lock-free: the node's pinned slot, or kNoSlot when the node is not hot
  /// (or the partition is not sealed yet). Safe from any thread after
  /// seal_hot() — pinned mappings never change.
  SlotId hot_slot(NodeId node) const {
    if (!hot_sealed_.load(std::memory_order_acquire)) return kNoSlot;
    return hot_map_[node];
  }
  /// Accounting for hot resolutions done outside the mutex (the extractor
  /// fast path batches them per mini-batch).
  void record_hot_hits(std::uint64_t n, FbClient client = FbClient::kTrain);
  std::uint64_t hot_slots() const { return hot_count_; }
  std::uint64_t cold_slots() const { return num_slots_ - hot_count_; }

  // -- Introspection (tests, Fig. 6 walk-through) ---------------------------
  struct Entry {
    SlotId slot = kNoSlot;
    std::uint32_t ref_count = 0;
    bool valid = false;
    bool failed = false;  ///< load permanently failed; resets at refcount 0
    bool pinned = false;  ///< hot-partition member; exempt from eviction
  };
  Entry entry(NodeId node) const;
  NodeId reverse(SlotId slot) const;  ///< kInvalidNode when slot is empty
  std::size_t standby_size() const;
  /// Merged view across both clients: the fb.* counters' growth since
  /// construction. Buffers that share one telemetry share the counters, so
  /// while two are live each view includes the other's traffic.
  FeatureBufferStats stats() const;
  /// Triage counters attributed to one client (hot/reuse/wait/loads only,
  /// from fb.train.* / fb.serve.*; the shared fields — slot_waits,
  /// failed_loads, lock counts — are buffer-global and reported by the
  /// merged stats()).
  FeatureBufferStats stats(FbClient client) const;

  static constexpr NodeId kInvalidNode = 0xffffffffu;

 private:
  /// Drops one reference; returns true when a slot joined the standby list.
  /// Called with mu_ held.
  bool retire_locked(NodeId node);
  /// check_and_ref body; called with mu_ held.
  CheckResult check_and_ref_locked(NodeId node, FbClient client);
  /// allocate_slot body; may release `lock` to wait for a standby slot.
  SlotId allocate_slot_locked(std::unique_lock<std::mutex>& lock, NodeId node);

  /// How check_and_ref resolved a lookup: the first counters of both the
  /// buffer-wide and the per-client counter sets.
  enum Triage : std::size_t { kHot, kReuse, kWait, kLoad, kNumTriage };
  enum Count : std::size_t {
    kSlotWaits = kNumTriage, kFailedLoads, kEvictions, kBatchLocks, kNumCounts
  };
  enum ClientCount : std::size_t {
    kLookups = kNumTriage, kHits, kNumClientCounts
  };
  static constexpr CounterSet<kNumCounts>::Names kCountNames = {
      "fb.hot.hits",    "fb.reuse_hits",  "fb.wait_hits",
      "fb.loads",       "fb.slot_waits",  "fb.failed_loads",
      "fb.evictions",   "fb.batch_lock_acquisitions"};
  static constexpr CounterSet<kNumClientCounts>::Names
      kClientCountNames[kNumFbClients] = {
          {"fb.train.hot_hits", "fb.train.reuse_hits", "fb.train.wait_hits",
           "fb.train.loads", "fb.train.lookups", "fb.train.hits"},
          {"fb.serve.hot_hits", "fb.serve.reuse_hits", "fb.serve.wait_hits",
           "fb.serve.loads", "fb.serve.lookups", "fb.serve.hits"}};
  /// Counts `n` lookups by `client` that resolved as `t`.
  void count_triage(FbClient client, Triage t, std::uint64_t n = 1);

  const std::uint64_t num_slots_;
  const std::uint32_t row_floats_;

  mutable std::mutex mu_;
  std::condition_variable slot_available_;
  std::condition_variable became_valid_;

  std::vector<Entry> map_;            ///< mapping table, per node
  std::vector<NodeId> reverse_;       ///< per slot
  IndexedLruList standby_;            ///< unpinned slots with refcount == 0
  std::vector<float> storage_;
  // Hot partition. hot_map_ is written only before the release-store of
  // hot_sealed_; readers pair it with an acquire-load in hot_slot(), so the
  // mapping is immutable once visible and needs no lock.
  std::vector<SlotId> hot_map_;  ///< node -> pinned slot (kNoSlot when cold)
  std::uint64_t hot_count_ = 0;
  std::atomic<bool> hot_sealed_{false};

  // Instruments (docs/observability.md): the only store of the buffer's
  // counts, in the telemetry's registry or own_registry_. Hot hits are
  // counted lock-free, everything else under mu_.
  void publish_standby_locked();
  std::unique_ptr<MetricsRegistry> own_registry_;
  MetricsRegistry& registry_;
  CounterSet<kNumCounts> m_;
  CounterSet<kNumClientCounts> m_client_[kNumFbClients];
  Gauge* m_standby_;     ///< fb.standby (list length)
  Gauge* m_hot_slots_;   ///< fb.hot.slots (pinned region size)
  Gauge* m_cold_slots_;  ///< fb.cold.slots (evictable region)
};

}  // namespace gnndrive
