#include "core/feature_buffer.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

namespace {
/// Construction-time config validation: a throwing rejection here turns what
/// used to be a late GD_CHECK abort on the first lookup into a recoverable
/// error at the configuration boundary.
void validate(const FeatureBufferConfig& config) {
  if (config.num_slots == 0) {
    throw std::invalid_argument("FeatureBuffer: num_slots must be > 0");
  }
  if (config.num_slots > IndexedLruList::kNil) {
    throw std::invalid_argument(
        "FeatureBuffer: num_slots exceeds the LRU index space (" +
        std::to_string(config.num_slots) + " > " +
        std::to_string(IndexedLruList::kNil) + ")");
  }
  if (config.row_floats == 0) {
    throw std::invalid_argument("FeatureBuffer: row_floats must be > 0");
  }
}
}  // namespace

FeatureBuffer::FeatureBuffer(const FeatureBufferConfig& config,
                             NodeId num_nodes, Telemetry* telemetry)
    : num_slots_((validate(config), config.num_slots)),
      row_floats_(config.row_floats),
      map_(num_nodes),
      reverse_(config.num_slots, kInvalidNode),
      standby_(config.num_slots),
      storage_(config.num_slots * config.row_floats, 0.0f),
      registry_(registry_or_own(telemetry, own_registry_)),
      m_(registry_, kCountNames),
      m_client_{{registry_, kClientCountNames[0]},
                {registry_, kClientCountNames[1]}},
      m_standby_(&registry_.gauge("fb.standby")),
      m_hot_slots_(&registry_.gauge("fb.hot.slots")),
      m_cold_slots_(&registry_.gauge("fb.cold.slots")) {
  // All slots start free: populate the standby list in slot order.
  for (std::uint64_t s = 0; s < num_slots_; ++s) {
    standby_.push_mru(static_cast<std::uint32_t>(s));
  }
  publish_standby_locked();
  m_cold_slots_->set(static_cast<std::int64_t>(num_slots_));
}

void FeatureBuffer::count_triage(FbClient client, Triage t, std::uint64_t n) {
  const CounterSet<kNumClientCounts>& c =
      m_client_[static_cast<std::size_t>(client)];
  m_[t].add(n);
  c[t].add(n);
  c[kLookups].add(n);
  if (t != kLoad) c[kHits].add(n);
}

void FeatureBuffer::publish_standby_locked() {
  m_standby_->set(static_cast<std::int64_t>(standby_.size()));
}

FeatureBuffer::CheckResult FeatureBuffer::check_and_ref(NodeId node,
                                                        FbClient client) {
  std::lock_guard lock(mu_);
  return check_and_ref_locked(node, client);
}

void FeatureBuffer::check_and_ref_batch(const NodeId* nodes, std::size_t n,
                                        CheckResult* out, FbClient client) {
  std::lock_guard lock(mu_);
  m_[kBatchLocks].add();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = check_and_ref_locked(nodes[i], client);
  }
}

FeatureBuffer::CheckResult FeatureBuffer::check_and_ref_locked(
    NodeId node, FbClient client) {
  GD_DCHECK_MSG(node < map_.size(), "check_and_ref on out-of-range node");
  Entry& e = map_[node];
  if (e.pinned) {
    // Hot-partition member: its slot can never be reclaimed, so no
    // reference is taken (release() on it is a symmetric no-op). Callers
    // that pre-filter through hot_slot() never reach here; this path keeps
    // single-node users (tests, baselines) correct.
    GD_CHECK_MSG(e.valid, "pinned entry not valid (prefetch incomplete)");
    count_triage(client, kHot);
    return {CheckStatus::kReady, e.slot};
  }
  CheckResult result;
  if (e.valid) {
    GD_CHECK_MSG(e.slot != kNoSlot, "valid entry without slot");
    if (e.ref_count == 0) {
      // Retired but still buffered: pull its slot out of the standby list
      // so it cannot be reused from under us.
      standby_.remove(static_cast<std::uint32_t>(e.slot));
      publish_standby_locked();
    }
    count_triage(client, kReuse);
    result = {CheckStatus::kReady, e.slot};
  } else if (e.ref_count > 0) {
    // Another extractor is loading this node right now (or has marked it
    // failed and its references are still draining — waiters then see the
    // failure from wait_ready and fail their own batch).
    count_triage(client, kWait);
    result = {CheckStatus::kInFlight, e.slot};
  } else {
    count_triage(client, kLoad);
    result = {CheckStatus::kMustLoad, kNoSlot};
  }
  ++e.ref_count;
  return result;
}

SlotId FeatureBuffer::allocate_slot(NodeId node) {
  std::unique_lock lock(mu_);
  return allocate_slot_locked(lock, node);
}

void FeatureBuffer::allocate_slots(const NodeId* nodes, std::size_t n,
                                   SlotId* out) {
  std::unique_lock lock(mu_);
  m_[kBatchLocks].add();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = allocate_slot_locked(lock, nodes[i]);
  }
}

SlotId FeatureBuffer::allocate_slot_locked(std::unique_lock<std::mutex>& lock,
                                           NodeId node) {
  Entry& e = map_[node];
  GD_CHECK_MSG(!e.valid && e.slot == kNoSlot && e.ref_count > 0,
               "allocate_slot on node not in kMustLoad state");
  if (standby_.empty()) {
    m_[kSlotWaits].add();
    slot_available_.wait(lock, [&] { return !standby_.empty(); });
  }
  const std::uint32_t slot = standby_.pop_lru();
  publish_standby_locked();
  const NodeId prev = reverse_[slot];
  if (prev != kInvalidNode) {
    // Lazy invalidation of the slot's previous occupant (Fig. 6, step 4).
    GD_CHECK_MSG(map_[prev].ref_count == 0,
                 "standby slot owner had live references");
    map_[prev].valid = false;
    map_[prev].slot = kNoSlot;
    m_[kEvictions].add();
  }
  reverse_[slot] = node;
  e.slot = static_cast<SlotId>(slot);
  return e.slot;
}

void FeatureBuffer::mark_valid(NodeId node) {
  {
    std::lock_guard lock(mu_);
    Entry& e = map_[node];
    GD_CHECK_MSG(e.slot != kNoSlot, "mark_valid without a slot");
    e.valid = true;
  }
  became_valid_.notify_all();
}

void FeatureBuffer::mark_failed(NodeId node) {
  {
    std::lock_guard lock(mu_);
    Entry& e = map_[node];
    GD_CHECK_MSG(e.ref_count > 0, "mark_failed on unreferenced node");
    GD_CHECK_MSG(!e.valid, "mark_failed on valid node");
    e.failed = true;
    m_[kFailedLoads].add();
  }
  became_valid_.notify_all();
}

SlotId FeatureBuffer::wait_valid(NodeId node) {
  std::unique_lock lock(mu_);
  became_valid_.wait(lock, [&] { return map_[node].valid; });
  return map_[node].slot;
}

std::optional<SlotId> FeatureBuffer::wait_ready(NodeId node,
                                                Duration timeout) {
  std::unique_lock lock(mu_);
  const bool resolved = became_valid_.wait_for(lock, timeout, [&] {
    return map_[node].valid || map_[node].failed;
  });
  if (!resolved) return std::nullopt;
  return map_[node].valid ? map_[node].slot : kNoSlot;
}

bool FeatureBuffer::retire_locked(NodeId node) {
  GD_DCHECK_MSG(node < map_.size(), "release on out-of-range node");
  Entry& e = map_[node];
  // Pinned hot nodes hold no references (check_and_ref never bumps them),
  // so a symmetric release is a no-op — their slots never rejoin standby.
  if (e.pinned) return false;
  // Refcount underflow means a double release (a serve- or release-path
  // bug); failing loudly here beats silently pushing a live slot onto the
  // standby list and corrupting whoever reuses it.
  GD_CHECK_MSG(e.ref_count > 0, "release without reference (refcount underflow)");
  if (--e.ref_count != 0) return false;
  if (e.failed) {
    // Failed load fully resets at the last release: the slot (if one was
    // allocated) returns to standby with no occupant, and the entry goes
    // back to the unbuffered state so a later batch retries from scratch.
    const bool freed = e.slot != kNoSlot;
    if (freed) {
      reverse_[static_cast<std::size_t>(e.slot)] = kInvalidNode;
      standby_.push_mru(static_cast<std::uint32_t>(e.slot));
    }
    e = Entry{};
    return freed;
  }
  if (e.slot != kNoSlot) {
    // Retired: slot joins the MRU end of the standby list; the mapping
    // entry stays valid so the node can be reused across mini-batches.
    standby_.push_mru(static_cast<std::uint32_t>(e.slot));
    return true;
  }
  return false;
}

void FeatureBuffer::release_one(NodeId node) {
  bool freed = false;
  {
    std::lock_guard lock(mu_);
    freed = retire_locked(node);
    if (freed) publish_standby_locked();
  }
  if (freed) slot_available_.notify_all();
}

void FeatureBuffer::release(const std::vector<NodeId>& nodes) {
  bool freed = false;
  {
    std::lock_guard lock(mu_);
    m_[kBatchLocks].add();
    for (NodeId node : nodes) freed |= retire_locked(node);
    if (freed) publish_standby_locked();
  }
  if (freed) slot_available_.notify_all();
}

std::vector<SlotId> FeatureBuffer::pin_hot(
    const std::vector<NodeId>& hot_nodes) {
  std::lock_guard lock(mu_);
  if (hot_nodes.size() >= num_slots_) {
    throw std::invalid_argument(
        "pin_hot: hot set (" + std::to_string(hot_nodes.size()) +
        " nodes) must leave at least one cold slot of " +
        std::to_string(num_slots_));
  }
  if (standby_.size() != num_slots_ || hot_count_ != 0) {
    throw std::logic_error(
        "pin_hot requires an idle feature buffer (all slots on standby, no "
        "prior hot partition)");
  }
  // Validate the whole set before touching any state: a rejected pin must
  // leave the buffer exactly as it found it (all slots on standby).
  std::vector<bool> seen(map_.size(), false);
  for (NodeId node : hot_nodes) {
    if (node >= map_.size() || seen[node]) {
      throw std::invalid_argument(
          "pin_hot: hot set contains an out-of-range or duplicate node (" +
          std::to_string(node) + ")");
    }
    seen[node] = true;
  }
  hot_map_.assign(map_.size(), kNoSlot);
  std::vector<SlotId> out;
  out.reserve(hot_nodes.size());
  for (NodeId node : hot_nodes) {
    const std::uint32_t slot = standby_.pop_lru();
    reverse_[slot] = node;
    Entry& e = map_[node];
    e.slot = static_cast<SlotId>(slot);
    e.pinned = true;
    hot_map_[node] = e.slot;
    out.push_back(e.slot);
  }
  hot_count_ = hot_nodes.size();
  publish_standby_locked();
  m_hot_slots_->set(static_cast<std::int64_t>(hot_count_));
  m_cold_slots_->set(static_cast<std::int64_t>(num_slots_ - hot_count_));
  return out;
}

void FeatureBuffer::seal_hot() {
  {
    std::lock_guard lock(mu_);
    for (NodeId node = 0; node < hot_map_.size(); ++node) {
      if (hot_map_[node] == kNoSlot) continue;
      GD_CHECK_MSG(map_[node].valid, "seal_hot before every pinned node "
                                     "was loaded and mark_valid()ed");
    }
  }
  // Release-store pairs with the acquire-load in hot_slot(): the fully
  // written hot_map_ is visible to any thread that observes sealed==true.
  hot_sealed_.store(true, std::memory_order_release);
}

void FeatureBuffer::record_hot_hits(std::uint64_t n, FbClient client) {
  if (n == 0) return;
  count_triage(client, kHot, n);
}

FeatureBuffer::Entry FeatureBuffer::entry(NodeId node) const {
  std::lock_guard lock(mu_);
  return map_[node];
}

NodeId FeatureBuffer::reverse(SlotId slot) const {
  std::lock_guard lock(mu_);
  return reverse_[static_cast<std::size_t>(slot)];
}

std::size_t FeatureBuffer::standby_size() const {
  std::lock_guard lock(mu_);
  return standby_.size();
}

FeatureBufferStats FeatureBuffer::stats() const {
  std::lock_guard lock(mu_);
  return FeatureBufferStats{.hot_hits = m_.view(kHot),
                            .reuse_hits = m_.view(kReuse),
                            .wait_hits = m_.view(kWait),
                            .loads = m_.view(kLoad),
                            .slot_waits = m_.view(kSlotWaits),
                            .failed_loads = m_.view(kFailedLoads),
                            .batch_lock_acquisitions = m_.view(kBatchLocks)};
}

FeatureBufferStats FeatureBuffer::stats(FbClient client) const {
  std::lock_guard lock(mu_);
  const CounterSet<kNumClientCounts>& c =
      m_client_[static_cast<std::size_t>(client)];
  return FeatureBufferStats{.hot_hits = c.view(kHot),
                            .reuse_hits = c.view(kReuse),
                            .wait_hits = c.view(kWait),
                            .loads = c.view(kLoad)};
}

}  // namespace gnndrive
