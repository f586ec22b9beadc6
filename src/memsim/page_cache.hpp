// Simulated OS page cache.
//
// Buffered (non-direct) access to the simulated SSD goes through this cache:
// 4 KiB pages, LRU replacement, capacity = host budget minus pinned bytes.
// A miss performs a synchronous modeled device read (the faulting thread
// really blocks, and the wait is attributed to TraceCat::kIoWait); a hit is
// served from the backing image directly.
//
// This cache is the arena where the paper's memory contention plays out:
// PyG+ memory-maps both topology and features through it, so feature traffic
// evicts topology pages and sampling slows down; GNNDrive reads features with
// direct I/O and leaves the cache to topology alone.
#pragma once

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "memsim/host_memory.hpp"
#include "storage/ssd.hpp"
#include "util/common.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

/// A view of the pagecache.* registry counters: their growth since the
/// cache was built or last reset_stats().
struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double hit_ratio() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class PageCache : NonCopyable {
 public:
  /// The cache sizes itself dynamically from `mem.available()`; it pins
  /// nothing itself. `telemetry` may be null: the cache then counts into a
  /// private registry.
  PageCache(HostMemory& mem, SsdDevice& ssd, Telemetry* telemetry = nullptr);

  /// Copies `len` bytes at device offset `offset` into `dst`, faulting the
  /// covering pages through the modeled device as needed.
  void read(std::uint64_t offset, std::uint64_t len, void* dst);

  /// Ensures the covering pages are resident without copying data out
  /// (read-ahead / warm-up helper).
  void prefetch(std::uint64_t offset, std::uint64_t len);

  /// If every covering page is resident, copies the bytes out (counting
  /// hits, touching LRU) and returns true; otherwise counts misses and
  /// returns false with `dst` untouched. Used by asynchronous buffered I/O.
  bool try_read_resident(std::uint64_t offset, std::uint64_t len, void* dst);

  /// Marks the covering pages resident without charging device time (the
  /// caller already performed the device read, e.g. an async buffered fault).
  void note_resident(std::uint64_t offset, std::uint64_t len);

  /// Drops every cached page (used between experiment runs).
  void invalidate_all();

  bool contains_page(std::uint64_t page_no) const;
  std::uint64_t resident_pages() const;
  std::uint64_t capacity_pages() const;
  /// Counts since construction or the last reset_stats(), read from the
  /// pagecache.* registry counters (which never go backwards).
  PageCacheStats stats() const;
  void reset_stats();

 private:
  /// Makes `page_no` resident; returns true on hit. Called with mu_ held;
  /// may release and re-acquire it around the device read.
  bool fault_page(std::unique_lock<std::mutex>& lock, std::uint64_t page_no);
  void evict_to_capacity_locked();

  HostMemory& mem_;
  SsdDevice& ssd_;
  Telemetry* telemetry_;  ///< I/O-wait tracing only; may be null
  /// The cache's counters (the pagecache.* ones feed the attributor's
  /// thrash diagnosis), in the telemetry's registry or own_registry_.
  /// kFaultWaitUs is the wall time callers spent blocked in fault_page
  /// (device reads + waits on another thread's load): the attributor reads
  /// its windowed delta as the cache's stall cost.
  enum Count : std::size_t {
    kHits, kMisses, kEvictions, kFaultWaitUs, kIoErrors, kIoRetries, kNumCounts
  };
  std::unique_ptr<MetricsRegistry> own_registry_;
  CounterSet<kNumCounts> m_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  // LRU: map page -> iterator into list (list front == LRU).
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      resident_;
  std::unordered_set<std::uint64_t> loading_;
};

}  // namespace gnndrive
