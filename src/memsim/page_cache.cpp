#include "memsim/page_cache.hpp"

#include "obs/metrics.hpp"

#include <list>
#include <stdexcept>
#include <vector>

namespace gnndrive {

PageCache::PageCache(HostMemory& mem, SsdDevice& ssd, Telemetry* telemetry)
    : mem_(mem), ssd_(ssd), telemetry_(telemetry),
      m_(registry_or_own(telemetry, own_registry_),
         {"pagecache.hits", "pagecache.misses", "pagecache.evictions",
          "pagecache.fault_wait_us",
          fault_counter_name(FaultCounter::kIoErrors),
          fault_counter_name(FaultCounter::kIoRetries)}) {}

std::uint64_t PageCache::capacity_pages() const {
  return mem_.available() / kPageSize;
}

std::uint64_t PageCache::resident_pages() const {
  std::lock_guard lock(mu_);
  return resident_.size();
}

bool PageCache::contains_page(std::uint64_t page_no) const {
  std::lock_guard lock(mu_);
  return resident_.count(page_no) != 0;
}

PageCacheStats PageCache::stats() const {
  std::lock_guard lock(mu_);
  return PageCacheStats{.hits = m_.view(kHits),
                        .misses = m_.view(kMisses),
                        .evictions = m_.view(kEvictions)};
}

void PageCache::reset_stats() {
  std::lock_guard lock(mu_);
  m_.rebase();
}

void PageCache::invalidate_all() {
  std::unique_lock lock(mu_);
  load_done_.wait(lock, [&] { return loading_.empty(); });
  resident_.clear();
  lru_.clear();
}

void PageCache::evict_to_capacity_locked() {
  const std::uint64_t cap = capacity_pages();
  while (resident_.size() > cap && !lru_.empty()) {
    const std::uint64_t victim = lru_.front();
    lru_.pop_front();
    resident_.erase(victim);
    m_[kEvictions].add();
  }
}

bool PageCache::fault_page(std::unique_lock<std::mutex>& lock,
                           std::uint64_t page_no) {
  auto it = resident_.find(page_no);
  if (it != resident_.end()) {
    // Hit: move to MRU position.
    lru_.splice(lru_.end(), lru_, it->second);
    m_[kHits].add();
    return true;
  }
  if (loading_.count(page_no) != 0) {
    // Another thread is faulting the same page: wait, like a real page fault
    // on a locked page. Attributed as a miss for this caller.
    m_[kMisses].add();
    ScopedTrace trace(telemetry_, TraceCat::kIoWait);
    const TimePoint wait_t0 = Clock::now();
    load_done_.wait(lock, [&] { return loading_.count(page_no) == 0; });
    m_[kFaultWaitUs].add(static_cast<std::uint64_t>(
        to_seconds(Clock::now() - wait_t0) * 1e6));
    auto again = resident_.find(page_no);
    if (again != resident_.end()) {
      lru_.splice(lru_.end(), lru_, again->second);
    }
    return false;
  }
  m_[kMisses].add();
  loading_.insert(page_no);
  lock.unlock();
  const TimePoint fault_t0 = Clock::now();
  {
    // Synchronous modeled device read. The page content itself stays in the
    // backend (shared RAM image); the device read charges the latency and
    // bandwidth. A page-sized scratch absorbs the DMA.
    ScopedTrace trace(telemetry_, TraceCat::kIoWait);
    alignas(64) std::uint8_t scratch[kPageSize];
    const std::uint64_t dev_size = ssd_.backend().size();
    const std::uint64_t off = page_no * kPageSize;
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kPageSize, dev_size - off));
    // Transient device errors (fault injection, real errno) retry a few
    // times like the kernel's readpage path; a persistent failure surfaces
    // as an exception the pipeline's error capture turns into a clean stop.
    std::int32_t res = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
      res = ssd_.read_sync(off, len, scratch);
      if (res >= 0) break;
      m_[kIoErrors].add();
      if (attempt < 3) m_[kIoRetries].add();
    }
    if (res < 0) {
      lock.lock();
      loading_.erase(page_no);
      load_done_.notify_all();
      throw std::runtime_error("PageCache: device read failed after retries");
    }
  }
  m_[kFaultWaitUs].add(static_cast<std::uint64_t>(
      to_seconds(Clock::now() - fault_t0) * 1e6));
  lock.lock();
  loading_.erase(page_no);
  resident_[page_no] = lru_.insert(lru_.end(), page_no);
  evict_to_capacity_locked();
  load_done_.notify_all();
  return false;
}

void PageCache::read(std::uint64_t offset, std::uint64_t len, void* dst) {
  GD_CHECK(offset + len <= ssd_.backend().size());
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  {
    std::unique_lock lock(mu_);
    for (std::uint64_t p = first; p <= last; ++p) fault_page(lock, p);
  }
  // Data comes straight from the backing image (equivalent to reading the
  // now-resident cache pages).
  ssd_.backend().read(offset, static_cast<std::uint32_t>(len), dst);
}

bool PageCache::try_read_resident(std::uint64_t offset, std::uint64_t len,
                                  void* dst) {
  GD_CHECK(offset + len <= ssd_.backend().size());
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  {
    std::lock_guard lock(mu_);
    for (std::uint64_t p = first; p <= last; ++p) {
      if (resident_.find(p) == resident_.end()) {
        m_[kMisses].add();
        return false;
      }
    }
    for (std::uint64_t p = first; p <= last; ++p) {
      auto it = resident_.find(p);
      lru_.splice(lru_.end(), lru_, it->second);
      m_[kHits].add();
    }
  }
  ssd_.backend().read(offset, static_cast<std::uint32_t>(len), dst);
  return true;
}

void PageCache::note_resident(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  std::lock_guard lock(mu_);
  for (std::uint64_t p = first; p <= last; ++p) {
    auto it = resident_.find(p);
    if (it != resident_.end()) {
      lru_.splice(lru_.end(), lru_, it->second);
    } else {
      resident_[p] = lru_.insert(lru_.end(), p);
    }
  }
  evict_to_capacity_locked();
}

void PageCache::prefetch(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  std::unique_lock lock(mu_);
  for (std::uint64_t p = first; p <= last; ++p) fault_page(lock, p);
}

}  // namespace gnndrive
