// io_uring-style ring: submission/completion plumbing, O_DIRECT alignment,
// buffered-mode page-cache interaction.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "aio/io_ring.hpp"
#include "util/rng.hpp"

namespace gnndrive {
namespace {

struct RingFixture : ::testing::Test {
  void SetUp() override {
    image = std::make_shared<MemBackend>(256 * 1024);
    Rng rng(11);
    for (std::uint64_t i = 0; i < image->size(); ++i) {
      image->raw()[i] = static_cast<std::uint8_t>(rng());
    }
    SsdConfig cfg;
    cfg.read_latency_us = 30.0;
    cfg.channels = 8;
    ssd = std::make_unique<SsdDevice>(cfg, image);
    mem = std::make_unique<HostMemory>(64 * kPageSize);
    cache = std::make_unique<PageCache>(*mem, *ssd);
  }
  std::shared_ptr<MemBackend> image;
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<HostMemory> mem;
  std::unique_ptr<PageCache> cache;
};

TEST_F(RingFixture, DirectReadDeliversData) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ASSERT_TRUE(ring.prep_read(1024, 512, buf, 42));
  EXPECT_EQ(ring.submit(), 1u);
  const Cqe cqe = ring.wait_cqe();
  EXPECT_EQ(cqe.user_data, 42u);
  EXPECT_EQ(cqe.res, 512);
  EXPECT_EQ(std::memcmp(buf, image->raw() + 1024, 512), 0);
}

TEST_F(RingFixture, DirectRejectsUnalignedOffset) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ring.prep_read(100, 512, buf, 1);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -22);
}

TEST_F(RingFixture, DirectRejectsUnalignedLength) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[600];
  ring.prep_read(512, 600, buf, 2);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -22);
}

TEST_F(RingFixture, QueueDepthLimitsStagedSqes) {
  IoRing ring(*ssd, {.queue_depth = 2, .direct = true});
  std::uint8_t buf[512];
  EXPECT_TRUE(ring.prep_read(0, 512, buf, 0));
  EXPECT_TRUE(ring.prep_read(512, 512, buf, 1));
  EXPECT_FALSE(ring.prep_read(1024, 512, buf, 2));  // SQ full
  EXPECT_EQ(ring.submit(), 2u);
  ring.wait_cqe();
  ring.wait_cqe();
}

TEST_F(RingFixture, ManyInFlightAllComplete) {
  IoRing ring(*ssd, {.queue_depth = 64, .direct = true});
  std::vector<std::uint8_t> bufs(64 * 512);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(ring.prep_read(i * 512, 512, bufs.data() + i * 512, i));
  }
  EXPECT_EQ(ring.submit(), 64u);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    const Cqe cqe = ring.wait_cqe();
    EXPECT_GE(cqe.res, 0);
    seen.insert(cqe.user_data);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(ring.in_flight(), 0u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(std::memcmp(bufs.data() + i * 512, image->raw() + i * 512, 512),
              0);
  }
}

TEST_F(RingFixture, AsyncDepthBeatsSerialLatency) {
  // 32 reads at depth 32 should take far less than 32 serial latencies —
  // the Appendix B observation that async depth replaces thread count.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "wall-clock latency bound; sanitizer slowdown distorts it";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "wall-clock latency bound; sanitizer slowdown distorts it";
#endif
#endif
  IoRing ring(*ssd, {.queue_depth = 32, .direct = true});
  std::vector<std::uint8_t> bufs(32 * 512);
  const TimePoint t0 = Clock::now();
  for (std::uint64_t i = 0; i < 32; ++i) {
    ring.prep_read(i * 4096, 512, bufs.data() + i * 512, i);
  }
  ring.submit();
  for (int i = 0; i < 32; ++i) ring.wait_cqe();
  const double elapsed = to_seconds(Clock::now() - t0);
  EXPECT_LT(elapsed, 32 * 30e-6);
}

TEST_F(RingFixture, BatchMixingBadAndValidSqesCompletesEachOnce) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true,
                     .max_transfer_bytes = 4096});
  std::vector<std::uint8_t> buf(8 * 8192);
  std::uint8_t* const b = buf.data();
  struct Case {
    std::uint64_t offset;
    std::uint32_t len;
    std::int32_t res;
  };
  const std::vector<Case> cases = {
      {0, 512, 512},            // valid
      {100, 512, -EINVAL},      // misaligned offset
      {8192, 8192, -EINVAL},    // over max_transfer_bytes
      {4096, 4096, 4096},       // valid, at the cap
      {16384, 600, -EINVAL},    // misaligned length
      {24576, 0, -EINVAL},      // zero length
      {32768, 1024, 1024},      // valid
  };
  for (std::uint64_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(ring.prep_read(cases[i].offset, cases[i].len, b + i * 8192,
                               i));
  }
  EXPECT_EQ(ring.submit(), cases.size());
  std::vector<Cqe> cqes;
  while (cqes.size() < cases.size()) {
    cqes.push_back(ring.wait_cqe());
    ring.peek_cqes(cqes);  // reap every other available CQE at once
  }
  EXPECT_EQ(cqes.size(), cases.size());
  std::set<std::uint64_t> seen;
  for (const Cqe& cqe : cqes) {
    ASSERT_LT(cqe.user_data, cases.size());
    seen.insert(cqe.user_data);
    const Case& c = cases[cqe.user_data];
    EXPECT_EQ(cqe.res, c.res) << "sqe " << cqe.user_data;
    if (c.res > 0) {
      EXPECT_EQ(std::memcmp(b + cqe.user_data * 8192, image->raw() + c.offset,
                            c.len),
                0);
    }
  }
  EXPECT_EQ(seen.size(), cases.size());
  EXPECT_EQ(ring.in_flight(), 0u);
  EXPECT_EQ(ring.peek_cqes(cqes), 0u);
}

TEST_F(RingFixture, PeekCqeNonBlocking) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  EXPECT_FALSE(ring.peek_cqe().has_value());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 5);
  ring.submit();
  ring.wait_cqe();  // ensure completion consumed
  EXPECT_FALSE(ring.peek_cqe().has_value());
}

TEST_F(RingFixture, DirectBypassesPageCache) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true}, cache.get());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 0);
  ring.submit();
  ring.wait_cqe();
  EXPECT_EQ(cache->resident_pages(), 0u);
}

TEST_F(RingFixture, BufferedPopulatesAndHitsPageCache) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = false}, cache.get());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 0);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 512);
  EXPECT_TRUE(cache->contains_page(0));
  const auto reads_before = ssd->stats().reads;

  // Second buffered read of the same range: served by the cache, no device
  // traffic, data still correct.
  std::uint8_t buf2[512];
  ring.prep_read(0, 512, buf2, 1);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 512);
  EXPECT_EQ(ssd->stats().reads, reads_before);
  EXPECT_EQ(std::memcmp(buf2, image->raw(), 512), 0);
}

TEST_F(RingFixture, BufferedAllowsUnalignedAccess) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = false}, cache.get());
  std::uint8_t buf[100];
  ring.prep_read(37, 100, buf, 7);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 100);
  EXPECT_EQ(std::memcmp(buf, image->raw() + 37, 100), 0);
}

TEST_F(RingFixture, MisalignedDirectReadNeverTouchesDevice) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  const auto reads_before = ssd->stats().reads;
  std::uint8_t buf[512];
  ring.prep_read(100, 512, buf, 9);  // unaligned offset
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -EINVAL);
  EXPECT_EQ(ssd->stats().reads, reads_before);  // rejected before submission
}

TEST_F(RingFixture, BufferedWithoutCacheIsAConstructorError) {
  EXPECT_THROW(IoRing(*ssd, {.queue_depth = 8, .direct = false}, nullptr),
               std::invalid_argument);
}

TEST_F(RingFixture, InjectedEioReachesWaitCqe) {
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 1.0;
  ssd->set_fault_config(faults);
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  std::memset(buf, 0x5A, sizeof(buf));
  ring.prep_read(0, 512, buf, 77);
  ring.submit();
  const Cqe cqe = ring.wait_cqe();
  EXPECT_EQ(cqe.user_data, 77u);
  EXPECT_EQ(cqe.res, -EIO);
  for (unsigned char b : buf) EXPECT_EQ(b, 0x5A);  // buffer untouched
  EXPECT_EQ(ring.in_flight(), 0u);
}

TEST_F(RingFixture, WaitCqeForTimesOutThenDelivers) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  // Nothing in flight: the bounded wait returns empty.
  EXPECT_FALSE(ring.wait_cqe_for(from_us(200.0)).has_value());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 3);
  ring.submit();
  std::optional<Cqe> cqe;
  for (int i = 0; i < 1000 && !cqe; ++i) cqe = ring.wait_cqe_for(from_us(500.0));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->user_data, 3u);
  EXPECT_EQ(cqe->res, 512);
}

TEST_F(RingFixture, WatchdogCancelsStuckRequestWithTimeout) {
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.stuck_probability = 1.0;
  ssd->set_fault_config(faults);
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  std::memset(buf, 0x6B, sizeof(buf));
  ring.prep_read(0, 512, buf, 11);
  ring.submit();
  const Duration req_timeout = from_us(2000.0);
  std::optional<Cqe> cqe;
  // Watchdog loop exactly as the extract stage runs it: bounded wait, then
  // an expiry sweep. The stuck request must surface as -ETIMEDOUT well
  // within a bounded number of polls.
  for (int i = 0; i < 100 && !cqe; ++i) {
    cqe = ring.wait_cqe_for(from_us(500.0));
    if (!cqe) ring.cancel_expired(req_timeout);
  }
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->user_data, 11u);
  EXPECT_EQ(cqe->res, -ETIMEDOUT);
  for (unsigned char b : buf) EXPECT_EQ(b, 0x6B);  // cancelled => untouched
  EXPECT_EQ(ring.in_flight(), 0u);
  EXPECT_EQ(ssd->stats().cancelled, 1u);
}

TEST_F(RingFixture, CancelExpiredLeavesFreshRequestsAlone) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 21);
  ring.submit();
  // A generous timeout must not cancel a request that was just submitted.
  EXPECT_EQ(ring.cancel_expired(from_us(1e6)), 0u);
  EXPECT_EQ(ring.wait_cqe().res, 512);
}

TEST_F(RingFixture, WatchdogIgnoresABacklogOfHealthyReads) {
  // One channel at 2 ms per read: 32 reads queue for ~64 ms, far past the
  // 20 ms timeout, yet no single read is in service for more than 2 ms. A
  // deep queue is not a stuck device, so the watchdog cancels nothing.
  SsdConfig cfg;
  cfg.read_latency_us = 2000.0;
  cfg.channels = 1;
  SsdDevice one_channel(cfg, image);
  constexpr unsigned kReads = 32;
  IoRing ring(one_channel, {.queue_depth = kReads, .direct = true});
  std::vector<std::uint8_t> bufs(kReads * 512);
  for (unsigned i = 0; i < kReads; ++i) {
    ASSERT_TRUE(ring.prep_read(i * 512, 512, bufs.data() + i * 512, i));
  }
  ASSERT_EQ(ring.submit(), kReads);
  const Duration req_timeout = from_us(20000.0);
  unsigned cancelled = 0;
  for (unsigned reaped = 0; reaped < kReads;) {
    const std::optional<Cqe> cqe = ring.wait_cqe_for(from_us(500.0));
    if (!cqe) {
      cancelled += ring.cancel_expired(req_timeout);
      continue;
    }
    EXPECT_EQ(cqe->res, 512) << "read " << cqe->user_data;
    ++reaped;
  }
  EXPECT_EQ(cancelled, 0u);
  EXPECT_EQ(one_channel.stats().cancelled, 0u);
  EXPECT_EQ(std::memcmp(bufs.data(), image->raw(), bufs.size()), 0);
}

TEST_F(RingFixture, WriteRoundTrip) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::vector<std::uint8_t> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  ring.prep_write(2048, 1024, data.data(), 0);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 1024);
  EXPECT_EQ(std::memcmp(image->raw() + 2048, data.data(), 1024), 0);
}

}  // namespace
}  // namespace gnndrive
