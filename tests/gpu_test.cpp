// Simulated GPU: device-memory accounting, asynchronous copy engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "gpu/gpu.hpp"

namespace gnndrive {
namespace {

GpuConfig small_cfg() {
  GpuConfig cfg;
  cfg.device_memory_bytes = 1 << 20;
  cfg.pcie_bandwidth_mb_s = 1000.0;
  cfg.copy_overhead_us = 50.0;
  return cfg;
}

TEST(Gpu, AllocFreeAccounting) {
  GpuDevice gpu(small_cfg());
  gpu.alloc(1000, "a");
  EXPECT_EQ(gpu.allocated(), 1000u);
  gpu.free(1000);
  EXPECT_EQ(gpu.allocated(), 0u);
}

TEST(Gpu, OverCommitThrowsDeviceOOM) {
  GpuDevice gpu(small_cfg());
  gpu.alloc(900 * 1024, "big");
  EXPECT_THROW(gpu.alloc(200 * 1024, "more"), SimOutOfMemory);
}

TEST(Gpu, DeviceAllocRaii) {
  GpuDevice gpu(small_cfg());
  {
    DeviceAlloc a(gpu, 4096, "scoped");
    EXPECT_EQ(gpu.allocated(), 4096u);
  }
  EXPECT_EQ(gpu.allocated(), 0u);
}

TEST(Gpu, AsyncCopyMovesData) {
  GpuDevice gpu(small_cfg());
  std::vector<std::uint8_t> src(4096, 0x5A);
  std::vector<std::uint8_t> dst(4096, 0);
  std::atomic<bool> done{false};
  gpu.memcpy_h2d_async(dst.data(), src.data(), 4096, [&] { done = true; });
  gpu.sync();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
}

TEST(Gpu, SyncCopyTakesModeledTime) {
  GpuDevice gpu(small_cfg());
  std::vector<std::uint8_t> src(512 * 1024);
  std::vector<std::uint8_t> dst(512 * 1024);
  const TimePoint t0 = Clock::now();
  gpu.memcpy_h2d_sync(dst.data(), src.data(), src.size());
  const double elapsed = to_seconds(Clock::now() - t0);
  // 512 KiB at 1000 MB/s = ~512 us, plus 50 us overhead.
  EXPECT_GE(elapsed, 500e-6);
}

TEST(Gpu, CopiesSerializeOnDmaEngine) {
  GpuDevice gpu(small_cfg());
  std::vector<std::uint8_t> buf(512);
  const TimePoint t0 = Clock::now();
  for (int i = 0; i < 8; ++i) {
    gpu.memcpy_h2d_async(buf.data(), buf.data() + 0, 0, nullptr);
  }
  gpu.sync();
  // 8 copies x 50 us launch overhead on one engine.
  EXPECT_GE(to_seconds(Clock::now() - t0), 8 * 50e-6 * 0.9);
}

TEST(Gpu, ScatterCopyLandsEveryRowWithOneCallback) {
  GpuDevice gpu(small_cfg());
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kRowBytes = 96;
  std::vector<std::uint8_t> src(kRows * kRowBytes);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // Rows land in reverse order, every other destination row left alone.
  std::vector<std::uint8_t> dst(2 * kRows * kRowBytes, 0xEE);
  std::vector<GpuDevice::H2dPart> parts;
  for (std::size_t r = 0; r < kRows; ++r) {
    parts.push_back({dst.data() + 2 * (kRows - 1 - r) * kRowBytes,
                     src.data() + r * kRowBytes, kRowBytes});
  }
  std::atomic<int> callbacks{0};
  const TimePoint t0 = Clock::now();
  gpu.memcpy_h2d_scatter_async(std::move(parts), [&] { ++callbacks; });
  gpu.sync();
  // The job is charged every part's overhead: 8 x 50 us on one engine.
  EXPECT_GE(to_seconds(Clock::now() - t0), kRows * 50e-6 * 0.9);
  EXPECT_EQ(callbacks.load(), 1);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(std::memcmp(dst.data() + 2 * (kRows - 1 - r) * kRowBytes,
                          src.data() + r * kRowBytes, kRowBytes),
              0)
        << "row " << r;
    for (std::size_t k = 0; k < kRowBytes; ++k) {
      ASSERT_EQ(dst[(2 * r + 1) * kRowBytes + k], 0xEE) << "gap row " << r;
    }
  }
}

TEST(Gpu, ChargeOnlyCopyHasNoDataMovement) {
  GpuDevice gpu(small_cfg());
  const TimePoint t0 = Clock::now();
  gpu.charge_h2d_sync(100 * 1024);
  EXPECT_GE(to_seconds(Clock::now() - t0), 100e-6);
}

TEST(Gpu, LaunchRunsInline) {
  GpuDevice gpu(small_cfg());
  int x = 0;
  gpu.launch([&] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST(Gpu, TelemetryRecordsGpuBusy) {
  Telemetry tel(10.0);
  tel.start();
  GpuDevice gpu(small_cfg(), &tel);
  gpu.launch([] {
    const TimePoint until = Clock::now() + std::chrono::milliseconds(5);
    while (Clock::now() < until) {
    }
  });
  EXPECT_GT(tel.total_seconds(TraceCat::kGpuBusy), 4e-3);
}

}  // namespace
}  // namespace gnndrive
