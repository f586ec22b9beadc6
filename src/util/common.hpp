// Basic shared definitions used across all GNNDrive subsystems.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gnndrive {

using NodeId = std::uint32_t;   ///< Graph node identifier.
using EdgeId = std::uint64_t;   ///< Edge index into CSC arrays.
using SlotId = std::int64_t;    ///< Feature-buffer slot index; -1 == none.

inline constexpr SlotId kNoSlot = -1;
inline constexpr std::uint32_t kSectorSize = 512;  ///< Direct-I/O granularity.
inline constexpr std::uint32_t kPageSize = 4096;   ///< Simulated OS page size.

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

/// Seconds represented as double, for reporting.
inline double to_seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double to_ms(Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline std::uint64_t elapsed_ns(TimePoint begin, TimePoint end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}
inline Duration from_us(double us) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::micro>(us));
}

/// Thrown when a simulated allocation exceeds the configured budget.
/// Mirrors the OOM failures the paper reports for Ginex / MariusGNN / PyG+.
class SimOutOfMemory : public std::runtime_error {
 public:
  explicit SimOutOfMemory(const std::string& what)
      : std::runtime_error(what) {}
};

/// Unrecoverable internal error; invariants are checked with GD_CHECK.
[[noreturn]] inline void fatal(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "FATAL %s:%d: %s\n", file, line, msg);
  std::abort();
}

#define GD_CHECK(cond)                                        \
  do {                                                        \
    if (!(cond)) ::gnndrive::fatal(__FILE__, __LINE__, #cond); \
  } while (0)

#define GD_CHECK_MSG(cond, msg)                               \
  do {                                                        \
    if (!(cond)) ::gnndrive::fatal(__FILE__, __LINE__, msg);  \
  } while (0)

// Debug-build-only invariant checks: compiled out under NDEBUG so they can
// sit on hot paths (per-node refcount bookkeeping) without release cost.
#ifndef NDEBUG
#define GD_DCHECK(cond) GD_CHECK(cond)
#define GD_DCHECK_MSG(cond, msg) GD_CHECK_MSG(cond, msg)
#else
#define GD_DCHECK(cond) \
  do {                  \
  } while (0)
#define GD_DCHECK_MSG(cond, msg) \
  do {                           \
  } while (0)
#endif

/// Rounds `v` up to a multiple of `align` (power of two not required).
constexpr std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
constexpr std::uint64_t round_down(std::uint64_t v, std::uint64_t align) {
  return v / align * align;
}
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

struct NonCopyable {
  NonCopyable() = default;
  NonCopyable(const NonCopyable&) = delete;
  NonCopyable& operator=(const NonCopyable&) = delete;
};

}  // namespace gnndrive
