// Common interface for the four trainable systems (GNNDrive and the three
// baselines), so benches can sweep them uniformly.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "graph/dataset.hpp"
#include "gnn/model.hpp"
#include "memsim/host_memory.hpp"
#include "memsim/page_cache.hpp"
#include "obs/stage_meter.hpp"
#include "sampling/sampler.hpp"
#include "storage/ssd.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

/// Per-experiment environment: one dataset image, one simulated SSD, one
/// host-memory budget and one OS page cache shared by whatever system runs.
struct RunContext {
  const Dataset* dataset = nullptr;
  SsdDevice* ssd = nullptr;
  HostMemory* host_mem = nullptr;
  PageCache* page_cache = nullptr;
  Telemetry* telemetry = nullptr;  ///< optional
};

/// `ctx`, or — when it carries no telemetry — `ctx` with a telemetry created
/// in `own`. GNNDrive and the serve engine run on the result, so their
/// instruments and stage meters are never null.
inline RunContext with_telemetry(RunContext ctx,
                                 std::unique_ptr<Telemetry>& own) {
  if (ctx.telemetry == nullptr) {
    own = std::make_unique<Telemetry>();
    ctx.telemetry = own.get();
  }
  return ctx;
}

/// Structured fault/recovery summary for one epoch. All-zero on a clean
/// epoch; populated instead of hanging or aborting when the storage layer
/// injects (or a real backend produces) I/O failures.
struct EpochResult {
  std::uint64_t failed_batches = 0;  ///< abandoned after exhausting retries
  std::uint64_t trained_batches = 0; ///< batches that reached the trainer
  std::uint64_t io_errors = 0;       ///< error CQEs observed (EIO, timeouts)
  std::uint64_t io_retries = 0;      ///< reads re-submitted after a failure
  std::uint64_t io_recovered = 0;    ///< reads that succeeded after >=1 retry
  std::uint64_t io_timeouts = 0;     ///< requests cancelled by the watchdog
  bool ok() const { return failed_batches == 0; }
};

/// End-of-epoch observability report (see docs/observability.md). Populated
/// by the GNNDrive pipeline on every epoch — the per-batch histograms behind
/// it are relaxed atomics, cheap enough to keep always-on.
struct EpochObs {
  StageLatency sample, extract, train, release;
  std::uint64_t extract_q_max = 0;  ///< deepest the extracting queue got
  std::uint64_t train_q_max = 0;
  std::uint64_t release_q_max = 0;
  std::uint64_t fb_hot_hits = 0;    ///< pinned hot-partition hits this epoch
  std::uint64_t fb_reuse_hits = 0;  ///< feature-buffer reuse hits this epoch
  std::uint64_t fb_wait_hits = 0;   ///< nodes found in-flight this epoch
  std::uint64_t fb_loads = 0;       ///< nodes loaded from SSD this epoch
  std::uint64_t io_segments = 0;    ///< coalesced feature reads issued
  std::uint64_t io_rows = 0;        ///< feature rows delivered by those reads
  /// Mean feature rows per SSD read (1.0 with coalescing off).
  double rows_per_read() const {
    return io_segments > 0 ? static_cast<double>(io_rows) /
                                 static_cast<double>(io_segments)
                           : 0.0;
  }
  /// (hot + reuse + wait) / (hot + reuse + wait + loads); 0 when no lookups
  /// happened.
  double fb_hit_rate() const {
    const double hits = static_cast<double>(fb_hot_hits) +
                        static_cast<double>(fb_reuse_hits) +
                        static_cast<double>(fb_wait_hits);
    const double total = hits + static_cast<double>(fb_loads);
    return total > 0 ? hits / total : 0.0;
  }

  /// Multi-line printable summary for benches and examples.
  std::string format() const {
    std::string out = sample.row("sample") + extract.row("extract") +
                      train.row("train") + release.row("release");
    char line[192];
    std::snprintf(line, sizeof(line),
                  "  queues   extract_q max=%llu train_q max=%llu "
                  "release_q max=%llu\n",
                  static_cast<unsigned long long>(extract_q_max),
                  static_cast<unsigned long long>(train_q_max),
                  static_cast<unsigned long long>(release_q_max));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  fbuffer  hit-rate=%.1f%% (hot=%llu reuse=%llu wait=%llu "
                  "loads=%llu)\n",
                  100.0 * fb_hit_rate(),
                  static_cast<unsigned long long>(fb_hot_hits),
                  static_cast<unsigned long long>(fb_reuse_hits),
                  static_cast<unsigned long long>(fb_wait_hits),
                  static_cast<unsigned long long>(fb_loads));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  coalesce reads=%llu rows=%llu rows/read=%.2f\n",
                  static_cast<unsigned long long>(io_segments),
                  static_cast<unsigned long long>(io_rows), rows_per_read());
    out += line;
    return out;
  }
};

/// Per-epoch outcome. Stage seconds are summed over batches (and threads),
/// so with pipelining their sum can exceed the wall-clock epoch time.
struct EpochStats {
  double epoch_seconds = 0.0;   ///< wall time of the epoch
  double prep_seconds = 0.0;    ///< data preparation (MariusGNN only)
  double sample_seconds = 0.0;  ///< summed sample-stage time
  double extract_seconds = 0.0; ///< summed extract-stage time
  double train_seconds = 0.0;   ///< summed train-stage time
  double loss = 0.0;            ///< mean training loss over the epoch
  double train_accuracy = 0.0;  ///< mini-batch argmax accuracy
  std::uint64_t batches = 0;
  /// True when the epoch drained early because request_stop() was called;
  /// the cursor then points at the first untrained batch of this epoch.
  bool interrupted = false;
  /// Per-trained-batch losses in training order, filled only when
  /// GnnDriveConfig::record_batch_losses is set (crash-matrix tests compare
  /// these trajectories across interrupted and uninterrupted runs).
  std::vector<double> batch_losses;
  EpochResult result;           ///< fault/recovery summary (zero when clean)
  EpochObs obs;                 ///< latency/queue/buffer report (GNNDrive)
};

/// Knobs shared by every system (the paper's common experimental setup).
struct CommonTrainConfig {
  ModelConfig model;
  SamplerConfig sampler;          ///< fanouts (10,10,10); (10,10,5) for GAT
  std::uint32_t batch_seeds = 8;  ///< paper mini-batch 1000 / kBatchScale
  AdamConfig adam;
  bool sample_only = false;       ///< Fig. 2 "-only" mode: skip extract+train
  std::uint64_t run_seed = 99;
};

class TrainSystem {
 public:
  virtual ~TrainSystem() = default;
  virtual const char* name() const = 0;
  virtual EpochStats run_epoch(std::uint64_t epoch) = 0;
  /// Validation accuracy with the current parameters (off the clock).
  virtual double evaluate() = 0;
};

}  // namespace gnndrive
