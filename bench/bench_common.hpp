// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper. This
// header provides the scaled experimental setup of Sect. 5 ("Platform",
// "GNN Models", "Datasets", "Baselines"):
//   * datasets      — papers100m/twitter/friendster/mag240m at mini scale;
//   * environment   — simulated SSD, host-memory budget in paper-"GB"
//                     (1 GB = 2 MiB here), shared OS page cache, telemetry;
//   * systems       — GNNDrive-GPU/CPU, PyG+, Ginex, MariusGNN with the
//                     paper's default knobs (4 samplers, 4 extractors,
//                     queue caps 6/4, Ginex superbatch, Marius partitions);
//   * models        — GraphSAGE/GCN (10,10,10), GAT (10,10,5), 3 layers.
//
// GNNDRIVE_BENCH_MODE=full runs the complete sweeps; the default "quick"
// mode runs a representative subset so `for b in build/bench/*` finishes in
// minutes on one core. Scaled parameters are echoed in each header line.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "baselines/ginex.hpp"
#include "baselines/mariusgnn.hpp"
#include "baselines/pygplus.hpp"
#include "core/multi_gpu.hpp"
#include "core/pipeline.hpp"
#include "util/env.hpp"

namespace gnndrive::bench {

/// Paper default host memory: 32 GB.
inline constexpr double kDefaultMemGB = 32.0;
/// Paper default GPU memory: 24 GB (RTX 3090).
inline constexpr double kDefaultGpuGB = 24.0;
/// Paper default mini-batch: 1000 (scaled by kBatchScale = 250 -> 4 seeds).
inline constexpr std::uint32_t kDefaultBatchSeeds = 4;

/// Default SSD model (SATA-class PM883 stand-in).
inline SsdConfig default_ssd() {
  SsdConfig cfg;
  cfg.read_latency_us = 80.0;
  cfg.write_latency_us = 25.0;
  cfg.bandwidth_mb_s = 2000.0;
  cfg.channels = 16;
  return cfg;
}

/// Builds (and caches) a dataset. Quick mode shrinks the training split so
/// a PyG+ epoch stays in the tens of seconds on one core.
const Dataset& get_dataset(const std::string& name, std::uint32_t dim = 0);

/// One experiment's environment: fresh device/memory/cache over the shared
/// dataset image.
struct Env {
  const Dataset* dataset = nullptr;
  std::unique_ptr<Telemetry> telemetry;  ///< first: destroyed last
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<HostMemory> mem;
  std::unique_ptr<PageCache> cache;
  RunContext ctx;
};

Env make_env(const Dataset& dataset, double mem_gb = kDefaultMemGB,
             const SsdConfig& ssd_cfg = default_ssd(),
             bool with_telemetry = false);

/// Paper-default common training config for a model on a dataset.
CommonTrainConfig common_config(ModelKind kind);

/// System factory. Names: "GNNDrive-GPU", "GNNDrive-CPU", "PyG+", "Ginex",
/// "MariusGNN". May throw SimOutOfMemory (callers report OOM rows).
std::unique_ptr<TrainSystem> make_system(const std::string& name, Env& env,
                                         const CommonTrainConfig& common);

/// Runs `epochs` epochs and returns the mean stats (per-field mean).
EpochStats mean_epochs(TrainSystem& system, int epochs,
                       std::uint64_t first_epoch = 0);

/// Number of measured epochs per configuration (1 quick / 3 full).
inline int measure_epochs() { return bench_full_mode() ? 3 : 1; }

/// Prints the standard bench banner.
void print_banner(const char* experiment, const char* description);

}  // namespace gnndrive::bench
