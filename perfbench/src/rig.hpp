// The benchmark's workloads and the environment each run builds: dataset
// spec, simulated SSD, host-memory budget, page cache, telemetry and the
// GNNDrive training system, wired the way the paper's experiments run them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench_math.hpp"
#include "core/pipeline.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// One named workload. Every workload trains and then serves, one phase
/// after the other; no workload serves while an epoch runs.
struct Workload {
  std::string name;
  std::uint32_t feature_dim = 128;
  double host_mem_gb = 32.0;        ///< paper-GB (1 GB = 2 MiB here)
  double train_share = 0.5;         ///< of --seconds spent on timed epochs
  std::uint32_t min_epochs = 1;     ///< timed epochs, whatever the time
  std::uint32_t min_requests = 0;   ///< served requests, whatever the time
};

/// train-io, train-memtight or serve-closed; throws std::invalid_argument
/// for any other name.
Workload workload_by_name(const std::string& name);

/// papers100m-mini at the workload's feature dimension with the 0.25
/// training split (153 batches of 4 seeds). The dataset is part of the
/// workload's definition and does not depend on --seed.
gnndrive::DatasetSpec dataset_spec(const Workload& w);

/// GNNDrive-GPU GraphSAGE with the paper's defaults (4 samplers, 4
/// extractors, coalescing on, LRU feature buffer); the batch order and the
/// sampler draw from `seed`.
gnndrive::GnnDriveConfig train_config(std::uint64_t seed);

/// Serving front end used by every workload: 2 workers, micro-batches of
/// up to 8 requests within 300 us, and no deadline, so every request is
/// served and its latency is measured in full.
gnndrive::ServeConfig serve_config();

/// Fresh device, memory budget, page cache, telemetry and system over a
/// built dataset. Members are declared so that the system is destroyed
/// first and the telemetry every component reports into last.
struct Rig {
  std::unique_ptr<gnndrive::Telemetry> telemetry;
  std::unique_ptr<gnndrive::SsdDevice> ssd;
  std::unique_ptr<gnndrive::HostMemory> mem;
  std::unique_ptr<gnndrive::PageCache> cache;
  gnndrive::RunContext ctx;
  std::unique_ptr<gnndrive::GnnDrive> system;

  gnndrive::MetricsRegistry& registry() { return *telemetry->metrics(); }
};

std::unique_ptr<Rig> make_rig(const gnndrive::Dataset& dataset,
                              double host_mem_gb,
                              const gnndrive::GnnDriveConfig& config);

}  // namespace perfbench
