#include "rig.hpp"

#include <stdexcept>

namespace perfbench {

using namespace gnndrive;

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "train-io") {
    // Extraction-bound: 512 B rows, every cache warm after one epoch.
    w.train_share = 0.6;
    w.min_epochs = 3;
    w.min_requests = 2000;
  } else if (name == "train-memtight") {
    // The paper's memory-contention regime: 2 KiB rows in an 8 GB budget,
    // so the sampler faults topology pages through a thrashing page cache.
    w.feature_dim = 512;
    w.host_mem_gb = 8.0;
    w.train_share = 0.6;
    w.min_epochs = 3;
    w.min_requests = 2000;
  } else if (name == "serve-closed") {
    // One steady epoch, then the measured time goes to serving.
    w.train_share = 0.0;
    w.min_epochs = 1;
    w.min_requests = 3000;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

DatasetSpec dataset_spec(const Workload& w) {
  DatasetSpec spec = mini_spec("papers100m", w.feature_dim);
  spec.train_fraction *= 0.25;
  return spec;
}

GnnDriveConfig train_config(std::uint64_t seed) {
  GnnDriveConfig cfg;
  CommonTrainConfig& c = cfg.common;
  c.model.kind = ModelKind::kSage;
  c.model.hidden_dim = 32;
  c.sampler.fanouts = {10, 10, 10};
  c.sampler.seed = derive_seed(seed, "sampler");
  c.batch_seeds = 4;
  c.run_seed = derive_seed(seed, "batch_order");
  cfg.gpu.device_memory_bytes = paper_gb(24.0);
  return cfg;
}

ServeConfig serve_config() {
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 256;
  cfg.max_batch = 8;
  cfg.max_wait_us = 300.0;
  cfg.slo.deadline_ms = 0.0;
  return cfg;
}

std::unique_ptr<Rig> make_rig(const Dataset& dataset, double host_mem_gb,
                              const GnnDriveConfig& config) {
  auto rig = std::make_unique<Rig>();
  rig->telemetry = std::make_unique<Telemetry>(100.0);
  rig->ssd = dataset.make_device(SsdConfig{});
  rig->ssd->set_telemetry(rig->telemetry.get());
  rig->mem = std::make_unique<HostMemory>(paper_gb(host_mem_gb));
  rig->cache = std::make_unique<PageCache>(*rig->mem, *rig->ssd,
                                           rig->telemetry.get());
  rig->ctx = RunContext{&dataset, rig->ssd.get(), rig->mem.get(),
                        rig->cache.get(), rig->telemetry.get()};
  rig->system = std::make_unique<GnnDrive>(rig->ctx, config);
  return rig;
}

}  // namespace perfbench
