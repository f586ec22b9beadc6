// Google-benchmark microbenchmarks for GNNDrive's core data structures:
// the feature-buffer manager, the pipeline queue, the I/O ring over the
// SSD model, the copy engine, the neighbor sampler and the NN kernels.
// These quantify that the buffer-management overhead the paper's Fig. 12
// discussion mentions ("a larger feature buffer incurs more overhead in
// management, such as updating the standby list") stays in the nanosecond
// range, and give the substrate's per-SQE and per-row host cost.
#include <benchmark/benchmark.h>

#include "aio/io_ring.hpp"
#include "core/evaluate.hpp"
#include "core/feature_buffer.hpp"
#include "gnn/model.hpp"
#include "gpu/gpu.hpp"
#include "graph/dataset.hpp"
#include "sampling/sampler.hpp"
#include "util/queue.hpp"

namespace gnndrive {
namespace {

void BM_FeatureBufferCheckAndRef(benchmark::State& state) {
  FeatureBufferConfig cfg;
  cfg.num_slots = static_cast<std::uint64_t>(state.range(0));
  cfg.row_floats = 4;
  FeatureBuffer fb(cfg, 100000);
  // Pre-populate: all slots valid, retired to standby.
  for (NodeId v = 0; v < cfg.num_slots; ++v) {
    fb.check_and_ref(v);
    fb.allocate_slot(v);
    fb.mark_valid(v);
    fb.release_one(v);
  }
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fb.check_and_ref(v));
    fb.release_one(v);
    v = (v + 1) % static_cast<NodeId>(cfg.num_slots);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureBufferCheckAndRef)->Arg(1024)->Arg(65536);

void BM_FeatureBufferAllocateCycle(benchmark::State& state) {
  constexpr NodeId kNodes = 1 << 20;
  FeatureBufferConfig cfg;
  cfg.num_slots = 4096;
  cfg.row_floats = 4;
  FeatureBuffer fb(cfg, kNodes);
  NodeId v = 0;
  for (auto _ : state) {
    // Walk nodes round-robin: with 1M nodes vs 4k slots almost every visit
    // is a full miss + LRU-reuse path; the rare wrap-around hit (node still
    // resident) takes the reuse path instead.
    const auto r = fb.check_and_ref(v);
    if (r.status == FeatureBuffer::CheckStatus::kMustLoad) {
      benchmark::DoNotOptimize(fb.allocate_slot(v));
      fb.mark_valid(v);
    }
    fb.release_one(v);
    v = (v + 1) % kNodes;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureBufferAllocateCycle);

void BM_BoundedQueuePingPong(benchmark::State& state) {
  BoundedQueue<std::uint64_t> q(16);
  std::thread consumer([&] {
    while (q.pop().has_value()) {
    }
  });
  std::uint64_t i = 0;
  for (auto _ : state) q.push(i++);
  q.close();
  consumer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedQueuePingPong);

// Host cost of one ring round trip: stage `range(0)` 512 B reads, submit
// them, reap every CQE. The device model is near-instant (1 us base
// latency, 32 channels), so the time is the ring's and the device thread's.
void BM_IoRingSubmitReap(benchmark::State& state) {
  const auto depth = static_cast<unsigned>(state.range(0));
  SsdConfig cfg;
  cfg.read_latency_us = 1.0;
  cfg.bandwidth_mb_s = 1e6;
  cfg.channels = 32;
  SsdDevice ssd(cfg, std::make_shared<MemBackend>(depth * kSectorSize));
  IoRing ring(ssd, {.queue_depth = depth, .direct = true});
  std::vector<std::uint8_t> buf(depth * kSectorSize);
  std::vector<Cqe> cqes;
  cqes.reserve(depth);
  for (auto _ : state) {
    for (unsigned i = 0; i < depth; ++i) {
      ring.prep_read(i * kSectorSize, kSectorSize,
                     buf.data() + i * kSectorSize, i);
    }
    ring.submit();
    cqes.clear();
    while (cqes.size() < depth) {
      cqes.push_back(ring.wait_cqe());
      ring.peek_cqes(cqes);
    }
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_IoRingSubmitReap)->Arg(1)->Arg(32);

// Host cost of one segment's scatter copy of `range(0)` 512 B rows into
// scattered feature-buffer rows, through completion (zero modeled time).
void BM_GpuScatterCopy(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRowBytes = 512;
  GpuConfig cfg;
  cfg.pcie_bandwidth_mb_s = 1e9;
  cfg.copy_overhead_us = 0.0;
  GpuDevice gpu(cfg);
  std::vector<std::uint8_t> src(rows * kRowBytes, 0x5A);
  std::vector<std::uint8_t> dst(4 * rows * kRowBytes);
  for (auto _ : state) {
    std::vector<GpuDevice::H2dPart> parts;
    parts.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      parts.push_back({dst.data() + 4 * r * kRowBytes,
                       src.data() + r * kRowBytes, kRowBytes});
    }
    gpu.memcpy_h2d_scatter_async(std::move(parts), [] {});
    gpu.sync();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GpuScatterCopy)->Arg(1)->Arg(16);

const Dataset& bench_dataset() {
  static Dataset ds = Dataset::build(toy_spec(64));
  return ds;
}

void BM_NeighborSample(benchmark::State& state) {
  const Dataset& ds = bench_dataset();
  DirectTopology topo(ds);
  NeighborSampler sampler(
      {{static_cast<std::uint32_t>(state.range(0)),
        static_cast<std::uint32_t>(state.range(0)),
        static_cast<std::uint32_t>(state.range(0))},
       7});
  std::vector<NodeId> seeds(ds.train_nodes().begin(),
                            ds.train_nodes().begin() + 8);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(id++, seeds, topo, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborSample)->Arg(5)->Arg(10);

void BM_TrainBatch(benchmark::State& state) {
  const Dataset& ds = bench_dataset();
  DirectTopology topo(ds);
  NeighborSampler sampler({{10, 10, 10}, 7});
  std::vector<NodeId> seeds(ds.train_nodes().begin(),
                            ds.train_nodes().begin() + 4);
  SampledBatch batch = sampler.sample(1, seeds, topo, &ds.labels());
  Tensor x0 = gather_features_direct(ds, batch);
  ModelConfig mc;
  mc.kind = static_cast<ModelKind>(state.range(0));
  mc.in_dim = ds.spec().feature_dim;
  mc.hidden_dim = 32;
  mc.num_classes = ds.spec().num_classes;
  GnnModel model(mc);
  Adam adam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_batch(batch, x0));
    adam.step(model.params());
    adam.zero_grad(model.params());
  }
  state.SetItemsProcessed(state.iterations() * batch.num_nodes());
}
BENCHMARK(BM_TrainBatch)
    ->Arg(static_cast<int>(ModelKind::kSage))
    ->Arg(static_cast<int>(ModelKind::kGcn))
    ->Arg(static_cast<int>(ModelKind::kGat));

}  // namespace
}  // namespace gnndrive

BENCHMARK_MAIN();
