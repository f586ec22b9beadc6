#include "baselines/pygplus.hpp"

#include <atomic>

#include "memsim/mmap_region.hpp"
#include "sampling/topology.hpp"
#include "util/queue.hpp"
#include "util/worker_group.hpp"

namespace gnndrive {

PygPlus::PygPlus(const RunContext& ctx, PygPlusConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler) {
  metadata_pin_ = PinnedBytes(*ctx_.host_mem,
                              ctx_.dataset->host_metadata_bytes(),
                              "pygplus-meta");
  trainer_ = std::make_unique<GpuTrainer>(ctx_, config_.common, config_.gpu);
}

EpochStats PygPlus::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  const auto batches = make_minibatches(
      ds.train_nodes(), config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  const std::size_t n_batches = batches.size();

  struct Ready {
    SampledBatch batch;
    Tensor x0;
    PinnedBytes pin;  ///< transient host tensor accounting
  };
  BoundedQueue<Ready> ready_q(config_.prefetch_cap);

  std::atomic<std::size_t> next_batch{0};
  std::atomic<std::uint64_t> sample_ns{0};
  std::atomic<std::uint64_t> extract_ns{0};

  EpochStats stats;
  stats.batches = n_batches;
  const TimePoint t0 = Clock::now();

  WorkerGroup workers([&] { ready_q.close(); });
  for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
    workers.spawn([&] {
      MmapTopology topo(ds, *ctx_.page_cache);
      MmapRegion features(*ctx_.page_cache, ds.layout().features_offset,
                          ds.layout().features_bytes);
      const std::uint32_t dim = ds.spec().feature_dim;
      for (;;) {
        const std::size_t b = next_batch.fetch_add(1);
        if (b >= n_batches) break;

        TimePoint ts = Clock::now();
        SampledBatch batch;
        {
          BusyScope busy(ctx_.telemetry);
          batch = sampler_.sample(((epoch + 1) << 24) | b, batches[b], topo,
                                  &ds.labels());
        }
        sample_ns.fetch_add(static_cast<std::uint64_t>(
            to_seconds(Clock::now() - ts) * 1e9));
        if (config_.common.sample_only) continue;

        // Synchronous feature extraction through the page cache: every node
        // row is a potential page fault blocking this worker.
        ts = Clock::now();
        Ready ready;
        ready.x0.resize(static_cast<std::uint32_t>(batch.num_nodes()), dim);
        ready.pin = PinnedBytes(*ctx_.host_mem, ready.x0.bytes(),
                                "pygplus-batch-tensor");
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          // feature_row_of routes through the installed layout plan so the
          // mmap path reads a packed store correctly too.
          features.read_bytes(ds.layout().feature_row_of(batch.nodes[i]) *
                                  ds.layout().feature_row_bytes,
                              ds.layout().feature_row_bytes, ready.x0.row(i));
        }
        ready.batch = std::move(batch);
        extract_ns.fetch_add(static_cast<std::uint64_t>(
            to_seconds(Clock::now() - ts) * 1e9));
        if (!ready_q.push(std::move(ready))) break;
      }
    });
  }

  // Training thread role (run on this thread): synchronous transfer + train.
  // An exception here unwinds through the group, which closes ready_q and
  // joins the workers.
  if (!config_.common.sample_only) {
    for (std::size_t done = 0; done < n_batches; ++done) {
      auto ready = ready_q.pop();
      if (!ready.has_value()) break;
      const TimePoint ts = Clock::now();
      const TrainStats tr = trainer_->step(ready->batch, ready->x0);
      stats.train_seconds += to_seconds(Clock::now() - ts);
      stats.loss += tr.loss;
      stats.train_accuracy +=
          tr.total > 0
              ? static_cast<double>(tr.correct) / static_cast<double>(tr.total)
              : 0.0;
    }
  }
  ready_q.close();
  workers.join();
  workers.rethrow();

  stats.epoch_seconds = to_seconds(Clock::now() - t0);
  stats.sample_seconds = static_cast<double>(sample_ns.load()) / 1e9;
  stats.extract_seconds = static_cast<double>(extract_ns.load()) / 1e9;
  if (n_batches > 0) {
    stats.loss /= static_cast<double>(n_batches);
    stats.train_accuracy /= static_cast<double>(n_batches);
  }
  return stats;
}

double PygPlus::evaluate() {
  return evaluate_accuracy(trainer_->model(), *ctx_.dataset,
                           config_.common.sampler);
}

}  // namespace gnndrive
