#include "baselines/ginex.hpp"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "aio/io_ring.hpp"
#include "baselines/batch_serde.hpp"
#include "cache/belady.hpp"
#include "util/logging.hpp"
#include "util/queue.hpp"
#include "util/worker_group.hpp"

namespace gnndrive {

namespace {

/// Request size for spilling and reading back sampling results.
constexpr std::uint32_t kSpillChunk = 256 * 1024;

/// Loads feature rows (node, cache-slot) into `storage` through a direct-I/O
/// ring at the given depth. Rows that are not sector-multiples bounce
/// through per-request scratch rows managed with a free list (completions
/// arrive out of order).
void load_rows_into_cache(
    SsdDevice& ssd, Telemetry* tel, const OnDiskLayout& lay,
    const std::vector<std::pair<NodeId, std::uint32_t>>& rows,
    unsigned depth, std::uint32_t dim, float* storage) {
  if (rows.empty()) return;
  const std::uint64_t row_bytes = lay.feature_row_bytes;
  const bool aligned = row_bytes % kSectorSize == 0;
  IoRingConfig rc;
  rc.queue_depth = depth;
  rc.direct = true;
  IoRing ring(ssd, rc, nullptr, tel);

  const std::uint64_t bounce_row = round_up(row_bytes, kSectorSize) + 1024;
  std::vector<std::uint8_t> bounce(aligned ? 0 : depth * bounce_row);
  std::vector<unsigned> free_bounce;
  for (unsigned i = 0; i < depth; ++i) free_bounce.push_back(i);
  std::vector<unsigned> bounce_of(rows.size(), 0);

  std::size_t submitted = 0;
  std::size_t finished = 0;
  while (finished < rows.size()) {
    while (submitted < rows.size() && ring.in_flight() < depth &&
           (aligned || !free_bounce.empty())) {
      const auto [node, slot] = rows[submitted];
      // feature_offset_of is layout-aware (src/layout): under a packed
      // store this reads the node's permuted physical row, so Ginex's
      // Belady cache — keyed by node id, layout-independent — still caches
      // the right bytes. Differential-tested against the identity layout.
      const std::uint64_t off = lay.feature_offset_of(node);
      if (aligned) {
        ring.prep_read(off, static_cast<std::uint32_t>(row_bytes),
                       storage + static_cast<std::size_t>(slot) * dim,
                       submitted);
      } else {
        const unsigned bslot = free_bounce.back();
        free_bounce.pop_back();
        bounce_of[submitted] = bslot;
        const std::uint64_t base = round_down(off, kSectorSize);
        const auto len = static_cast<std::uint32_t>(
            round_up(off + row_bytes, kSectorSize) - base);
        ring.prep_read(base, len, bounce.data() + bslot * bounce_row,
                       submitted);
      }
      ring.submit();
      ++submitted;
    }
    const Cqe cqe = ring.wait_cqe();
    GD_CHECK(cqe.res >= 0);
    if (!aligned) {
      const auto [node, slot] = rows[cqe.user_data];
      const std::uint64_t off = lay.feature_offset_of(node);
      const std::uint64_t base = round_down(off, kSectorSize);
      const unsigned bslot = bounce_of[cqe.user_data];
      std::memcpy(storage + static_cast<std::size_t>(slot) * dim,
                  bounce.data() + bslot * bounce_row + (off - base),
                  row_bytes);
      free_bounce.push_back(bslot);
    }
    ++finished;
  }
}

}  // namespace

Ginex::Ginex(const RunContext& ctx, GinexConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler) {
  const Dataset& ds = *ctx_.dataset;
  HostMemory& mem = *ctx_.host_mem;
  metadata_pin_ = PinnedBytes(mem, ds.host_metadata_bytes(), "ginex-meta");

  const auto budget = static_cast<double>(mem.budget());
  const auto neighbor_budget =
      static_cast<std::uint64_t>(budget * config_.neighbor_cache_frac);
  neighbor_cache_ = std::make_unique<CachedTopology>(ds, *ctx_.page_cache,
                                                     neighbor_budget);
  neighbor_cache_pin_ =
      PinnedBytes(mem, neighbor_cache_->cached_bytes(), "ginex-neighbor-cache");

  const auto feature_budget =
      static_cast<std::uint64_t>(budget * config_.feature_cache_frac);
  cache_rows_ = feature_budget / ds.layout().feature_row_bytes;
  GD_CHECK_MSG(cache_rows_ > 0, "ginex feature cache too small");
  feature_cache_pin_ = PinnedBytes(
      mem, cache_rows_ * ds.layout().feature_row_bytes, "ginex-feature-cache");
  cache_storage_.resize(cache_rows_ * ds.spec().feature_dim);

  trainer_ = std::make_unique<GpuTrainer>(ctx_, config_.common, config_.gpu);
}

EpochStats Ginex::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  const std::uint32_t dim = ds.spec().feature_dim;
  const std::uint64_t row_bytes = ds.layout().feature_row_bytes;
  const auto batches = make_minibatches(
      ds.train_nodes(), config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  const std::size_t n_batches = batches.size();

  EpochStats stats;
  stats.batches = n_batches;
  const TimePoint t_epoch = Clock::now();

  // Live cache map (node -> cache slot), rebuilt per superbatch.
  std::unordered_map<NodeId, std::uint32_t> cache_map;

  for (std::size_t sb_start = 0; sb_start < n_batches;
       sb_start += config_.superbatch) {
    const std::size_t sb_end =
        std::min(n_batches, sb_start + config_.superbatch);
    const std::size_t sb_count = sb_end - sb_start;

    // ---- Phase 1: sample the whole superbatch, spilling results to SSD.
    std::vector<std::uint64_t> spill_offset(sb_count);
    std::vector<std::uint64_t> spill_len(sb_count);
    std::vector<std::vector<NodeId>> node_lists(sb_count);
    {
      const TimePoint t0 = Clock::now();
      std::atomic<std::size_t> next{0};
      std::mutex spill_mu;
      std::uint64_t cursor = ds.layout().scratch_offset;
      WorkerGroup workers;
      for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
        workers.spawn([&] {
          std::vector<std::uint8_t> ser;
          for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= sb_count) break;
            const std::size_t b = sb_start + k;
            SampledBatch batch;
            {
              BusyScope busy(ctx_.telemetry);
              batch = sampler_.sample(((epoch + 1) << 24) | b, batches[b],
                                      *neighbor_cache_, &ds.labels());
            }
            node_lists[k] = batch.nodes;
            serialize_batch(batch, ser);
            ser.resize(round_up(ser.size(), kSectorSize));
            std::uint64_t off;
            {
              std::lock_guard lk(spill_mu);
              off = cursor;
              cursor += ser.size();
              GD_CHECK_MSG(cursor <= ds.layout().scratch_offset +
                                         ds.layout().scratch_bytes,
                           "ginex scratch overflow");
            }
            spill_offset[k] = off;
            spill_len[k] = ser.size();
            stream_range(*ctx_.ssd, ctx_.telemetry, /*write=*/true, off,
                         ser.data(), ser.size(), kSpillChunk, /*depth=*/4);
          }
        });
      }
      workers.join();
      workers.rethrow();
      stats.sample_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex superbatch %zu: sampling %.3fs",
                  sb_start / config_.superbatch,
                  to_seconds(Clock::now() - t0));
    }

    if (config_.common.sample_only) continue;

    // ---- Phase 2: inspect — read sampling results back and plan the
    // superbatch's feature cache with Belady's rule (src/cache/belady).
    std::vector<BeladyStep> plan;
    std::vector<std::pair<NodeId, std::uint32_t>> initial_fill;
    {
      const TimePoint t0 = Clock::now();
      // Read-back I/O charge (the lists were just written; Ginex re-reads
      // them to run its changeset computation).
      {
        std::vector<std::uint8_t> scratch;
        for (std::size_t k = 0; k < sb_count; ++k) {
          scratch.resize(spill_len[k]);
          stream_range(*ctx_.ssd, ctx_.telemetry, /*write=*/false,
                       spill_offset[k], scratch.data(), spill_len[k],
                       kSpillChunk, /*depth=*/16);
        }
      }
      const TimePoint t_belady = Clock::now();
      BusyScope busy(ctx_.telemetry);
      plan = plan_belady(node_lists, cache_rows_);
      // The plan starts cold, so its first cache_rows_ loads are the ones
      // into free slots, before any eviction: the warm start Ginex loads
      // synchronously at superbatch start.
      for (BeladyStep& step : plan) {
        const auto n = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
            step.loads.size(), cache_rows_ - initial_fill.size()));
        initial_fill.insert(initial_fill.end(), step.loads.begin(),
                            step.loads.begin() + n);
        step.loads.erase(step.loads.begin(), step.loads.begin() + n);
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex inspect: %.3fs (readback %.3fs, %zu initial fill)",
                  to_seconds(Clock::now() - t0),
                  to_seconds(t_belady - t0), initial_fill.size());
    }

    // ---- Phase 3: synchronous feature-cache initialization.
    {
      const TimePoint t0 = Clock::now();
      cache_map.clear();
      load_rows_into_cache(*ctx_.ssd, ctx_.telemetry, ds.layout(),
                           initial_fill, /*depth=*/64, dim,
                           cache_storage_.data());
      for (const auto& [node, slot] : initial_fill) cache_map[node] = slot;
      stats.extract_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex cache init: %.3fs", to_seconds(Clock::now() - t0));
    }

    // ---- Phase 4: train the superbatch.
    for (std::size_t k = 0; k < sb_count; ++k) {
      // Read the stored sampling result back from SSD.
      TimePoint t0 = Clock::now();
      std::vector<std::uint8_t> ser(spill_len[k]);
      stream_range(*ctx_.ssd, ctx_.telemetry, /*write=*/false,
                   spill_offset[k], ser.data(), spill_len[k], kSpillChunk,
                   /*depth=*/16);
      SampledBatch batch = deserialize_batch(ser.data());

      // Apply the Belady plan: evictions then miss loads (synchronous,
      // multi-threaded-read-equivalent depth).
      for (NodeId v : plan[k].evictions) cache_map.erase(v);
      load_rows_into_cache(*ctx_.ssd, ctx_.telemetry, ds.layout(),
                           plan[k].loads, config_.miss_ring_depth, dim,
                           cache_storage_.data());
      for (const auto& [node, slot] : plan[k].loads) cache_map[node] = slot;

      // Gather the batch tensor from the feature cache.
      Tensor x0(static_cast<std::uint32_t>(batch.num_nodes()), dim);
      PinnedBytes batch_pin(*ctx_.host_mem, x0.bytes(), "ginex-batch-tensor");
      {
        BusyScope busy(ctx_.telemetry);
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          auto it = cache_map.find(batch.nodes[i]);
          GD_CHECK_MSG(it != cache_map.end(), "belady plan missed a node");
          std::memcpy(x0.row(i),
                      cache_storage_.data() +
                          static_cast<std::size_t>(it->second) * dim,
                      row_bytes);
        }
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);

      // Transfer + train.
      t0 = Clock::now();
      const TrainStats tr = trainer_->step(batch, x0);
      stats.train_seconds += to_seconds(Clock::now() - t0);
      stats.loss += tr.loss;
      stats.train_accuracy +=
          tr.total > 0
              ? static_cast<double>(tr.correct) / static_cast<double>(tr.total)
              : 0.0;
    }
  }

  stats.epoch_seconds = to_seconds(Clock::now() - t_epoch);
  if (n_batches > 0) {
    stats.loss /= static_cast<double>(n_batches);
    stats.train_accuracy /= static_cast<double>(n_batches);
  }
  return stats;
}

double Ginex::evaluate() {
  return evaluate_accuracy(trainer_->model(), *ctx_.dataset,
                           config_.common.sampler);
}

}  // namespace gnndrive
