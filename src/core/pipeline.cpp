#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/evaluate.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sampling/topology.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/worker_group.hpp"

namespace gnndrive {

namespace {

/// Sleeps for the modeled extra time of CPU-bound training (the per-model
/// CPU-vs-GPU throughput gap; see ModelConfig::cpu_slowdown).
void model_cpu_slowdown(double real_seconds, double factor) {
  if (factor > 1.0 && real_seconds > 0) {
    std::this_thread::sleep_for(from_us(real_seconds * (factor - 1.0) * 1e6));
  }
}

/// Epoch encoded into SampledBatch::batch_id by run_epoch's samplers.
std::uint32_t epoch_of(std::uint64_t batch_id) {
  return static_cast<std::uint32_t>((batch_id >> 24) - 1);
}

}  // namespace

struct GnnDrive::ExtractorState {
  std::unique_ptr<IoRing> ring;
  ExtractEnv env;             ///< this worker's ring and staging rows
  Rng backoff_rng{0};         ///< jitter source, seeded per worker
  ExtractCounters counters;   ///< accumulated since the last flush
  ExtractMetricHooks hooks;   ///< io.coalesce.*, fault.io_retries
  /// Extract sub-phase attribution for the current batch, accumulated only
  /// while tracing is enabled (the real loop interleaves submit / SSD wait
  /// / transfer wait; the worker emits them as sequential synthetic spans).
  ExtractTrace trace;

  /// Jittered exponential backoff delay before retry number `attempt` (1+).
  Duration backoff(const FaultToleranceConfig& ft, std::uint32_t attempt) {
    double us = ft.backoff_initial_us;
    for (std::uint32_t a = 1; a < attempt; ++a) us *= ft.backoff_multiplier;
    const double jitter =
        1.0 + ft.backoff_jitter * (2.0 * backoff_rng.next_double() - 1.0);
    return from_us(us * std::max(jitter, 0.0));
  }
};

GnnDrive::GnnDrive(const RunContext& ctx, GnnDriveConfig config)
    : ctx_(with_telemetry(ctx, own_telemetry_)), config_(std::move(config)),
      sampler_(config_.common.sampler), adam_(config_.common.adam) {
  const Dataset& ds = *ctx_.dataset;
  HostMemory& mem = *ctx_.host_mem;

  metadata_pin_ = PinnedBytes(mem, ds.host_metadata_bytes(), "gnndrive-meta");

  max_batch_nodes_ =
      std::min<std::uint64_t>(sampler_.max_nodes_per_batch(
                                  config_.common.batch_seeds),
                              ds.spec().num_nodes);
  GD_CHECK_MSG(!(config_.gds_mode && config_.cpu_training),
               "GDS mode requires GPU training");
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  // GDS reads land in device memory at 4 KiB granularity (Sect. 4.4).
  const std::uint32_t align = config_.gds_mode ? kPageSize : kSectorSize;
  const std::uint32_t covering = covering_bytes_for(row_bytes, align);
  // Coalesced extraction: staging rows widen to hold a whole merged segment
  // and the per-extractor row pool shrinks accordingly (core/extract.hpp).
  staging_row_bytes_ = staging_row_bytes_for(config_.coalesce, covering, align);
  // The GDS bounce area keeps one covering block per ring slot, cut into
  // segment-wide rows.
  staging_rows_ =
      config_.gds_mode
          ? static_cast<std::uint32_t>(std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(config_.ring_depth) * covering /
                       staging_row_bytes_))
          : staging_rows_for(config_.coalesce, config_.ring_depth);
  const std::uint64_t staging_per_extractor =
      static_cast<std::uint64_t>(staging_rows_) * staging_row_bytes_;
  // GDS stages in device memory, the standard path in pinned host memory.
  const std::uint64_t host_staging_per_extractor =
      config_.gds_mode ? 0 : staging_per_extractor;
  const std::uint64_t device_staging_per_extractor =
      config_.gds_mode ? staging_per_extractor : 0;

  // Model (input/output dims come from the dataset).
  ModelConfig mc = config_.common.model;
  mc.in_dim = ds.spec().feature_dim;
  mc.num_classes = ds.spec().num_classes;
  mc.num_layers =
      static_cast<std::uint32_t>(config_.common.sampler.fanouts.size());
  config_.common.model = mc;
  model_ = std::make_unique<GnnModel>(mc);

  // Rough per-batch device working set (gathered X0 + activations), used to
  // size the feature buffer within device memory.
  const std::uint64_t x0_bytes = max_batch_nodes_ * mc.in_dim * 4ull;
  const std::uint64_t act_headroom =
      x0_bytes + max_batch_nodes_ * (8ull * mc.hidden_dim + mc.num_classes) * 4;

  // Auto-shrink the extractor count so (a) the staging buffer fits the host
  // budget and (b) the Ne x Mb feature-buffer reserve, plus any device
  // staging, fits device memory.
  num_extractors_ = std::max(1u, config_.num_extractors);
  const auto staging_budget = static_cast<std::uint64_t>(
      config_.staging_fraction * static_cast<double>(mem.available()));
  const std::uint64_t device_for_slots =
      config_.cpu_training
          ? ~0ull
          : config_.gpu.device_memory_bytes -
                std::min(config_.gpu.device_memory_bytes,
                         model_->param_state_bytes() + act_headroom);
  // CPU training keeps the feature buffer in host memory: its Ne x Mb
  // reserve competes for the same budget, so it bounds Ne as well.
  const std::uint64_t host_for_slots =
      config_.cpu_training
          ? static_cast<std::uint64_t>(0.80 *
                                       static_cast<double>(mem.available()))
          : ~0ull;
  while (num_extractors_ > 1 &&
         (num_extractors_ * host_staging_per_extractor > staging_budget ||
          num_extractors_ * (max_batch_nodes_ * row_bytes +
                             device_staging_per_extractor) >
              std::min(device_for_slots, host_for_slots))) {
    --num_extractors_;
  }

  // Staging rows are recycled as transfers retire, so the buffer is
  // bounded by the number of extractors times the I/O depth — "the number
  // of features to be loaded to GPU for each extractor" (Sect. 4.2) — not
  // by the whole mini-batch. This is what keeps GNNDrive's host footprint
  // tiny even at an "8 GB" budget (Fig. 9).
  const std::uint64_t staging_bytes = num_extractors_ * staging_per_extractor;
  staging_pin_ = PinnedBytes(mem, num_extractors_ * host_staging_per_extractor,
                             "gnndrive-staging");
  staging_.resize(staging_bytes);

  // Feature buffer: at least the Ne x Mb deadlock reserve; by default enough
  // for the training queue on top, scaled by the Fig. 12 knob.
  const std::uint64_t reserve = num_extractors_ * max_batch_nodes_;
  std::uint64_t desired = static_cast<std::uint64_t>(
      static_cast<double>((num_extractors_ + config_.train_queue_cap) *
                          max_batch_nodes_) *
      config_.feature_buffer_scale);
  desired = std::max(desired, reserve);

  if (config_.cpu_training) {
    // CPU variant: the feature buffer lives in host memory and shrinks to
    // what is left after the staging buffer AND the topology working set
    // (the buffer must not evict the index array sampling depends on —
    // that would recreate the very contention GNNDrive avoids).
    const std::uint64_t topo_bytes = ds.layout().indices_bytes;
    const std::uint64_t avail = mem.available();
    const std::uint64_t for_slots =
        avail > topo_bytes
            ? static_cast<std::uint64_t>(
                  0.75 * static_cast<double>(avail - topo_bytes))
            : avail / 4;
    const std::uint64_t host_fit = for_slots / row_bytes;
    feature_slots_ = std::max(std::min(desired, host_fit), reserve);
    cpu_buffer_pin_ =
        PinnedBytes(mem, feature_slots_ * row_bytes, "gnndrive-feature-buf");
  } else {
    gpu_ = std::make_unique<GpuDevice>(config_.gpu, ctx_.telemetry);
    model_state_alloc_ =
        DeviceAlloc(*gpu_, model_->param_state_bytes(), "model+adam");
    const std::uint64_t device_staging =
        num_extractors_ * device_staging_per_extractor;
    gds_bounce_alloc_ = DeviceAlloc(*gpu_, device_staging, "gds-bounce");
    const std::uint64_t fit =
        (device_for_slots - std::min(device_for_slots, device_staging)) /
        row_bytes;
    feature_slots_ = std::max<std::uint64_t>(
        std::min<std::uint64_t>(desired, fit), reserve);
    // Throws device SimOutOfMemory when even the reserve does not fit.
    feature_buffer_alloc_ =
        DeviceAlloc(*gpu_, feature_slots_ * row_bytes, "feature-buffer");
  }

  FeatureBufferConfig fb;
  fb.num_slots = feature_slots_;
  fb.row_floats = ds.spec().feature_dim;
  feature_buffer_ =
      std::make_unique<FeatureBuffer>(fb, ds.spec().num_nodes, ctx_.telemetry);

  // Cache-policy validation (src/cache). The hot budget is fixed here so a
  // partition that would violate the cold-region deadlock-freedom invariant
  // (cold_slots >= Ne x Mb) is rejected at construction, not discovered as
  // a wedged extractor mid-epoch.
  validate_cache_config(config_.cache);
  if (config_.cache.policy == CachePolicy::kHotness) {
    hot_target_ = static_cast<std::uint64_t>(
        config_.cache.hot_fraction * static_cast<double>(feature_slots_));
    if (feature_slots_ - hot_target_ < reserve) {
      throw std::invalid_argument(
          "cache.hot_fraction=" + std::to_string(config_.cache.hot_fraction) +
          " leaves " + std::to_string(feature_slots_ - hot_target_) +
          " cold slots of " + std::to_string(feature_slots_) +
          ", below the Ne x Mb deadlock-freedom reserve of " +
          std::to_string(reserve));
    }
  }

  GD_LOG_INFO(
      "GNNDrive(%s): Ne=%u Mb=%llu slots=%llu staging=%.1f MiB policy=%s "
      "hot_target=%llu",
      config_.cpu_training ? "cpu" : "gpu", num_extractors_,
      static_cast<unsigned long long>(max_batch_nodes_),
      static_cast<unsigned long long>(feature_slots_),
      static_cast<double>(staging_bytes) / (1 << 20),
      cache_policy_name(config_.cache.policy),
      static_cast<unsigned long long>(hot_target_));

  // Checkpoint/recovery (src/ckpt): the training RNG stream is seeded from
  // the run seed so a fresh instance and a restored one agree by
  // construction until the first trained batch diverges them.
  train_rng_ = Rng(splitmix64(config_.common.run_seed));
  if (config_.ckpt.enabled) {
    ckpt_mgr_ =
        std::make_unique<CheckpointManager>(config_.ckpt, ctx_.telemetry);
  }
}

GnnDrive::~GnnDrive() = default;

void GnnDrive::ensure_hot_cache(const std::vector<NodeId>* from_checkpoint) {
  if (config_.cache.policy != CachePolicy::kHotness || hot_ready_) return;
  if (hot_target_ == 0) {
    hot_ready_ = true;  // hot_fraction rounded to zero slots: plain LRU
    return;
  }
  const Dataset& ds = *ctx_.dataset;
  if (from_checkpoint != nullptr && !from_checkpoint->empty() &&
      from_checkpoint->size() <= hot_target_) {
    // Resume path: adopt the checkpointed hot set instead of re-profiling —
    // the partition is part of the training run's identity and re-deriving
    // it would only repeat the pre-sampling cost.
    hot_nodes_ = *from_checkpoint;
    hot_source_ = HotSetSource::kCheckpoint;
    GD_LOG_INFO("hot-cache: adopted %zu pinned nodes from checkpoint",
                hot_nodes_.size());
  } else {
    const PresampleResult prof = presample_hot_set(
        ds, *ctx_.page_cache, config_.common.sampler,
        config_.common.batch_seeds, config_.common.run_seed,
        config_.cache.presample_batches, hot_target_);
    hot_nodes_ = prof.hot_nodes;
    hot_source_ = HotSetSource::kProfiled;
    GD_LOG_INFO(
        "hot-cache: profiled %u warm-up batches, pinning %zu/%llu slots "
        "(profile coverage %.1f%%)",
        prof.batches_profiled, hot_nodes_.size(),
        static_cast<unsigned long long>(feature_slots_),
        prof.coverage() * 100.0);
  }
  const HotPrefetchStats pf =
      prefetch_hot_rows(*feature_buffer_, hot_nodes_, ds, *ctx_.ssd,
                        config_.coalesce, ctx_.telemetry);
  GD_LOG_INFO("hot-cache: prefetched %llu rows in %llu reads (%.1f MiB)",
              static_cast<unsigned long long>(pf.rows),
              static_cast<unsigned long long>(pf.reads),
              static_cast<double>(pf.bytes) / (1 << 20));
  hot_ready_ = true;
}

bool GnnDrive::extract_batch(SampledBatch& batch, ExtractorState& state) {
  FeatureBuffer& fb = *feature_buffer_;
  const FaultToleranceConfig& ft = config_.fault;

  state.trace = ExtractTrace{};
  state.trace.tracing = ctx_.telemetry->tracing();

  std::vector<std::uint32_t> wait_idx;
  std::vector<std::uint32_t> load_idx;

  // Pass 1 (Algorithm 1 lines 5-19): reuse triage + reference counts, one
  // buffer-lock acquisition for the whole batch.
  {
    BusyScope busy(ctx_.telemetry);
    triage_batch(fb, batch, wait_idx, load_idx);
  }

  // Pass 2 (lines 20-31): the shared coalescing core (core/extract.cpp)
  // plans sorted-run merged reads, allocates slots per segment under one
  // buffer-lock take, submits the asynchronous loads and scatters completed
  // rows, preserving the per-segment retry/watchdog/fail protocol. Training
  // installs jittered exponential backoff as its retry policy.
  ExtractPolicy policy;
  policy.coalesce = config_.coalesce;
  policy.max_retries = ft.max_retries;
  policy.request_timeout = from_us(ft.request_timeout_ms * 1e3);
  // Watchdog poll granularity: short enough to detect stuck requests well
  // within the timeout, long enough to stay off the fast path.
  policy.poll =
      std::max(from_us(ft.request_timeout_ms * 1e3 / 4), from_us(500.0));
  policy.backoff = [&state, &ft](std::uint32_t attempt) {
    return state.backoff(ft, attempt);
  };
  policy.batch_id = batch.batch_id;
  policy.epoch = epoch_of(batch.batch_id);

  bool ok = extract_load_set(batch, load_idx, state.env, policy, state.hooks,
                             state.counters, &state.trace);

  // Wait-list resolution (line 38): nodes other extractors were loading. A
  // loader always resolves its nodes (valid or failed), so the timeout only
  // fires if that extractor died; the waiter then fails its batch too.
  if (ok) {
    ok = resolve_wait_list(fb, batch, wait_idx,
                           from_us(ft.wait_list_timeout_ms * 1e3));
  }
  return ok;
}

double GnnDrive::train_batch(SampledBatch& batch, EpochStats& stats) {
  const std::uint32_t dim = ctx_.dataset->spec().feature_dim;
  Tensor x0(static_cast<std::uint32_t>(batch.num_nodes()), dim);

  // Per-batch device working set (gathered features + activations).
  DeviceAlloc act;
  if (gpu_ != nullptr) {
    act = DeviceAlloc(*gpu_, x0.bytes() + model_->activation_bytes(batch),
                      "train-activations");
  }

  TrainStats ts;
  const auto run = [&] {
    // Index features in device memory through the node alias list.
    for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
      GD_CHECK_MSG(batch.alias[i] != kNoSlot, "untracked node at train time");
      std::memcpy(x0.row(i), feature_buffer_->slot_data(batch.alias[i]),
                  dim * 4);
    }
    ts = model_->train_batch(batch, x0);
    if (grad_sync_) grad_sync_(*model_);
    adam_.step(model_->params());
    adam_.zero_grad(model_->params());
  };

  const TimePoint t0 = Clock::now();
  if (gpu_ != nullptr) {
    gpu_->launch([&] {
      run();
      // Modeled kernel-time floor for slower devices (GpuConfig docs).
      if (config_.gpu.gpu_flops_per_s > 0) {
        const double kernel_s = static_cast<double>(model_->flops(batch)) /
                                config_.gpu.gpu_flops_per_s;
        const double real_s = to_seconds(Clock::now() - t0);
        if (kernel_s > real_s) {
          std::this_thread::sleep_for(from_us((kernel_s - real_s) * 1e6));
        }
      }
    });
  } else {
    BusyScope busy(ctx_.telemetry);
    run();
    if (config_.cpu_flops_per_s > 0) {
      const double kernel_s = static_cast<double>(model_->flops(batch)) /
                              config_.cpu_flops_per_s;
      const double real_s = to_seconds(Clock::now() - t0);
      if (kernel_s > real_s) {
        std::this_thread::sleep_for(from_us((kernel_s - real_s) * 1e6));
      }
    } else {
      model_cpu_slowdown(to_seconds(Clock::now() - t0),
                         config_.common.model.cpu_slowdown());
    }
  }
  stats.loss += ts.loss;
  stats.train_accuracy += ts.total > 0 ? static_cast<double>(ts.correct) /
                                             static_cast<double>(ts.total)
                                       : 0.0;
  return ts.loss;
}

std::uint64_t GnnDrive::write_checkpoint(std::uint64_t epoch,
                                         std::uint64_t next_batch) {
  TrainCursor cursor;
  cursor.epoch = epoch;
  cursor.next_batch = next_batch;
  cursor.trained_batches = total_trained_;
  cursor.fingerprint = fingerprint();
  cursor.rng_streams.push_back(RngStream{0, train_rng_.state()});
  cursor.hot_set = hot_nodes_;
  cursor.layout_fingerprint = ctx_.dataset->layout().layout_fingerprint();
  return ckpt_mgr_->write(cursor, *model_, adam_);
}

std::uint64_t GnnDrive::checkpoint() {
  GD_CHECK_MSG(ckpt_mgr_ != nullptr,
               "checkpoint() requires GnnDriveConfig::ckpt.enabled");
  if (gpu_ != nullptr) gpu_->sync();
  return write_checkpoint(cur_epoch_, cursor_.load());
}

std::optional<GnnDrive::ResumeInfo> GnnDrive::resume() {
  if (ckpt_mgr_ == nullptr) return std::nullopt;
  auto loaded = ckpt_mgr_->load_latest(*model_, &adam_, fingerprint());
  if (!loaded.has_value()) return std::nullopt;
  // A cursor trained against one physical feature order must not resume on
  // an image packed differently: batch contents would silently diverge.
  // Recompile the image to the checkpoint's layout (or vice versa) first.
  const std::uint64_t layout_fp = ctx_.dataset->layout().layout_fingerprint();
  if (loaded->cursor.layout_fingerprint != layout_fp) {
    throw std::runtime_error(
        "resume: checkpoint layout fingerprint " +
        std::to_string(loaded->cursor.layout_fingerprint) +
        " does not match the dataset's compiled layout " +
        std::to_string(layout_fp));
  }
  cur_epoch_ = loaded->cursor.epoch;
  cursor_.store(loaded->cursor.next_batch);
  total_trained_ = loaded->cursor.trained_batches;
  for (const RngStream& stream : loaded->cursor.rng_streams) {
    if (stream.id == 0) train_rng_.set_state(stream.state);
  }
  has_resume_ = true;
  resume_epoch_ = cur_epoch_;
  resume_cursor_ = loaded->cursor.next_batch;
  // Materialize the hot partition from the checkpoint (skips re-profiling);
  // falls back to a fresh profile when the checkpoint predates the policy.
  ensure_hot_cache(&loaded->cursor.hot_set);
  ResumeInfo info;
  info.epoch = cur_epoch_;
  info.next_batch = resume_cursor_;
  info.generation = loaded->generation;
  info.fallbacks = loaded->fallbacks;
  return info;
}

EpochStats GnnDrive::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  // Hotness policy: profile + prefetch + pin before the first batch (no-op
  // for kLru or once the partition exists). Runs outside the epoch timer's
  // steady state on purpose — it is a one-time startup cost.
  ensure_hot_cache();

  // Data-parallel segment of the training set (whole set by default).
  std::vector<NodeId> train;
  {
    const auto& all = ds.train_nodes();
    train.reserve(all.size() / segment_count_ + 1);
    for (std::size_t i = segment_index_; i < all.size();
         i += segment_count_) {
      train.push_back(all[i]);
    }
  }
  auto batches = make_minibatches(
      train, config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  if (segment_count_ > 1) {
    // Equal batch counts across replicas so gradient-sync barriers line up.
    const std::size_t equal = (ds.train_nodes().size() / segment_count_) /
                              config_.common.batch_seeds;
    if (equal > 0 && batches.size() > equal) batches.resize(equal);
  }
  const std::size_t n_batches = batches.size();

  // Resume cursor: the first run_epoch after resume() starts mid-epoch at
  // the checkpointed batch; the shuffle above is deterministic per
  // (run_seed, epoch), so batches[start..] are exactly the ones the
  // interrupted run never trained.
  std::size_t start = 0;
  if (has_resume_ && epoch == resume_epoch_) {
    start = std::min<std::size_t>(resume_cursor_, n_batches);
  }
  has_resume_ = false;
  cur_epoch_ = epoch;
  cursor_.store(start);
  const bool ckpt_on = ckpt_mgr_ != nullptr;

  // Observability handles for this epoch (see docs/observability.md). Stage
  // histograms are always-on relaxed atomics; spans are recorded only while
  // tracing is enabled.
  Telemetry& tel = *ctx_.telemetry;
  MetricsRegistry& reg = *tel.metrics();
  SpanTracer* tracer = tel.tracer();
  const bool tracing = tracer->enabled();
  const auto epoch32 = static_cast<std::uint32_t>(epoch);

  // Live telemetry plane: refresh the attributor's topology, lease the
  // time-series sampler for the duration of the epoch (replaces the old
  // tracing-only 5 ms monitor thread — the sampler re-emits every gauge as
  // a trace counter track while tracing is on), and mark the process ready.
  BottleneckAttributor& attributor = *tel.attributor();
  AttributionConfig ac = attributor.config();
  ac.num_samplers = config_.num_samplers;
  ac.num_extractors = num_extractors_;
  ac.extract_queue_cap = config_.extract_queue_cap;
  ac.train_queue_cap = config_.train_queue_cap;
  if (ctx_.ssd != nullptr) ac.ssd_channels = ctx_.ssd->config().channels;
  attributor.set_config(ac);
  reg.gauge("pipeline.epoch").set(static_cast<std::int64_t>(epoch));
  Gauge& running = reg.gauge("pipeline.running");
  running.add(1);
  struct RunningGuard {
    Gauge& g;
    ~RunningGuard() { g.sub(1); }
  } running_guard{running};
  SamplerLease sampler_lease(tel.sampler());
  const MetricsRegistry::Snapshot epoch_begin_snap = reg.snapshot();

  // Release-queue payload: the node list plus the batch id, so release spans
  // line up with the rest of the batch's trace.
  struct ReleaseItem {
    std::uint64_t batch_id = 0;
    std::vector<NodeId> nodes;
  };

  BoundedQueue<SampledBatch> extract_q(config_.extract_queue_cap);
  BoundedQueue<SampledBatch> train_q(config_.train_queue_cap);
  BoundedQueue<ReleaseItem> release_q(16);
  extract_q.bind_metrics(&reg.gauge("pipeline.extract_q.depth"),
                         &reg.counter("pipeline.extract_q.push_blocked"),
                         &reg.counter("pipeline.extract_q.pop_blocked"));
  train_q.bind_metrics(&reg.gauge("pipeline.train_q.depth"),
                       &reg.counter("pipeline.train_q.push_blocked"),
                       &reg.counter("pipeline.train_q.pop_blocked"));
  release_q.bind_metrics(&reg.gauge("pipeline.release_q.depth"),
                         &reg.counter("pipeline.release_q.push_blocked"),
                         &reg.counter("pipeline.release_q.pop_blocked"));
  // Stage spans follow the tracing switch as it stood when the epoch began,
  // like the queue-wait and extract sub-phase spans below.
  const auto span = [tracing](const char* s) { return tracing ? s : nullptr; };
  StageMeter sample_m(tel, "stage.sample.us", span(kSpanSample));
  StageMeter extract_m(tel, "stage.extract.us", span(kSpanExtract));
  StageMeter train_m(tel, "stage.train.us", span(kSpanTrain));
  StageMeter release_m(tel, "stage.release.us", span(kSpanRelease));
  const FeatureBufferStats fb_before = feature_buffer_->stats();

  std::atomic<std::size_t> next_batch{start};
  // Epoch fault accounting (EpochResult), merged from per-worker counters.
  std::atomic<std::uint64_t> failed_batches{0};
  std::mutex io_mu;
  ExtractCounters io_totals;  // extractor counters, merged under io_mu

  EpochStats stats;
  stats.batches = n_batches - start;
  const TimePoint t0 = Clock::now();

  // A failing stage closes every queue, so the whole pipeline drains.
  WorkerGroup group([&] {
    extract_q.close();
    train_q.close();
    release_q.close();
  });
  for (std::uint32_t s = 0; s < config_.num_samplers; ++s) {
    group.spawn([&] {
      MmapTopology topo(ds, *ctx_.page_cache);
      for (;;) {
        // Graceful drain: a stop request stops claiming new batches; the
        // already-claimed ones finish through the pipeline normally.
        if (stop_requested_.load(std::memory_order_relaxed)) break;
        const std::size_t b = next_batch.fetch_add(1);
        if (b >= n_batches) break;
        const TimePoint ts = Clock::now();
        SampledBatch batch;
        {
          BusyScope busy(ctx_.telemetry);
          batch = sampler_.sample(((epoch + 1) << 24) | b, batches[b], topo,
                                  &ds.labels());
        }
        sample_m.record(batch.batch_id, epoch32, ts, Clock::now());
        if (!extract_q.push(std::move(batch))) break;
      }
    });
  }

  if (config_.common.sample_only) {
    // Fig. 2 "-only" mode: sampled batches are discarded.
    group.spawn([&] {
      while (extract_q.pop().has_value()) {
      }
    });
  } else {
    for (std::uint32_t e = 0; e < num_extractors_; ++e) {
      group.spawn([&, e] {
        ExtractorState state;
        state.backoff_rng =
            Rng(splitmix64(config_.common.run_seed ^ (epoch << 8) ^ e));
        const auto flush_counters = [&] {
          std::lock_guard lk(io_mu);
          io_totals += state.counters;
          state.counters = ExtractCounters{};
        };
        IoRingConfig rc;
        rc.queue_depth = config_.ring_depth;
        // Direct I/O bypasses the OS page cache (Sect. 4.2); buffered mode
        // exists as an ablation (see GnnDriveConfig::direct_io).
        rc.direct = config_.direct_io;
        // A request longer than a staging slot would overrun it; the ring
        // rejects such a planner bug with -EINVAL.
        rc.max_transfer_bytes = staging_row_bytes_;
        state.ring = std::make_unique<IoRing>(
            *ctx_.ssd, rc, config_.direct_io ? nullptr : ctx_.page_cache,
            ctx_.telemetry);
        ExtractEnv& env = state.env;
        env.fb = feature_buffer_.get();
        env.layout = &ds.layout();
        env.row_bytes =
            static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
        env.ring = state.ring.get();
        env.staging_base = staging_.data() + static_cast<std::uint64_t>(e) *
                                                 staging_rows_ *
                                                 staging_row_bytes_;
        env.staging_row_bytes = staging_row_bytes_;
        env.staging_rows = staging_rows_;
        env.gpu = gpu_.get();
        env.telemetry = ctx_.telemetry;
        env.device_staging = config_.gds_mode;
        state.hooks = resolve_extract_hooks(reg);
        for (;;) {
          const TimePoint qb = tracing ? Clock::now() : TimePoint{};
          auto batch = extract_q.pop();
          if (!batch) break;
          if (tracing) {
            tracer->record(kSpanQueueWait, batch->batch_id, epoch32, qb,
                           Clock::now());
          }
          const TimePoint ts = Clock::now();
          const std::uint64_t span_base = tracing ? tracer->now_ns() : 0;
          const bool ok = extract_batch(*batch, state);
          extract_m.record(batch->batch_id, epoch32, ts, Clock::now());
          if (tracing) {
            // The real loop interleaves submit / SSD wait / transfer wait;
            // the accumulated durations are emitted back-to-back so the
            // extract row shows where the time went (record_rel skips a
            // zero-length phase).
            const ExtractTrace& tr = state.trace;
            std::uint64_t cur = span_base;
            for (const auto& [span, ns] :
                 {std::pair{kSpanRingSubmit, tr.submit_ns},
                  std::pair{kSpanSsdWait, tr.ssd_wait_ns},
                  std::pair{kSpanCopyWait, tr.copy_wait_ns}}) {
              tracer->record_rel(span, batch->batch_id, epoch32, cur, ns);
              cur += ns;
            }
          }
          if (ok) {
            if (!train_q.push(std::move(*batch))) break;
            continue;
          }
          // Graceful degradation: the batch never trains, but its
          // references must still drain so slots return to standby.
          failed_batches.fetch_add(1);
          tel.count(FaultCounter::kFailedBatches);
          log_structured(LogLevel::kWarn, "batch_failed",
                         {kv("batch", batch->batch_id), kv("epoch", epoch),
                          kv("io_errors", state.counters.io_errors),
                          kv("io_retries", state.counters.io_retries)});
          if (auto item = release_q.push_or_reclaim(
                  ReleaseItem{batch->batch_id, std::move(batch->nodes)})) {
            // Epoch is aborting and the releaser is gone: release inline so
            // no extractor starves waiting for slots.
            feature_buffer_->release(item->nodes);
          }
          if (config_.fault.fail_fast) {
            flush_counters();
            throw std::runtime_error(
                "GNNDrive: batch extraction failed (fail_fast)");
          }
        }
        flush_counters();
      });
    }
    // Trainer.
    group.spawn([&] {
      std::uint32_t since_ckpt = 0;
      for (;;) {
        const TimePoint qb = tracing ? Clock::now() : TimePoint{};
        auto batch = train_q.pop();
        if (!batch) break;
        if (tracing) {
          tracer->record(kSpanQueueWait, batch->batch_id, epoch32, qb,
                         Clock::now());
        }
        const TimePoint ts = Clock::now();
        const double loss = train_batch(*batch, stats);
        train_m.record(batch->batch_id, epoch32, ts, Clock::now());
        // Advance the checkpoint cursor: with one sampler and one extractor
        // batches train strictly in order, so "count trained" equals "index
        // of the next untrained batch" and resume is bit-exact; multi-worker
        // runs reorder and resume approximately (docs/recovery.md).
        ++total_trained_;
        cursor_.store(start + train_m.count());
        train_rng_();
        if (config_.record_batch_losses) stats.batch_losses.push_back(loss);
        if (auto item = release_q.push_or_reclaim(
                ReleaseItem{batch->batch_id, std::move(batch->nodes)})) {
          feature_buffer_->release(item->nodes);  // epoch aborting; see above
        }
        if (ckpt_on && config_.ckpt.interval_batches > 0 &&
            ++since_ckpt >= config_.ckpt.interval_batches) {
          since_ckpt = 0;
          // A CrashInjected here propagates through the group like a
          // process death: queues close, the epoch aborts, and recovery
          // must cope with whatever the protocol left on disk.
          write_checkpoint(epoch, start + train_m.count());
        }
      }
      release_q.close();
    });
    // Releaser.
    group.spawn([&] {
      while (auto item = release_q.pop()) {
        const TimePoint ts = Clock::now();
        feature_buffer_->release(item->nodes);
        release_m.record(item->batch_id, epoch32, ts, Clock::now());
      }
    });
  }

  // Close cascade in spawn order: the samplers exhaust the batch counter,
  // the extractors drain their queue, then the trainer (which closes
  // release_q) and the releaser.
  group.join(config_.num_samplers);
  extract_q.close();
  if (!config_.common.sample_only) {
    group.join(config_.num_samplers + num_extractors_);
    train_q.close();
  }
  group.join();
  if (gpu_ != nullptr) gpu_->sync();
  group.rethrow();

  // Epoch boundary: roll the cursor into the next epoch, or — when a stop
  // request drained the epoch early — leave it pointing at the first
  // untrained batch of this one, then take the boundary checkpoint.
  stats.interrupted = stop_requested_.load();
  if (!stats.interrupted) {
    cur_epoch_ = epoch + 1;
    cursor_.store(0);
  }
  if (ckpt_on && !config_.common.sample_only) {
    write_checkpoint(cur_epoch_, cursor_.load());
  }

  stats.epoch_seconds = to_seconds(Clock::now() - t0);
  stats.sample_seconds = sample_m.total_seconds();
  stats.extract_seconds = extract_m.total_seconds();
  stats.train_seconds = train_m.total_seconds();
  stats.result.failed_batches = failed_batches.load();
  stats.result.trained_batches = train_m.count();
  stats.result.io_errors = io_totals.io_errors;
  stats.result.io_retries = io_totals.io_retries;
  stats.result.io_recovered = io_totals.io_recovered;
  stats.result.io_timeouts = io_totals.io_timeouts;
  stats.obs.sample = sample_m.latency();
  stats.obs.extract = extract_m.latency();
  stats.obs.train = train_m.latency();
  stats.obs.release = release_m.latency();
  stats.obs.extract_q_max = extract_q.max_size();
  stats.obs.train_q_max = train_q.max_size();
  stats.obs.release_q_max = release_q.max_size();
  const FeatureBufferStats fb_after = feature_buffer_->stats();
  stats.obs.fb_hot_hits = fb_after.hot_hits - fb_before.hot_hits;
  stats.obs.fb_reuse_hits = fb_after.reuse_hits - fb_before.reuse_hits;
  stats.obs.fb_wait_hits = fb_after.wait_hits - fb_before.wait_hits;
  stats.obs.fb_loads = fb_after.loads - fb_before.loads;
  stats.obs.io_segments = io_totals.segments;
  stats.obs.io_rows = io_totals.rows_loaded;
  // Mean loss/accuracy over the batches that actually trained (identical to
  // dividing by n_batches on a clean epoch).
  const std::uint64_t denom =
      config_.common.sample_only ? n_batches : train_m.count();
  if (denom > 0) {
    stats.loss /= static_cast<double>(denom);
    stats.train_accuracy /= static_cast<double>(denom);
  }

  // Epoch-scoped bottleneck report: diagnose the epoch just run from its
  // bounding registry snapshots and publish it (structured "attribution"
  // event + the /attribution endpoint's latest report).
  attributor.publish(attributor.attribute(epoch_begin_snap, reg.snapshot(),
                                          stats.epoch_seconds,
                                          "epoch " + std::to_string(epoch)));
  return stats;
}

double GnnDrive::evaluate() {
  return evaluate_accuracy(*model_, *ctx_.dataset, config_.common.sampler);
}

}  // namespace gnndrive
