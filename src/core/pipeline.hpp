// GNNDrive's four-stage training pipeline (Sect. 4, Fig. 4).
//
//   samplers --(extracting queue)--> extractors --(training queue)-->
//   trainer --(releasing queue)--> releaser
//
// * A pool of sampler threads generates sampled subgraphs per mini-batch
//   (memory-mapped topology through the OS page cache, like PyG+).
// * Each extractor owns one mini-batch at a time and performs Algorithm 1:
//   reuse pass over the feature buffer, then asynchronous two-phase
//   extraction — io_uring-style direct reads SSD -> staging buffer, and, as
//   each node's read completes, an asynchronous transfer staging -> feature
//   buffer (GPU device memory). No synchronous wait sits on the critical
//   path; loading of the current node overlaps the transfer of the previous.
// * The trainer indexes features in device memory through the node alias
//   list and runs forward/backward/Adam.
// * The releaser drops references; zero-ref slots retire to the standby list.
//
// Queues are bounded (capacities 6 and 4 by default, as evaluated in the
// paper); they carry only node ids/aliases, never feature data. Mini-batch
// reordering arises naturally from the thread pools.
//
// Buffer sizing follows Sect. 4.2: the staging buffer holds Ne x ring_depth
// covering rows of host memory, recycled as transfers retire (bounded by
// "the number of extractors and the number of features to be loaded to GPU
// for each extractor"; Ne additionally auto-shrinks to respect the budgets
// — the paper's "expanded or shrunk by adjusting the number of
// extractors"). The feature buffer reserves at least Ne x Mb device slots
// (deadlock freedom) and is capped by device memory (the paper's
// training-queue-depth restriction).
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "aio/io_ring.hpp"
#include "cache/policy.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/extract.hpp"
#include "core/feature_buffer.hpp"
#include "core/system.hpp"
#include "gpu/gpu.hpp"
#include "util/queue.hpp"

namespace gnndrive {

/// Fault-tolerance knobs for the extract stage (see DESIGN.md "Fault model
/// & recovery"). Defaults are tuned to the simulated device's latencies and
/// add no measurable cost when the storage layer never fails.
struct FaultToleranceConfig {
  /// Per-read retry budget for transient failures (-EIO, -ETIMEDOUT).
  std::uint32_t max_retries = 3;
  /// Exponential backoff before a retry: initial delay, growth factor, and
  /// uniform jitter fraction (0.25 = +-25%), deterministic per extractor.
  double backoff_initial_us = 100.0;
  double backoff_multiplier = 4.0;
  double backoff_jitter = 0.25;
  /// Stage watchdog: an in-flight read older than this is cancelled with
  /// -ETIMEDOUT and retried (or fails the batch once the budget is spent).
  double request_timeout_ms = 250.0;
  /// Upper bound on waiting for a node another extractor is loading; a
  /// loader always resolves its nodes (valid or failed), so this only fires
  /// if that extractor died — the waiter fails its batch instead of hanging.
  double wait_list_timeout_ms = 10000.0;
  /// Abort the epoch on the first unrecoverable batch (benches that want
  /// fail-stop semantics); default is graceful degradation.
  bool fail_fast = false;
};

struct GnnDriveConfig {
  CommonTrainConfig common;
  FaultToleranceConfig fault;
  /// Sorted-run read merging for the extract stage (see core/extract.hpp);
  /// `coalesce.enabled = false` is the per-node-read A/B baseline.
  CoalesceConfig coalesce;
  /// Feature-cache policy (src/cache): `cache.policy = kHotness` profiles
  /// access frequencies with a pre-sampling pass and pins the hot set;
  /// the default kLru is the paper's pure standby-list behaviour.
  CachePolicyConfig cache;
  std::uint32_t num_samplers = 4;
  std::uint32_t num_extractors = 4;  ///< upper bound; may auto-shrink
  std::uint32_t extract_queue_cap = 6;
  std::uint32_t train_queue_cap = 4;
  unsigned ring_depth = 256;
  bool cpu_training = false;
  /// Ablation knob: false routes feature loads through the OS page cache
  /// (buffered I/O) instead of direct I/O, re-creating the memory
  /// contention GNNDrive is designed to avoid. ring_depth = 1 similarly
  /// degrades the asynchronous extraction to effectively synchronous I/O.
  bool direct_io = true;
  /// GPUDirect-Storage mode (the paper's Sect. 4.4 "GPU Direct Access"
  /// future work): feature reads DMA from SSD straight into device memory,
  /// eliminating the host staging buffer entirely. Constraints modeled as
  /// the paper describes them: 4 KiB access granularity (redundant loading
  /// of neighbouring rows is inevitable) and a device-side bounce area of
  /// ring_depth covering blocks per extractor, reserved before the feature
  /// buffer is sized. Reads go through the shared extraction loop
  /// (core/extract.hpp) with page-aligned segments, so GDS keeps
  /// coalescing, retry backoff, the watchdog and io.coalesce.* metrics.
  /// GPU training only.
  bool gds_mode = false;
  /// CPU-training kernel-time floor (FLOP/s), analogous to
  /// GpuConfig::gpu_flops_per_s: models per-batch CPU training time on the
  /// target machine's cores, which — unlike this host's single core —
  /// parallelizes across data-parallel subprocesses (Fig. 13's CPU curve).
  /// 0 uses the per-model cpu_slowdown factor instead.
  double cpu_flops_per_s = 0.0;
  /// Feature-buffer size multiplier relative to the default sizing (Fig. 12).
  double feature_buffer_scale = 1.0;
  /// Fraction of currently-free host memory the staging buffer may pin.
  double staging_fraction = 0.5;
  GpuConfig gpu;
  /// Crash-safe checkpoint/restore (src/ckpt, docs/recovery.md). Disabled
  /// by default; when enabled the trainer writes a generation every
  /// `interval_batches` trained batches plus one at each epoch boundary.
  CheckpointConfig ckpt;
  /// Record every trained batch's loss into EpochStats::batch_losses
  /// (training order). Test/debug aid for deterministic-resume assertions.
  bool record_batch_losses = false;
};

class GnnDrive final : public TrainSystem {
 public:
  /// Without `ctx.telemetry` the system creates and counts into its own.
  GnnDrive(const RunContext& ctx, GnnDriveConfig config);
  ~GnnDrive() override;

  const char* name() const override {
    return config_.cpu_training ? "GNNDrive-CPU" : "GNNDrive-GPU";
  }
  EpochStats run_epoch(std::uint64_t epoch) override;
  double evaluate() override;

  GnnModel& model() { return *model_; }
  FeatureBuffer& feature_buffer() { return *feature_buffer_; }
  GpuDevice* gpu() { return gpu_.get(); }
  /// Effective configuration (after model-dim resolution and auto-shrink);
  /// the serving subsystem reads the sampler setup from here.
  const GnnDriveConfig& config() const { return config_; }
  std::uint32_t effective_extractors() const { return num_extractors_; }
  std::uint64_t max_batch_nodes() const { return max_batch_nodes_; }

  // -- Hotness-aware cache policy (src/cache, docs/internals.md) ------------

  /// Where the pinned hot set came from (kNone under policy=lru or before
  /// the first epoch/serve attach materializes it).
  enum class HotSetSource { kNone, kProfiled, kCheckpoint };

  /// Idempotent, lazy materialization of the hot partition (no-op unless
  /// cache.policy == kHotness). Profiles access frequencies with the
  /// pre-sampling pass — or adopts `from_checkpoint` when it carries a
  /// usable hot set, skipping the re-profiling cost — then prefetches and
  /// pins the hot rows. Called automatically by run_epoch(), resume() and
  /// serve attachment; safe to call explicitly for eager warm-up.
  void ensure_hot_cache(const std::vector<NodeId>* from_checkpoint = nullptr);
  const std::vector<NodeId>& hot_nodes() const { return hot_nodes_; }
  HotSetSource hot_source() const { return hot_source_; }

  /// Multi-GPU support: external replicas share one gradient-sync hook
  /// called after each local backward pass (nullptr = single device).
  using GradSyncHook = std::function<void(GnnModel&)>;
  void set_grad_sync_hook(GradSyncHook hook) { grad_sync_ = std::move(hook); }
  /// Restricts this replica to a slice of the training set (data parallel).
  /// With more than one segment, every replica truncates to the same batch
  /// count so per-batch gradient synchronization barriers line up.
  void set_segment(std::uint32_t index, std::uint32_t count) {
    segment_index_ = index;
    segment_count_ = count;
  }

  // -- Checkpoint / recovery (src/ckpt, docs/recovery.md) -------------------

  /// Asks the running epoch to drain: samplers stop claiming batches, the
  /// in-flight ones finish through the pipeline, and run_epoch returns with
  /// EpochStats::interrupted set and the cursor at the first untrained
  /// batch. Safe from a signal-watcher thread. The flag is sticky — a
  /// stopped instance is expected to checkpoint and be torn down, with a
  /// fresh instance resuming from the checkpoint.
  void request_stop() { stop_requested_.store(true); }
  bool stop_requested() const { return stop_requested_.load(); }

  /// Writes a checkpoint at the current cursor. Must not race a running
  /// epoch — call between run_epoch calls or after an interrupted epoch
  /// returned (the trainer takes its own periodic checkpoints while the
  /// epoch runs). Returns the generation written. Requires ckpt.enabled.
  std::uint64_t checkpoint();

  struct ResumeInfo {
    std::uint64_t epoch = 0;       ///< epoch to resume into
    std::uint64_t next_batch = 0;  ///< first batch of `epoch` to train
    std::uint64_t generation = 0;  ///< checkpoint generation adopted
    std::uint32_t fallbacks = 0;   ///< corrupt newer generations skipped
  };

  /// Restores the newest valid checkpoint: model parameters, Adam state,
  /// the training RNG stream and the epoch/batch cursor. The next
  /// run_epoch(info.epoch) call then starts at info.next_batch. Returns
  /// nullopt when no valid checkpoint exists (fresh start). Single-extractor
  /// single-sampler configurations resume bit-exactly (in-order training);
  /// multi-worker runs resume at the trained-batch count, which is exact in
  /// batches but approximate in order (docs/recovery.md).
  std::optional<ResumeInfo> resume();

  CheckpointManager* checkpoint_manager() { return ckpt_mgr_.get(); }
  /// Test hook: forwards to the manager (no-op when checkpointing is off).
  void set_crash_injector(CrashInjector* injector) {
    if (ckpt_mgr_ != nullptr) ckpt_mgr_->set_crash_injector(injector);
  }
  /// Identity of this run's checkpoints — what load_latest / hot_swap_from
  /// verify before adopting a generation.
  ModelFingerprint fingerprint() const {
    return ModelFingerprint::from(config_.common.model,
                                  config_.common.run_seed,
                                  config_.common.batch_seeds);
  }

 private:
  struct ExtractorState;
  /// Returns true on success; false when the batch was abandoned after
  /// exhausting retries (its refs must still be released by the caller).
  bool extract_batch(SampledBatch& batch, ExtractorState& state);
  /// Returns this batch's training loss (also accumulated into stats).
  double train_batch(SampledBatch& batch, EpochStats& stats);
  /// Serializes the current training state as (epoch, next_batch). Called
  /// from the trainer thread (periodic) or between epochs (boundary /
  /// explicit); never from both at once.
  std::uint64_t write_checkpoint(std::uint64_t epoch, std::uint64_t next_batch);

  std::unique_ptr<Telemetry> own_telemetry_;  ///< when ctx has none
  RunContext ctx_;  ///< telemetry never null
  GnnDriveConfig config_;
  NeighborSampler sampler_;

  std::uint32_t num_extractors_ = 0;     ///< after auto-shrink
  std::uint64_t max_batch_nodes_ = 0;    ///< Mb
  std::uint32_t staging_row_bytes_ = 0;  ///< per staging slot (>= a segment)
  std::uint32_t staging_rows_ = 0;       ///< staging slots per extractor
  std::uint64_t feature_slots_ = 0;

  // Hotness policy state (empty/kNone under policy=lru).
  std::uint64_t hot_target_ = 0;  ///< slots budgeted for the hot partition
  bool hot_ready_ = false;        ///< partition pinned, sealed and usable
  std::vector<NodeId> hot_nodes_;
  HotSetSource hot_source_ = HotSetSource::kNone;

  PinnedBytes metadata_pin_;
  PinnedBytes staging_pin_;
  PinnedBytes cpu_buffer_pin_;
  /// Ne x staging_rows_ segment rows: pinned host memory, or the device
  /// bounce area under GDS (accounted by gds_bounce_alloc_).
  std::vector<std::uint8_t> staging_;

  // Every DeviceAlloc must be declared after gpu_: its destructor frees
  // into the device, so it has to run before the device is torn down.
  std::unique_ptr<GpuDevice> gpu_;
  DeviceAlloc gds_bounce_alloc_;
  DeviceAlloc feature_buffer_alloc_;
  DeviceAlloc model_state_alloc_;
  std::unique_ptr<FeatureBuffer> feature_buffer_;
  std::unique_ptr<GnnModel> model_;
  Adam adam_;

  GradSyncHook grad_sync_;
  std::uint32_t segment_index_ = 0;
  std::uint32_t segment_count_ = 1;

  // Checkpoint/recovery state. The cursor always points at the first batch
  // of cur_epoch_ not yet trained; the trainer advances it, run_epoch rolls
  // it over at epoch boundaries, resume() seeds it from a checkpoint.
  std::unique_ptr<CheckpointManager> ckpt_mgr_;
  std::uint64_t cur_epoch_ = 0;
  std::atomic<std::uint64_t> cursor_{0};
  std::uint64_t total_trained_ = 0;  ///< lifetime trained batches
  /// The checkpointed training-time RNG stream (id 0): advanced once per
  /// trained batch so any stochastic training-side consumer (dropout, loss
  /// noise) added later inherits deterministic resume for free.
  Rng train_rng_{0};
  std::atomic<bool> stop_requested_{false};
  bool has_resume_ = false;
  std::uint64_t resume_epoch_ = 0;
  std::uint64_t resume_cursor_ = 0;
};

}  // namespace gnndrive
