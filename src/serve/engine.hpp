// GNNDrive-Serve: online inference over the training substrates.
//
// The serving path reuses exactly the machinery the paper builds for
// training — the refcounted feature buffer (Sect. 4.2), direct asynchronous
// SSD reads through an io_uring-style ring, and recycled staging rows — but
// drives it from a latency-oriented front end:
//
//   submit() --> RequestQueue (admission control, deadline stamping)
//            --> MicroBatchCoalescer (size/time-bounded batching)
//            --> N serve workers: shed expired -> sample merged seeds ->
//                extract via Algorithm 1 (shared FeatureBuffer) ->
//                forward-only pass -> resolve futures -> release refs
//
// Sharing the feature buffer with a concurrently-training pipeline is the
// point: inference hits features training already paid to load, and vice
// versa. Two disciplines make the sharing safe:
//
//   * Pin budget. Training's deadlock-freedom argument reserves Ne x Mb
//     slots for its extractors. Serving acquires its sampled node count
//     against a counting semaphore of (num_slots - reserved_slots) BEFORE
//     touching check_and_ref, so serve pins can never eat into training's
//     reserve — neither side can deadlock the other. A micro-batch larger
//     than the whole serve budget fails cleanly instead of wedging.
//   * Whole-batch failure granularity. An unrecoverable read fails the
//     micro-batch exactly like a training batch: unresolved loads are
//     marked failed (waking cross-batch waiters), every reference is
//     released, and each request's future resolves with kFailed. Training
//     batches that were waiting on those nodes retry the load from scratch
//     — an EIO during serving degrades the affected requests, never the
//     training run.
//
// Forward passes run on per-worker model replicas (GnnModel's forward
// caches are not thread-safe) refreshed from the shared parameter source
// via refresh_params(); with a GpuDevice they are attributed as kernel
// launches, otherwise as CPU busy time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_meter.hpp"
#include "obs/timeseries.hpp"
#include "serve/coalescer.hpp"
#include "serve/request_queue.hpp"
#include "util/worker_group.hpp"

namespace gnndrive {

/// Serving span names (Chrome-trace rows, like the kSpan* training stages).
inline constexpr const char* kSpanServeSample = "serve.sample";
inline constexpr const char* kSpanServeExtract = "serve.extract";
inline constexpr const char* kSpanServeInfer = "serve.infer";

/// The pieces serving shares with training. All pointers are borrowed and
/// must outlive the engine; `gpu` may be null (host inference).
struct ServeSubstrate {
  FeatureBuffer* feature_buffer = nullptr;
  GnnModel* params = nullptr;  ///< parameter source for the worker replicas
  GpuDevice* gpu = nullptr;
  /// Feature-buffer slots reserved for the training pipeline's deadlock
  /// freedom (Ne x Mb); serving pins only what lies beyond this.
  std::uint64_t reserved_slots = 0;
};

class ServeEngine : NonCopyable {
 public:
  /// Without `ctx.telemetry` the engine creates and counts into its own.
  ServeEngine(const RunContext& ctx, const ServeConfig& config,
              ServeSubstrate substrate);
  /// Convenience: serve alongside (or after) training on `host`, sharing
  /// its feature buffer, model parameters and GPU, honouring its Ne x Mb
  /// reserve. An empty config.sampler.fanouts defaults to the training
  /// fanouts (the fanout depth must match the model's layer count).
  ServeEngine(const RunContext& ctx, ServeConfig config, GnnDrive& host);
  ~ServeEngine();

  void start();
  /// Admission-controlled submit; never blocks. Valid before start() (the
  /// backlog is served once workers run) and after stop() (rejects).
  std::future<InferResult> submit(NodeId node);
  /// Closes admission, serves out the backlog, joins the workers. Rethrows
  /// the first worker exception, if any.
  void stop();
  bool running() const { return running_; }

  /// Publishes a fresh replica set copied from the substrate's source model
  /// (e.g. after further training epochs). Safe concurrent with in-flight
  /// inference — workers re-resolve the replica set at each micro-batch
  /// boundary (drain-and-swap), so no request ever observes a half-updated
  /// model and none is dropped. The source model itself must be quiescent
  /// (not mid-training-step) while the copy runs.
  void refresh_params();

  /// Hot-swaps the worker replicas to the newest valid checkpoint
  /// generation (parameters only — serving has no optimizer state). Same
  /// drain-and-swap guarantee as refresh_params, and a corrupt or absent
  /// checkpoint leaves the live replicas untouched: the load stages into a
  /// scratch model first. Returns the generation adopted, 0 if none.
  std::uint64_t hot_swap_from(CheckpointManager& manager,
                              const ModelFingerprint& expect);

  /// Version of the replica set workers currently resolve: the checkpoint
  /// generation of the last hot swap (refresh_params keeps the version).
  std::uint64_t model_generation() const;

  /// Aggregate serving report (also published under "serve.*" metrics).
  ServeReport report() const;
  /// Max nodes serving may pin concurrently (num_slots - reserved_slots).
  std::uint64_t pin_budget() const { return pin_budget_; }

 private:
  struct WorkerState;
  /// Versioned, immutable-once-published set of per-worker forward
  /// replicas: the hot-swap unit. Workers grab the current set at each
  /// micro-batch boundary and hold the shared_ptr for the batch's
  /// duration; publishing a new set retires the old one when its last
  /// in-flight batch finishes.
  struct ModelSet;
  std::shared_ptr<const ModelSet> current_models() const;
  void publish_models(std::shared_ptr<const ModelSet> set);
  std::shared_ptr<const ModelSet> make_model_set(GnnModel& source,
                                                 std::uint64_t version) const;
  void worker_loop(std::uint32_t worker_id);
  void process_batch(std::vector<PendingRequest>&& batch, WorkerState& ws);
  /// Algorithm-1 extraction for a serve micro-batch; returns false when the
  /// batch failed permanently (references still held — caller releases).
  bool extract_batch(SampledBatch& batch, WorkerState& ws);
  void acquire_pins(std::uint64_t n);
  void release_pins(std::uint64_t n);
  void finish(PendingRequest& r, InferStatus status, std::int32_t cls,
              std::uint32_t coalesced, TimePoint done);

  std::unique_ptr<Telemetry> own_telemetry_;  ///< when ctx has none
  RunContext ctx_;  ///< telemetry never null
  ServeConfig config_;
  ServeSubstrate sub_;
  NeighborSampler sampler_;
  RequestQueue queue_;
  MicroBatchCoalescer coalescer_;
  WorkerGroup workers_;  ///< on_error closes queue_
  StageMeter queue_wait_;  ///< per request: arrival -> picked
  StageMeter extract_;     ///< per micro-batch extract time
  StageMeter infer_;       ///< per micro-batch forward pass
  StageMeter latency_;     ///< per served request: arrival -> done

  // Counting semaphore over the serve share of feature-buffer slots.
  std::uint64_t pin_budget_ = 0;
  std::mutex pin_mu_;
  std::condition_variable pin_cv_;
  std::uint64_t pins_in_use_ = 0;

  std::uint32_t staging_row_bytes_ = 0;  ///< per staging slot (>= a segment)
  std::uint32_t staging_rows_ = 0;       ///< staging slots per worker
  PinnedBytes staging_pin_;
  std::vector<std::uint8_t> staging_;  ///< workers x staging_rows_ slots

  mutable std::mutex models_mu_;
  std::shared_ptr<const ModelSet> models_;
  std::atomic<std::uint64_t> next_batch_seq_{0};
  bool running_ = false;
  /// Time-series sampler lease, held while the engine runs.
  std::optional<SamplerLease> sampler_lease_;

  // Run accounting: the registry instruments are the only count; report()
  // reads the counters' growth since construction (the feature buffer's
  // serve counters since start()).
  enum Count : std::size_t {
    kCompleted, kFailed, kShedDeadline, kBatches, kIoRetries, kIoErrors,
    kHotSwaps, kNumCounts
  };
  CounterSet<kNumCounts> m_;
  Gauge* m_model_gen_;  ///< serve.model_generation
  Gauge* m_pinned_;     ///< serve.pinned (nodes pinned)
  Gauge* m_running_;    ///< serve.running (/readyz liveness)
  ConcurrentHistogram* rm_batch_size_;  ///< serve.batch.size
  FeatureBufferStats fb_at_start_{};
};

}  // namespace gnndrive
