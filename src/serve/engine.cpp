#include "serve/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/attribution.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sampling/topology.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

/// Serve batch ids live far above training's ((epoch+1) << 24 | b) space so
/// trace rows and log lines never collide.
constexpr std::uint64_t kServeBatchBase = 1ull << 48;

ServeConfig resolve_serve_config(ServeConfig config, GnnDrive& host) {
  if (config.sampler.fanouts.size() !=
      host.model().config().num_layers) {
    config.sampler = host.config().common.sampler;
  }
  // Serving shares the host's feature buffer, so the hot partition must be
  // pinned (and sealed) before the serve pin budget is carved from the cold
  // region. A no-op under the LRU policy or when already profiled.
  host.ensure_hot_cache();
  return config;
}

}  // namespace

const char* infer_status_name(InferStatus status) {
  switch (status) {
    case InferStatus::kOk: return "ok";
    case InferStatus::kRejected: return "rejected";
    case InferStatus::kShedDeadline: return "shed_deadline";
    case InferStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::string ServeReport::format() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "  requests submitted=%llu ok=%llu failed=%llu "
                "rejected=%llu shed=%llu\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(shed_deadline));
  out += line;
  std::snprintf(line, sizeof(line),
                "  batching batches=%llu coalesce=%.2fx queue_max=%llu\n",
                static_cast<unsigned long long>(batches), coalesce_factor,
                static_cast<unsigned long long>(queue_depth_max));
  out += line;
  out += latency.row("latency") + queue_wait.row("qwait") +
         extract.row("extract") + infer.row("infer");
  std::snprintf(line, sizeof(line),
                "  fbuffer  hit-rate=%.1f%%  io_errors=%llu io_retries=%llu\n",
                100.0 * fb_hit_rate,
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(io_retries));
  out += line;
  return out;
}

struct ServeEngine::ModelSet {
  std::uint64_t version = 0;  ///< checkpoint generation of the last hot swap
  std::vector<std::unique_ptr<GnnModel>> replicas;  ///< one per worker
};

struct ServeEngine::WorkerState {
  std::unique_ptr<MmapTopology> topo;
  std::unique_ptr<IoRing> ring;
  std::uint8_t* staging_base = nullptr;  ///< staging_rows_ segment-wide rows
  /// Replica set pinned for the current micro-batch (drain-and-swap: held
  /// until the batch finishes, so a concurrent publish never frees a model
  /// under an in-flight forward pass).
  std::shared_ptr<const ModelSet> models;
  GnnModel* model = nullptr;             ///< this worker's forward replica
  ExtractMetricHooks hooks;              ///< io.coalesce.*, fault.io_retries
};

ServeEngine::ServeEngine(const RunContext& ctx, const ServeConfig& config,
                         ServeSubstrate substrate)
    : ctx_(with_telemetry(ctx, own_telemetry_)), config_(config),
      sub_(substrate), sampler_(config_.sampler),
      queue_(config_, *ctx_.telemetry->metrics()),
      coalescer_(queue_, config_.max_batch, config_.max_wait_us),
      workers_([this] { queue_.close(); }),  // fail fast: stop admitting
      queue_wait_(*ctx_.telemetry, "serve.queue_wait.us", nullptr),
      extract_(*ctx_.telemetry, "serve.extract.us", kSpanServeExtract),
      infer_(*ctx_.telemetry, "serve.infer.us", kSpanServeInfer),
      latency_(*ctx_.telemetry, "serve.latency.us", nullptr),
      m_(*ctx_.telemetry->metrics(),
         {"serve.completed", "serve.failed", "serve.shed_deadline",
          "serve.batches", "serve.io_retries", "serve.io_errors",
          "serve.hot_swaps"}) {
  GD_CHECK_MSG(ctx_.dataset != nullptr && ctx_.ssd != nullptr,
               "ServeEngine needs a dataset and an SSD");
  GD_CHECK_MSG(sub_.feature_buffer != nullptr && sub_.params != nullptr,
               "ServeEngine needs a feature buffer and a parameter source");
  GD_CHECK_MSG(config_.sampler.fanouts.size() ==
                   sub_.params->config().num_layers,
               "serve fanout depth must match the model's layer count");
  config_.workers = std::max(config_.workers, 1u);
  config_.ring_depth = std::max(config_.ring_depth, 1u);

  // The serve pin budget comes from the COLD region only: hot-partition
  // slots are pinned and never pass through allocate_slot, so they cannot
  // back serve's slot demand. cold_slots == num_slots with the hot cache off.
  const std::uint64_t cold = sub_.feature_buffer->cold_slots();
  if (cold <= sub_.reserved_slots) {
    throw std::invalid_argument(
        "ServeEngine: no cold feature-buffer headroom beyond the training "
        "reserve (cold_slots=" + std::to_string(cold) +
        " reserved=" + std::to_string(sub_.reserved_slots) +
        "); shrink cache.hot_fraction or grow the buffer");
  }
  pin_budget_ = cold - sub_.reserved_slots;

  const Dataset& ds = *ctx_.dataset;
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  // Coalesced extraction sizing, mirroring the training pipeline: staging
  // rows widen to hold a merged segment, the per-worker pool shrinks.
  staging_row_bytes_ =
      staging_row_bytes_for(config_.coalesce, covering_bytes_for(row_bytes));
  staging_rows_ = staging_rows_for(config_.coalesce, config_.ring_depth);
  const std::uint64_t staging_bytes =
      static_cast<std::uint64_t>(config_.workers) * staging_rows_ *
      staging_row_bytes_;
  if (ctx_.host_mem != nullptr) {
    staging_pin_ = PinnedBytes(*ctx_.host_mem, staging_bytes, "serve-staging");
  }
  staging_.resize(staging_bytes);

  models_ = make_model_set(*sub_.params, 0);

  MetricsRegistry& reg = *ctx_.telemetry->metrics();
  m_model_gen_ = &reg.gauge("serve.model_generation");
  m_pinned_ = &reg.gauge("serve.pinned");
  m_running_ = &reg.gauge("serve.running");
  rm_batch_size_ = &reg.histogram("serve.batch.size");

  // Tell the attributor about the serve side of the topology and register
  // a windowed p99-vs-SLO rule so the watcher alerts the moment serving
  // degrades, instead of after a run-summary aggregate drifts.
  AttributionConfig ac = ctx_.telemetry->attributor()->config();
  ac.serve_workers = config_.workers;
  ac.serve_slo_us = config_.slo.deadline_ms * 1e3;
  ctx_.telemetry->attributor()->set_config(ac);
  if (config_.slo.deadline_ms > 0) {
    SloRule rule;
    rule.name = "serve_p99_slo";
    rule.kind = SloRule::Kind::kHistogramQuantile;
    rule.metric = "serve.latency.us";
    rule.quantile = 0.99;
    rule.threshold = config_.slo.deadline_ms * 1e3;
    rule.window_s = 2.0;
    ctx_.telemetry->slo()->add_rule(std::move(rule));
  }

  GD_LOG_INFO("ServeEngine: workers=%u max_batch=%u wait=%.0fus "
              "pin_budget=%llu",
              config_.workers, config_.max_batch, config_.max_wait_us,
              static_cast<unsigned long long>(pin_budget_));
}

ServeEngine::ServeEngine(const RunContext& ctx, ServeConfig config,
                         GnnDrive& host)
    : ServeEngine(ctx, resolve_serve_config(std::move(config), host),
                  ServeSubstrate{
                      &host.feature_buffer(), &host.model(), host.gpu(),
                      static_cast<std::uint64_t>(host.effective_extractors()) *
                          host.max_batch_nodes()}) {}

ServeEngine::~ServeEngine() {
  // stop() is the polite path that surfaces worker errors; a destructor
  // must not throw, so an error still pending here is only logged.
  try {
    stop();
  } catch (const std::exception& e) {
    GD_LOG_WARN("ServeEngine: worker error at destruction: %s", e.what());
  } catch (...) {
  }
}

void ServeEngine::start() {
  GD_CHECK_MSG(!running_, "ServeEngine::start called twice");
  fb_at_start_ = sub_.feature_buffer->stats(FbClient::kServe);
  running_ = true;
  // Liveness + telemetry lease: /readyz keys off serve.running, and the
  // time-series sampler runs for as long as the engine accepts requests.
  m_running_->add(1);
  sampler_lease_.emplace(ctx_.telemetry->sampler());
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    workers_.spawn([this, w] { worker_loop(w); });
  }
}

std::future<InferResult> ServeEngine::submit(NodeId node) {
  return queue_.submit(node);
}

void ServeEngine::stop() {
  if (!running_) return;
  queue_.close();
  workers_.join();
  running_ = false;
  m_running_->sub(1);
  sampler_lease_.reset();
  workers_.rethrow();
}

std::shared_ptr<const ServeEngine::ModelSet> ServeEngine::current_models()
    const {
  std::lock_guard lk(models_mu_);
  return models_;
}

void ServeEngine::publish_models(std::shared_ptr<const ModelSet> set) {
  std::lock_guard lk(models_mu_);
  models_ = std::move(set);
  m_model_gen_->set(static_cast<std::int64_t>(models_->version));
}

std::uint64_t ServeEngine::model_generation() const {
  std::lock_guard lk(models_mu_);
  return models_->version;
}

std::shared_ptr<const ServeEngine::ModelSet> ServeEngine::make_model_set(
    GnnModel& source, std::uint64_t version) const {
  // Per-worker forward replicas: GnnModel's forward caches are per-instance
  // state, so the training model cannot be shared across serve workers.
  auto set = std::make_shared<ModelSet>();
  set->version = version;
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    set->replicas.push_back(std::make_unique<GnnModel>(source.config()));
    set->replicas.back()->copy_params_from(source);
  }
  return set;
}

void ServeEngine::refresh_params() {
  publish_models(make_model_set(*sub_.params, model_generation()));
}

std::uint64_t ServeEngine::hot_swap_from(CheckpointManager& manager,
                                         const ModelFingerprint& expect) {
  // Stage into a scratch model first: a corrupt or absent checkpoint must
  // leave the live replicas untouched.
  GnnModel staged(sub_.params->config());
  auto loaded = manager.load_latest(staged, /*adam=*/nullptr, expect);
  if (!loaded.has_value()) return 0;
  publish_models(make_model_set(staged, loaded->generation));
  m_[kHotSwaps].add();
  GD_LOG_INFO("ServeEngine: hot-swapped to checkpoint generation %llu",
              static_cast<unsigned long long>(loaded->generation));
  return loaded->generation;
}

void ServeEngine::acquire_pins(std::uint64_t n) {
  std::unique_lock lk(pin_mu_);
  pin_cv_.wait(lk, [&] { return pin_budget_ - pins_in_use_ >= n; });
  pins_in_use_ += n;
  m_pinned_->set(static_cast<std::int64_t>(pins_in_use_));
}

void ServeEngine::release_pins(std::uint64_t n) {
  {
    std::lock_guard lk(pin_mu_);
    GD_CHECK_MSG(pins_in_use_ >= n, "serve pin accounting underflow");
    pins_in_use_ -= n;
    m_pinned_->set(static_cast<std::int64_t>(pins_in_use_));
  }
  pin_cv_.notify_all();
}

void ServeEngine::finish(PendingRequest& r, InferStatus status,
                         std::int32_t cls, std::uint32_t coalesced,
                         TimePoint done) {
  InferResult res;
  res.request_id = r.id;
  res.status = status;
  res.predicted_class = cls;
  res.queue_us = r.queue_us;
  res.total_us = to_seconds(done - r.arrival) * 1e6;
  res.coalesced_with = coalesced;
  switch (status) {
    case InferStatus::kOk:
      m_[kCompleted].add();
      // The SLO latency distribution covers served requests only; shed and
      // failed requests are counted, not timed.
      latency_.record(r.id, 0, r.arrival, done);
      break;
    case InferStatus::kShedDeadline:
      m_[kShedDeadline].add();
      break;
    case InferStatus::kFailed:
      m_[kFailed].add();
      break;
    case InferStatus::kRejected:
      break;  // resolved by the queue, never reaches here
  }
  r.promise.set_value(std::move(res));
}

void ServeEngine::worker_loop(std::uint32_t worker_id) {
  WorkerState ws;
  ws.topo = std::make_unique<MmapTopology>(*ctx_.dataset, *ctx_.page_cache);
  IoRingConfig rc;
  rc.queue_depth = config_.ring_depth;
  rc.direct = true;  // serving always bypasses the page cache, like training
  rc.max_transfer_bytes = staging_row_bytes_;
  ws.ring = std::make_unique<IoRing>(*ctx_.ssd, rc, nullptr, ctx_.telemetry);
  ws.staging_base = staging_.data() + static_cast<std::uint64_t>(worker_id) *
                                          staging_rows_ * staging_row_bytes_;
  ws.hooks = resolve_extract_hooks(*ctx_.telemetry->metrics());
  for (;;) {
    auto batch = coalescer_.collect();
    if (batch.empty()) return;  // queue closed & drained
    // Resolve the replica set at the micro-batch boundary and pin it for
    // the batch's duration — the drain half of drain-and-swap.
    ws.models = current_models();
    ws.model = ws.models->replicas[worker_id].get();
    process_batch(std::move(batch), ws);
    ws.model = nullptr;
    ws.models.reset();  // retire the old set promptly after a swap
  }
}

void ServeEngine::process_batch(std::vector<PendingRequest>&& batch,
                                WorkerState& ws) {
  const std::uint64_t batch_id =
      kServeBatchBase |
      (next_batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  const auto coalesced = static_cast<std::uint32_t>(batch.size());
  m_[kBatches].add();
  rm_batch_size_->add_us(static_cast<double>(coalesced));

  // Deadline shedding: a request whose SLO already expired while queued is
  // resolved immediately — spending I/O on it cannot make it on-time, and
  // dropping it shrinks the batch for everyone behind it.
  const TimePoint picked = Clock::now();
  std::vector<PendingRequest> active;
  active.reserve(batch.size());
  for (PendingRequest& r : batch) {
    r.queue_us = to_seconds(picked - r.arrival) * 1e6;
    queue_wait_.record(batch_id, 0, r.arrival, picked);
    if (r.has_deadline && config_.slo.shed_expired && picked > r.deadline) {
      finish(r, InferStatus::kShedDeadline, -1, coalesced, picked);
    } else {
      active.push_back(std::move(r));
    }
  }
  if (active.empty()) return;

  // Merge the surviving requests into one sampled batch. The sampler
  // dedupes repeated seeds; seed_row maps each request back to its logits
  // row (first occurrence wins).
  std::vector<NodeId> seeds;
  seeds.reserve(active.size());
  std::vector<std::uint32_t> seed_row(active.size(), 0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    std::uint32_t row = 0;
    while (row < seeds.size() && seeds[row] != active[i].node) ++row;
    if (row == seeds.size()) seeds.push_back(active[i].node);
    seed_row[i] = row;
  }
  const TimePoint ts = Clock::now();
  SampledBatch sb;
  {
    BusyScope busy(ctx_.telemetry);
    sb = sampler_.sample(batch_id, seeds, *ws.topo, nullptr);
  }
  ctx_.telemetry->tracer()->record(kSpanServeSample, batch_id, 0, ts,
                                   Clock::now());

  bool served = false;
  std::vector<std::int32_t> pred(active.size(), -1);
  // Hot-partition nodes resolve to pinned slots without an allocation, so
  // only the cold residue of the batch draws on the serve pin budget.
  std::uint64_t need = sb.num_nodes();
  if (sub_.feature_buffer->hot_sealed()) {
    std::uint64_t hot = 0;
    for (NodeId v : sb.nodes) {
      if (sub_.feature_buffer->hot_slot(v) != kNoSlot) ++hot;
    }
    need -= hot;
  }
  if (need > pin_budget_) {
    // The batch cannot fit the serve share of the buffer even alone;
    // admitting it to check_and_ref could deadlock against training.
    log_structured(LogLevel::kWarn, "serve_batch_over_budget",
                   {kv("batch", batch_id), kv("nodes", need),
                    kv("budget", pin_budget_)});
  } else {
    acquire_pins(need);
    const TimePoint te = Clock::now();
    const bool extracted = extract_batch(sb, ws);
    extract_.record(batch_id, 0, te, Clock::now());
    if (extracted) {
      const TimePoint ti = Clock::now();
      const std::uint32_t dim = ctx_.dataset->spec().feature_dim;
      Tensor x0(static_cast<std::uint32_t>(sb.num_nodes()), dim);
      Tensor logits;
      const auto run = [&] {
        for (std::uint32_t i = 0; i < sb.num_nodes(); ++i) {
          GD_CHECK_MSG(sb.alias[i] != kNoSlot, "untracked node at infer time");
          std::memcpy(x0.row(i), sub_.feature_buffer->slot_data(sb.alias[i]),
                      dim * 4);
        }
        logits = ws.model->forward(sb, x0);
      };
      if (sub_.gpu != nullptr) {
        sub_.gpu->launch(run);
      } else {
        BusyScope busy(ctx_.telemetry);
        run();
      }
      infer_.record(batch_id, 0, ti, Clock::now());
      for (std::size_t i = 0; i < active.size(); ++i) {
        const float* row = logits.row(seed_row[i]);
        std::uint32_t best = 0;
        for (std::uint32_t c = 1; c < logits.cols(); ++c) {
          if (row[c] > row[best]) best = c;
        }
        pred[i] = static_cast<std::int32_t>(best);
      }
      served = true;
    }
    // Success or failure, every reference taken in pass 1 is dropped here —
    // the zero-slot-leak guarantee the fault tests pin down.
    sub_.feature_buffer->release(sb.nodes);
    release_pins(need);
  }

  const TimePoint done = Clock::now();
  for (std::size_t i = 0; i < active.size(); ++i) {
    finish(active[i], served ? InferStatus::kOk : InferStatus::kFailed,
           pred[i], coalesced, done);
  }
}

bool ServeEngine::extract_batch(SampledBatch& batch, WorkerState& ws) {
  // Runs the shared coalescing core (core/extract.cpp) — the same planner,
  // submit/reap loop and fault protocol as GnnDrive::extract_batch — under
  // a serving-oriented retry policy: flat short delay instead of
  // exponential backoff (a serve batch would rather fail fast than sit out
  // a long backoff), and there is no GDS/buffered-I/O variant.
  FeatureBuffer& fb = *sub_.feature_buffer;
  const OnDiskLayout& lay = ctx_.dataset->layout();
  const auto row_bytes = static_cast<std::uint32_t>(lay.feature_row_bytes);
  const Duration req_timeout = from_us(config_.request_timeout_ms * 1e3);
  const Duration poll =
      std::max(from_us(config_.request_timeout_ms * 1e3 / 4), from_us(500.0));
  const Duration wait_list_timeout = from_us(config_.wait_list_timeout_ms * 1e3);
  const Duration retry_delay = from_us(std::max(config_.retry_delay_us, 0.0));

  std::vector<std::uint32_t> wait_idx;
  std::vector<std::uint32_t> load_idx;
  {
    BusyScope busy(ctx_.telemetry);
    triage_batch(fb, batch, wait_idx, load_idx, FbClient::kServe);
  }

  // The pin budget guarantees the serve share of the standby list can cover
  // this batch's slot allocations, and training's reserve covers its own
  // extractors — neither side can deadlock the other.
  ExtractEnv env;
  env.fb = &fb;
  env.layout = &lay;
  env.row_bytes = row_bytes;
  env.ring = ws.ring.get();
  env.staging_base = ws.staging_base;
  env.staging_row_bytes = staging_row_bytes_;
  env.staging_rows = staging_rows_;
  env.gpu = sub_.gpu;
  env.telemetry = ctx_.telemetry;

  ExtractPolicy policy;
  policy.coalesce = config_.coalesce;
  policy.max_retries = config_.max_retries;
  policy.request_timeout = req_timeout;
  policy.poll = poll;
  policy.backoff = [retry_delay](std::uint32_t) { return retry_delay; };
  policy.batch_id = batch.batch_id;
  policy.log_epoch = false;  // serve batches carry no epoch
  policy.fail_event = "serve_extract_failed";

  ExtractCounters ec;
  bool ok = extract_load_set(batch, load_idx, env, policy, ws.hooks, ec,
                             nullptr);
  m_[kIoErrors].add(ec.io_errors);
  m_[kIoRetries].add(ec.io_retries);

  // Wait-list resolution: nodes a training extractor (or a sibling serve
  // worker) is loading. The loader always resolves them; the timeout only
  // fires if that thread died, and the serve batch fails instead of hanging.
  if (ok) ok = resolve_wait_list(fb, batch, wait_idx, wait_list_timeout);
  return ok;
}

ServeReport ServeEngine::report() const {
  ServeReport r;
  r.submitted = queue_.submitted();
  r.rejected = queue_.rejected();
  r.completed = m_.view(kCompleted);
  r.failed = m_.view(kFailed);
  r.shed_deadline = m_.view(kShedDeadline);
  r.batches = coalescer_.batches();
  r.coalesce_factor = coalescer_.coalesce_factor();
  r.io_errors = m_.view(kIoErrors);
  r.io_retries = m_.view(kIoRetries);
  r.queue_wait = queue_wait_.latency();
  r.extract = extract_.latency();
  r.infer = infer_.latency();
  r.latency = latency_.latency();
  // Serve-attributed counters only: training traffic on the shared buffer
  // must not inflate (or dilute) the serve hit rate.
  const FeatureBufferStats now = sub_.feature_buffer->stats(FbClient::kServe);
  FeatureBufferStats delta;
  delta.hot_hits = now.hot_hits - fb_at_start_.hot_hits;
  delta.reuse_hits = now.reuse_hits - fb_at_start_.reuse_hits;
  delta.wait_hits = now.wait_hits - fb_at_start_.wait_hits;
  delta.loads = now.loads - fb_at_start_.loads;
  r.fb_hit_rate = delta.hit_rate();
  r.queue_depth_max = queue_.max_depth();
  return r;
}

}  // namespace gnndrive
