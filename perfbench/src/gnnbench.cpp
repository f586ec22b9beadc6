// GNNDrive benchmark program: builds one workload from a seed, trains and
// serves it from outside the library, checks the outputs and prints every
// metric by name and unit, ending with one JSON line.
//
//   gnnbench --workload <train-io|train-memtight|serve-closed>
//            --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1 is
// a separate run that turns span tracing on and reports the per-layer
// breakdown: registry counter diffs, EpochStats::obs, the pipeline's own
// stage spans, the serve report, single-threaded timings of layer entry
// points and an exact-count pass. See perfbench/README.md.
#include <sys/resource.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "core/evaluate.hpp"
#include "core/extract.hpp"
#include "obs/trace.hpp"
#include "rig.hpp"

using namespace gnndrive;
using namespace perfbench;

namespace {

/// Validation accuracy the trained model must reach on the 32-class
/// papers100m-mini task (chance is 1/32; two epochs already reach ~0.99).
constexpr double kAccuracyFloor = 0.8;
/// Repeated set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Concurrent closed-loop clients.
constexpr std::uint32_t kClients = 4;
/// Requests served in a traced run (enough for the per-request p50s).
constexpr std::uint32_t kTracedRequests = 1000;
/// Equal time windows the serving phase is split into; serve_qps and
/// serve_p50_ms are medians over them.
constexpr int kServeWindows = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gnnbench: %s\nusage: gnnbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      a.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have[1] = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      have[2] = true;
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      a.trace = t == "1";
      have[3] = true;
    } else {
      usage("unknown argument");
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) usage("bad number");
  }
  for (const bool h : have) {
    if (!h) usage("every argument is required");
  }
  return a;
}

double seconds_since(TimePoint t0) { return to_seconds(Clock::now() - t0); }

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Collects checks and metrics, then prints them and the JSON result line.
class Report {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
  }
  /// A metric without a finite value fails the run.
  void metric(const std::string& name, std::optional<double> v,
              const char* unit) {
    const bool ok = v.has_value() && std::isfinite(*v);
    if (!ok) check(false, "metric " + name + " has a value");
    metrics_.push_back({name, ok ? *v : 0.0, unit});
  }
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints every metric, then the result line; returns the exit code.
  int finish() const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ && attempted_ > 0 ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -- Set-up -------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Rig> rig;
  double seconds = 0.0;
};

Setup set_up(const Workload& w, std::uint64_t seed) {
  Setup s;
  const TimePoint t0 = Clock::now();
  s.dataset = std::make_unique<Dataset>(Dataset::build(dataset_spec(w)));
  s.rig = make_rig(*s.dataset, w.host_mem_gb, train_config(seed));
  s.seconds = seconds_since(t0);
  return s;
}

// -- Training phase -----------------------------------------------------------

/// Checks one epoch: every batch trained, none failed, a finite loss.
void check_epoch(Report& rep, const EpochStats& s, const char* label) {
  rep.attempt(s.batches, s.batches - std::min(s.batches,
                                               s.result.trained_batches));
  rep.check(s.result.trained_batches == s.batches && s.result.ok() &&
                s.batches > 0,
            std::string(label) + ": " +
                std::to_string(s.result.trained_batches) + "/" +
                std::to_string(s.batches) + " batches trained, " +
                std::to_string(s.result.failed_batches) + " failed");
  rep.check(std::isfinite(s.loss),
            std::string(label) + ": loss " + std::to_string(s.loss) +
                " is finite");
}

struct TrainRun {
  double warmup_s = 0.0;
  double warmup_loss = 0.0;
  std::vector<EpochStats> epochs;  ///< timed epochs, in order
  double cpu_s = 0.0;              ///< process CPU over the timed epochs
  std::uint64_t next_epoch = 0;
};

/// Cold epoch, then timed epochs until `budget_s` has passed and at least
/// `min_epochs` ran.
TrainRun train(Report& rep, GnnDrive& sys, double budget_s,
               std::uint32_t min_epochs) {
  TrainRun run;
  const EpochStats warm = sys.run_epoch(run.next_epoch++);
  check_epoch(rep, warm, "warm-up epoch");
  run.warmup_s = warm.epoch_seconds;
  run.warmup_loss = warm.loss;
  const double cpu0 = process_cpu_seconds();
  const TimePoint t0 = Clock::now();
  while (run.epochs.size() < min_epochs || seconds_since(t0) < budget_s) {
    const double c0 = process_cpu_seconds();
    run.epochs.push_back(sys.run_epoch(run.next_epoch++));
    const EpochStats& e = run.epochs.back();
    std::printf("epoch %llu: %.4f s, cpu %.2f ms/batch, loss %.6f\n",
                static_cast<unsigned long long>(run.next_epoch - 1),
                e.epoch_seconds,
                (process_cpu_seconds() - c0) * 1e3 /
                    static_cast<double>(std::max<std::uint64_t>(e.batches, 1)),
                e.loss);
    check_epoch(rep, e, "timed epoch");
  }
  run.cpu_s = process_cpu_seconds() - cpu0;
  return run;
}

/// Loss trend and validation accuracy, both off the clock.
void check_model(Report& rep, GnnDrive& sys, const TrainRun& run) {
  const double last = run.epochs.back().loss;
  rep.check(last <= run.warmup_loss,
            "last timed loss " + std::to_string(last) +
                " <= warm-up loss " + std::to_string(run.warmup_loss));
  const double acc = sys.evaluate();
  rep.check(acc >= kAccuracyFloor, "validation accuracy " +
                                       std::to_string(acc) + " >= floor " +
                                       std::to_string(kAccuracyFloor));
}

// -- Serving phase ------------------------------------------------------------

struct ServeRun {
  std::vector<Completion> done;  ///< client-side, per kOk request
  std::uint64_t submitted = 0;
  std::uint64_t not_ok = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServeReport report;
};

/// Closed loop: kClients threads each submit one request for a seeded
/// random node and wait for its reply before sending the next, until
/// `budget_s` has passed and at least `min_requests` were answered.
ServeRun serve(Rig& rig, std::uint64_t seed, double budget_s,
               std::uint32_t min_requests) {
  const Dataset& ds = *rig.ctx.dataset;
  const auto classes =
      static_cast<std::int32_t>(ds.spec().num_classes);
  ServeEngine engine(rig.ctx, serve_config(), *rig.system);
  engine.start();

  ServeRun run;
  std::mutex mu;
  std::atomic<std::uint64_t> answered{0};
  const double cpu0 = process_cpu_seconds();
  const TimePoint t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RequestStream stream(seed, c, ds.spec().num_nodes);
      std::vector<Completion> done;
      std::uint64_t sent = 0;
      std::uint64_t bad = 0;
      for (;;) {
        const TimePoint ts = Clock::now();
        InferResult r;
        try {
          r = engine.submit(stream.next()).get();
        } catch (const std::future_error&) {
          ++sent;  // a broken promise: count it and stop this client
          ++bad;
          break;
        }
        ++sent;
        if (r.status == InferStatus::kOk && r.predicted_class >= 0 &&
            r.predicted_class < classes) {
          done.push_back({seconds_since(t0), seconds_since(ts) * 1e3});
        } else {
          ++bad;
        }
        if (answered.fetch_add(1) + 1 >= min_requests &&
            seconds_since(t0) >= budget_s) {
          break;
        }
      }
      std::lock_guard lk(mu);
      run.done.insert(run.done.end(), done.begin(), done.end());
      run.submitted += sent;
      run.not_ok += bad;
    });
  }
  for (auto& t : clients) t.join();
  run.wall_s = seconds_since(t0);
  run.cpu_s = process_cpu_seconds() - cpu0;
  engine.stop();
  run.report = engine.report();
  return run;
}

std::vector<double> latencies_ms(const ServeRun& run) {
  std::vector<double> out;
  out.reserve(run.done.size());
  for (const Completion& c : run.done) out.push_back(c.latency_ms);
  return out;
}

void check_serve(Report& rep, const ServeRun& run) {
  rep.attempt(run.submitted, run.not_ok);
  rep.check(run.not_ok == 0 && run.submitted > 0,
            std::to_string(run.submitted - run.not_ok) + "/" +
                std::to_string(run.submitted) +
                " requests answered kOk with a class in range");
}

// -- Untraced run: end-to-end metrics ------------------------------------------

int run_untraced(const Args& a, const Workload& w) {
  Report rep;
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.rig.reset();      // the system reads the dataset, so it goes first
    s.dataset.reset();  // free the old copy before building the next
    s = set_up(w, a.seed);
    setup_s.push_back(s.seconds);
    std::printf("set-up %d: %.4f s\n", i, s.seconds);
  }
  GnnDrive& sys = *s.rig->system;

  const TrainRun tr =
      train(rep, sys, w.train_share * a.seconds, w.min_epochs);
  check_model(rep, sys, tr);
  const ServeRun sr = serve(*s.rig, a.seed, (1.0 - w.train_share) * a.seconds,
                            w.min_requests);
  check_serve(rep, sr);

  std::vector<double> epoch_s;
  std::uint64_t trained = 0;
  for (const EpochStats& e : tr.epochs) {
    epoch_s.push_back(e.epoch_seconds);
    trained += e.result.trained_batches;
  }
  const auto served = static_cast<double>(sr.done.size());
  const WindowedMedians serve_w =
      windowed_medians(sr.done, sr.wall_s, kServeWindows);
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("rss_peak_mib", peak_rss_mib(), "MiB");
  rep.metric("warmup_s", tr.warmup_s, "s");
  rep.metric("epoch_s", median(epoch_s), "s");
  rep.metric("cpu_ms_per_batch",
             ratio(tr.cpu_s * 1e3, static_cast<double>(trained)), "ms");
  rep.metric("serve_qps", serve_w.rate_per_s, "1/s");
  rep.metric("serve_p50_ms", serve_w.p50_ms, "ms");
  rep.metric("cpu_ms_per_request", ratio(sr.cpu_s * 1e3, served), "ms");
  // The p99 is shown but not gated: it moves by up to 30% between runs when
  // other tenants load the host (see README.md).
  std::printf("timed epochs %zu; served %zu requests in %.2f s, p99 %.3f ms\n",
              tr.epochs.size(), sr.done.size(), sr.wall_s,
              tail_percentile(latencies_ms(sr), 0.99).value_or(0.0));
  return rep.finish();
}

// -- Traced run: per-layer metrics ----------------------------------------------

/// Per-batch span totals of the traced epoch, by span name.
struct SpanTotals {
  std::map<std::string, double> ms;  ///< summed duration per span name
  double trainer_queue_wait_ms = 0;  ///< queue_wait on the trainer thread

  double of(const char* name) const {
    const auto it = ms.find(name);
    return it != ms.end() ? it->second : 0.0;
  }
};

SpanTotals span_totals(const SpanTracer& tracer) {
  const std::vector<SpanRecord> spans = tracer.spans();
  // The trainer is the one thread that records train spans; its queue_wait
  // spans are the time it waited for an extracted batch.
  std::uint32_t trainer_tid = ~0u;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == kSpanTrain) trainer_tid = s.tid;
  }
  SpanTotals t;
  for (const SpanRecord& s : spans) {
    const double ms = static_cast<double>(s.dur_ns) / 1e6;
    t.ms[s.name] += ms;
    if (s.tid == trainer_tid && std::string(s.name) == kSpanQueueWait) {
      t.trainer_queue_wait_ms += ms;
    }
  }
  return t;
}

/// Sampled batches of the workload's own training inputs, for the
/// single-threaded layer timings.
std::vector<SampledBatch> sample_batches(const Dataset& ds,
                                         const GnnDriveConfig& cfg,
                                         std::uint64_t seed, std::size_t n) {
  DirectTopology topo(ds);
  NeighborSampler sampler(cfg.common.sampler);
  const auto seeds = make_minibatches(ds.train_nodes(), cfg.common.batch_seeds,
                                      derive_seed(seed, "layer_timings"));
  std::vector<SampledBatch> out;
  for (std::size_t i = 0; i < n && i < seeds.size(); ++i) {
    out.push_back(sampler.sample(i, seeds[i], topo, &ds.labels()));
  }
  return out;
}

std::uint32_t covering_row_bytes(std::uint32_t row_bytes) {
  return row_bytes % kSectorSize == 0
             ? row_bytes
             : static_cast<std::uint32_t>(round_up(row_bytes, kSectorSize)) +
                   kSectorSize;
}

/// Host cost of IoRing::prep_read + submit per SQE, against the workload's
/// device; the completions are reaped outside the timed region.
double time_ring_submit_us(Report& rep, SsdDevice& ssd, const Dataset& ds,
                           const std::vector<SampledBatch>& batches) {
  constexpr unsigned kDepth = 32;
  const OnDiskLayout& lay = ds.layout();
  const std::uint32_t cover =
      covering_row_bytes(static_cast<std::uint32_t>(lay.feature_row_bytes));
  IoRingConfig rc;
  rc.queue_depth = kDepth;
  IoRing ring(ssd, rc);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(kDepth) * cover +
                                kSectorSize);
  auto* base = reinterpret_cast<std::uint8_t*>(
      round_up(reinterpret_cast<std::uintptr_t>(buf.data()), kSectorSize));
  std::vector<std::uint64_t> offsets;
  for (const SampledBatch& b : batches) {
    for (const NodeId v : b.nodes) {
      offsets.push_back(
          lay.feature_offset_of(v) / kSectorSize * kSectorSize);
    }
  }
  double submit_s = 0.0;
  std::uint64_t sqes = 0;
  std::uint64_t errors = 0;
  for (std::size_t i = 0; i + kDepth <= offsets.size() && sqes < 4096;
       i += kDepth) {
    const TimePoint t0 = Clock::now();
    for (unsigned k = 0; k < kDepth; ++k) {
      ring.prep_read(offsets[i + k], cover,
                     base + static_cast<std::size_t>(k) * cover, k);
    }
    ring.submit();
    submit_s += seconds_since(t0);
    for (unsigned k = 0; k < kDepth; ++k) {
      if (ring.wait_cqe().res < 0) ++errors;
    }
    sqes += kDepth;
  }
  rep.check(errors == 0 && sqes > 0,
            "ring timing: " + std::to_string(sqes) + " reads, " +
                std::to_string(errors) + " errors");
  return submit_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(sqes, 1));
}

/// plan_segments over each batch's whole node set, default coalescing caps.
double time_plan_segments_us(const Dataset& ds, const GnnDriveConfig& cfg,
                             const std::vector<SampledBatch>& batches) {
  const auto row = static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  const std::uint32_t max_bytes =
      staging_row_bytes_for(cfg.coalesce, covering_row_bytes(row));
  double total_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t segments = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (const SampledBatch& b : batches) {
      std::vector<std::uint32_t> load(b.nodes.size());
      for (std::uint32_t i = 0; i < load.size(); ++i) load[i] = i;
      const TimePoint t0 = Clock::now();
      const SegmentPlan plan = plan_segments(
          load, b.nodes, ds.layout(), row, max_bytes,
          cfg.coalesce.max_rows_per_read, cfg.coalesce.max_gap_bytes);
      total_s += seconds_since(t0);
      segments += plan.segments.size();
      ++calls;
    }
  }
  std::printf("plan_segments: %llu calls, %.2f segments per call\n",
              static_cast<unsigned long long>(calls),
              static_cast<double>(segments) / static_cast<double>(calls));
  return total_s * 1e6 / static_cast<double>(calls);
}

/// GnnModel::train_batch (forward + backward) with features read through
/// Dataset::read_feature_row outside the timed region.
double time_train_batch_ms(const Dataset& ds, GnnDrive& sys,
                           const std::vector<SampledBatch>& batches) {
  GnnModel model(sys.config().common.model);
  Adam adam(sys.config().common.adam);
  const std::uint32_t dim = ds.spec().feature_dim;
  double total_s = 0.0;
  for (const SampledBatch& b : batches) {
    Tensor x0(static_cast<std::uint32_t>(b.num_nodes()), dim);
    for (std::uint32_t i = 0; i < b.num_nodes(); ++i) {
      ds.read_feature_row(b.nodes[i], x0.row(i));
    }
    const TimePoint t0 = Clock::now();
    model.train_batch(b, x0);
    total_s += seconds_since(t0);
    adam.zero_grad(model.params());
  }
  return total_s * 1e3 / static_cast<double>(batches.size());
}

/// Counters the exact-count pass compares across two identical runs, with
/// the metric each is reported under.
struct ExactCounter {
  const char* counter;
  const char* metric;
};
constexpr ExactCounter kExactCounters[] = {
    {"ssd.reads", "exact.ssd_reads"},
    {"ssd.bytes_read", "exact.ssd_bytes_read"},
    {"fb.loads", "exact.fb_loads"},
    {"io.coalesce.segments", "exact.io_coalesce_segments"},
    {"io.coalesce.rows", "exact.io_coalesce_rows"},
    {"pagecache.misses", "exact.pagecache_misses"},
};

/// Two fresh 1-sampler/1-extractor cold epochs over an eighth of the
/// training split; reports the first run's counts and how many repeated.
void exact_count_pass(Report& rep, const Dataset& ds, const Workload& w,
                      std::uint64_t seed) {
  std::vector<RegistryDelta> runs;
  for (int r = 0; r < 2; ++r) {
    GnnDriveConfig cfg = train_config(seed);
    cfg.num_samplers = 1;
    cfg.num_extractors = 1;
    auto rig = make_rig(ds, w.host_mem_gb, cfg);
    rig->system->set_segment(0, 8);
    const auto before = rig->registry().snapshot();
    const EpochStats s = rig->system->run_epoch(0);
    check_epoch(rep, s, "exact-count epoch");
    runs.push_back(diff(before, rig->registry().snapshot()));
  }
  int repeating = 0;
  for (const ExactCounter& c : kExactCounters) {
    const std::uint64_t a = runs[0].counter(c.counter);
    const std::uint64_t b = runs[1].counter(c.counter);
    repeating += a == b;
    const std::string label =
        a == b ? "exact: repeats"
               : "not exact: second run read " + std::to_string(b);
    std::printf("exact-count %-22s %llu (%s)\n", c.counter,
                static_cast<unsigned long long>(a), label.c_str());
    rep.metric(c.metric, static_cast<double>(a), "count");
  }
  rep.metric("exact.repeating_counters", repeating, "count");
}

int run_traced(const Args& a, const Workload& w) {
  Report rep;
  Setup s = set_up(w, a.seed);
  Rig& rig = *s.rig;
  GnnDrive& sys = *rig.system;
  const Dataset& ds = *s.dataset;

  // Untraced epochs first: the baseline for the tracing overhead.
  const TrainRun tr = train(rep, sys, 0.0, std::max<std::uint32_t>(
                                               w.min_epochs, 2));
  std::vector<double> untraced_s;
  for (const EpochStats& e : tr.epochs) untraced_s.push_back(e.epoch_seconds);

  SpanTracer& tracer = *rig.telemetry->tracer();
  tracer.reset();
  rig.telemetry->set_tracing(true);
  const auto before = rig.registry().snapshot();
  const EpochStats ep = sys.run_epoch(tr.next_epoch);
  const RegistryDelta d = diff(before, rig.registry().snapshot());
  rig.telemetry->set_tracing(false);
  check_epoch(rep, ep, "traced epoch");
  rep.check(d.regressed.empty(), "no registry counter went backwards");
  rep.check(tracer.dropped() == 0, "no spans dropped");
  const SpanTotals spans = span_totals(tracer);

  const auto batches = static_cast<double>(ep.result.trained_batches);
  const auto per_batch = [&](double v) { return ratio(v, batches); };
  const auto counter = [&](const char* n) {
    return static_cast<double>(d.counter(n));
  };
  const LatencyHistogram req = d.histogram("io.request_us");
  const double window_us =
      ep.epoch_seconds * 1e6 * static_cast<double>(rig.ssd->config().channels);

  rep.metric("sampling.sample_ms", ep.obs.sample.mean_us / 1e3, "ms");
  rep.metric("sampling.nodes_per_batch", per_batch(counter("fb.train.lookups")),
             "count");
  rep.metric("memsim.pagecache_hit_rate",
             ratio(counter("pagecache.hits"),
                   counter("pagecache.hits") + counter("pagecache.misses")),
             "ratio");
  rep.metric("memsim.fault_wait_ms_per_batch",
             per_batch(counter("pagecache.fault_wait_us") / 1e3), "ms");
  rep.metric("memsim.evictions_per_batch",
             per_batch(counter("pagecache.evictions")), "count");
  rep.metric("storage.reads_per_batch", per_batch(counter("ssd.reads")),
             "count");
  rep.metric("storage.mib_per_batch",
             per_batch(counter("ssd.bytes_read") / (1024.0 * 1024.0)), "MiB");
  rep.metric("storage.busy_share", ratio(counter("ssd.busy_us"), window_us),
             "ratio");
  rep.metric("storage.request_us_p50", tail_percentile(req, 0.50), "us");
  rep.metric("storage.request_us_p99", tail_percentile(req, 0.99), "us");
  rep.metric("aio.sqes_per_batch", per_batch(counter("io.submitted")),
             "count");
  rep.metric("core.extract_ms", ep.obs.extract.mean_us / 1e3, "ms");
  rep.metric("core.ring_submit_ms", per_batch(spans.of(kSpanRingSubmit)),
             "ms");
  rep.metric("core.ssd_wait_ms", per_batch(spans.of(kSpanSsdWait)),
             "ms");
  rep.metric("core.copy_wait_ms", per_batch(spans.of(kSpanCopyWait)),
             "ms");
  rep.metric("core.rows_per_read", ep.obs.rows_per_read(), "count");
  rep.metric("core.fb_hit_rate", ep.obs.fb_hit_rate(), "ratio");
  rep.metric("core.fb_loads_per_batch",
             per_batch(static_cast<double>(ep.obs.fb_loads)), "count");
  rep.metric("core.fb_lock_acquisitions_per_batch",
             per_batch(counter("fb.batch_lock_acquisitions")), "count");
  rep.metric("core.fb_evictions_per_batch", per_batch(counter("fb.evictions")),
             "count");
  rep.metric("core.queue_wait_ms", per_batch(spans.trainer_queue_wait_ms),
             "ms");
  rep.metric("core.train_q_pop_blocked_per_batch",
             per_batch(counter("pipeline.train_q.pop_blocked")), "count");
  rep.metric("gnn.train_ms", ep.obs.train.mean_us / 1e3, "ms");
  const std::optional<double> untraced = median(untraced_s);
  rep.metric("obs.tracing_overhead_pct",
             untraced ? ratio((ep.epoch_seconds - *untraced) * 100.0, *untraced)
                      : std::nullopt,
             "%");

  // Serving, traced, after training (training is idle).
  tracer.reset();
  rig.telemetry->set_tracing(true);
  const ServeRun sr = serve(rig, a.seed, 0.0, kTracedRequests);
  rig.telemetry->set_tracing(false);
  check_serve(rep, sr);
  const ServeReport& r = sr.report;
  rep.metric("serve.latency_ms_p99", tail_percentile(latencies_ms(sr), 0.99),
             "ms");
  rep.metric("serve.queue_wait_ms_p50", r.queue_wait.p50_us / 1e3, "ms");
  rep.metric("serve.extract_ms_p50", r.extract.p50_us / 1e3, "ms");
  rep.metric("serve.infer_ms_p50", r.infer.p50_us / 1e3, "ms");
  rep.metric("serve.batch_size_mean", r.coalesce_factor, "count");
  rep.metric("serve.fb_hit_rate", r.fb_hit_rate, "ratio");

  // Layer entry points timed from outside, single-threaded.
  const auto sampled = sample_batches(ds, sys.config(), a.seed, 32);
  rep.metric("aio.submit_us_per_sqe",
             time_ring_submit_us(rep, *rig.ssd, ds, sampled), "us");
  rep.metric("core.plan_segments_us",
             time_plan_segments_us(ds, sys.config(), sampled), "us");
  rep.metric("gnn.train_batch_ms", time_train_batch_ms(ds, sys, sampled),
             "ms");

  exact_count_pass(rep, ds, w, a.seed);
  return rep.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    const Workload w = workload_by_name(a.workload);
    std::printf("workload %s seed %llu seconds %.1f trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    return a.trace ? run_traced(a, w) : run_untraced(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnnbench: %s\n", e.what());
    return 1;
  }
}
