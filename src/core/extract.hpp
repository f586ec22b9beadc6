// Coalesced extraction fast path, shared by training (GnnDrive) and
// serving (ServeEngine).
//
// The extract stage of Algorithm 1 used to issue one direct SSD read per
// to-load node. Under the discrete-event device model
// (service = base_latency + len/bandwidth, ~80 us base at 2 GB/s) a 2-4 KiB
// feature row pays ~80 us of fixed per-request cost for ~1-2 us of data
// movement, so request count — not bandwidth — dominates extract time.
// This module applies the standard disk-based-GNN remedy (cf. Ginex):
//
//   1. sort the to-load set by on-disk feature offset (sorted runs),
//   2. greedily merge adjacent/overlapping sector-aligned covering ranges
//      into multi-row *segments*, bounded by `max_coalesce_bytes` (a segment
//      must fit one staging row) and `max_rows_per_read`, optionally jumping
//      small gaps (`max_gap_bytes` — reading a few wasted sectors is far
//      cheaper than a second request under the base-latency cost model),
//   3. issue one read per segment and, on completion, scatter each contained
//      row into its feature-buffer slot (one H2D per row on GPU, memcpy on
//      CPU).
//
// Per-segment failure granularity preserves the fault-tolerance contract:
// a transient error retries the whole segment (keeping its staging row); an
// unrecoverable one marks every node of the segment failed and fails the
// batch exactly like the per-node path did. `coalesce.enabled = false`
// degenerates to one single-row segment per node — the planner and loop are
// the same code, so the A/B toggle compares pure I/O shapes.
//
// GPUDirect-Storage mode runs through the same loop. Its staging rows are
// device memory (the GDS bounce area, `ExtractEnv::device_staging`), which
// changes exactly two things: covering ranges align to 4 KiB pages instead
// of sectors, and a completed segment reaches the feature buffer through
// an on-device copy instead of per-row H2D transfers.
//
// Entry points:
//   * plan_segments()     — pure planning, property-tested in isolation.
//   * triage_batch()      — Algorithm 1 pass 1 via one batched lock take.
//   * extract_load_set()  — the submit/reap/retry/scatter loop.
//   * resolve_wait_list() — Algorithm 1 line 38, fault-tolerant.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aio/io_ring.hpp"
#include "core/feature_buffer.hpp"
#include "graph/dataset.hpp"
#include "obs/metrics.hpp"
#include "sampling/block.hpp"

namespace gnndrive {

class GpuDevice;
class Telemetry;

/// Coalescing knobs, shared verbatim by GnnDriveConfig and ServeConfig.
struct CoalesceConfig {
  /// Master toggle (the A/B flag): off falls back to one read per node
  /// through the same planner/loop with caps of one row.
  bool enabled = true;
  /// Upper bound on one merged read; also the staging-row slot size, so a
  /// segment always fits its row. Rounded up to the sector size.
  std::uint32_t max_coalesce_bytes = 24 * 1024;
  /// Upper bound on feature rows per merged read.
  std::uint32_t max_rows_per_read = 64;
  /// Covering ranges closer than this merge across the hole (the wasted
  /// bytes are cheaper than a second request's base latency). 0 merges
  /// only strictly adjacent/overlapping ranges. The device model prices a
  /// gap at gap/(bandwidth/channels) of channel time against the base
  /// latency one fewer request saves, so the break-even gap is
  /// base_latency_us * bandwidth_mb_s / channels bytes (~10 KiB for the
  /// default device); the default sits just above it because extract
  /// latency also gains from the deeper effective row depth.
  std::uint32_t max_gap_bytes = 12 * 1024;
};

/// Read plan for one to-load set: rows grouped into per-read segments.
struct SegmentPlan {
  struct Row {
    std::uint32_t load_pos = 0;    ///< index into the caller's load_idx
    std::uint32_t seg_offset = 0;  ///< row's byte offset within its segment
  };
  struct Segment {
    std::uint64_t base = 0;       ///< aligned disk offset
    std::uint32_t len = 0;        ///< aligned read length
    std::uint32_t first_row = 0;  ///< range [first_row, first_row+num_rows)
    std::uint32_t num_rows = 0;   ///< ... into SegmentPlan::rows
  };
  std::vector<Row> rows;  ///< sorted by disk offset, grouped by segment
  std::vector<Segment> segments;
};

/// Transient storage failures (-EIO, -ETIMEDOUT) are retried; anything
/// else (alignment bugs, out-of-range) fails the read immediately.
bool transient_error(std::int32_t res);

/// Worst-case covering read for one feature row at access granularity
/// `align` (kSectorSize for direct I/O, kPageSize for GPUDirect Storage).
std::uint32_t covering_bytes_for(std::uint32_t row_bytes,
                                 std::uint32_t align = kSectorSize);

/// Plans `align`-aligned covering reads for `load_idx` (indices into
/// `nodes`), sorted by disk offset and greedily merged under the caps.
/// `max_bytes` must admit at least one covering row; `max_rows >= 1`;
/// ranges merge when the gap between consecutive covering ranges is at
/// most `max_gap_bytes`.
///
/// Offsets come from `lay.feature_offset_of`, i.e. they are *physical* row
/// positions under whatever layout plan is installed (src/layout). The
/// planner itself is layout-oblivious — a packed store simply presents it
/// with denser sorted runs, so the same greedy merge yields fewer, longer
/// segments.
SegmentPlan plan_segments(const std::vector<std::uint32_t>& load_idx,
                          const std::vector<NodeId>& nodes,
                          const OnDiskLayout& lay, std::uint32_t row_bytes,
                          std::uint32_t max_bytes, std::uint32_t max_rows,
                          std::uint32_t max_gap_bytes,
                          std::uint32_t align = kSectorSize);

/// The substrate one extraction runs against. All pointers are borrowed.
struct ExtractEnv {
  FeatureBuffer* fb = nullptr;
  const OnDiskLayout* layout = nullptr;
  std::uint32_t row_bytes = 0;          ///< exact feature row bytes
  IoRing* ring = nullptr;
  std::uint8_t* staging_base = nullptr; ///< staging_rows x staging_row_bytes
  std::uint32_t staging_row_bytes = 0;  ///< per-row slot size (>= any segment)
  std::uint32_t staging_rows = 0;       ///< number of recycled row slots
  GpuDevice* gpu = nullptr;             ///< null: host memcpy scatter
  Telemetry* telemetry = nullptr;       ///< optional (I/O-wait traces)
  /// Staging rows are device memory (GPUDirect Storage): reads align to
  /// kPageSize and segments scatter by on-device copy. Requires `gpu`.
  bool device_staging = false;
};

/// Fault/retry policy plus log identity for one extraction.
struct ExtractPolicy {
  CoalesceConfig coalesce;
  std::uint32_t max_retries = 3;
  Duration request_timeout{};           ///< watchdog cancel threshold
  Duration poll{};                      ///< wait_cqe_for granularity
  /// Delay before retry number `attempt` (1-based). Training installs
  /// jittered exponential backoff, serving a flat short delay; null means
  /// retry immediately.
  std::function<Duration(std::uint32_t attempt)> backoff;
  std::uint64_t batch_id = 0;           ///< for structured failure logs
  std::uint64_t epoch = 0;
  bool log_epoch = true;                ///< serve batches carry no epoch
  const char* fail_event = "extract_failed";
};

/// Registry instruments for the extraction loop, resolved once per worker
/// by resolve_extract_hooks. A field left unset points at an unread sink
/// (UnreadInstruments), so the loop updates every hook unconditionally.
struct ExtractMetricHooks {
  /// io.coalesce.segments, io.coalesce.rows, io.coalesce.rows_per_read
  Counter* segments = &UnreadInstruments::get().counter;
  Counter* rows = &UnreadInstruments::get().counter;
  ConcurrentHistogram* rows_per_read = &UnreadInstruments::get().histogram;
  /// io.staging_in_use (rows held)
  Gauge* staging_in_use = &UnreadInstruments::get().gauge;
  /// fault.io_retries
  Counter* io_retries = &UnreadInstruments::get().counter;
};

/// The hooks, resolved from `registry`.
ExtractMetricHooks resolve_extract_hooks(MetricsRegistry& registry);

/// Per-call accounting, merged by the caller into its own counters
/// (EpochResult for training, the serve.* counters for serving).
struct ExtractCounters {
  std::uint64_t io_errors = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_recovered = 0;
  std::uint64_t io_timeouts = 0;
  std::uint64_t segments = 0;     ///< reads issued (first submissions)
  std::uint64_t rows_loaded = 0;  ///< feature rows delivered by those reads

  ExtractCounters& operator+=(const ExtractCounters& o) {
    io_errors += o.io_errors;
    io_retries += o.io_retries;
    io_recovered += o.io_recovered;
    io_timeouts += o.io_timeouts;
    segments += o.segments;
    rows_loaded += o.rows_loaded;
    return *this;
  }
};

/// Tracing accumulators (nanoseconds), filled only while `tracing` is set.
struct ExtractTrace {
  bool tracing = false;
  std::uint64_t submit_ns = 0;
  std::uint64_t ssd_wait_ns = 0;
  std::uint64_t copy_wait_ns = 0;
};

/// Algorithm 1 pass 1 for a whole batch under one buffer-lock acquisition:
/// ready nodes alias immediately, in-flight nodes join `wait_idx`, absent
/// nodes join `load_idx`. Reference counts are taken for every node. When a
/// sealed hot partition exists, pinned nodes resolve lock-free (no slot
/// allocation, no reference) before the cold residue is triaged under the
/// lock; `client` attributes the lookups (fb.train.* / fb.serve.*).
void triage_batch(FeatureBuffer& fb, SampledBatch& batch,
                  std::vector<std::uint32_t>& wait_idx,
                  std::vector<std::uint32_t>& load_idx,
                  FbClient client = FbClient::kTrain);

/// Algorithm 1 pass 2 over `load_idx`: plan segments, allocate slots
/// (batched, one lock take per segment), submit asynchronous reads, scatter
/// completed rows into the feature buffer, retry transient failures per
/// segment, and drain all transfers before returning. Returns false when
/// the batch failed permanently — every node of `load_idx` is then resolved
/// (valid or failed) and the caller still owns releasing all references.
bool extract_load_set(SampledBatch& batch,
                      const std::vector<std::uint32_t>& load_idx,
                      const ExtractEnv& env, const ExtractPolicy& policy,
                      const ExtractMetricHooks& hooks,
                      ExtractCounters& counters, ExtractTrace* trace);

/// Algorithm 1 line 38: waits for nodes other workers are loading. Returns
/// false when any of them failed or timed out (the caller fails its batch).
bool resolve_wait_list(FeatureBuffer& fb, SampledBatch& batch,
                       const std::vector<std::uint32_t>& wait_idx,
                       Duration timeout);

/// Effective per-staging-row byte size for a configuration: the covering
/// row when coalescing is off, max_coalesce_bytes (rounded to `align`, at
/// least one covering row) when on.
std::uint32_t staging_row_bytes_for(const CoalesceConfig& coalesce,
                                    std::uint32_t covering_row_bytes,
                                    std::uint32_t align = kSectorSize);

/// Effective staging row count: coalesced mode needs far fewer in-flight
/// reads to saturate the device channels than the per-node path, so the
/// row pool shrinks (bounding host pinning) while `ring_depth` keeps its
/// meaning for the per-node path and the ring's SQE capacity.
std::uint32_t staging_rows_for(const CoalesceConfig& coalesce,
                               std::uint32_t ring_depth);

}  // namespace gnndrive
