#include "core/extract.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "gpu/gpu.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

bool transient_error(std::int32_t res) {
  return res == -EIO || res == -ETIMEDOUT;
}

ExtractMetricHooks resolve_extract_hooks(MetricsRegistry& registry) {
  return {&registry.counter("io.coalesce.segments"),
          &registry.counter("io.coalesce.rows"),
          &registry.histogram("io.coalesce.rows_per_read"),
          &registry.gauge("io.staging_in_use"),
          &registry.counter(fault_counter_name(FaultCounter::kIoRetries))};
}

std::uint32_t covering_bytes_for(std::uint32_t row_bytes,
                                 std::uint32_t align) {
  // Rows start sector-aligned exactly when their size is a sector multiple
  // (the feature region starts on a sector). No wider alignment is
  // guaranteed, so every other case may straddle one more block.
  if (align == kSectorSize && row_bytes % kSectorSize == 0) return row_bytes;
  return static_cast<std::uint32_t>(round_up(row_bytes, align) + align);
}

std::uint32_t staging_row_bytes_for(const CoalesceConfig& coalesce,
                                    std::uint32_t covering_row_bytes,
                                    std::uint32_t align) {
  if (!coalesce.enabled) return covering_row_bytes;
  const auto rounded = static_cast<std::uint32_t>(
      round_up(std::max(coalesce.max_coalesce_bytes, 1u), align));
  return std::max(rounded, covering_row_bytes);
}

std::uint32_t staging_rows_for(const CoalesceConfig& coalesce,
                               std::uint32_t ring_depth) {
  if (!coalesce.enabled) return std::max(ring_depth, 1u);
  // Extraction latency scales with in-flight depth well past the device's
  // channel count (requests overlap their base latency), so the pool only
  // shrinks when wide segment rows would blow the pinned-staging budget:
  // keep ~6 MiB of rows per extractor, but never fewer than 64 in flight.
  // (6 MiB keeps four extractors' pools inside the bench's default host
  // budget so coalescing never costs an extractor at the default caps.)
  const std::uint32_t row_bytes = static_cast<std::uint32_t>(
      round_up(std::max(coalesce.max_coalesce_bytes, 1u), kSectorSize));
  const std::uint32_t budget_rows =
      static_cast<std::uint32_t>((6u << 20) / std::max(row_bytes, 1u));
  return std::min(std::max(budget_rows, 64u), std::max(ring_depth, 1u));
}

SegmentPlan plan_segments(const std::vector<std::uint32_t>& load_idx,
                          const std::vector<NodeId>& nodes,
                          const OnDiskLayout& lay, std::uint32_t row_bytes,
                          std::uint32_t max_bytes, std::uint32_t max_rows,
                          std::uint32_t max_gap_bytes, std::uint32_t align) {
  GD_CHECK_MSG(max_rows >= 1, "plan_segments needs max_rows >= 1");
  SegmentPlan plan;
  plan.rows.reserve(load_idx.size());
  if (load_idx.empty()) return plan;

  // Sorted run over disk offsets. Distinct nodes have distinct offsets
  // (layout plans are bijections, so this holds for packed stores too) and
  // the order is total for a triaged (deduplicated) load set.
  struct Item {
    std::uint64_t off;
    std::uint32_t load_pos;
  };
  std::vector<Item> items;
  items.reserve(load_idx.size());
  for (std::uint32_t p = 0; p < load_idx.size(); ++p) {
    items.push_back({lay.feature_offset_of(nodes[load_idx[p]]), p});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.off < b.off; });

  GD_CHECK_MSG(covering_bytes_for(row_bytes, align) <= max_bytes,
               "max_coalesce_bytes below one covering row");

  SegmentPlan::Segment seg;
  std::uint64_t seg_end = 0;  // exclusive end of the current segment
  const auto flush = [&] {
    if (seg.num_rows == 0) return;
    seg.len = static_cast<std::uint32_t>(seg_end - seg.base);
    plan.segments.push_back(seg);
  };
  for (const Item& it : items) {
    const std::uint64_t cover_begin = round_down(it.off, align);
    const std::uint64_t cover_end = round_up(it.off + row_bytes, align);
    const bool fits =
        seg.num_rows > 0 && seg.num_rows < max_rows &&
        cover_begin <= seg_end + max_gap_bytes &&
        std::max(cover_end, seg_end) - seg.base <= max_bytes;
    if (!fits) {
      flush();
      seg = SegmentPlan::Segment{};
      seg.base = cover_begin;
      seg.first_row = static_cast<std::uint32_t>(plan.rows.size());
      seg_end = cover_begin;
    }
    seg_end = std::max(seg_end, cover_end);
    plan.rows.push_back(
        {it.load_pos, static_cast<std::uint32_t>(it.off - seg.base)});
    ++seg.num_rows;
  }
  flush();
  return plan;
}

void triage_batch(FeatureBuffer& fb, SampledBatch& batch,
                  std::vector<std::uint32_t>& wait_idx,
                  std::vector<std::uint32_t>& load_idx, FbClient client) {
  const std::size_t n = batch.nodes.size();
  if (fb.hot_sealed()) {
    // Hot fast path: pinned nodes resolve lock-free through the sealed
    // hot map — no slot allocation, no reference, no buffer lock. Only the
    // cold residue takes the batched lock below.
    std::vector<NodeId> cold_nodes;
    std::vector<std::uint32_t> cold_pos;
    cold_nodes.reserve(n);
    cold_pos.reserve(n);
    std::uint64_t hot = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const SlotId slot = fb.hot_slot(batch.nodes[i]);
      if (slot != kNoSlot) {
        batch.alias[i] = slot;
        ++hot;
      } else {
        cold_nodes.push_back(batch.nodes[i]);
        cold_pos.push_back(i);
      }
    }
    fb.record_hot_hits(hot, client);
    std::vector<FeatureBuffer::CheckResult> results(cold_nodes.size());
    fb.check_and_ref_batch(cold_nodes.data(), cold_nodes.size(),
                           results.data(), client);
    for (std::uint32_t c = 0; c < cold_nodes.size(); ++c) {
      const std::uint32_t i = cold_pos[c];
      switch (results[c].status) {
        case FeatureBuffer::CheckStatus::kReady:
          batch.alias[i] = results[c].slot;
          break;
        case FeatureBuffer::CheckStatus::kInFlight:
          wait_idx.push_back(i);
          break;
        case FeatureBuffer::CheckStatus::kMustLoad:
          load_idx.push_back(i);
          break;
      }
    }
    return;
  }
  std::vector<FeatureBuffer::CheckResult> results(n);
  fb.check_and_ref_batch(batch.nodes.data(), n, results.data(), client);
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (results[i].status) {
      case FeatureBuffer::CheckStatus::kReady:
        batch.alias[i] = results[i].slot;
        break;
      case FeatureBuffer::CheckStatus::kInFlight:
        wait_idx.push_back(i);
        break;
      case FeatureBuffer::CheckStatus::kMustLoad:
        load_idx.push_back(i);
        break;
    }
  }
}

bool resolve_wait_list(FeatureBuffer& fb, SampledBatch& batch,
                       const std::vector<std::uint32_t>& wait_idx,
                       Duration timeout) {
  for (std::uint32_t i : wait_idx) {
    const auto slot = fb.wait_ready(batch.nodes[i], timeout);
    if (!slot.has_value() || *slot == kNoSlot) return false;
    batch.alias[i] = *slot;
  }
  return true;
}

bool extract_load_set(SampledBatch& batch,
                      const std::vector<std::uint32_t>& load_idx,
                      const ExtractEnv& env, const ExtractPolicy& policy,
                      const ExtractMetricHooks& hooks,
                      ExtractCounters& counters, ExtractTrace* trace) {
  FeatureBuffer& fb = *env.fb;
  const OnDiskLayout& lay = *env.layout;
  const std::uint32_t row_bytes = env.row_bytes;
  const bool tracing = trace != nullptr && trace->tracing;

  const CoalesceConfig& co = policy.coalesce;
  const std::uint32_t max_bytes = env.staging_row_bytes;
  const std::uint32_t max_rows = co.enabled ? co.max_rows_per_read : 1;
  const std::uint32_t max_gap = co.enabled ? co.max_gap_bytes : 0;
  GD_CHECK_MSG(!env.device_staging || env.gpu != nullptr,
               "device staging needs a GPU");
  const SegmentPlan plan = plan_segments(
      load_idx, batch.nodes, lay, row_bytes, max_bytes, max_rows, max_gap,
      env.device_staging ? kPageSize : kSectorSize);
  // Host staging feeding a device buffer scatters by asynchronous H2D
  // copies; every other placement copies synchronously on completion.
  const bool async_copy = env.gpu != nullptr && !env.device_staging;
  const std::size_t n_seg = plan.segments.size();

  // Staging rows recycle through this tracker; GPU scatter callbacks touch
  // it from the DMA thread, so every field mutation happens under `m` and
  // notifications stay under the lock (the waiter owns this stack frame and
  // may destroy it the moment its predicate holds).
  struct TransferTracker {
    std::mutex m;
    std::condition_variable cv;
    std::vector<unsigned> free_rows;
    std::vector<std::uint32_t> rows_left;  ///< pending scatters per segment
    std::size_t transfers_done = 0;
  } tracker;
  for (unsigned r = 0; r < env.staging_rows; ++r) {
    tracker.free_rows.push_back(r);
  }
  tracker.rows_left.resize(n_seg, 0);

  std::vector<unsigned> row_of(n_seg, 0);
  std::vector<std::uint32_t> attempts(n_seg, 0);
  struct RetryEntry {
    TimePoint due;
    std::size_t s;
  };
  std::vector<RetryEntry> retries;  // segments sitting out a backoff delay

  std::size_t submitted = 0;
  std::size_t resolved = 0;  // segments that reached a terminal state
  std::size_t inflight = 0;
  std::size_t transfers_started = 0;  // row scatters handed to the GPU/CPU
  bool failed = false;

  // Scratch reused per segment for the batched slot allocation.
  std::vector<NodeId> seg_nodes;
  std::vector<SlotId> seg_slots;

  const auto submit_segment = [&](std::size_t s) {
    const TimePoint t = tracing ? Clock::now() : TimePoint{};
    const SegmentPlan::Segment& seg = plan.segments[s];
    GD_CHECK(seg.len <= env.staging_row_bytes);
    std::uint8_t* dst =
        env.staging_base +
        static_cast<std::uint64_t>(row_of[s]) * env.staging_row_bytes;
    env.ring->prep_read(seg.base, seg.len, dst, s);
    env.ring->submit();
    ++inflight;
    if (tracing) trace->submit_ns += elapsed_ns(t, Clock::now());
  };
  const auto free_row = [&](unsigned row) {
    {
      std::lock_guard lk(tracker.m);
      tracker.free_rows.push_back(row);
    }
    hooks.staging_in_use->sub(1);
    tracker.cv.notify_all();
  };
  const auto fail_segment = [&](std::size_t s) {
    const SegmentPlan::Segment& seg = plan.segments[s];
    for (std::uint32_t r = seg.first_row; r < seg.first_row + seg.num_rows;
         ++r) {
      fb.mark_failed(batch.nodes[load_idx[plan.rows[r].load_pos]]);
    }
    ++resolved;
  };
  // First unrecoverable failure: resolve everything that is not in flight.
  // Unsubmitted segments hold references but no slots; backoff-pending
  // retries also hand their staging rows back.
  const auto fail_pending = [&] {
    for (std::size_t s = submitted; s < n_seg; ++s) fail_segment(s);
    submitted = n_seg;
    for (const RetryEntry& r : retries) {
      fail_segment(r.s);
      free_row(row_of[r.s]);
    }
    retries.clear();
  };

  while (resolved < n_seg) {
    // Resubmit retries whose backoff elapsed (they keep their rows).
    if (!retries.empty()) {
      const TimePoint now = Clock::now();
      for (std::size_t k = 0; k < retries.size();) {
        if (retries[k].due <= now) {
          submit_segment(retries[k].s);
          retries[k] = retries.back();
          retries.pop_back();
        } else {
          ++k;
        }
      }
    }
    // Top up submissions while staging rows are free.
    while (!failed && submitted < n_seg) {
      unsigned row;
      {
        std::lock_guard lk(tracker.m);
        if (tracker.free_rows.empty()) break;
        row = tracker.free_rows.back();
        tracker.free_rows.pop_back();
      }
      hooks.staging_in_use->add(1);
      const std::size_t s = submitted++;
      row_of[s] = row;
      const SegmentPlan::Segment& seg = plan.segments[s];
      // One buffer-lock take allocates every slot of the segment; may block
      // on the standby list exactly like per-node allocate_slot did.
      seg_nodes.clear();
      for (std::uint32_t r = seg.first_row;
           r < seg.first_row + seg.num_rows; ++r) {
        seg_nodes.push_back(batch.nodes[load_idx[plan.rows[r].load_pos]]);
      }
      seg_slots.resize(seg_nodes.size());
      fb.allocate_slots(seg_nodes.data(), seg_nodes.size(), seg_slots.data());
      for (std::uint32_t r = 0; r < seg.num_rows; ++r) {
        batch.alias[load_idx[plan.rows[seg.first_row + r].load_pos]] =
            seg_slots[r];
      }
      ++counters.segments;
      counters.rows_loaded += seg.num_rows;
      hooks.segments->add();
      hooks.rows->add(seg.num_rows);
      hooks.rows_per_read->add_us(static_cast<double>(seg.num_rows));
      submit_segment(s);
    }
    if (failed && submitted < n_seg) {
      fail_pending();
      continue;
    }
    if (inflight == 0) {
      if (resolved == n_seg) break;
      if (!retries.empty()) {
        // Only backed-off segments remain runnable from here; wait until
        // the earliest is due OR a transfer frees a staging row that lets
        // blocked submissions proceed (sleeping blind on the due time used
        // to ignore those completions).
        TimePoint earliest = retries[0].due;
        for (const RetryEntry& r : retries) {
          earliest = std::min(earliest, r.due);
        }
        const TimePoint tw = tracing ? Clock::now() : TimePoint{};
        std::unique_lock lk(tracker.m);
        tracker.cv.wait_until(lk, earliest, [&] {
          return submitted < n_seg && !tracker.free_rows.empty();
        });
        if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
        continue;
      }
      // Nothing in flight to reap; wait for a transfer to free a row.
      ScopedTrace st(env.telemetry, TraceCat::kIoWait);
      const TimePoint tw = tracing ? Clock::now() : TimePoint{};
      std::unique_lock lk(tracker.m);
      tracker.cv.wait(lk, [&] { return !tracker.free_rows.empty(); });
      if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
      continue;
    }
    // Reap one segment; on success its rows scatter immediately and overlap
    // the loading of the next segments. The watchdog turns overdue requests
    // into -ETIMEDOUT completions so a stuck device can never wedge this
    // loop.
    const TimePoint tw = tracing ? Clock::now() : TimePoint{};
    const auto cqe_opt = env.ring->wait_cqe_for(policy.poll);
    if (tracing) trace->ssd_wait_ns += elapsed_ns(tw, Clock::now());
    if (!cqe_opt) {
      env.ring->cancel_expired(policy.request_timeout);
      continue;
    }
    --inflight;
    const std::size_t s = cqe_opt->user_data;
    const SegmentPlan::Segment& seg = plan.segments[s];
    if (cqe_opt->res < 0) {
      ++counters.io_errors;
      if (cqe_opt->res == -ETIMEDOUT) ++counters.io_timeouts;
      if (!failed && transient_error(cqe_opt->res) &&
          attempts[s] < policy.max_retries) {
        ++attempts[s];
        ++counters.io_retries;
        hooks.io_retries->add();
        const Duration delay =
            policy.backoff ? policy.backoff(attempts[s]) : Duration::zero();
        if (delay <= Duration::zero()) {
          submit_segment(s);  // keeps its staging row
        } else {
          retries.push_back({Clock::now() + delay, s});
        }
        continue;
      }
      if (!failed) {
        const NodeId first =
            batch.nodes[load_idx[plan.rows[seg.first_row].load_pos]];
        if (policy.log_epoch) {
          log_structured(LogLevel::kWarn, policy.fail_event,
                         {kv("batch", policy.batch_id),
                          kv("epoch", policy.epoch), kv("node", first),
                          kv("seg_rows", seg.num_rows),
                          kv("res", cqe_opt->res),
                          kv("attempts", attempts[s])});
        } else {
          log_structured(LogLevel::kWarn, policy.fail_event,
                         {kv("batch", policy.batch_id), kv("node", first),
                          kv("seg_rows", seg.num_rows),
                          kv("res", cqe_opt->res),
                          kv("attempts", attempts[s])});
        }
      }
      fail_segment(s);
      free_row(row_of[s]);
      if (!failed) {
        failed = true;
        fail_pending();
      }
      continue;
    }
    if (attempts[s] > 0) ++counters.io_recovered;
    ++resolved;
    const unsigned row = row_of[s];
    std::uint8_t* const row_base =
        env.staging_base +
        static_cast<std::uint64_t>(row) * env.staging_row_bytes;
    if (async_copy) {
      {
        std::lock_guard lk(tracker.m);
        tracker.rows_left[s] = seg.num_rows;
      }
      transfers_started += seg.num_rows;
      for (std::uint32_t r = seg.first_row;
           r < seg.first_row + seg.num_rows; ++r) {
        const NodeId node = batch.nodes[load_idx[plan.rows[r].load_pos]];
        const SlotId slot = batch.alias[load_idx[plan.rows[r].load_pos]];
        const std::uint8_t* src = row_base + plan.rows[r].seg_offset;
        env.gpu->memcpy_h2d_async(
            fb.slot_data(slot), src, row_bytes,
            [&fb, &tracker, node, row, s,
             g_staging = hooks.staging_in_use] {
              fb.mark_valid(node);
              std::lock_guard lk(tracker.m);
              ++tracker.transfers_done;
              // The staging row recycles only after every row of its
              // segment has left it.
              if (--tracker.rows_left[s] == 0) {
                tracker.free_rows.push_back(row);
                g_staging->sub(1);
              }
              tracker.cv.notify_all();
            });
      }
    } else {
      // CPU training/serving copies each row from host staging into the
      // host-resident buffer; GDS copies the whole segment out of the
      // device bounce row in one kernel. Then the staging row recycles.
      const auto scatter = [&] {
        for (std::uint32_t r = seg.first_row;
             r < seg.first_row + seg.num_rows; ++r) {
          const SlotId slot = batch.alias[load_idx[plan.rows[r].load_pos]];
          std::memcpy(fb.slot_data(slot), row_base + plan.rows[r].seg_offset,
                      row_bytes);
        }
      };
      if (env.device_staging) {
        env.gpu->launch(scatter);
      } else {
        scatter();
      }
      for (std::uint32_t r = seg.first_row;
           r < seg.first_row + seg.num_rows; ++r) {
        fb.mark_valid(batch.nodes[load_idx[plan.rows[r].load_pos]]);
      }
      transfers_started += seg.num_rows;
      std::lock_guard lk(tracker.m);
      tracker.transfers_done += seg.num_rows;
      tracker.free_rows.push_back(row);
      hooks.staging_in_use->sub(1);
    }
  }

  // Always drain transfers — their callbacks touch this stack frame.
  if (async_copy && transfers_started > 0) {
    ScopedTrace st(env.telemetry, TraceCat::kIoWait);
    const TimePoint tw = tracing ? Clock::now() : TimePoint{};
    std::unique_lock lk(tracker.m);
    tracker.cv.wait(
        lk, [&] { return tracker.transfers_done == transfers_started; });
    if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
  }
  return !failed;
}

}  // namespace gnndrive
