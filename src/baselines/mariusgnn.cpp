#include "baselines/mariusgnn.hpp"

#include <algorithm>
#include <numeric>

#include "aio/io_ring.hpp"

namespace gnndrive {

namespace {

/// In-buffer topology: neighbors outside the resident partitions are
/// dropped, as MariusGNN samples solely from buffered partitions. Topology
/// of resident partitions is memory-resident (edge buckets are loaded with
/// the partitions), so no I/O is charged. Single-threaded: caches the last
/// filtered adjacency list.
class BufferedTopology final : public TopologyReader {
 public:
  BufferedTopology(const Dataset& dataset, const MariusGnn& marius,
                   const std::vector<std::int32_t>& slot_of_part)
      : dataset_(&dataset), marius_(&marius), slot_of_part_(&slot_of_part) {}

  std::uint64_t degree(NodeId v) const override {
    refresh(v);
    return filtered_.size();
  }
  NodeId neighbor_at(NodeId v, std::uint64_t j) override {
    refresh(v);
    return filtered_[j];
  }
  void neighbors(NodeId v, std::vector<NodeId>& out) override {
    refresh(v);
    out.insert(out.end(), filtered_.begin(), filtered_.end());
  }

 private:
  void refresh(NodeId v) const {
    if (have_ && last_ == v) return;
    filtered_.clear();
    for (NodeId nb : dataset_->read_neighbors(v)) {
      if ((*slot_of_part_)[marius_->partition_of(nb)] >= 0) {
        filtered_.push_back(nb);
      }
    }
    last_ = v;
    have_ = true;
  }

  const Dataset* dataset_;
  const MariusGnn* marius_;
  const std::vector<std::int32_t>* slot_of_part_;
  mutable std::vector<NodeId> filtered_;
  mutable NodeId last_ = 0;
  mutable bool have_ = false;
};

/// Chunked I/O over a byte range through a shallow ring (MariusGNN's prep
/// and swap traffic).
void chunked_io(SsdDevice& ssd, Telemetry* tel, bool write,
                std::uint64_t offset, std::uint64_t len,
                std::uint32_t chunk_bytes, unsigned depth,
                std::uint8_t* scratch /* depth * chunk_bytes */) {
  IoRingConfig rc;
  rc.queue_depth = depth;
  rc.direct = true;
  IoRing ring(ssd, rc, nullptr, tel);
  const std::uint64_t aligned = round_up(len, kSectorSize);
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  while (done < aligned) {
    while (submitted < aligned && ring.in_flight() < depth) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_bytes, aligned - submitted));
      std::uint8_t* buf = scratch + (ring.in_flight() % depth) * chunk_bytes;
      if (write) {
        ring.prep_write(offset + submitted, n, buf, n);
      } else {
        ring.prep_read(offset + submitted, n, buf, n);
      }
      ring.submit();
      submitted += n;
    }
    const Cqe cqe = ring.wait_cqe();
    GD_CHECK(cqe.res >= 0);
    done += cqe.user_data;
  }
}

}  // namespace

MariusGnn::MariusGnn(const RunContext& ctx, MariusConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler) {
  const Dataset& ds = *ctx_.dataset;
  HostMemory& mem = *ctx_.host_mem;
  metadata_pin_ = PinnedBytes(mem, ds.host_metadata_bytes(), "marius-meta");

  const std::uint32_t P = config_.num_partitions;
  part_rows_ = div_ceil(ds.spec().num_nodes, P);
  // A resident partition carries its feature rows and its edge buckets
  // (in-edges of its nodes, 8 B each on disk).
  const std::uint64_t edge_bytes_per_part = ds.spec().num_edges * 8ull / P;
  part_bytes_ = static_cast<std::uint64_t>(part_rows_) *
                    ds.layout().feature_row_bytes +
                edge_bytes_per_part;

  const auto usable = static_cast<std::uint64_t>(
      static_cast<double>(mem.available()) * config_.mem_frac);
  const std::uint64_t fit = usable / part_bytes_;
  // Two partitions' worth of space is reserved for prep/swap staging.
  const std::int64_t c = static_cast<std::int64_t>(fit) - 2;
  if (c < static_cast<std::int64_t>(MariusConfig::kMinBufferPartitions)) {
    throw SimOutOfMemory(
        "MariusGNN: partition buffer cannot hold the minimum " +
        std::to_string(MariusConfig::kMinBufferPartitions) +
        " partitions (fits " + std::to_string(fit) + " of " +
        std::to_string(P) + ", " + std::to_string(part_bytes_) +
        " bytes each)");
  }
  capacity_ = static_cast<std::uint32_t>(std::min<std::int64_t>(c, P));
  buffer_pin_ = PinnedBytes(mem, (capacity_ + 2ull) * part_bytes_,
                            "marius-partition-buffer");
  buffer_.resize(static_cast<std::size_t>(capacity_) * part_rows_ *
                 ds.spec().feature_dim);
  slot_of_part_.assign(P, -1);

  trainer_ = std::make_unique<GpuTrainer>(ctx_, config_.common, config_.gpu);
}

void MariusGnn::load_partition(std::uint32_t part, std::uint32_t buffer_slot) {
  const Dataset& ds = *ctx_.dataset;
  // Physical row range [first, last): contiguous on disk by construction
  // (partitions split the packed store, not the node-id space).
  const std::uint64_t first = static_cast<std::uint64_t>(part) * part_rows_;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + part_rows_, ds.spec().num_nodes);
  if (first >= last) {
    slot_of_part_[part] = static_cast<std::int32_t>(buffer_slot);
    return;
  }
  // Feature rows: one big sequential read straight into the buffer slot.
  const std::uint64_t off = ds.layout().feature_offset_of_row(first);
  const std::uint64_t len =
      static_cast<std::uint64_t>(last - first) * ds.layout().feature_row_bytes;
  float* dst = buffer_.data() + static_cast<std::size_t>(buffer_slot) *
                                    part_rows_ * ds.spec().feature_dim;
  constexpr std::uint32_t kChunk = 1 << 20;
  stream_range(*ctx_.ssd, ctx_.telemetry, /*write=*/false, off,
               reinterpret_cast<std::uint8_t*>(dst), len, kChunk,
               /*depth=*/8);
  // Edge buckets ride along (charged as extra sequential bytes).
  std::vector<std::uint8_t> scratch(8 * kChunk);
  chunked_io(*ctx_.ssd, ctx_.telemetry, /*write=*/false,
             ds.layout().indices_offset,
             std::min<std::uint64_t>(ds.layout().indices_bytes,
                                     ds.spec().num_edges * 8ull /
                                         config_.num_partitions),
             kChunk, 8, scratch.data());
  slot_of_part_[part] = static_cast<std::int32_t>(buffer_slot);
}

EpochStats MariusGnn::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  const std::uint32_t dim = ds.spec().feature_dim;
  const std::uint32_t P = config_.num_partitions;

  EpochStats stats;
  const TimePoint t_epoch = Clock::now();

  // ---- Data preparation: order partitions and shuffle data on disk.
  std::vector<std::uint32_t> order(P);
  {
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(splitmix64(config_.common.run_seed ^ (epoch + 0xBE7A)));
    for (std::uint32_t i = P - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }

    // ceil(P/c) shuffle passes: read features + rewrite them to scratch in
    // small chunks at low queue depth (the paper's dominant prep cost; more
    // passes when fewer partitions fit in memory).
    const std::uint32_t passes = static_cast<std::uint32_t>(
        div_ceil(P, capacity_));
    std::vector<std::uint8_t> scratch(
        static_cast<std::size_t>(config_.prep_ring_depth) *
        config_.prep_chunk_bytes);
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
      chunked_io(*ctx_.ssd, ctx_.telemetry, /*write=*/false,
                 ds.layout().features_offset, ds.layout().features_bytes,
                 config_.prep_chunk_bytes, config_.prep_ring_depth,
                 scratch.data());
      chunked_io(*ctx_.ssd, ctx_.telemetry, /*write=*/true,
                 ds.layout().scratch_offset, ds.layout().features_bytes,
                 config_.prep_chunk_bytes, config_.prep_ring_depth,
                 scratch.data());
    }

    // Preload the initial buffer.
    std::fill(slot_of_part_.begin(), slot_of_part_.end(), -1);
    for (std::uint32_t s = 0; s < capacity_; ++s) {
      load_partition(order[s], s);
    }
    stats.prep_seconds = to_seconds(Clock::now() - t_epoch);
  }

  // ---- Training: walk the partition ordering; train each partition's
  // seed nodes while it is resident, sampling only within the buffer.
  std::vector<std::vector<NodeId>> seeds_of_part(P);
  for (NodeId v : ds.train_nodes()) seeds_of_part[partition_of(v)].push_back(v);

  BufferedTopology topo(ds, *this, slot_of_part_);
  std::uint64_t batch_counter = 0;
  std::uint32_t next_victim = 0;  // round-robin buffer slot for swaps

  const auto swap_in = [&](std::uint32_t part,
                           std::uint32_t keep_resident) -> void {
    // Evict the round-robin resident partition (never the active one),
    // then load `part` into its slot.
    std::uint32_t slot = next_victim;
    if (slot_of_part_[keep_resident] == static_cast<std::int32_t>(slot)) {
      next_victim = (next_victim + 1) % capacity_;
      slot = next_victim;
    }
    next_victim = (next_victim + 1) % capacity_;
    for (std::uint32_t p = 0; p < P; ++p) {
      if (slot_of_part_[p] == static_cast<std::int32_t>(slot)) {
        slot_of_part_[p] = -1;
      }
    }
    const TimePoint t0 = Clock::now();
    load_partition(part, slot);
    stats.extract_seconds += to_seconds(Clock::now() - t0);
  };

  for (std::uint32_t oi = 0; oi < P; ++oi) {
    const std::uint32_t part = order[oi];
    if (slot_of_part_[part] < 0) swap_in(part, part);

    // Companion-swap rounds: rotate the non-active slots across the
    // remaining partitions so this partition's cross-partition edge
    // buckets get covered before its nodes train (BETA-ordering swap
    // traffic; see MariusConfig::companion_swaps).
    if (config_.companion_swaps && capacity_ < P && capacity_ > 1) {
      std::uint32_t companion = (oi + 1) % P;
      const std::uint32_t rounds = static_cast<std::uint32_t>(
          div_ceil(P - capacity_, capacity_));
      for (std::uint32_t r = 0; r < rounds; ++r) {
        // Next non-resident partition in order.
        while (slot_of_part_[order[companion]] >= 0 &&
               companion != oi) {
          companion = (companion + 1) % P;
        }
        if (companion == oi) break;
        swap_in(order[companion], part);
      }
    }

    auto seed_batches = make_minibatches(
        seeds_of_part[part], config_.common.batch_seeds,
        splitmix64(config_.common.run_seed ^ (epoch + 1) ^ (part * 77ull)));
    for (auto& seeds : seed_batches) {
      TimePoint t0 = Clock::now();
      SampledBatch batch;
      {
        BusyScope busy(ctx_.telemetry);
        batch = sampler_.sample(((epoch + 1) << 24) | batch_counter++, seeds,
                                topo, &ds.labels());
      }
      stats.sample_seconds += to_seconds(Clock::now() - t0);

      // Extraction: all sampled nodes are resident by construction.
      t0 = Clock::now();
      Tensor x0(static_cast<std::uint32_t>(batch.num_nodes()), dim);
      {
        BusyScope busy(ctx_.telemetry);
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          const NodeId v = batch.nodes[i];
          const std::int32_t slot = slot_of_part_[partition_of(v)];
          GD_CHECK_MSG(slot >= 0, "marius sampled a non-resident node");
          // Buffer slots hold physical rows, so index by the node's row
          // within its partition's extent.
          const std::uint64_t row = ds.layout().feature_row_of(v);
          const float* src =
              buffer_.data() +
              (static_cast<std::size_t>(slot) * part_rows_ +
               (row - static_cast<std::uint64_t>(partition_of(v)) *
                          part_rows_)) *
                  dim;
          std::memcpy(x0.row(i), src, static_cast<std::size_t>(dim) * 4);
        }
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);

      t0 = Clock::now();
      const TrainStats tr = trainer_->step(batch, x0);
      stats.train_seconds += to_seconds(Clock::now() - t0);
      stats.loss += tr.loss;
      stats.train_accuracy +=
          tr.total > 0
              ? static_cast<double>(tr.correct) / static_cast<double>(tr.total)
              : 0.0;
      ++stats.batches;
    }
  }

  stats.epoch_seconds = to_seconds(Clock::now() - t_epoch);
  if (stats.batches > 0) {
    stats.loss /= static_cast<double>(stats.batches);
    stats.train_accuracy /= static_cast<double>(stats.batches);
  }
  return stats;
}

double MariusGnn::evaluate() {
  return evaluate_accuracy(trainer_->model(), *ctx_.dataset,
                           config_.common.sampler);
}

}  // namespace gnndrive
