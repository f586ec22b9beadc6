#include "core/multi_gpu.hpp"

#include <thread>

#include "util/worker_group.hpp"

namespace gnndrive {

MultiGpuGnnDrive::MultiGpuGnnDrive(const RunContext& ctx,
                                   MultiGpuConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  GD_CHECK(config_.num_replicas >= 1);
  for (std::uint32_t r = 0; r < config_.num_replicas; ++r) {
    // Identical model seed => identical initialization across replicas,
    // which per-step gradient averaging then keeps in lock-step.
    auto replica = std::make_unique<GnnDrive>(ctx_, config_.replica);
    replica->set_segment(r, config_.num_replicas);
    replicas_.push_back(std::move(replica));
  }
}

MultiGpuGnnDrive::~MultiGpuGnnDrive() = default;

EpochStats MultiGpuGnnDrive::run_epoch(std::uint64_t epoch) {
  const std::uint32_t n = config_.num_replicas;
  if (n == 1) return replicas_[0]->run_epoch(epoch);

  // Gradient bytes per all-reduce (value-sized, not optimizer state).
  const std::uint64_t grad_bytes =
      replicas_[0]->model().param_state_bytes() / 4;
  const double allreduce_us =
      2.0 * static_cast<double>(n - 1) / static_cast<double>(n) *
          static_cast<double>(grad_bytes) / config_.interconnect_mb_s +
      config_.allreduce_overhead_us * n;

  // A phase averages the replicas that arrived to sync. One whose epoch
  // ended (early, or by an exception) leaves the barrier instead, and a
  // phase of leaves only is no all-reduce (docs/internals.md).
  std::vector<char> syncing(n, 0);
  std::vector<GnnModel*> arrived;
  arrived.reserve(n);
  const auto on_sync = [&]() noexcept {
    // Runs on the last thread to arrive; everyone else is blocked at the
    // barrier — collective semantics, like NCCL all-reduce.
    for (std::uint32_t r = 0; r < n; ++r) {
      if (syncing[r] != 0) arrived.push_back(&replicas_[r]->model());
      syncing[r] = 0;
    }
    if (arrived.empty()) return;
    GnnModel::average_grads(arrived);
    arrived.clear();
    std::this_thread::sleep_for(from_us(allreduce_us));
  };
  std::barrier sync(n, on_sync);
  for (std::uint32_t r = 0; r < n; ++r) {
    replicas_[r]->set_grad_sync_hook([&, r](GnnModel&) {
      syncing[r] = 1;
      sync.arrive_and_wait();
    });
  }

  std::vector<EpochStats> stats(n);
  const TimePoint t0 = Clock::now();
  WorkerGroup group;
  for (std::uint32_t r = 0; r < n; ++r) {
    group.spawn([&, r] {
      struct Leave {
        decltype(sync)& b;
        ~Leave() { b.arrive_and_drop(); }
      } leave{sync};
      stats[r] = replicas_[r]->run_epoch(epoch);
    });
  }
  group.join();
  for (auto& r : replicas_) r->set_grad_sync_hook(nullptr);
  group.rethrow();

  EpochStats out;
  out.epoch_seconds = to_seconds(Clock::now() - t0);
  for (const auto& s : stats) {
    out.batches += s.batches;
    out.loss += s.loss / n;
    out.train_accuracy += s.train_accuracy / n;
    out.sample_seconds += s.sample_seconds;
    out.extract_seconds += s.extract_seconds;
    out.train_seconds += s.train_seconds;
    out.interrupted = out.interrupted || s.interrupted;
    out.result.failed_batches += s.result.failed_batches;
    out.result.trained_batches += s.result.trained_batches;
    out.result.io_errors += s.result.io_errors;
    out.result.io_retries += s.result.io_retries;
    out.result.io_recovered += s.result.io_recovered;
    out.result.io_timeouts += s.result.io_timeouts;
  }
  return out;
}

double MultiGpuGnnDrive::evaluate() { return replicas_[0]->evaluate(); }

}  // namespace gnndrive
