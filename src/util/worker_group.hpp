// The thread lifecycle every pipeline stage shares: spawn workers, capture
// the first exception, close the caller's queues so the siblings wake and
// drain (the close cascade), join in spawn order, rethrow on the owner's
// thread. Training, serving, the baselines and the multi-GPU replicas all
// run their threads through one group. spawn(), join() and rethrow() are
// called from the owning thread only.
#pragma once

#include <algorithm>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace gnndrive {

class WorkerGroup : NonCopyable {
 public:
  /// `on_error` closes the queues the workers block on. It runs on the
  /// thread that raised the first error, and from the destructor when
  /// threads are still running.
  explicit WorkerGroup(std::function<void()> on_error = nullptr)
      : on_error_(std::move(on_error)) {}

  /// Joins without throwing. Threads still running here mean an exception
  /// unwound the owner before join(): on_error wakes them first.
  ~WorkerGroup() {
    if (joined_ < threads_.size() && on_error_) on_error_();
    join();
  }

  /// Starts `body` on a new thread; an exception escaping it is captured.
  void spawn(std::function<void()> body) {
    threads_.emplace_back([this, body = std::move(body)] {
      try {
        body();
      } catch (...) {
        std::unique_lock lk(mu_);
        if (error_) return;
        error_ = std::current_exception();
        lk.unlock();
        if (on_error_) on_error_();
      }
    });
  }

  /// Joins, in spawn order, the first `count` threads spawned since the
  /// group was last fully joined (all of them by default).
  void join(std::size_t count = std::numeric_limits<std::size_t>::max()) {
    for (; joined_ < std::min(count, threads_.size()); ++joined_) {
      threads_[joined_].join();
    }
    if (joined_ == threads_.size()) {
      threads_.clear();
      joined_ = 0;
    }
  }

  /// Rethrows the first captured exception, then forgets it, so a second
  /// call (or the next run of a restarted group) does not see it again.
  void rethrow() {
    std::unique_lock lk(mu_);
    if (std::exception_ptr e = std::exchange(error_, nullptr)) {
      lk.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  std::function<void()> on_error_;
  std::vector<std::thread> threads_;
  std::size_t joined_ = 0;
  std::mutex mu_;
  std::exception_ptr error_;
};

}  // namespace gnndrive
