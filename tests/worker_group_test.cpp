// WorkerGroup: first-error capture, the on_error close cascade, and a
// destructor that joins without throwing.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/queue.hpp"
#include "util/worker_group.hpp"

namespace gnndrive {
namespace {

TEST(WorkerGroup, RethrowsTheFirstOfConcurrentErrorsExactlyOnce) {
  // on_error runs only after the first error is captured, so the later
  // throwers (racing each other) all fail strictly after it.
  std::atomic<bool> first_captured{false};
  std::atomic<int> on_error_calls{0};
  WorkerGroup group([&] {
    on_error_calls.fetch_add(1);
    first_captured.store(true);
  });
  group.spawn([] { throw std::runtime_error("first"); });
  for (int w = 0; w < 3; ++w) {
    group.spawn([&, w] {
      while (!first_captured.load()) std::this_thread::yield();
      throw std::runtime_error("later " + std::to_string(w));
    });
  }
  group.join();
  EXPECT_EQ(on_error_calls.load(), 1);
  try {
    group.rethrow();
    FAIL() << "rethrow() did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_NO_THROW(group.rethrow());  // consumed
}

TEST(WorkerGroup, OnErrorClosesQueuesSoBlockedPopsWake) {
  BoundedQueue<int> q(4);
  std::atomic<int> on_error_calls{0};
  WorkerGroup group([&] {
    on_error_calls.fetch_add(1);
    q.close();
  });
  std::atomic<int> drained{0};
  for (int c = 0; c < 3; ++c) {
    group.spawn([&] {
      while (q.pop().has_value()) {
      }
      drained.fetch_add(1);
    });
  }
  group.spawn([] { throw std::logic_error("stage failed"); });
  group.join();  // would hang if the consumers were never woken
  EXPECT_EQ(drained.load(), 3);
  EXPECT_EQ(on_error_calls.load(), 1);
  EXPECT_THROW(group.rethrow(), std::logic_error);
}

TEST(WorkerGroup, JoinsInSpawnOrderUpToACount) {
  BoundedQueue<int> first(1), second(1);
  std::atomic<bool> second_done{false};
  WorkerGroup group;
  group.spawn([&] { first.pop(); });
  group.spawn([&] {
    second.pop();
    second_done.store(true);
  });
  first.close();
  group.join(1);  // returns with the second thread still blocked
  EXPECT_FALSE(second_done.load());
  second.close();
  group.join();
  EXPECT_TRUE(second_done.load());
}

TEST(WorkerGroup, DestructorJoinsWithoutThrowingWhileAnErrorIsPending) {
  BoundedQueue<int> q(1);
  std::atomic<bool> consumer_exited{false};
  {
    WorkerGroup group([&] { q.close(); });
    group.spawn([&] {
      while (q.pop().has_value()) {
      }
      consumer_exited.store(true);
    });
    group.spawn([] { throw std::runtime_error("never rethrown"); });
    // Leaves scope without join() or rethrow(): the destructor must wake
    // the consumer, join both threads and swallow the error.
  }
  EXPECT_TRUE(consumer_exited.load());
}

TEST(WorkerGroup, DestructorRunsOnErrorForThreadsStillBlocked) {
  BoundedQueue<int> q(1);
  std::atomic<bool> consumer_exited{false};
  {
    WorkerGroup group([&] { q.close(); });
    group.spawn([&] {
      while (q.pop().has_value()) {
      }
      consumer_exited.store(true);
    });
    // No error at all: an owner unwinding before join() still must not hang.
  }
  EXPECT_TRUE(consumer_exited.load());
}

TEST(WorkerGroup, RestartsAfterAFullJoin) {
  WorkerGroup group;
  std::atomic<int> runs{0};
  for (int round = 0; round < 2; ++round) {
    group.spawn([&] { runs.fetch_add(1); });
    group.spawn([] { throw std::runtime_error("round error"); });
    group.join();
    EXPECT_THROW(group.rethrow(), std::runtime_error);
  }
  EXPECT_EQ(runs.load(), 2);
}

}  // namespace
}  // namespace gnndrive
