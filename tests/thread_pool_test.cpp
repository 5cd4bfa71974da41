// Tests for the evaluation engine's concurrency primitives: the
// persistent-helper fan-out (parallel_for_each) and the work-queue
// ThreadPool.
//
// NOTE: this file is deliberately self-contained (thread pool + gtest
// only) — tests/CMakeLists.txt compiles it a second time with
// -fsanitize=thread into vcoadc_tsan_tests, so every test here also runs
// under TSan in the tier-1 ctest pass. Keep heavier library dependencies
// out; mimic their access patterns instead (see MonteCarloShapedFanOut).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace vcoadc::util {
namespace {

TEST(ThreadPool, AllTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsTaskValues) {
  ThreadPool pool(2);
  auto a = pool.submit([] { return 21; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 21);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForEachRethrowsButFinishesAllTasks) {
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for_each(3, 20,
                        [&executed](std::size_t i) {
                          ++executed;
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Every task ran: one exception does not cancel the rest of the batch.
  EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      }));
    }
    // Pool destroyed with work still queued: it must drain, not drop.
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 32);
}

// Mimics BatchRunner's Monte-Carlo fan-out so the TSan build exercises the
// engine's exact sharing pattern: shared read-only inputs, per-index
// writes into a results vector, deterministic per-task seeds.
TEST(ThreadPool, MonteCarloShapedFanOut) {
  const std::vector<double> shared_input = {1.0, 2.0, 3.0, 5.0, 8.0};
  const std::uint64_t seed0 = 1000;
  auto eval = [&shared_input](std::uint64_t seed) {
    double acc = static_cast<double>(seed);
    for (double v : shared_input) acc += v * static_cast<double>(seed % 7);
    return acc;
  };

  constexpr std::size_t kTasks = 64;
  std::vector<double> parallel_out(kTasks), serial_out(kTasks);
  parallel_for_each(4, kTasks, [&](std::size_t i) {
    parallel_out[i] = eval(seed0 + i);
  });
  for (std::size_t i = 0; i < kTasks; ++i) serial_out[i] = eval(seed0 + i);

  // Bit-identical to serial: same seeds, same order, regardless of the
  // scheduling of the 4 threads.
  EXPECT_EQ(parallel_out, serial_out);
}

/// Blocks until `count` tasks have arrived, or 10 s have passed (a hang
/// becomes a test failure, not a stuck ctest). True when all arrived.
bool rendezvous(std::atomic<int>& arrived, int count) {
  ++arrived;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelForEach, OneThreadAndSingleTasksRunInline) {
  const auto caller = std::this_thread::get_id();
  for (std::size_t threads : {0u, 1u}) {
    std::vector<std::thread::id> ran_on(8);
    parallel_for_each(threads, ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  }
  std::thread::id single;
  parallel_for_each(8, 1, [&](std::size_t) {
    single = std::this_thread::get_id();
  });
  EXPECT_EQ(single, caller);
  parallel_for_each(8, 0, [](std::size_t) { FAIL() << "no task to run"; });
}

// The batch-envelope shape: an outer fan-out whose tasks fan out again
// (a batch whose Monte-Carlo sub-request maps its lane groups). The inner
// calls run on the caller and on helpers while every helper may be busy
// with the outer call, and must still finish, with the serial result.
TEST(ParallelForEach, NestedFanOutCompletesWithTheSerialResult) {
  auto nested = [](std::size_t threads) {
    std::vector<std::uint64_t> out(3 * 16);
    parallel_for_each(threads, 3, [&](std::size_t i) {
      parallel_for_each(threads, 16, [&](std::size_t j) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        out[i * 16 + j] = (i + 1) * 1000003u ^ (j * 7919u);
      });
    });
    return out;
  };
  const std::vector<std::uint64_t> serial = nested(1);
  EXPECT_EQ(nested(2), serial);
  EXPECT_EQ(nested(4), serial);
}

TEST(ParallelForEach, HelpersPersistAcrossCalls) {
  if (ThreadPool::hardware_workers() < 2) {
    GTEST_SKIP() << "one hardware thread: a fan-out has no helpers";
  }
  // Two tasks that wait for each other: the caller can run only one, so a
  // helper runs the other. Its id must be the same in both calls.
  auto helper_ids = [] {
    const auto caller = std::this_thread::get_id();
    std::atomic<int> arrived{0};
    std::mutex mutex;
    std::set<std::thread::id> ids;
    bool met = true;
    parallel_for_each(2, 2, [&](std::size_t) {
      const bool ok = rendezvous(arrived, 2);
      std::lock_guard<std::mutex> lock(mutex);
      met = met && ok;
      if (std::this_thread::get_id() != caller) {
        ids.insert(std::this_thread::get_id());
      }
    });
    EXPECT_TRUE(met);
    return ids;
  };
  const std::set<std::thread::id> first = helper_ids();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(helper_ids(), first);
}

TEST(ParallelForEach, NeverMoreThreadsThanTheHardware) {
  // Far more threads asked for than the hardware has (a small multiple, so
  // an unbounded implementation would start a few dozen, not thousands).
  const std::size_t hw = ThreadPool::hardware_workers();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for_each(4 * hw, 64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), hw);
}

TEST(ParallelForEach, FirstExceptionByIndexAfterEveryTask) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    std::atomic<int> executed{0};
    try {
      parallel_for_each(threads, 24, [&executed](std::size_t i) {
        // Late indices throw first in wall time: the rethrown one is still
        // the lowest index that threw.
        std::this_thread::sleep_for(std::chrono::microseconds(24 - i));
        ++executed;
        if (i == 5 || i == 17) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      // Every task ran before the exception left the call.
      EXPECT_EQ(executed.load(), 24);
      EXPECT_EQ(std::string(e.what()), "task 5");
    }
  }
}

}  // namespace
}  // namespace vcoadc::util
