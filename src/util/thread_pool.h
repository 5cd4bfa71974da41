// The evaluation engine's two concurrency primitives.
//
// parallel_for_each(threads, n, body) is the fan-out every batch uses
// (Monte-Carlo draws, PVT corners, lane groups, batch envelopes, the
// router's rip-up batches). The calling thread claims task indices itself,
// and up to min(threads, n) - 1 helpers join it. The helpers come from one
// process-wide set of persistent threads, so a call spawns and joins
// nothing:
//   * deterministic callers: tasks are claimed in any order, never
//     reordered in their *results* (callers index their output by task
//     id);
//   * bounded: the set grows on demand to the largest helper count any
//     call has asked for, capped at hardware_workers() - 1, so one fan-out
//     never uses more threads than the hardware has;
//   * nestable: a helper only ever joins a call that is still running, and
//     the caller works through every unclaimed index itself, so a task
//     that fans out again finishes even when every helper is busy;
//   * exception transparency: every task runs, then the first exception by
//     index is rethrown to the caller, never std::terminate;
//   * inline fallback: at threads <= 1, or for a single task, every task
//     runs on the calling thread with no synchronization at all.
//
// ThreadPool is a fixed work queue with futures, for work that outlives
// the call that queues it (the datasheet's early nominal run). Its
// zero-worker form runs every task inline on the submitting thread, and
// stats() reports executed tasks, summed busy time and the high-water
// queue depth.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vcoadc::util {

/// Counters accumulated over the pool's lifetime.
struct ThreadPoolStats {
  std::uint64_t tasks_executed = 0;
  double busy_seconds = 0;         ///< wall time inside tasks, summed
  std::size_t max_queue_depth = 0; ///< high-water mark of pending tasks
};

class ThreadPool {
 public:
  /// Spawns `num_workers` threads; 0 means "run every task inline on the
  /// submitting thread" (the serial fallback).
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// max(1, std::thread::hardware_concurrency()), read once per process.
  static std::size_t hardware_workers();

  std::size_t num_workers() const { return workers_.size(); }

  /// Pending (not yet started) tasks.
  std::size_t queue_depth() const;

  ThreadPoolStats stats() const;

  /// Schedules `f` and returns a future for its result. Exceptions thrown
  /// by the task are captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // Stats are recorded inside the wrapper, *before* the packaged_task
    // fulfils its promise: anyone who observed the future as ready then
    // also observes this task in stats().
    auto timed = [this, fn = std::forward<F>(f)]() mutable -> R {
      const auto start = std::chrono::steady_clock::now();
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          record_task(start);
        } else {
          R r = fn();
          record_task(start);
          return r;
        }
      } catch (...) {
        record_task(start);  // a throwing task still executed
        throw;               // packaged_task stores it for future::get()
      }
    };
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::move(timed));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();
  void record_task(std::chrono::steady_clock::time_point start);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;

  // Stats, guarded by mutex_.
  std::uint64_t tasks_executed_ = 0;
  double busy_seconds_ = 0;
  std::size_t max_queue_depth_ = 0;
};

namespace detail {
/// The untyped core of parallel_for_each: call(body, i) for every i.
void fan_out(std::size_t threads, std::size_t n,
             void (*call)(void* body, std::size_t i), void* body);
}  // namespace detail

/// Runs body(i) for every i in [0, n) on the calling thread plus up to
/// min(threads, n) - 1 persistent helpers (never more than
/// hardware_workers() - 1, and fewer when the others are busy on other
/// calls), and returns when every task has run. `threads` counts
/// the caller; 0 and 1 run every task inline. body must be safe to call
/// concurrently for distinct i. If any task throws, every task still runs
/// to completion and the first exception (by index) is rethrown here.
template <typename F>
void parallel_for_each(std::size_t threads, std::size_t n, F&& body) {
  using Body = std::remove_reference_t<F>;
  detail::fan_out(
      threads, n,
      [](void* b, std::size_t i) { (*static_cast<Body*>(b))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace vcoadc::util
