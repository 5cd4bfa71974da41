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
// the call that queues it (the datasheet's early nominal run). A task's
// exception travels through its future, and the destructor runs every
// task still queued before it joins the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vcoadc::util {

class ThreadPool {
 public:
  /// Spawns `num_workers` threads, at least one: a pool of none never runs
  /// a task.
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// max(1, std::thread::hardware_concurrency()), read once per process.
  static std::size_t hardware_workers();

  /// Schedules `f` and returns a future for its result. Exceptions thrown
  /// by the task are captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
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
