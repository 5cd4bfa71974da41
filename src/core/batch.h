// BatchRunner: the parallel evaluation engine for independent design
// evaluations (Monte-Carlo mismatch draws, PVT corners, design-space
// sweeps).
//
// The determinism contract that makes parallelism free of surprises:
//   * task i always receives seed0 + i, regardless of worker count or
//     scheduling order;
//   * results are returned in a vector indexed by task id, so the output
//     is *bit-identical* to a serial run — `threads = N` and `threads = 1`
//     produce the same bytes, only faster.
// This works because every stochastic element in the simulator draws from
// an explicitly seeded util::Rng (no shared global generator), so task
// order cannot leak into task results.
//
// Instrumentation rides along for free: per-task wall time and their sum
// are collected into BatchStats so benchmark JSON can track speedup and
// worker utilization over time.
#pragma once

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/adc.h"
#include "core/exec_context.h"
#include "util/thread_pool.h"

namespace vcoadc::core {

/// Shared run-options bundle for the batch APIs.
struct BatchOptions {
  /// Threads working on one map() call, the calling thread included; 0 =
  /// one per hardware thread. 1 runs inline on the calling thread (no
  /// synchronization) — the serial reference. A call never uses more
  /// threads than the hardware has, whatever the value.
  int threads = 0;
  /// Task i evaluates with seed0 + i (the deterministic seeding contract).
  std::uint64_t seed0 = 1000;
};

/// Instrumentation for one batch (one map() call).
struct BatchStats {
  int threads = 0;                 ///< resolved worker count
  double wall_s = 0;               ///< batch wall-clock time
  double busy_s = 0;               ///< sum of task_wall_s
  double utilization = 0;          ///< busy / (threads * wall), in [0, 1]
  std::vector<double> task_wall_s; ///< per-task wall time, by task index

  /// Effective parallelism: how many workers were doing useful work on
  /// average (busy / wall). Equals the speedup over a serial run when
  /// per-task cost is scheduling-independent.
  double effective_parallelism() const {
    return wall_s > 0 ? busy_s / wall_s : 0.0;
  }
};

class BatchRunner {
 public:
  explicit BatchRunner(const BatchOptions& opts = {});
  /// Convenience: BatchRunner(n) == BatchRunner({.threads = n}).
  explicit BatchRunner(int threads);
  /// Engine over an ExecContext: worker count from ctx.threads. The
  /// stage-graph drivers construct their runners this way.
  explicit BatchRunner(const ExecContext& ctx);

  const BatchOptions& options() const { return opts_; }
  /// Resolved worker count (hardware concurrency when opts.threads == 0).
  int threads() const { return threads_; }
  /// Stats of the most recent map() call.
  const BatchStats& last_stats() const { return stats_; }

  /// Evaluates fn(i, seed0 + i) for i in [0, n) on the calling thread and
  /// the process-wide helpers, and returns the results ordered by i. fn
  /// must be safe to call concurrently (the library's simulate() paths
  /// are: they share only immutable state). An exception in any task
  /// propagates after all tasks finish.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, std::uint64_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t, std::uint64_t>;
    // std::vector<bool> packs neighbouring tasks' results into one word,
    // so concurrent tasks writing their own slots would race.
    static_assert(!std::is_same_v<R, bool>,
                  "map() tasks must not return bool");
    std::vector<R> results(n);
    stats_ = BatchStats{};
    stats_.threads = threads_;
    stats_.task_wall_s.assign(n, 0.0);
    // The calling thread works through the tasks with up to threads_ - 1
    // of the process-wide helpers, so a call spawns no thread. threads_ == 1
    // or a single task runs inline: no synchronization, and the task's
    // trace spans keep the caller's span as their parent (as do the spans
    // of every task the caller runs; a helper's spans are roots).
    const auto t0 = std::chrono::steady_clock::now();
    util::parallel_for_each(
        static_cast<std::size_t>(threads_), n, [&](std::size_t i) {
          const auto s = std::chrono::steady_clock::now();
          results[i] = fn(i, opts_.seed0 + static_cast<std::uint64_t>(i));
          stats_.task_wall_s[i] = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - s)
                                      .count();
        });
    stats_.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const double w : stats_.task_wall_s) stats_.busy_s += w;
    stats_.utilization =
        stats_.wall_s > 0
            ? stats_.busy_s / (stats_.wall_s * static_cast<double>(threads_))
            : 0.0;
    return results;
  }

  static int resolve_threads(int threads);

 private:
  BatchOptions opts_;
  int threads_ = 1;
  BatchStats stats_;
};

}  // namespace vcoadc::core
