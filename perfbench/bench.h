// Serve-path benchmark: shared declarations.
//
// The benchmark drives generated NDJSON request lines in-process through
// core::make_eval_handler (the handler `serve` runs), closed loop, one
// client, on one ExecContext whose thread count is fixed and recorded. See
// README.md in this directory for the workloads and metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact_cache.h"
#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/exec_context.h"
#include "core/serve_loop.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One serve session: the cache, the optional store and the handler over
/// them, built the way `serve [--store DIR]` builds them.
struct Session {
  std::unique_ptr<vcoadc::core::ArtifactCache> cache;
  std::unique_ptr<vcoadc::core::ArtifactStore> store;
  vcoadc::core::ExecContext ctx;
  vcoadc::core::ServeHandler handler;
};

/// Opens a session with a fresh cache (and a store over `store_dir` when it
/// is non-empty).
Session open_session(int threads, const std::string& store_dir);

/// What the benchmark reads back from one response line.
struct Reply {
  bool ok = false;
  std::string fp;          ///< result_fp; sub-fps joined for a batch
  std::uint64_t draws = 0; ///< Monte-Carlo runs + corner points answered
};
Reply read_reply(const std::string& response);

/// A workload: set-up (fresh session + priming) and the timed request
/// sequence. Request i of a seed is always the same line.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh session and primes it; returns the session the timed
  /// phase runs on. Called several times per run (set-up is reported as a
  /// median); each call starts from nothing.
  virtual Session setup() = 0;
  /// Line of timed request i; empty when the workload has no more distinct
  /// inputs (cold workloads never repeat a spec).
  virtual std::string line(std::size_t i) = 0;
  /// True when request i starts a new serve process: restart() then
  /// replaces the session (store_restart opens a fresh cache over the
  /// store at each pass boundary).
  virtual bool restarts_before(std::size_t /*i*/) const { return false; }
  virtual void restart(Session& /*s*/) {}
  /// Expected result fingerprint of request i ("" = no cold reference; the
  /// reply is still checked for ok and re-run fresh afterwards).
  virtual std::string expected_fp(std::size_t /*i*/) const { return {}; }
  /// True for workloads whose timed phase must not miss the store after
  /// priming.
  virtual bool must_hit_store() const { return false; }
  /// Capture length of the workload's dominant simulation, for the
  /// spectrum-analysis kernel timing.
  virtual std::size_t sim_samples() const = 0;
  /// Requests per balanced block: consecutive block-aligned runs of this
  /// many requests hold the same mix of work. Rates are medians over
  /// blocks, so a burst of host noise moves one block, not the run.
  virtual std::size_t block() const = 0;
  /// Requests re-evaluated on a fresh cache after the run (fresh ≡ served).
  virtual std::size_t recheck_count() const { return 3; }
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  int threads = 1;
  std::string work_dir;  ///< scratch root for stores (inside the checkout)
};

/// design_sweep | mc_yield | store_restart; null otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& cfg);

// --- tracing (the traced run only) -----------------------------------------

/// Self time summed per layer name over the traced requests.
struct LayerTotals {
  std::uint64_t calls = 0;
  double self_s = 0;
};
using LayerMap = std::map<std::string, LayerTotals>;

/// Result of one traced request line.
struct TracedReply {
  bool ok = false;
  std::string fp;
  /// Wall time of the steps timed here (parse, evaluate, render); the rest
  /// of the request's wall is the benchmark's own glue.
  double timed_s = 0;
  /// MonteCarloResult::batch of every Monte-Carlo request answered.
  std::vector<vcoadc::core::BatchStats> batches;
};

/// Runs one request line through the serve handler's three steps, each
/// timed, with a util::Trace attached to core::evaluate; adds every layer's
/// self time to `layers`.
TracedReply run_traced(const std::string& line, const Session& session,
                       LayerMap* layers);

// --- kernels and host -------------------------------------------------------

/// Direct-call kernel rates and store codec timings; appended to `out` as
/// per-layer metrics (name -> value). False when a self-check failed (a
/// recomputed SNDR, a gate-level cross-check or a codec round trip).
bool measure_kernels(const Session& session, std::size_t sim_samples,
                     const std::string& scratch_dir,
                     std::map<std::string, double>* out);

/// Host/build fingerprint as one JSON object string.
std::string host_fingerprint_json(int threads, const std::string& git_sha);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
