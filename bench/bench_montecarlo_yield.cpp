// Extension bench: Monte-Carlo mismatch statistics and PVT corners.
//
// The paper demonstrates robustness with one post-layout run (Sec. 2.2,
// Fig. 17); a generator that ships must quantify it. This bench reports the
// SNDR distribution over independent mismatch draws, the parametric yield
// against a 65 dB spec line, and the classic PVT corner table.
//
// It doubles as the acceptance harness for the parallel evaluation engine:
// one batch runs at threads = 1 and threads = hardware concurrency, the
// SNDR vectors must be bit-identical (the deterministic seeding contract),
// and the wall-clock speedup is recorded in BENCH JSON so the figure is
// trackable across revisions. That batch is sized to give every worker at
// least two lane groups; the 16-draw statistics batch would be two groups
// at W=8, which leaves the other workers idle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_common.h"
#include "core/artifact_cache.h"
#include "core/artifact_store.h"
#include "core/eval.h"
#include "msim/batched_modulator.h"
#include "util/ascii_plot.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

using namespace vcoadc;

int main(int argc, char** argv) {
  const std::string json_out = bench::json_out_path(&argc, argv);
  bench::header("Extension - Monte-Carlo mismatch yield and PVT corners",
                "statistical backing for the Sec. 2.2 robustness claims");

  const auto spec = core::AdcSpec::paper_40nm();
  // Mismatch draws only perturb the behavioral model, so each request
  // builds its design once and every draw shares it read-only.
  core::EvalRequest req;
  req.kind = core::EvalKind::kMonteCarlo;
  req.spec = spec;
  req.monte_carlo.runs = 16;
  req.monte_carlo.sim.n_samples = 1 << 14;

  // The statistics batch runs cold at hardware concurrency; the warm run
  // reuses its cache and must be all hits.
  core::ArtifactCache cache_parallel(64);
  core::ExecContext parallel_ctx;
  parallel_ctx.threads = 0;  // hardware concurrency
  parallel_ctx.cache = &cache_parallel;
  const auto mc = core::evaluate(req, parallel_ctx).monte_carlo;
  const auto mc_warm =
      core::evaluate(req, parallel_ctx).monte_carlo;  // cache hot

  // Engine-speedup batch: two lane groups of the host-preferred width per
  // worker, at least 16 draws. Serial and parallel runs get separate fresh
  // caches so both truly compute every draw.
  const int hw = static_cast<int>(util::ThreadPool::hardware_workers());
  core::EvalRequest speed_req = req;
  speed_req.monte_carlo.runs =
      std::max(16, 2 * msim::BatchedModulator::preferred_width() * hw);
  core::MonteCarloResult mc_serial, mc_parallel;
  {
    core::ArtifactCache cache_serial, cache_speed;
    core::ExecContext serial_ctx, speed_ctx;
    serial_ctx.threads = 1;  // serial reference
    serial_ctx.cache = &cache_serial;
    speed_ctx.threads = 0;
    speed_ctx.cache = &cache_speed;
    mc_serial = core::evaluate(speed_req, serial_ctx).monte_carlo;
    mc_parallel = core::evaluate(speed_req, speed_ctx).monte_carlo;
  }

  bool bit_identical =
      mc_parallel.sndr_db.size() == mc_serial.sndr_db.size();
  for (std::size_t i = 0; bit_identical && i < mc_serial.sndr_db.size();
       ++i) {
    bit_identical = (mc_parallel.sndr_db[i] == mc_serial.sndr_db[i]);
  }
  bool warm_identical = mc_warm.sndr_db.size() == mc.sndr_db.size();
  for (std::size_t i = 0; warm_identical && i < mc.sndr_db.size(); ++i) {
    warm_identical = (mc_warm.sndr_db[i] == mc.sndr_db[i]);
  }
  const double speedup = mc_parallel.batch.wall_s > 0
                             ? mc_serial.batch.wall_s /
                                   mc_parallel.batch.wall_s
                             : 0.0;
  const double warm_speedup =
      mc_warm.batch.wall_s > 0 ? mc.batch.wall_s / mc_warm.batch.wall_s : 0.0;
  const double cache_hit_rate = cache_parallel.stats().hit_rate();

  util::Table t("SNDR over independent mismatch draws (40 nm point)");
  t.set_header({"run", "SNDR [dB]", "wall [ms]"});
  for (std::size_t i = 0; i < mc.sndr_db.size(); ++i) {
    t.add_row({std::to_string(i), bench::fmt("%.2f", mc.sndr_db[i]),
               bench::fmt("%.0f", mc.batch.task_wall_s[i] * 1e3)});
  }
  t.print(std::cout);
  std::printf(
      "\nmean %.2f dB | sigma %.2f dB | min %.2f | max %.2f | yield@65dB "
      "%.0f%%\n",
      mc.mean_db, mc.stddev_db, mc.min_db, mc.max_db,
      mc.yield(65.0) * 100.0);
  std::printf(
      "engine: %d draws, %d threads | serial %.2f s -> parallel %.2f s | "
      "speedup %.2fx | utilization %.0f%%\n",
      speed_req.monte_carlo.runs, mc_parallel.batch.threads,
      mc_serial.batch.wall_s, mc_parallel.batch.wall_s, speedup,
      mc_parallel.batch.utilization * 100.0);
  std::printf(
      "cache: cold %.2f s -> warm %.3f s | warm speedup %.1fx | hit rate "
      "%.0f%%\n",
      mc.batch.wall_s, mc_warm.batch.wall_s, warm_speedup,
      cache_hit_rate * 100.0);

  // Persistent-store phase: phase A runs cold into a fresh store, phase B
  // runs with a fresh in-process cache over the same store directory — the
  // cross-process warm start, measured in-process. Every stage build in
  // phase B must come off disk (store_cold_builds == 0).
  namespace fs = std::filesystem;
  const std::string store_dir =
      (fs::temp_directory_path() /
       ("vcoadc_bench_store_" + std::to_string(getpid())))
          .string();
  fs::remove_all(store_dir);
  double wall_persist_cold = 0, wall_persist_warm = 0;
  std::uint64_t store_cold_builds = 0;
  bool persistent_identical = false;
  {
    core::ExecContext pctx = parallel_ctx;
    core::ArtifactCache cache_a(64);
    core::ArtifactStore store_a(store_dir);
    pctx.cache = &cache_a;
    pctx.store = &store_a;
    const auto mc_a = core::evaluate(req, pctx).monte_carlo;
    wall_persist_cold = mc_a.batch.wall_s;

    core::ArtifactCache cache_b(64);
    core::ArtifactStore store_b(store_dir);
    pctx.cache = &cache_b;
    pctx.store = &store_b;
    const auto mc_b = core::evaluate(req, pctx).monte_carlo;
    wall_persist_warm = mc_b.batch.wall_s;
    store_cold_builds = store_b.stats().misses;

    persistent_identical = mc_b.sndr_db.size() == mc.sndr_db.size();
    for (std::size_t i = 0; persistent_identical && i < mc.sndr_db.size();
         ++i) {
      persistent_identical = (mc_b.sndr_db[i] == mc.sndr_db[i]);
    }

    // Lifecycle cost: bound the store to half its resident size and time
    // the LRU gc pass — the price a long-lived serve process pays per
    // gc trigger.
    const auto probe = store_b.gc(~0ull);  // scan only: nothing evicted
    const auto t_gc0 = std::chrono::steady_clock::now();
    const auto gr = store_b.gc(probe.bytes_after / 2);
    const double gc_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_gc0)
            .count();
    std::printf(
        "store gc: %.1f KiB -> %.1f KiB | evicted %llu records in %.1f ms\n",
        static_cast<double>(gr.bytes_before) / 1024.0,
        static_cast<double>(gr.bytes_after) / 1024.0,
        static_cast<unsigned long long>(gr.evicted), gc_wall_s * 1e3);
  }
  fs::remove_all(store_dir);
  const double persistent_warm_speedup =
      wall_persist_warm > 0 ? wall_persist_cold / wall_persist_warm : 0.0;
  std::printf(
      "store: cold %.2f s -> persistent warm %.3f s | speedup %.1fx | "
      "cold stage builds in warm pass %llu\n",
      wall_persist_cold, wall_persist_warm, persistent_warm_speedup,
      static_cast<unsigned long long>(store_cold_builds));

  // Batched-vs-scalar engine phase: the same draws once through the scalar
  // per-draw path (batch_width = 1) and once through the SoA lockstep
  // engine (batch_width = 0 = host-preferred width), each into a fresh
  // cache at one thread so the comparison is engine time, not scheduling.
  // Both go through evaluate() so the serve protocol's result_fp — the
  // fingerprint two processes compare — is what asserts bit-identity.
  const int resolved_width = msim::BatchedModulator::preferred_width();
  double wall_engine_scalar = 0, wall_engine_batched = 0;
  std::string fp_scalar, fp_batched;
  {
    core::EvalRequest ereq = req;
    core::ArtifactCache cache_eng_scalar(64), cache_eng_batched(64);
    core::ExecContext ectx;
    ectx.threads = 1;

    ereq.monte_carlo.batch_width = 1;
    ectx.cache = &cache_eng_scalar;
    const auto resp_scalar = core::evaluate(ereq, ectx);
    wall_engine_scalar = resp_scalar.monte_carlo.batch.wall_s;
    fp_scalar =
        core::eval_result_fingerprint(core::eval_result_to_json(resp_scalar));

    ereq.monte_carlo.batch_width = 0;
    ectx.cache = &cache_eng_batched;
    const auto resp_batched = core::evaluate(ereq, ectx);
    wall_engine_batched = resp_batched.monte_carlo.batch.wall_s;
    fp_batched =
        core::eval_result_fingerprint(core::eval_result_to_json(resp_batched));
  }
  const double batched_speedup =
      wall_engine_batched > 0 ? wall_engine_scalar / wall_engine_batched : 0.0;
  std::printf(
      "engine: scalar %.2f s -> batched (width %d, %s) %.2f s | speedup "
      "%.2fx | result_fp %s %s\n",
      wall_engine_scalar, resolved_width,
      util::simd::tier_name(util::simd::active_tier()), wall_engine_batched,
      batched_speedup, fp_batched.c_str(),
      fp_scalar == fp_batched ? "(matches scalar)" : "(MISMATCH)");

  core::EvalRequest corner_req;
  corner_req.kind = core::EvalKind::kCornerSweep;
  corner_req.spec = spec;
  corner_req.corners.n_samples = 1 << 14;
  const auto corners = core::evaluate(corner_req, core::ExecContext{}).corners;
  util::Table c("PVT corner sweep");
  c.set_header({"corner", "SNDR [dB]", "power [mW]"});
  for (const auto& cr : corners) {
    c.add_row({cr.name, bench::fmt("%.1f", cr.sndr_db),
               bench::fmt("%.2f", cr.power_w * 1e3)});
  }
  c.print(std::cout);

  double worst_corner = 1e9, tt = 0;
  for (const auto& cr : corners) {
    worst_corner = std::min(worst_corner, cr.sndr_db);
    if (cr.name.rfind("TT  1.00V  27C", 0) == 0) tt = cr.sndr_db;
  }

  // Heterogeneous-lane phase: the corner sweep and the datasheet amplitude
  // sweep run once scalar (batch_width = 1) and once through the SoA
  // engine with per-lane PVT / drive constants (batch_width = 0), each
  // into a fresh cache — the per-entry cache keys are shared between the
  // two paths, so fresh caches are what make the second run actually
  // simulate. evaluate()'s result_fp asserts bit-identity end to end.
  std::string corners_fp_scalar, corners_fp_batched;
  std::string amp_fp_scalar, amp_fp_batched;
  {
    core::EvalRequest creq;
    creq.kind = core::EvalKind::kCornerSweep;
    creq.spec = spec;
    creq.corners.n_samples = 1 << 13;
    core::ExecContext ectx;
    ectx.threads = 1;

    core::ArtifactCache cc_scalar(64), cc_batched(64);
    creq.corners.batch_width = 1;
    ectx.cache = &cc_scalar;
    corners_fp_scalar = core::eval_result_fingerprint(
        core::eval_result_to_json(core::evaluate(creq, ectx)));
    creq.corners.batch_width = 0;
    ectx.cache = &cc_batched;
    corners_fp_batched = core::eval_result_fingerprint(
        core::eval_result_to_json(core::evaluate(creq, ectx)));

    core::EvalRequest dreq;
    dreq.kind = core::EvalKind::kDatasheet;
    dreq.spec = spec;
    dreq.datasheet.n_samples = 1 << 12;
    dreq.datasheet.amp_sweep_points = 4;
    core::ArtifactCache dc_scalar(64), dc_batched(64);
    dreq.datasheet.batch_width = 1;
    ectx.cache = &dc_scalar;
    amp_fp_scalar = core::eval_result_fingerprint(
        core::eval_result_to_json(core::evaluate(dreq, ectx)));
    dreq.datasheet.batch_width = 0;
    ectx.cache = &dc_batched;
    amp_fp_batched = core::eval_result_fingerprint(
        core::eval_result_to_json(core::evaluate(dreq, ectx)));
  }
  std::printf(
      "sweeps: corner result_fp %s %s | amp-sweep result_fp %s %s\n",
      corners_fp_batched.c_str(),
      corners_fp_scalar == corners_fp_batched ? "(matches scalar)"
                                              : "(MISMATCH)",
      amp_fp_batched.c_str(),
      amp_fp_scalar == amp_fp_batched ? "(matches scalar)" : "(MISMATCH)");

  // Machine-readable record so BENCH_*.json tracking sees the speedup.
  const std::string payload = util::format(
      "{\"bench\":\"montecarlo_yield\",\"runs\":%d,\"speed_runs\":%d,"
      "\"threads\":%d,\"hardware_threads\":%d,"
      "\"wall_serial_s\":%.4f,\"wall_parallel_s\":%.4f,"
      "\"speedup\":%.3f,\"utilization\":%.3f,"
      "\"bit_identical\":%s,\"mean_db\":%.3f,\"sigma_db\":%.3f,"
      "\"yield_65db\":%.3f,\"wall_warm_s\":%.4f,\"warm_speedup\":%.3f,"
      "\"cache_hit_rate\":%.3f,\"warm_identical\":%s,"
      "\"wall_persistent_cold_s\":%.4f,\"wall_persistent_warm_s\":%.4f,"
      "\"persistent_warm_speedup\":%.3f,\"store_cold_builds\":%llu,"
      "\"persistent_identical\":%s,"
      "\"batch_width\":%d,\"simd_tier\":\"%s\",\"simd_width\":%d,"
      "\"wall_engine_scalar_s\":%.4f,\"wall_engine_batched_s\":%.4f,"
      "\"batched_speedup\":%.3f,\"result_fp\":\"%s\","
      "\"batched_fp_match\":%s,"
      "\"corners_fp_match\":%s,\"amp_sweep_fp_match\":%s}",
      req.monte_carlo.runs, speed_req.monte_carlo.runs,
      mc_parallel.batch.threads, hw, mc_serial.batch.wall_s,
      mc_parallel.batch.wall_s, speedup, mc_parallel.batch.utilization,
      bit_identical ? "true" : "false",
      mc.mean_db, mc.stddev_db, mc.yield(65.0), mc_warm.batch.wall_s,
      warm_speedup, cache_hit_rate, warm_identical ? "true" : "false",
      wall_persist_cold, wall_persist_warm, persistent_warm_speedup,
      static_cast<unsigned long long>(store_cold_builds),
      persistent_identical ? "true" : "false", resolved_width,
      util::simd::tier_name(util::simd::active_tier()),
      util::simd::tier_width(util::simd::active_tier()),
      wall_engine_scalar, wall_engine_batched, batched_speedup,
      fp_batched.c_str(), fp_scalar == fp_batched ? "true" : "false",
      corners_fp_scalar == corners_fp_batched ? "true" : "false",
      amp_fp_scalar == amp_fp_batched ? "true" : "false");
  bench::emit_json(json_out, payload);

  bench::shape_check("parallel SNDR vector bit-identical to threads=1",
                     bit_identical);
  bench::shape_check("cached re-run bit-identical to the cold run",
                     warm_identical);
  bench::shape_check("warm re-run >= 1.5x faster than cold",
                     warm_speedup >= 1.5);
  bench::shape_check("persistent warm pass >= 1.5x faster than cold",
                     persistent_warm_speedup >= 1.5);
  bench::shape_check("persistent warm pass built zero stages",
                     store_cold_builds == 0);
  bench::shape_check("persistent warm pass bit-identical to in-process run",
                     persistent_identical);
  bench::shape_check("batched engine result_fp matches the scalar engine",
                     !fp_batched.empty() && fp_scalar == fp_batched);
  bench::shape_check("batched corner sweep result_fp matches scalar",
                     !corners_fp_batched.empty() &&
                         corners_fp_scalar == corners_fp_batched);
  bench::shape_check("batched amplitude sweep result_fp matches scalar",
                     !amp_fp_batched.empty() &&
                         amp_fp_scalar == amp_fp_batched);
  if (hw >= 4) {
    bench::shape_check("engine speedup >= 3x on >= 4 cores", speedup >= 3.0);
  } else {
    std::printf("  [shape ----] speedup check skipped (%d hardware "
                "threads < 4); measured %.2fx\n", hw, speedup);
  }
  bench::shape_check("mismatch sigma < 2 dB across draws",
                     mc.stddev_db < 2.0);
  bench::shape_check("100% yield at a 63 dB spec line",
                     mc.yield(63.0) == 1.0);
  bench::shape_check("worst PVT corner within 8 dB of typical",
                     tt - worst_corner < 8.0);
  return 0;
}
