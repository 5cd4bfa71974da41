#include <gtest/gtest.h>

#include "core/artifact_cache.h"
#include "core/eval.h"

namespace vcoadc::core {
namespace {

/// Runs `req` on `threads` workers over a cache of its own, so every draw
/// is simulated rather than served from artifacts another test (or
/// another width or thread count) built.
MonteCarloResult fresh_monte_carlo(const EvalRequest& req, int threads = 1) {
  ArtifactCache cache(64);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = threads;
  return evaluate(req, ctx).monte_carlo;
}

TEST(MonteCarlo, DistributionIsTightAroundNominal) {
  // The robustness claim, statistically: across independent mismatch draws
  // the SNDR spread stays small and the worst case stays near the mean.
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 8;
  req.monte_carlo.sim.n_samples = 1 << 13;
  const MonteCarloResult res = evaluate(req, ExecContext{}).monte_carlo;
  ASSERT_EQ(res.sndr_db.size(), 8u);
  EXPECT_GT(res.mean_db, 60.0);
  EXPECT_LT(res.stddev_db, 3.0);
  EXPECT_GT(res.min_db, res.mean_db - 8.0);
  EXPECT_LE(res.min_db, res.max_db);
}

TEST(MonteCarlo, YieldSemantics) {
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 6;
  req.monte_carlo.sim.n_samples = 1 << 12;
  const MonteCarloResult res = evaluate(req, ExecContext{}).monte_carlo;
  EXPECT_DOUBLE_EQ(res.yield(-1000.0), 1.0);   // everything passes
  EXPECT_DOUBLE_EQ(res.yield(1000.0), 0.0);    // nothing passes
  const double y = res.yield(res.mean_db);
  EXPECT_GE(y, 0.0);
  EXPECT_LE(y, 1.0);
}

TEST(MonteCarlo, RunsAreIndependentDraws) {
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 4;
  req.monte_carlo.sim.n_samples = 1 << 12;
  const MonteCarloResult res = evaluate(req, ExecContext{}).monte_carlo;
  // With mismatch enabled, different seeds cannot yield identical SNDRs.
  for (std::size_t i = 1; i < res.sndr_db.size(); ++i) {
    EXPECT_NE(res.sndr_db[i], res.sndr_db[0]);
  }
}

TEST(MonteCarlo, ParallelIsBitIdenticalToSerial) {
  // The engine's determinism contract: run i always simulates with
  // seed0 + i and results are ordered by index, so the thread count can
  // never change a single bit of the output. Each side simulates in a
  // cache of its own (a shared cache would serve the second from the first).
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 6;
  req.monte_carlo.sim.n_samples = 1 << 12;

  const MonteCarloResult serial = fresh_monte_carlo(req, 1);
  const MonteCarloResult parallel = fresh_monte_carlo(req, 4);
  EXPECT_EQ(parallel.batch.threads, 4);

  ASSERT_EQ(serial.sndr_db.size(), parallel.sndr_db.size());
  for (std::size_t i = 0; i < serial.sndr_db.size(); ++i) {
    EXPECT_EQ(serial.sndr_db[i], parallel.sndr_db[i]) << "run " << i;
  }
  EXPECT_EQ(serial.mean_db, parallel.mean_db);
  EXPECT_EQ(serial.stddev_db, parallel.stddev_db);
}

TEST(MonteCarlo, DesignOverloadMatchesSpecOverload) {
  // A request builds its design from the spec; draw i run as a SimRun
  // stage (seed seed0 + i) over a design built up front yields the same
  // bits. Each side simulates in a cache of its own.
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 3;
  req.monte_carlo.sim.n_samples = 1 << 12;
  const MonteCarloResult from_spec = fresh_monte_carlo(req);

  ArtifactCache cache(64);
  ExecContext ctx;
  ctx.cache = &cache;
  const AdcDesign adc(req.spec, ctx);
  ASSERT_EQ(from_spec.sndr_db.size(), 3u);
  for (std::size_t i = 0; i < from_spec.sndr_db.size(); ++i) {
    SimulationOptions sim = req.monte_carlo.sim;
    sim.seed = req.monte_carlo.seed0 + i;
    const auto from_design = Flow(ctx).sim_run(adc, sim);
    ASSERT_NE(from_design, nullptr);
    EXPECT_EQ(from_spec.sndr_db[i], from_design->sndr.sndr_db);
  }
}

TEST(MonteCarlo, BatchInstrumentationIsPopulated) {
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 4;
  req.monte_carlo.sim.n_samples = 1 << 12;
  ExecContext ctx;
  ctx.threads = 2;
  const MonteCarloResult res = evaluate(req, ctx).monte_carlo;
  EXPECT_EQ(res.batch.threads, 2);
  EXPECT_GT(res.batch.wall_s, 0.0);
  EXPECT_GT(res.batch.busy_s, 0.0);
  ASSERT_EQ(res.batch.task_wall_s.size(), 4u);
  for (double t : res.batch.task_wall_s) EXPECT_GT(t, 0.0);
  EXPECT_GE(res.batch.utilization, 0.0);
  EXPECT_LE(res.batch.utilization, 1.0 + 1e-9);
  EXPECT_GT(res.batch.effective_parallelism(), 0.0);
}

TEST(MonteCarlo, BatchedEngineIsBitIdenticalToScalarPath) {
  // The batched SoA engine's whole-pipeline contract: grouping draws into
  // SIMD lanes (default width) changes nothing but wall time versus the
  // forced per-draw scalar path — the SNDR vector matches bit for bit.
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 6;
  req.monte_carlo.sim.n_samples = 1 << 12;

  req.monte_carlo.batch_width = 1;  // scalar per-draw reference
  const MonteCarloResult scalar = fresh_monte_carlo(req);
  req.monte_carlo.batch_width = 0;  // host-preferred lane width
  const MonteCarloResult batched = fresh_monte_carlo(req);

  ASSERT_EQ(scalar.sndr_db.size(), batched.sndr_db.size());
  for (std::size_t i = 0; i < scalar.sndr_db.size(); ++i) {
    EXPECT_EQ(scalar.sndr_db[i], batched.sndr_db[i]) << "run " << i;
  }
  EXPECT_EQ(scalar.mean_db, batched.mean_db);
  EXPECT_EQ(scalar.stddev_db, batched.stddev_db);
}

TEST(MonteCarlo, BatchedRemainderPartitionCoversEveryDraw) {
  // runs = 7 at a forced width of 4 partitions into a 4-lane group, a
  // 2-lane group and one scalar draw; every draw must land at its own
  // index with its own seed, identical to the all-scalar partition, and
  // the per-draw wall times must stay populated (group time amortized).
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 7;
  req.monte_carlo.sim.n_samples = 1 << 12;

  req.monte_carlo.batch_width = 1;
  const MonteCarloResult scalar = fresh_monte_carlo(req);
  req.monte_carlo.batch_width = 4;
  const MonteCarloResult batched = fresh_monte_carlo(req);

  ASSERT_EQ(scalar.sndr_db.size(), 7u);
  ASSERT_EQ(batched.sndr_db.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(scalar.sndr_db[i], batched.sndr_db[i]) << "run " << i;
  }
  ASSERT_EQ(batched.batch.task_wall_s.size(), 7u);
  for (double t : batched.batch.task_wall_s) EXPECT_GT(t, 0.0);
}

TEST(MonteCarlo, ZeroRunsIsEmptyNotUndefined) {
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = AdcSpec::paper_40nm();
  req.monte_carlo.runs = 0;
  const MonteCarloResult res = evaluate(req, ExecContext{}).monte_carlo;
  EXPECT_TRUE(res.sndr_db.empty());
  EXPECT_DOUBLE_EQ(res.yield(60.0), 0.0);
}

TEST(Corners, DesignOverloadMatchesSpecOverload) {
  // Each corner of a sweep request is the SimRun stage, at that corner's
  // PVT, of a design built up front. Each side simulates in a cache of
  // its own.
  EvalRequest req;
  req.kind = EvalKind::kCornerSweep;
  req.spec = AdcSpec::paper_40nm();
  req.corners.n_samples = 1 << 12;
  ArtifactCache sweep_cache(32);
  ExecContext sweep_ctx;
  sweep_ctx.cache = &sweep_cache;
  const auto from_spec = evaluate(req, sweep_ctx).corners;
  ASSERT_EQ(from_spec.size(), 6u);

  ArtifactCache cache(32);
  ExecContext ctx;
  ctx.cache = &cache;
  const AdcDesign adc(req.spec, ctx);
  for (const CornerResult& c : from_spec) {
    SimulationOptions sim;
    sim.n_samples = req.corners.n_samples;
    sim.fin_target_hz = req.spec.bandwidth_hz / 5.0;
    sim.pvt = c.pvt;
    const auto from_design = Flow(ctx).sim_run(adc, sim);
    ASSERT_NE(from_design, nullptr);
    EXPECT_EQ(c.sndr_db, from_design->sndr.sndr_db) << c.name;
    EXPECT_EQ(c.power_w, from_design->power.total_w()) << c.name;
  }
}

TEST(Corners, BatchedIsBitIdenticalToScalarAtEveryWidth) {
  // Corners take the lane-batch path the MC draws take, as per-lane PVT;
  // every width (a fresh cache each, so every corner is simulated) must
  // reproduce the scalar sweep bit for bit.
  EvalRequest req;
  req.kind = EvalKind::kCornerSweep;
  req.spec = AdcSpec::paper_40nm();
  req.corners.n_samples = 1 << 11;
  auto sweep = [&req](int width) {
    ArtifactCache cache(32);
    ExecContext ctx;
    ctx.cache = &cache;
    ctx.threads = 1;
    req.corners.batch_width = width;
    return evaluate(req, ctx).corners;
  };
  const auto scalar = sweep(1);
  ASSERT_EQ(scalar.size(), 6u);
  for (int width : {0, 2, 4, 8}) {
    SCOPED_TRACE(width);
    const auto batched = sweep(width);
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(batched[i].name, scalar[i].name);
      EXPECT_EQ(batched[i].sndr_db, scalar[i].sndr_db) << scalar[i].name;
      EXPECT_EQ(batched[i].power_w, scalar[i].power_w) << scalar[i].name;
    }
  }
}

TEST(Corners, AllCornersStayFunctional) {
  EvalRequest req;
  req.kind = EvalKind::kCornerSweep;
  req.spec = AdcSpec::paper_40nm();
  req.corners.n_samples = 1 << 13;
  const auto corners = evaluate(req, ExecContext{}).corners;
  ASSERT_EQ(corners.size(), 6u);
  double tt_sndr = 0;
  for (const auto& c : corners) {
    EXPECT_GT(c.sndr_db, 55.0) << c.name;
    EXPECT_GT(c.power_w, 0.0);
    if (c.name.find("TT  1.00V  27C") != std::string::npos) {
      tt_sndr = c.sndr_db;
    }
  }
  // No corner collapses more than 10 dB below typical.
  for (const auto& c : corners) {
    EXPECT_GT(c.sndr_db, tt_sndr - 10.0) << c.name;
  }
}

TEST(Corners, VoltageScalesPower) {
  EvalRequest req;
  req.kind = EvalKind::kCornerSweep;
  req.spec = AdcSpec::paper_40nm();
  req.corners.n_samples = 1 << 12;
  const auto corners = evaluate(req, ExecContext{}).corners;
  double p_low = 0, p_high = 0;
  for (const auto& c : corners) {
    if (c.name.find("0.90V") != std::string::npos) p_low = c.power_w;
    if (c.name.find("1.10V") != std::string::npos) p_high = c.power_w;
  }
  ASSERT_GT(p_low, 0.0);
  EXPECT_GT(p_high, p_low);  // CV^2f and static terms both rise with VDD
}

TEST(Corners, ProcessShiftsRingRate) {
  AdcSpec fast = AdcSpec::paper_40nm();
  fast.pvt.process = 0.85;
  AdcSpec slow = AdcSpec::paper_40nm();
  slow.pvt.process = 1.20;
  const auto cfg_fast = fast.to_sim_config();
  const auto cfg_slow = slow.to_sim_config();
  EXPECT_GT(cfg_fast.vco_center_hz, cfg_slow.vco_center_hz);
  EXPECT_GT(cfg_fast.kvco_hz_per_v, cfg_slow.kvco_hz_per_v);
}

}  // namespace
}  // namespace vcoadc::core
