// Deterministic fault-injection harness over the flow's stage boundaries
// (DESIGN.md §3f): a util::FaultPlan armed for a stage makes that stage
// refuse at entry, before its cache lookup, so these tests prove that
//   * every stage surfaces structured diagnostics instead of crashing,
//   * a faulted build never reaches the artifact cache (the same cache
//     serves clean, bit-identical artifacts immediately afterwards),
//   * every batch driver (Monte Carlo, corner sweep, datasheet, optimizer)
//     degrades gracefully when a run underneath it is refused, and the
//     lane-batched path refuses exactly the faulted entries,
//   * the boundary checks a refusal stands in for catch the corruptions
//     they guard against (tested directly, without a plan).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/adc.h"
#include "core/artifact_cache.h"
#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "core/optimizer.h"
#include "netlist/equivalence.h"
#include "netlist/generator.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "util/diag.h"

namespace {

using namespace vcoadc;
using core::AdcSpec;
using core::ExecContext;
using core::Flow;
using core::SimulationOptions;

AdcSpec small_spec() {
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.num_slices = 4;
  return spec;
}

SimulationOptions small_sim() {
  SimulationOptions sim;
  sim.n_samples = 1 << 10;
  return sim;
}

/// One isolated execution environment per test: its own cache (so no state
/// leaks between tests), its own sink and its own fault plan.
struct Harness {
  core::ArtifactCache cache{64};
  util::DiagSink sink;
  util::FaultPlan plan;
  ExecContext ctx;

  Harness() {
    ctx.cache = &cache;
    ctx.diag = &sink;
    ctx.faults = &plan;
  }
};

// ---------------------------------------------------------------------------
// FaultPlan mechanics

TEST(FaultPlanTest, ArmsConsumesAndCounts) {
  util::FaultPlan plan;
  EXPECT_FALSE(plan.armed("netlist"));
  EXPECT_FALSE(plan.consume("netlist"));
  EXPECT_EQ(plan.injected(), 0u);

  plan.arm("netlist", 2);
  EXPECT_TRUE(plan.armed("netlist"));
  EXPECT_TRUE(plan.consume("netlist"));
  EXPECT_TRUE(plan.consume("netlist"));
  EXPECT_FALSE(plan.consume("netlist"));  // charges spent
  EXPECT_FALSE(plan.armed("netlist"));
  EXPECT_EQ(plan.injected(), 2u);

  plan.arm("sim_run");  // -1 = unlimited
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(plan.consume("sim_run"));
  EXPECT_TRUE(plan.armed("sim_run"));
  EXPECT_EQ(plan.injected(), 7u);

  // Arming one stage never fires another.
  EXPECT_FALSE(plan.consume("route"));
}

// ---------------------------------------------------------------------------
// Every stage boundary: fault -> diagnostics -> clean recovery

TEST(FaultInjection, EveryStageSurfacesDiagnosticsAndRecovers) {
  const AdcSpec spec = small_spec();
  const SimulationOptions sim = small_sim();
  Harness h;
  Flow flow(h.ctx);

  // Warm the cache with a clean end-to-end pass and pin reference values.
  const core::NodeReport ref = flow.report(spec, sim);
  ASSERT_TRUE(ref.complete) << h.sink.render();
  ASSERT_FALSE(h.sink.has_errors()) << h.sink.render();

  // For each stage: one armed charge must make the stage's own entry point
  // fail with diagnostics, and the very next (un-faulted) call over the
  // same cache must succeed — proving the poisoned build was never cached.
  auto check = [&](const char* stage, auto fails, auto succeeds) {
    SCOPED_TRACE(stage);
    h.sink.clear();
    const auto before = h.plan.injected();
    h.plan.arm(stage, 1);
    EXPECT_TRUE(fails());
    EXPECT_EQ(h.plan.injected(), before + 1);
    EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
    h.sink.clear();
    EXPECT_TRUE(succeeds()) << h.sink.render();
    EXPECT_FALSE(h.sink.has_errors()) << h.sink.render();
  };

  check(
      "tech_library", [&] { return flow.tech_library(spec) == nullptr; },
      [&] { return flow.tech_library(spec) != nullptr; });
  check(
      "netlist", [&] { return flow.netlist(spec).design == nullptr; },
      [&] { return flow.netlist(spec).design != nullptr; });
  check(
      "floorplan", [&] { return flow.floorplan(spec) == nullptr; },
      [&] { return flow.floorplan(spec) != nullptr; });
  check(
      "placement", [&] { return flow.placement(spec) == nullptr; },
      [&] { return flow.placement(spec) != nullptr; });
  check(
      "route", [&] { return flow.synthesis(spec) == nullptr; },
      [&] {
        const auto s = flow.synthesis(spec);
        return s != nullptr && s->layout != nullptr;
      });
  check(
      "sim_run", [&] { return flow.sim_run(spec, sim) == nullptr; },
      [&] { return flow.sim_run(spec, sim) != nullptr; });
  check(
      "report", [&] { return !flow.report(spec, sim).complete; },
      [&] { return flow.report(spec, sim).complete; });
  check(
      "migrate",
      [&] { return flow.migrate(spec, 22.0).target_lib == nullptr; },
      [&] { return flow.migrate(spec, 22.0).target_lib != nullptr; });
  check(
      "hdl_emit", [&] { return flow.hdl_emit(spec) == nullptr; },
      [&] { return flow.hdl_emit(spec) != nullptr; });
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  check(
      "gate_sim", [&] { return flow.gate_sim(spec, gopts) == nullptr; },
      [&] { return flow.gate_sim(spec, gopts) != nullptr; });

  // After all ten injections, the warm cache still serves the original
  // artifacts: the final report is bit-identical to the pre-fault one.
  h.sink.clear();
  const core::NodeReport again = flow.report(spec, sim);
  ASSERT_TRUE(again.complete) << h.sink.render();
  EXPECT_EQ(again.run.sndr.sndr_db, ref.run.sndr.sndr_db);
  EXPECT_EQ(again.run.power.total_w(), ref.run.power.total_w());
  EXPECT_EQ(again.area_mm2, ref.area_mm2);
}

TEST(FaultInjection, FaultedBuildsNeverPopulateTheCache) {
  const AdcSpec spec = small_spec();
  Harness h;
  Flow flow(h.ctx);

  // A faulted SimRun refuses before the lookup: no miss, no entry.
  h.plan.arm("sim_run", 1);
  EXPECT_EQ(flow.sim_run(spec, small_sim()), nullptr);
  EXPECT_EQ(h.cache.stats().misses, 0u);
  EXPECT_EQ(h.cache.stats().entries, 0u);

  // A faulted Netlist refuses before its lookup; the netlist key must stay
  // vacant afterwards (a dummy build returning null is how the cache API
  // probes without inserting).
  h.plan.arm("netlist", 1);
  EXPECT_EQ(flow.netlist(spec).design, nullptr);
  bool hit = true;
  const auto probe = h.cache.get_or_build<core::DesignBundle>(
      core::netlist_key(spec),
      []() { return std::shared_ptr<const core::DesignBundle>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(probe, nullptr);

  // A faulted HdlEmit leaves the hdl_emit key vacant.
  h.plan.arm("hdl_emit", 1);
  EXPECT_EQ(flow.hdl_emit(spec), nullptr);
  hit = true;
  const auto hdl_probe = h.cache.get_or_build<core::HdlEmitResult>(
      core::hdl_emit_key(spec),
      []() { return std::shared_ptr<const core::HdlEmitResult>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(hdl_probe, nullptr);

  // A faulted GateSim refuses after pulling its upstream HdlEmit, before
  // its own lookup.
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  h.plan.arm("gate_sim", 1);
  EXPECT_EQ(flow.gate_sim(spec, gopts), nullptr);
  core::GateSimOptions canon = gopts;
  canon.sim.record_bits = true;
  hit = true;
  const auto gate_probe = h.cache.get_or_build<core::GateSimResult>(
      core::gate_sim_key(spec, canon),
      []() { return std::shared_ptr<const core::GateSimResult>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(gate_probe, nullptr);
}

// ---------------------------------------------------------------------------
// Drivers: per-run faults degrade, they don't crash the batch

TEST(FaultInjection, MonteCarloSurvivesPerRunFaults) {
  Harness h;
  const core::AdcDesign adc(small_spec(), h.ctx);
  ASSERT_TRUE(adc.ok());

  core::MonteCarloOptions mc;
  mc.runs = 4;
  mc.sim.n_samples = 1 << 10;
  mc.batch_width = 4;  // one lane group: faults reach the batched path
  mc.exec = h.ctx;
  h.plan.arm("sim_run", 2);  // exactly two of the four draws are refused
  const auto res = core::monte_carlo_sndr(adc, mc);

  ASSERT_EQ(res.sndr_db.size(), 4u);
  int nans = 0;
  for (double s : res.sndr_db) nans += std::isnan(s) ? 1 : 0;
  EXPECT_EQ(nans, 2);
  EXPECT_EQ(h.sink.error_count(), 2u) << h.sink.render();
  EXPECT_EQ(h.plan.injected(), 2u);
}

TEST(FaultInjection, CornerSweepSurvivesPerCornerFaults) {
  Harness h;
  const core::AdcDesign adc(small_spec(), h.ctx);
  ASSERT_TRUE(adc.ok());

  h.plan.arm("sim_run", 1);
  const auto corners = core::corner_sweep(adc, h.ctx, 1 << 10);
  ASSERT_EQ(corners.size(), 6u);
  int nans = 0;
  for (const auto& c : corners) nans += std::isnan(c.sndr_db) ? 1 : 0;
  EXPECT_EQ(nans, 1);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, LaneGroupsRefuseExactlyTheFaultedEntries) {
  // Six seeds at width 4 are a 4-lane and a 2-lane group. On one thread
  // the plan's charges go to entries in order, so three lanes of the first
  // group are refused while its fourth lane still builds the group; every
  // entry not refused must match a clean scalar run bit for bit.
  const AdcSpec spec = small_spec();
  const auto opts_of = [](std::size_t i) {
    SimulationOptions sim = small_sim();
    sim.seed = 100 + i;
    return sim;
  };
  constexpr std::size_t kEntries = 6;

  Harness ref;
  ref.ctx.threads = 1;
  const core::AdcDesign ref_adc(spec, ref.ctx);
  std::vector<double> clean(kEntries);
  Flow(ref.ctx).sim_run_lanes(
      ref_adc, kEntries, 1, opts_of,
      [&clean](std::size_t i, const core::RunResult* run) {
        clean[i] = run != nullptr ? run->sndr.sndr_db : 0.0;
      });

  Harness h;
  h.ctx.threads = 1;
  const core::AdcDesign adc(spec, h.ctx);
  ASSERT_TRUE(adc.ok());
  h.plan.arm("sim_run", 3);
  std::vector<double> got(kEntries);
  const core::BatchStats stats = Flow(h.ctx).sim_run_lanes(
      adc, kEntries, 4, opts_of,
      [&got](std::size_t i, const core::RunResult* run) {
        got[i] = run != nullptr ? run->sndr.sndr_db
                                : std::numeric_limits<double>::quiet_NaN();
      });

  EXPECT_EQ(h.plan.injected(), 3u);
  EXPECT_EQ(h.sink.error_count(), 3u) << h.sink.render();
  EXPECT_EQ(stats.task_wall_s.size(), kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    SCOPED_TRACE(i);
    if (i < 3) {
      EXPECT_TRUE(std::isnan(got[i]));
    } else {
      EXPECT_EQ(got[i], clean[i]);
    }
    // Refused entries never reach the cache; the others are resident.
    bool hit = false;
    (void)h.cache.get_or_build<core::RunResult>(
        core::sim_run_key(spec, opts_of(i)),
        []() { return std::shared_ptr<const core::RunResult>(); }, {}, &hit);
    EXPECT_EQ(hit, i >= 3);
  }
}

// ---------------------------------------------------------------------------
// The boundary checks a refusal stands in for, driven directly without a
// fault plan (the rest — bad captures, slice counts, gate-sim tops — have
// their own tests in degenerate_input_test.cpp and eval_test.cpp).

TEST(FaultInjection, BoundaryChecksCatchCorruptedStageInputs) {
  const AdcSpec spec = small_spec();
  Harness h;
  Flow flow(h.ctx);
  const core::DesignBundle bundle = flow.netlist(spec);
  ASSERT_NE(bundle.design, nullptr);

  // Tech library: a node the technology table does not know.
  AdcSpec bad_node = spec;
  bad_node.node_nm = -12345.0;
  EXPECT_TRUE(core::has_errors(core::validate_spec(bad_node)));

  // Netlist: an instance of an unknown master on an undeclared net.
  netlist::Design broken = *bundle.design;
  netlist::Module* top = broken.find_module(broken.top());
  ASSERT_NE(top, nullptr);
  netlist::Instance evil;
  evil.name = "corrupt";
  evil.master = "CELL_DOES_NOT_EXIST";
  evil.conn["A"] = "net_does_not_exist";
  top->add_instance(std::move(evil));
  EXPECT_TRUE(core::has_errors(core::validate_netlist(broken)));

  // Floorplan: a design whose top module does not resolve.
  netlist::Design topless = *bundle.design;
  topless.set_top("<missing>");
  std::vector<synth::FlowDiagnostic> fdiags;
  (void)synth::run_floorplan_stage(topless, {}, fdiags);
  EXPECT_FALSE(fdiags.empty());

  // HdlEmit: emitted text that lost a gate fails the re-parse + strict
  // equivalence gate the stage applies before caching.
  std::string text = netlist::write_verilog(*bundle.design);
  const std::size_t pos = text.find("NOR3X4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "INVX1");
  netlist::Design reparsed(bundle.lib.get());
  const netlist::ParseResult pr = netlist::parse_verilog(text, reparsed);
  bool caught = !pr.ok;
  if (pr.ok) {
    reparsed.set_top(bundle.design->top());
    netlist::EquivalenceOptions strict;
    strict.match_drive = true;
    caught = !netlist::check_equivalence(*bundle.design, reparsed, strict)
                  .equivalent;
  }
  EXPECT_TRUE(caught);
}

// ---------------------------------------------------------------------------
// Drivers: malformed input yields diagnostics + empty results, never a crash

TEST(FaultInjection, MonteCarloRejectsInvalidInput) {
  Harness h;

  // An invalid spec never builds a design; the driver refuses to fan out.
  AdcSpec bad = small_spec();
  bad.num_slices = 1;
  core::MonteCarloOptions mc;
  mc.exec = h.ctx;
  const auto res = core::monte_carlo_sndr(bad, mc);
  EXPECT_TRUE(res.sndr_db.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();

  // Bad per-run options are rejected once, before the batch.
  h.sink.clear();
  const core::AdcDesign adc(small_spec(), h.ctx);
  core::MonteCarloOptions badsim;
  badsim.exec = h.ctx;
  badsim.sim.n_samples = 1000;  // not a power of two
  const auto res2 = core::monte_carlo_sndr(adc, badsim);
  EXPECT_TRUE(res2.sndr_db.empty());
  bool names_the_knob = false;
  for (const auto& d : h.sink.all()) {
    if (d.item == "n_samples") names_the_knob = true;
  }
  EXPECT_TRUE(names_the_knob) << h.sink.render();
}

TEST(FaultInjection, CornerSweepRejectsUnbuiltDesign) {
  Harness h;
  AdcSpec bad = small_spec();
  bad.fs_hz = 0;
  const core::AdcDesign adc(bad, h.ctx);
  EXPECT_FALSE(adc.ok());
  h.sink.clear();  // keep only the sweep's own refusal
  const auto corners = core::corner_sweep(adc, h.ctx, 1 << 10);
  EXPECT_TRUE(corners.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, DatasheetIncompleteOnInvalidSpec) {
  Harness h;
  AdcSpec bad = small_spec();
  bad.num_slices = 100;  // beyond the 64-slice packing limit
  core::DatasheetOptions opts;
  opts.n_samples = 1 << 10;
  opts.exec = h.ctx;
  const core::Datasheet ds = core::generate_datasheet(bad, opts);
  EXPECT_FALSE(ds.complete);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
  // The incomplete datasheet still renders without crashing.
  EXPECT_FALSE(ds.render().empty());
}

TEST(FaultInjection, DatasheetIncompleteWhenSynthesisIsFaulted) {
  Harness h;
  h.plan.arm("route", 1);
  core::DatasheetOptions opts;
  opts.n_samples = 1 << 10;
  opts.exec = h.ctx;
  const core::Datasheet ds = core::generate_datasheet(small_spec(), opts);
  EXPECT_FALSE(ds.complete);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, OptimizerRejectsMalformedTargetAndGrid) {
  Harness h;
  core::OptimizeTarget target;
  target.bandwidth_hz = -1.0;
  core::OptimizeOptions opts;
  opts.exec = h.ctx;
  const auto res = core::optimize_spec(target, opts);
  EXPECT_FALSE(res.best.has_value());
  EXPECT_TRUE(res.evaluated.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();

  h.sink.clear();
  core::OptimizeTarget ok_target;
  core::OptimizeOptions empty_grid;
  empty_grid.exec = h.ctx;
  empty_grid.slice_choices.clear();
  const auto res2 = core::optimize_spec(ok_target, empty_grid);
  EXPECT_FALSE(res2.best.has_value());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, OptimizerRecordsFaultedCandidatesAsUnevaluated) {
  Harness h;
  core::OptimizeTarget target;
  target.min_sndr_db = 20.0;
  core::OptimizeOptions opts;
  opts.exec = h.ctx;
  opts.n_samples = 1 << 10;
  opts.slice_choices = {4};
  opts.osr_choices = {50, 75};
  h.plan.arm("sim_run", 1);  // the first candidate's run is refused
  const auto res = core::optimize_spec(target, opts);
  ASSERT_EQ(res.evaluated.size(), 2u);
  EXPECT_FALSE(res.evaluated.front().valid);
  EXPECT_TRUE(res.evaluated.back().valid);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

// ---------------------------------------------------------------------------
// Diagnostics reach stderr when no sink is attached (never silent)

TEST(FaultInjection, ErrorsFallBackToStderrWithoutASink) {
  core::ArtifactCache cache(16);
  util::FaultPlan plan;
  plan.arm("sim_run", 1);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.diag = nullptr;  // stderr fallback path
  ctx.faults = &plan;
  // Must not crash; the refusal lands on stderr (visible in test logs).
  EXPECT_EQ(Flow(ctx).sim_run(small_spec(), small_sim()), nullptr);
  EXPECT_EQ(plan.injected(), 1u);
}

}  // namespace
