// Stage-graph flow tests: cache-key determinism and sensitivity,
// cached-vs-fresh bit-identity, structured synthesis diagnostics, LRU
// bounds, ExecContext forwarding, trace rendering and concurrent cache
// access from batch workers.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/adc.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/eval.h"
#include "core/flow.h"
#include "netlist/generator.h"
#include "util/trace.h"

namespace {

using namespace vcoadc;
using core::AdcSpec;
using core::ArtifactCache;
using core::CacheKey;
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

// ---------------------------------------------------------------------------
// Cache keys

TEST(FlowKeys, StableAcrossProcesses) {
  // Golden values pinned from an independent process: the key is a pure
  // function of the serialized fields, so a key that matches here matches
  // in every process (no address, iteration-order or ASLR leakage).
  const AdcSpec spec = AdcSpec::paper_40nm();
  EXPECT_EQ(core::tech_library_key(spec).hex(),
            "f7538add10e2970ff28f500c2fc3faab");
  EXPECT_EQ(core::netlist_key(spec).hex(),
            "3e817309c55ff650f37e9134880437ba");
  EXPECT_EQ(core::sim_run_key(spec, SimulationOptions{}).hex(),
            "25f0bdd5837936c782b7e95ed49d0fb3");
  EXPECT_EQ(core::synthesis_key(spec, {}).hex(),
            "31bdec3e5c757d4aafaeb26f5fc31bac");
}

TEST(FlowKeys, DeterministicForEqualInputs) {
  const AdcSpec a = AdcSpec::paper_40nm();
  const AdcSpec b = AdcSpec::paper_40nm();
  EXPECT_EQ(core::netlist_key(a), core::netlist_key(b));
  EXPECT_EQ(core::sim_run_key(a, small_sim()),
            core::sim_run_key(b, small_sim()));
  EXPECT_EQ(core::synthesis_key(a, {}), core::synthesis_key(b, {}));
}

TEST(FlowKeys, EverySpecFieldChangesSimKey) {
  const AdcSpec base = AdcSpec::paper_40nm();
  const SimulationOptions sim;
  const CacheKey k0 = core::sim_run_key(base, sim);

  std::vector<AdcSpec> variants;
  auto vary = [&](auto mutate) {
    AdcSpec s = base;
    mutate(s);
    variants.push_back(s);
  };
  vary([](AdcSpec& s) { s.node_nm = 180; });
  vary([](AdcSpec& s) { s.num_slices = 4; });
  vary([](AdcSpec& s) { s.fs_hz *= 2; });
  vary([](AdcSpec& s) { s.bandwidth_hz *= 2; });
  vary([](AdcSpec& s) { s.loop_gain = 0.5; });
  vary([](AdcSpec& s) { s.dac_fragments = 3; });
  vary([](AdcSpec& s) { s.vco_center_over_fs = 3.1; });
  vary([](AdcSpec& s) { s.with_nonidealities = false; });
  vary([](AdcSpec& s) { s.pvt.process = 1.2; });
  vary([](AdcSpec& s) { s.pvt.voltage = 0.9; });
  vary([](AdcSpec& s) { s.pvt.temperature_k = 398; });
  vary([](AdcSpec& s) { s.seed = 77; });

  std::set<std::string> seen{k0.hex()};
  for (const AdcSpec& s : variants) {
    const CacheKey k = core::sim_run_key(s, sim);
    EXPECT_NE(k, k0);
    // Also pairwise distinct: no two variants alias.
    EXPECT_TRUE(seen.insert(k.hex()).second);
  }
}

TEST(FlowKeys, EverySimOptionChangesSimKey) {
  const AdcSpec spec = AdcSpec::paper_40nm();
  const SimulationOptions base;
  const CacheKey k0 = core::sim_run_key(spec, base);

  std::vector<SimulationOptions> variants;
  auto vary = [&](auto mutate) {
    SimulationOptions s = base;
    mutate(s);
    variants.push_back(s);
  };
  vary([](SimulationOptions& s) { s.n_samples = 1 << 12; });
  vary([](SimulationOptions& s) { s.amplitude_dbfs = -6.0; });
  vary([](SimulationOptions& s) { s.fin_target_hz = 2e6; });
  vary([](SimulationOptions& s) {
    s.comparator = msim::ComparatorKind::kStrongArm;
  });
  vary([](SimulationOptions& s) { s.dac = msim::DacKind::kCurrentSteering; });
  vary([](SimulationOptions& s) { s.record_bits = true; });
  vary([](SimulationOptions& s) { s.wire_cap_f = 1e-13; });
  vary([](SimulationOptions& s) { s.seed = 42; });
  vary([](SimulationOptions& s) { s.pvt = core::PvtCorner{1.2, 1.0, 300}; });

  std::set<std::string> seen{k0.hex()};
  for (const SimulationOptions& s : variants) {
    EXPECT_TRUE(seen.insert(core::sim_run_key(spec, s).hex()).second);
  }
}

TEST(FlowKeys, SeedAndPvtOverridesCanonicalize) {
  // A per-run override and the same value baked into the spec are the same
  // run and must share a key (otherwise MC warm-ups would never hit).
  AdcSpec spec = AdcSpec::paper_40nm();
  SimulationOptions with_override;
  with_override.seed = 99;

  AdcSpec baked = spec;
  baked.seed = 99;
  EXPECT_EQ(core::sim_run_key(spec, with_override),
            core::sim_run_key(baked, SimulationOptions{}));

  SimulationOptions pvt_override;
  pvt_override.pvt = core::PvtCorner{1.2, 0.95, 398.0};
  AdcSpec pvt_baked = spec;
  pvt_baked.pvt = *pvt_override.pvt;
  EXPECT_EQ(core::sim_run_key(spec, pvt_override),
            core::sim_run_key(pvt_baked, SimulationOptions{}));
}

TEST(FlowKeys, GateLevelStageKeysAreDeterministicAndSensitive) {
  const AdcSpec a = AdcSpec::paper_40nm();
  const AdcSpec b = AdcSpec::paper_40nm();
  const core::GateSimOptions gopts;

  // Deterministic for equal inputs.
  EXPECT_EQ(core::hdl_emit_key(a), core::hdl_emit_key(b));
  EXPECT_EQ(core::gate_sim_key(a, gopts), core::gate_sim_key(b, gopts));

  // Distinct from every upstream stage key (no tag collisions).
  std::set<std::string> keys{core::netlist_key(a).hex(),
                             core::sim_run_key(a, gopts.sim).hex()};
  EXPECT_TRUE(keys.insert(core::hdl_emit_key(a).hex()).second);
  EXPECT_TRUE(keys.insert(core::gate_sim_key(a, gopts).hex()).second);

  // Netlist-shaping spec fields reach both keys through the upstream fold.
  AdcSpec more_slices = a;
  more_slices.num_slices = 8;
  EXPECT_NE(core::hdl_emit_key(more_slices), core::hdl_emit_key(a));
  EXPECT_NE(core::gate_sim_key(more_slices, gopts),
            core::gate_sim_key(a, gopts));

  // Every gate-sim option is result-affecting.
  core::GateSimOptions longer = gopts;
  longer.sim.n_samples = 1 << 10;
  EXPECT_NE(core::gate_sim_key(a, longer), core::gate_sim_key(a, gopts));
  core::GateSimOptions tol = gopts;
  tol.ring_period_tol = 0.5;
  EXPECT_NE(core::gate_sim_key(a, tol), core::gate_sim_key(a, gopts));
  core::GateSimOptions top = gopts;
  top.top = "ADC_slice";
  EXPECT_NE(core::gate_sim_key(a, top), core::gate_sim_key(a, gopts));

  // record_bits canonicalizes on: the stage always replays per-slice bits,
  // so a caller toggling the flag must land on the same artifact.
  core::GateSimOptions bits = gopts;
  bits.sim.record_bits = true;
  EXPECT_EQ(core::gate_sim_key(a, bits), core::gate_sim_key(a, gopts));
}

TEST(FlowKeys, SynthesisOptionsChangeTheRightStages) {
  const AdcSpec spec = AdcSpec::paper_40nm();
  synth::SynthesisOptions base;

  // Floorplan-stage knobs invalidate floorplan + everything downstream.
  synth::SynthesisOptions fp = base;
  fp.target_utilization = 0.12;
  EXPECT_NE(core::floorplan_key(spec, fp), core::floorplan_key(spec, base));
  EXPECT_NE(core::synthesis_key(spec, fp), core::synthesis_key(spec, base));

  // Placement-stage knobs leave the floorplan key untouched.
  synth::SynthesisOptions pl = base;
  pl.seed = 7;
  EXPECT_EQ(core::floorplan_key(spec, pl), core::floorplan_key(spec, base));
  EXPECT_NE(core::placement_key(spec, pl), core::placement_key(spec, base));

  // Route-stage knobs leave the placement key untouched.
  synth::SynthesisOptions rt = base;
  rt.detailed_route = false;
  EXPECT_EQ(core::placement_key(spec, rt), core::placement_key(spec, base));
  EXPECT_NE(core::synthesis_key(spec, rt), core::synthesis_key(spec, base));

  // Execution knobs (threads, trace) must not change any key.
  synth::SynthesisOptions ex = base;
  ex.threads = 8;
  util::Trace trace;
  ex.trace = &trace;
  EXPECT_EQ(core::synthesis_key(spec, ex), core::synthesis_key(spec, base));
}

TEST(FlowKeys, TimingAndPowerGridKeysFollowRouteAndClock) {
  const AdcSpec spec = AdcSpec::paper_40nm();
  const synth::SynthesisOptions base;
  const core::CacheKey t0 = core::timing_key(spec, base);
  const core::CacheKey p0 = core::power_grid_key(spec, base);
  std::set<std::string> keys{core::synthesis_key(spec, base).hex()};
  EXPECT_TRUE(keys.insert(t0.hex()).second);
  EXPECT_TRUE(keys.insert(p0.hex()).second);
  EXPECT_EQ(core::timing_key(spec, base), t0);  // deterministic

  // The clock period is an STA input; the power grid does not see it.
  AdcSpec faster = spec;
  faster.fs_hz *= 1.5;
  EXPECT_NE(core::timing_key(faster, base), t0);
  EXPECT_EQ(core::power_grid_key(faster, base), p0);

  // Any Route-key change (here a placement knob) reaches both.
  synth::SynthesisOptions pl = base;
  pl.seed = 7;
  EXPECT_NE(core::timing_key(spec, pl), t0);
  EXPECT_NE(core::power_grid_key(spec, pl), p0);

  // Spec fields neither analysis reads leave both keys alone, so one
  // layout's STA serves every behavioral variant of the spec.
  AdcSpec behavioral = spec;
  behavioral.seed = 99;
  behavioral.loop_gain *= 1.1;
  EXPECT_EQ(core::timing_key(behavioral, base), t0);
  EXPECT_EQ(core::power_grid_key(behavioral, base), p0);
}

// ---------------------------------------------------------------------------
// Cached-vs-fresh bit-identity

TEST(FlowCache, CachedSimRunBitIdenticalToFresh) {
  const AdcSpec spec = small_spec();
  const SimulationOptions sim = small_sim();

  ArtifactCache cache(32);
  ExecContext cached_ctx;
  cached_ctx.cache = &cache;
  ExecContext fresh_ctx;
  fresh_ctx.cache = nullptr;  // every stage recomputes

  Flow cached(cached_ctx);
  Flow fresh(fresh_ctx);

  const auto cold = cached.sim_run(spec, sim);   // populates the cache
  const auto warm = cached.sim_run(spec, sim);   // served from the cache
  const auto direct = fresh.sim_run(spec, sim);  // no cache at all

  // The warm result IS the cold object (shared, not rebuilt)...
  EXPECT_EQ(cold.get(), warm.get());
  EXPECT_GE(cache.stats().hits, 1u);

  // ...and matches an uncached compute bit for bit.
  ASSERT_EQ(cold->mod.output.size(), direct->mod.output.size());
  for (std::size_t i = 0; i < cold->mod.output.size(); ++i) {
    ASSERT_EQ(cold->mod.output[i], direct->mod.output[i]) << "sample " << i;
  }
  EXPECT_EQ(cold->sndr.sndr_db, direct->sndr.sndr_db);
  EXPECT_EQ(cold->power.total_w(), direct->power.total_w());
  EXPECT_EQ(cold->fom_fj, direct->fom_fj);
  EXPECT_EQ(cold->fin_hz, direct->fin_hz);
}

TEST(FlowCache, CachedSynthesisBitIdenticalToFresh) {
  const AdcSpec spec = small_spec();

  ArtifactCache cache(32);
  ExecContext cached_ctx;
  cached_ctx.cache = &cache;
  ExecContext fresh_ctx;
  fresh_ctx.cache = nullptr;

  const auto cold = Flow(cached_ctx).synthesis(spec);
  const auto warm = Flow(cached_ctx).synthesis(spec);
  const auto direct = Flow(fresh_ctx).synthesis(spec);

  EXPECT_EQ(cold.get(), warm.get());

  EXPECT_EQ(cold->floorplan_spec, direct->floorplan_spec);
  EXPECT_EQ(cold->stats.die_area_m2, direct->stats.die_area_m2);
  EXPECT_EQ(cold->routing.total_hpwl_m, direct->routing.total_hpwl_m);
  EXPECT_EQ(cold->detailed_routing.total_wirelength_m,
            direct->detailed_routing.total_wirelength_m);
  EXPECT_EQ(cold->drc.violations.size(), direct->drc.violations.size());
  ASSERT_TRUE(cold->layout && direct->layout);
  const auto& a = cold->layout->placement().cells;
  const auto& b = direct->layout->placement().cells;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rect.x, b[i].rect.x) << "cell " << i;
    ASSERT_EQ(a[i].rect.y, b[i].rect.y) << "cell " << i;
  }

  // clone() (how Flow::report hands out its copy) deep-copies the artifact.
  const synth::SynthesisResult owned = cold->clone();
  EXPECT_EQ(owned.floorplan_spec, cold->floorplan_spec);
  ASSERT_TRUE(owned.layout);
  EXPECT_NE(owned.layout.get(), cold->layout.get());
  EXPECT_EQ(owned.layout->placement().cells.size(),
            cold->layout->placement().cells.size());
}

TEST(FlowCache, MonteCarloWarmRunBitIdentical) {
  ArtifactCache cache(64);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = 2;

  core::EvalRequest req;
  req.kind = core::EvalKind::kMonteCarlo;
  req.spec = small_spec();
  req.monte_carlo.runs = 5;
  req.monte_carlo.sim.n_samples = 1 << 10;

  const auto cold = core::evaluate(req, ctx).monte_carlo;
  const auto before = cache.stats();
  const auto warm = core::evaluate(req, ctx).monte_carlo;
  const auto after = cache.stats();

  ASSERT_EQ(cold.sndr_db.size(), warm.sndr_db.size());
  for (std::size_t i = 0; i < cold.sndr_db.size(); ++i) {
    EXPECT_EQ(cold.sndr_db[i], warm.sndr_db[i]) << "run " << i;
  }
  // The warm batch added no misses — every draw came from the cache.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GE(after.hits, before.hits + 5);
}

TEST(FlowCache, SharedAcrossDriversBuildsNetlistOnce) {
  // The tentpole property: MC + corners + a datasheet over the same spec
  // share one TechLibrary and one Netlist build.
  const AdcSpec spec = small_spec();
  ArtifactCache cache(128);
  ExecContext ctx;
  ctx.cache = &cache;

  core::EvalRequest req;
  req.spec = spec;
  req.kind = core::EvalKind::kMonteCarlo;
  req.monte_carlo.runs = 3;
  req.monte_carlo.sim.n_samples = 1 << 10;
  core::evaluate(req, ctx);
  req.kind = core::EvalKind::kCornerSweep;
  req.corners.n_samples = 1 << 10;
  core::evaluate(req, ctx);
  req.kind = core::EvalKind::kDatasheet;
  req.datasheet.n_samples = 1 << 10;
  core::evaluate(req, ctx);

  // Count the Netlist-stage builds: exactly one miss for its key means the
  // library+netlist were built once and shared by every driver.
  const auto key = core::netlist_key(spec);
  bool hit = false;
  cache.get_or_build<core::DesignBundle>(
      key,
      []() {
        ADD_FAILURE() << "netlist artifact should already be resident";
        return std::make_shared<const core::DesignBundle>();
      },
      {}, &hit);
  EXPECT_TRUE(hit);
}

// ---------------------------------------------------------------------------
// Structured synthesis diagnostics

TEST(FlowDiagnostics, CorruptedNetlistReportsInsteadOfAborting) {
  const AdcSpec spec = small_spec();
  auto lib = std::make_unique<netlist::CellLibrary>(
      netlist::make_standard_library(spec.tech_node()));
  netlist::add_resistor_cells(*lib, spec.tech_node());
  netlist::GeneratorConfig gen;
  gen.num_slices = spec.num_slices;
  gen.dac_fragments = spec.dac_fragments;
  netlist::Design design = netlist::build_adc_design(*lib, gen);

  // Deliberately corrupt the top module: point an instance at a master
  // that exists nowhere, the classic hand-edited-netlist mistake.
  auto& instances = design.at(design.top()).instances();
  ASSERT_FALSE(instances.empty());
  const std::string victim = instances.front().name;
  instances.front().master = "NO_SUCH_CELL";

  const synth::SynthesisResult result = synth::synthesize(design, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.layout, nullptr);
  ASSERT_FALSE(result.diagnostics.empty());
  const synth::FlowDiagnostic& d = result.diagnostics.front();
  EXPECT_EQ(d.stage, "validate");
  EXPECT_FALSE(d.reason.empty());
  // The offending instance is attributed by name.
  bool attributed = false;
  for (const auto& diag : result.diagnostics) {
    if (diag.item.find(victim) != std::string::npos) attributed = true;
  }
  EXPECT_TRUE(attributed);

  // A clean design still reports ok() with no diagnostics.
  netlist::Design good = netlist::build_adc_design(*lib, gen);
  const synth::SynthesisResult clean = synth::synthesize(good, {});
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.diagnostics.empty());
  ASSERT_NE(clean.layout, nullptr);
}

// ---------------------------------------------------------------------------
// Cache mechanics

TEST(ArtifactCacheTest, LruEvictionBoundsResidency) {
  ArtifactCache cache(2);
  for (int i = 0; i < 5; ++i) {
    core::KeyHasher h;
    h.i64(i);
    cache.get_or_build<int>(h.digest(), [i]() {
      return std::make_shared<const int>(i);
    });
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 5u);
  EXPECT_EQ(st.evictions, 3u);
  EXPECT_LE(st.entries, 2u);

  // The most recently inserted key is still resident...
  core::KeyHasher h4;
  h4.i64(4);
  bool hit = false;
  cache.get_or_build<int>(h4.digest(), []() {
    return std::make_shared<const int>(-1);
  }, {}, &hit);
  EXPECT_TRUE(hit);

  // ...and the oldest was evicted (rebuilds).
  core::KeyHasher h0;
  h0.i64(0);
  hit = true;
  auto v = cache.get_or_build<int>(h0.digest(), []() {
    return std::make_shared<const int>(100);
  }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*v, 100);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(FlowTrace, SpansNestAndRenderBothWays) {
  util::Trace trace;
  ExecContext ctx;
  ArtifactCache cache(32);
  ctx.cache = &cache;
  ctx.trace = &trace;

  Flow flow(ctx);
  flow.report(small_spec(), small_sim());

  const auto events = trace.events();
  ASSERT_FALSE(events.empty());
  int report_idx = -1, route_idx = -1, sim_idx = -1, netlist_idx = -1;
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    if (events[i].name == "report") report_idx = i;
    if (events[i].name == "route") route_idx = i;
    if (events[i].name == "sim_run") sim_idx = i;
    if (events[i].name == "netlist") netlist_idx = i;
  }
  ASSERT_GE(report_idx, 0);
  ASSERT_GE(route_idx, 0);
  ASSERT_GE(sim_idx, 0);
  ASSERT_GE(netlist_idx, 0);
  // The Route and SimRun stages are children of the report span.
  EXPECT_EQ(events[route_idx].parent, report_idx);
  EXPECT_EQ(events[sim_idx].parent, report_idx);
  // Every flow stage records its cache disposition (a first run: misses).
  EXPECT_EQ(events[route_idx].cache_hit, 0);
  EXPECT_GT(events[route_idx].bytes, 0u);

  const std::string tree = trace.render_tree();
  EXPECT_NE(tree.find("report"), std::string::npos);
  EXPECT_NE(tree.find("route"), std::string::npos);
  const std::string jsonl = trace.render_jsonl();
  EXPECT_NE(jsonl.find("\"name\":\"sim_run\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cache_hit\":"), std::string::npos);

  // A warm re-run of the same report is all hits.
  util::Trace warm_trace;
  ctx.trace = &warm_trace;
  Flow(ctx).report(small_spec(), small_sim());
  for (const auto& e : warm_trace.events()) {
    if (e.name == "route" || e.name == "sim_run") {
      EXPECT_EQ(e.cache_hit, 1) << e.name;
    }
  }
}

TEST(FlowTrace, HitSpansReportTheBytesTheirMissStored) {
  // An artifact is sized once, when it enters the cache; a hit span
  // reports that stored size rather than re-measuring the artifact (for a
  // netlist that would be a full Design::stats() walk per lookup).
  util::Trace trace;
  ArtifactCache cache(32);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.trace = &trace;
  Flow flow(ctx);
  for (int pass = 0; pass < 2; ++pass) {
    flow.netlist(small_spec());
    flow.sim_run(small_spec(), small_sim());
  }

  for (const std::string stage : {"netlist", "sim_run"}) {
    SCOPED_TRACE(stage);
    std::vector<util::TraceEvent> misses, hits;
    for (const auto& e : trace.events()) {
      if (e.name == stage) (e.cache_hit == 1 ? hits : misses).push_back(e);
    }
    ASSERT_EQ(misses.size(), 1u);
    ASSERT_FALSE(hits.empty());
    EXPECT_GT(misses.front().bytes, 0u);
    for (const auto& e : hits) EXPECT_EQ(e.bytes, misses.front().bytes);
  }
}

TEST(FlowTrace, SameNameSiblingsCollapseInTree) {
  util::Trace trace;
  for (int i = 0; i < 4; ++i) {
    util::TraceSpan span(&trace, "sim_run");
    span.cache(i > 0, 100);
  }
  const std::string tree = trace.render_tree();
  EXPECT_NE(tree.find("x4"), std::string::npos);
  // One collapsed line, not four.
  EXPECT_EQ(tree.find("sim_run"), tree.rfind("sim_run"));
}

// ---------------------------------------------------------------------------
// Concurrency

TEST(FlowConcurrency, BatchWorkersShareSingleFlightBuilds) {
  // Many workers request the same sim over an empty cache: single-flight
  // must build it exactly once, and everyone gets the same object.
  const AdcSpec spec = small_spec();
  const core::AdcDesign adc(spec);
  ArtifactCache cache(32);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = 4;
  Flow flow(ctx);

  const SimulationOptions sim = small_sim();
  core::BatchRunner runner(4);
  const auto runs = runner.map(16, [&](std::size_t, std::uint64_t) {
    return flow.sim_run(adc, sim);
  });

  for (const auto& r : runs) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), runs.front().get());
  }
  // One miss (the single build); the design was pre-built, so only the
  // SimRun stage touches this cache and every other request hits.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 16u - 1u);
}

TEST(FlowConcurrency, DistinctKeysBuildConcurrently) {
  ArtifactCache cache(64);
  ExecContext ctx;
  ctx.cache = &cache;
  Flow flow(ctx);
  const core::AdcDesign adc(small_spec());

  core::BatchRunner runner(4);
  const auto runs = runner.map(8, [&](std::size_t, std::uint64_t seed) {
    SimulationOptions sim = small_sim();
    sim.seed = seed;
    return flow.sim_run(adc, sim)->sndr.sndr_db;
  });
  // 8 distinct seeds -> 8 distinct artifacts, all resident.
  EXPECT_GE(cache.stats().misses, 8u);
  EXPECT_EQ(cache.stats().entries, 8u);

  // Serial reference run over a fresh cache must agree bit for bit.
  ArtifactCache cache2(64);
  ExecContext sctx;
  sctx.cache = &cache2;
  Flow sflow(sctx);
  core::BatchRunner serial(1);
  const auto ref = serial.map(8, [&](std::size_t, std::uint64_t seed) {
    SimulationOptions sim = small_sim();
    sim.seed = seed;
    return sflow.sim_run(adc, sim)->sndr.sndr_db;
  });
  ASSERT_EQ(runs.size(), ref.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], ref[i]) << "seed " << i;
  }
}

}  // namespace
