#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/artifact_cache.h"
#include "core/artifact_serde.h"
#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/eval.h"
#include "core/serde.h"
#include "util/trace.h"

namespace vcoadc::core {
namespace {

/// Every computed Datasheet field as bytes, doubles by bit pattern, so two
/// datasheets compare bitwise. The stage artifacts go through their store
/// codecs; `spec` is the request's own input and is left out.
std::vector<std::uint8_t> datasheet_bytes(const Datasheet& ds) {
  serde::Writer w;
  run_result_codec().encode(ds.nominal, w);
  timing_codec().encode(ds.timing, w);
  power_grid_codec().encode(ds.power_grid, w);
  const synth::LayoutStats& l = ds.layout;
  for (double d : {l.die_area_m2, l.cell_area_m2, l.utilization}) w.f64(d);
  for (int n : {l.num_cells, l.num_rows, l.num_regions}) w.i64(n);
  w.size(ds.drc.violations.size());
  for (const synth::DrcViolation& v : ds.drc.violations) {
    w.i64(static_cast<int>(v.kind));
    w.str(v.detail);
  }
  const synth::MazeRouteResult& r = ds.routing;
  w.size(r.nets.size());
  for (const synth::RoutedNet& n : r.nets) {
    w.str(n.name);
    w.i64(n.pins);
    w.size(n.paths.size());
    for (const auto& path : n.paths) {
      w.size(path.size());
      for (const synth::GridPoint& p : path) {
        for (int c : {p.x, p.y, p.layer}) w.i64(c);
      }
    }
    w.f64(n.wirelength_m);
    w.i64(n.vias);
    w.boolean(n.routed);
  }
  w.f64(r.total_wirelength_m);
  for (int n : {r.total_vias, r.failed_nets, r.overflowed_edges, r.grid_x,
                r.grid_y}) {
    w.i64(n);
  }
  w.f64s(ds.mc.sndr_db);
  for (double d : {ds.mc.mean_db, ds.mc.stddev_db, ds.mc.min_db,
                   ds.mc.max_db}) {
    w.f64(d);
  }
  w.size(ds.amp_sweep.size());
  for (const AmplitudePoint& pt : ds.amp_sweep) {
    for (double d : {pt.amplitude_dbfs, pt.sndr_db, pt.enob}) w.f64(d);
  }
  w.f64(ds.area_mm2);
  w.boolean(ds.complete);
  return w.bytes();
}

std::string result_fp(const EvalResponse& resp) {
  return eval_result_fingerprint(eval_result_to_json(resp));
}

/// A datasheet request with every section on: the nominal run, a two-point
/// amplitude sweep (point 0 is the nominal run) and two Monte-Carlo draws.
EvalRequest full_sheet_request() {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = AdcSpec::paper_40nm();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.amp_sweep_points = 2;
  req.datasheet.mc_runs = 2;
  return req;
}

/// One datasheet request over `cache` (null = uncached) at `threads`: its
/// response, the cache's counters afterwards and the request's spans. The
/// request runs inside a span on the calling thread, so a span recorded
/// on any other thread is a root (parent -1).
struct SheetRun {
  EvalResponse resp;
  ArtifactCacheStats cache;
  std::vector<util::TraceEvent> spans;
};

SheetRun run_sheet(const EvalRequest& req, int threads, ArtifactCache* cache) {
  util::Trace trace;
  ExecContext ctx;
  ctx.threads = threads;
  ctx.cache = cache;
  ctx.trace = &trace;
  SheetRun out;
  {
    util::TraceSpan request(&trace, "request");
    out.resp = evaluate(req, ctx);
  }
  if (cache != nullptr) out.cache = cache->stats();
  out.spans = trace.events();
  return out;
}

/// The first span named `name`, by begin order; null when there is none.
const util::TraceEvent* first_span(const SheetRun& run, const char* name) {
  for (const util::TraceEvent& e : run.spans) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Datasheet, ColdNominalRunBesideTheRouteIsBitIdentical) {
  // A cold datasheet starts its nominal run from the route's estimate: on
  // the calling thread before the maze route at threads 1, on the
  // datasheet worker beside it otherwise. Each side builds on its own
  // cache (or none), so every stage is cold.
  const EvalRequest req = full_sheet_request();
  ArtifactCache serial_cache(64);
  const SheetRun serial = run_sheet(req, 1, &serial_cache);
  ASSERT_TRUE(serial.resp.ok);
  const std::vector<std::uint8_t> bytes =
      datasheet_bytes(serial.resp.datasheet);
  const std::string fp = result_fp(serial.resp);
  // The serial reference simulates inside the route stage.
  const util::TraceEvent* nominal = first_span(serial, "sim_run");
  ASSERT_NE(nominal, nullptr);
  ASSERT_GE(nominal->parent, 0);
  EXPECT_EQ(serial.spans[nominal->parent].name, "route");
  // Without a store, a request's cold_builds are its cache misses.
  EXPECT_GT(serial.cache.misses, 0u);

  for (int threads : {2, 0}) {
    SCOPED_TRACE(threads);
    ArtifactCache cache(64);
    const SheetRun run = run_sheet(req, threads, &cache);
    ASSERT_TRUE(run.resp.ok);
    EXPECT_EQ(datasheet_bytes(run.resp.datasheet), bytes);
    EXPECT_EQ(result_fp(run.resp), fp);
    EXPECT_EQ(run.cache.hits, serial.cache.hits);
    EXPECT_EQ(run.cache.misses, serial.cache.misses);
    if (threads == 2) {
      // The nominal run left the calling thread: its span is a root.
      const util::TraceEvent* early = first_span(run, "sim_run");
      ASSERT_NE(early, nullptr);
      EXPECT_EQ(early->parent, -1);
      EXPECT_EQ(early->cache_hit, 0);
    }
  }

  const SheetRun uncached = run_sheet(req, 2, nullptr);
  ASSERT_TRUE(uncached.resp.ok);
  EXPECT_EQ(datasheet_bytes(uncached.resp.datasheet), bytes);
  EXPECT_EQ(result_fp(uncached.resp), fp);

  // A warm repeat never reaches a build: every stage span is a hit.
  const SheetRun warm = run_sheet(req, 2, &serial_cache);
  ASSERT_TRUE(warm.resp.ok);
  EXPECT_EQ(datasheet_bytes(warm.resp.datasheet), bytes);
  int stages = 0;
  for (const util::TraceEvent& e : warm.spans) {
    if (e.cache_hit < 0) continue;  // request and amp_sweep spans
    EXPECT_EQ(e.cache_hit, 1) << e.name;
    ++stages;
  }
  EXPECT_GT(stages, 0);
}

TEST(Datasheet, RouteEstimateHookFiresOnlyOnColdBuilds) {
  // The hook a datasheet starts its early run from: called once, with the
  // estimate the Route artifact keeps, when the route builds cold; never on
  // a memory hit or a store load.
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.num_slices = 4;
  struct TempDir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("vcoadc_datasheet_hook_" + std::to_string(::getpid()));
    TempDir() { std::filesystem::remove_all(path); }
    ~TempDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  ArtifactStore store(dir.path.string());
  int calls = 0;
  double wire_cap_f = 0;
  const synth::RoutingEstimateFn hook = [&](const synth::RoutingEstimate& e) {
    ++calls;
    wire_cap_f = e.wire_cap_f;
  };

  ArtifactCache cache(64);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.store = &store;
  const auto cold = Flow(ctx).synthesis(spec, {}, hook);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(wire_cap_f, cold->routing.wire_cap_f);

  ASSERT_NE(Flow(ctx).synthesis(spec, {}, hook), nullptr);  // memory hit
  ArtifactCache fresh(64);
  ctx.cache = &fresh;
  ASSERT_NE(Flow(ctx).synthesis(spec, {}, hook), nullptr);  // store load
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(calls, 1);
}

TEST(Datasheet, ConcurrentColdDatasheetsMatchSerial) {
  // Eight distinct cold datasheets at once, more than the one datasheet
  // worker can take: most claim their own early runs, and every one must
  // equal its serial reference bit for bit.
  std::vector<EvalRequest> reqs;
  for (int slices : {4, 5, 6, 7}) {
    for (int fragments : {1, 2}) {
      EvalRequest req;
      req.kind = EvalKind::kDatasheet;
      req.spec = AdcSpec::paper_40nm();
      req.spec.num_slices = slices;
      req.spec.dac_fragments = fragments;
      req.datasheet.n_samples = 1 << 10;
      reqs.push_back(req);
    }
  }
  ArtifactCache serial_cache(256);
  ExecContext serial;
  serial.threads = 1;
  serial.cache = &serial_cache;
  std::vector<std::vector<std::uint8_t>> want;
  for (const EvalRequest& req : reqs) {
    const EvalResponse resp = evaluate(req, serial);
    ASSERT_TRUE(resp.ok);
    want.push_back(datasheet_bytes(resp.datasheet));
  }

  ArtifactCache shared(256);
  ExecContext ctx;
  ctx.threads = 2;
  ctx.cache = &shared;
  BatchRunner runner(static_cast<int>(reqs.size()));
  const auto got = runner.map(reqs.size(), [&](std::size_t i, std::uint64_t) {
    return datasheet_bytes(evaluate(reqs[i], ctx).datasheet);
  });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(Datasheet, AmplitudeSweepIsBitIdenticalAcrossWidths) {
  // The sweep points take the lane-batch path the MC draws take: five
  // points are one scalar stage each at width 1, 2 + 2 + 1 at width 2 and
  // 4 + 1 at width 8. A fresh cache per width makes every point simulate.
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = AdcSpec::paper_40nm();
  req.spec.num_slices = 4;
  req.datasheet.n_samples = 1 << 11;
  req.datasheet.amp_sweep_points = 5;
  auto sheet = [&req](int width) {
    ArtifactCache cache(32);
    ExecContext ctx;
    ctx.cache = &cache;
    ctx.threads = 1;
    req.datasheet.batch_width = width;
    return evaluate(req, ctx).datasheet;
  };
  const Datasheet scalar = sheet(1);
  ASSERT_TRUE(scalar.complete);
  ASSERT_EQ(scalar.amp_sweep.size(), 5u);
  // Point 0 is the nominal run.
  EXPECT_EQ(scalar.amp_sweep[0].sndr_db, scalar.nominal.sndr.sndr_db);
  for (int width : {2, 8}) {
    SCOPED_TRACE(width);
    const Datasheet batched = sheet(width);
    ASSERT_EQ(batched.amp_sweep.size(), scalar.amp_sweep.size());
    for (std::size_t k = 0; k < scalar.amp_sweep.size(); ++k) {
      EXPECT_EQ(batched.amp_sweep[k].amplitude_dbfs,
                scalar.amp_sweep[k].amplitude_dbfs);
      EXPECT_EQ(batched.amp_sweep[k].sndr_db, scalar.amp_sweep[k].sndr_db);
      EXPECT_EQ(batched.amp_sweep[k].enob, scalar.amp_sweep[k].enob);
    }
  }
}

TEST(Datasheet, FullFlowProducesConsistentNumbers) {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = AdcSpec::paper_40nm();
  req.datasheet.n_samples = 1 << 13;
  req.datasheet.mc_runs = 0;
  const Datasheet ds = evaluate(req, ExecContext{}).datasheet;
  EXPECT_GT(ds.nominal.sndr.sndr_db, 60.0);
  EXPECT_GT(ds.area_mm2, 1e-3);
  EXPECT_TRUE(ds.drc.clean());
  EXPECT_TRUE(ds.power_grid.clean());
  EXPECT_EQ(ds.routing.failed_nets, 0);
  EXPECT_GT(ds.timing.slack_s, 0.0);
  EXPECT_TRUE(ds.mc.sndr_db.empty());
  // Wire load reached the power model.
  EXPECT_GT(ds.nominal.power.wire_w, 0.0);
}

TEST(Datasheet, RenderContainsEverySection) {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = AdcSpec::paper_40nm();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 2;
  const Datasheet ds = evaluate(req, ExecContext{}).datasheet;
  const std::string text = ds.render();
  for (const char* needle :
       {"dynamic performance", "SNDR", "ENOB", "Walden FOM", "die area",
        "power grid", "critical path", "slack", "SNDR (MC"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Datasheet, MonteCarloSectionOptional) {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = AdcSpec::paper_40nm();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 0;
  const Datasheet ds = evaluate(req, ExecContext{}).datasheet;
  EXPECT_EQ(ds.render().find("SNDR (MC"), std::string::npos);
}

}  // namespace
}  // namespace vcoadc::core
