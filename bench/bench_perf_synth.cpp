// google-benchmark microbenchmarks of the layout-synthesis fast path: a
// cold stage-graph synthesis (library through route, in an empty cache) at
// both paper nodes, the per-stage throughput
// (NetDb build, placement, detailed maze routing, STA, DRC), and the
// interned-HPWL evaluation against an in-bench string-map reference (the
// pre-NetDb implementation, kept here as the speedup baseline).
//
// The custom main() emits a BENCH_JSON summary line plus the [shape OK]
// self-checks that gate the fast path: the interned HPWL must not be slower
// than the string-map reference, both nodes must synthesize DRC-clean with
// zero routing overflow, and 4-thread routing must be bit-identical to
// serial (each side a fresh build).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "core/adc_spec.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "synth/drc.h"
#include "synth/maze_router.h"
#include "synth/net_db.h"
#include "synth/placer.h"
#include "synth/router.h"
#include "synth/sta.h"
#include "synth/synthesis_flow.h"
#include "tech/tech_node.h"
#include "util/trace.h"

using namespace vcoadc;

namespace {

core::AdcSpec paper_spec(double nm) {
  return nm == 40 ? core::AdcSpec::paper_40nm() : core::AdcSpec::paper_180nm();
}

/// Everything the per-stage benchmarks need, built once per node.
struct NodeFixture {
  core::AdcDesign adc;
  std::vector<netlist::FlatInstance> flat;
  synth::NetDb db;
  synth::Floorplan fp;
  synth::Placement pl;

  explicit NodeFixture(double nm) : adc(paper_spec(nm)) {
    flat = adc.netlist().flatten();
    db = synth::NetDb(flat);
    const auto regions = synth::partition_into_regions(flat);
    synth::FloorplanOptions fo;
    fo.target_utilization = 0.08;
    fo.row_height_m = adc.netlist().library().row_height_m();
    double min_width = 1e9;
    for (const auto& c : adc.netlist().library().cells()) {
      if (c.function == "inv") min_width = std::min(min_width, c.width_m);
    }
    fo.site_width_m = min_width / 3.0;
    fp = synth::make_floorplan(regions, fo);
    pl = synth::place(flat, fp, {}, db);
  }

  static NodeFixture& at(double nm) {
    static NodeFixture f40(40.0);
    static NodeFixture f180(180.0);
    return nm == 40 ? f40 : f180;
  }
};

/// The pre-NetDb total-HPWL implementation: rebuild the name-keyed member
/// map, then walk it. Kept verbatim as the speedup reference.
double total_hpwl_string_map(const std::vector<netlist::FlatInstance>& flat,
                             const synth::Placement& pl) {
  std::map<std::string, std::vector<int>> nets;
  for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
    for (const auto& [pin, net] : flat[static_cast<std::size_t>(i)].conn) {
      if (netlist::is_supply_net(net)) continue;
      nets[net].push_back(i);
    }
  }
  double total = 0;
  for (auto& [name, cells] : nets) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    synth::BBox bb;
    for (int c : cells) {
      bb.expand(pl.cells[static_cast<std::size_t>(c)].rect.center());
    }
    total += bb.half_perimeter();
  }
  return total;
}

/// Synthesizes `spec` through the stage graph on `threads` route threads
/// in an empty cache, so every stage builds. `built` (optional) reports
/// whether the trace shows the route stage as a miss.
std::shared_ptr<const synth::SynthesisResult> synthesize_cold(
    const core::AdcSpec& spec, int threads = 0, bool* built = nullptr) {
  core::ArtifactCache cache(16);
  util::Trace trace;
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = threads;
  ctx.trace = built != nullptr ? &trace : nullptr;
  auto res = core::Flow(ctx).synthesis(spec);
  if (built != nullptr) {
    *built = false;
    for (const auto& e : trace.events()) {
      *built = *built || (e.name == "route" && e.cache_hit == 0);
    }
  }
  return res;
}

void BM_Synthesize(benchmark::State& state) {
  const core::AdcSpec spec = paper_spec(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto res = synthesize_cold(spec);
    benchmark::DoNotOptimize(res->stats.die_area_m2);
  }
}
BENCHMARK(BM_Synthesize)->Arg(40)->Arg(180)->Unit(benchmark::kMillisecond);

void BM_NetDbBuild(benchmark::State& state) {
  auto& f = NodeFixture::at(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    synth::NetDb db(f.flat);
    benchmark::DoNotOptimize(db.num_nets());
  }
}
BENCHMARK(BM_NetDbBuild)->Arg(40)->Arg(180);

void BM_Place(benchmark::State& state) {
  auto& f = NodeFixture::at(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto pl = synth::place(f.flat, f.fp, {}, f.db);
    benchmark::DoNotOptimize(pl.cells.data());
  }
}
BENCHMARK(BM_Place)->Arg(40)->Arg(180)->Unit(benchmark::kMillisecond);

void BM_MazeRoute(benchmark::State& state) {
  auto& f = NodeFixture::at(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto mr = synth::maze_route(f.flat, f.pl, f.fp.die, {}, f.db);
    benchmark::DoNotOptimize(mr.total_wirelength_m);
  }
}
BENCHMARK(BM_MazeRoute)->Arg(40)->Arg(180)->Unit(benchmark::kMillisecond);

void BM_TotalHpwlNetDb(benchmark::State& state) {
  auto& f = NodeFixture::at(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::total_hpwl(f.db, f.pl));
  }
}
BENCHMARK(BM_TotalHpwlNetDb)->Arg(40)->Arg(180);

void BM_TotalHpwlStringMap(benchmark::State& state) {
  auto& f = NodeFixture::at(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(total_hpwl_string_map(f.flat, f.pl));
  }
}
BENCHMARK(BM_TotalHpwlStringMap)->Arg(40)->Arg(180);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename F>
double time_ms(F&& f, double budget_s = 0.5) {
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  double elapsed = 0;
  do {
    f();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed / reps * 1e3;
}

bool routing_identical(const synth::MazeRouteResult& a,
                       const synth::MazeRouteResult& b) {
  if (a.total_wirelength_m != b.total_wirelength_m ||
      a.total_vias != b.total_vias ||
      a.overflowed_edges != b.overflowed_edges ||
      a.failed_nets != b.failed_nets || a.nets.size() != b.nets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    if (!(a.nets[i].paths == b.nets[i].paths)) return false;
  }
  return true;
}

void emit_summary() {
  bench::header("Layout-synthesis fast path",
                "Sec. 3 flow (Fig. 9) as an engine benchmark");

  double synth_ms[2] = {0, 0};
  double route_ms[2] = {0, 0};
  double place_ms[2] = {0, 0};
  bool drc_clean = true;
  bool no_overflow = true;
  bool parallel_ok = true;
  int idx = 0;
  for (double nm : {40.0, 180.0}) {
    const core::AdcSpec spec = paper_spec(nm);
    bool built1 = false, built4 = false;
    const auto res = synthesize_cold(spec, 1, &built1);
    drc_clean &= res->drc.clean();
    no_overflow &= res->detailed_routing.overflowed_edges == 0 &&
                   res->detailed_routing.failed_nets == 0;
    const auto res4 = synthesize_cold(spec, 4, &built4);
    parallel_ok &= built1 && built4 &&
                   routing_identical(res->detailed_routing,
                                     res4->detailed_routing);

    synth_ms[idx] = time_ms([&] {
      auto r = synthesize_cold(spec);
      benchmark::DoNotOptimize(r->stats.die_area_m2);
    });
    auto& f = NodeFixture::at(nm);
    place_ms[idx] = time_ms([&] {
      auto pl = synth::place(f.flat, f.fp, {}, f.db);
      benchmark::DoNotOptimize(pl.cells.data());
    });
    route_ms[idx] = time_ms([&] {
      auto mr = synth::maze_route(f.flat, f.pl, f.fp.die, {}, f.db);
      benchmark::DoNotOptimize(mr.total_wirelength_m);
    });
    std::printf("  node %3.0f nm: synthesize %.2f ms (place %.2f, route %.2f)"
                " | routed %.1f um, %d vias, %d overflow, DRC %zu\n",
                nm, synth_ms[idx], place_ms[idx], route_ms[idx],
                res->detailed_routing.total_wirelength_m * 1e6,
                res->detailed_routing.total_vias,
                res->detailed_routing.overflowed_edges,
                res->drc.violations.size());
    ++idx;
  }

  // Interned HPWL vs the string-map reference on the 40 nm placement.
  auto& f40 = NodeFixture::at(40.0);
  const double hpwl_db = synth::total_hpwl(f40.db, f40.pl);
  const double hpwl_ref = total_hpwl_string_map(f40.flat, f40.pl);
  const double netdb_ms = time_ms(
      [&] { benchmark::DoNotOptimize(synth::total_hpwl(f40.db, f40.pl)); },
      0.2);
  const double strmap_ms = time_ms(
      [&] {
        benchmark::DoNotOptimize(total_hpwl_string_map(f40.flat, f40.pl));
      },
      0.2);
  const double hpwl_speedup = strmap_ms / netdb_ms;

  bench::shape_check("interned HPWL matches the string-map value exactly",
                     hpwl_db == hpwl_ref);
  bench::shape_check("interned HPWL is not slower than the string-map path",
                     hpwl_speedup >= 1.0);
  bench::shape_check("both nodes synthesize DRC-clean", drc_clean);
  bench::shape_check("zero routing overflow / failed nets at both nodes",
                     no_overflow);
  bench::shape_check(
      "4-thread routing bit-identical to serial (both sides built)",
      parallel_ok);

  std::printf(
      "\nBENCH_JSON {\"bench\":\"perf_synth\","
      "\"synth_40nm_ms\":%.2f,\"synth_180nm_ms\":%.2f,"
      "\"place_40nm_ms\":%.2f,\"route_40nm_ms\":%.2f,"
      "\"route_180nm_ms\":%.2f,\"hpwl_speedup\":%.1f,"
      "\"drc_clean\":%s,\"parallel_identical\":%s}\n",
      synth_ms[0], synth_ms[1], place_ms[0], route_ms[0], route_ms[1],
      hpwl_speedup, drc_clean && no_overflow ? "true" : "false",
      parallel_ok ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_summary();
  return 0;
}
