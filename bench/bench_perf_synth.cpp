// google-benchmark microbenchmarks of the layout-synthesis fast path: a
// cold stage-graph synthesis (library through route, in an empty cache) at
// both paper nodes, the per-stage throughput
// (NetDb build, placement, detailed maze routing, STA, DRC), and the
// interned-HPWL evaluation against an in-bench string-map reference (the
// pre-NetDb implementation, kept here as the speedup baseline). The
// summary also prints the heap each cached stage artifact holds (a
// mallinfo2 delta per stage, built in turn into one cache) for the paper
// 40 nm spec at 6, 16 and 26 slices.
//
// The custom main() emits a BENCH_JSON summary line plus the [shape OK]
// self-checks that gate the fast path: the interned HPWL must not be slower
// than the string-map reference, both nodes must synthesize DRC-clean with
// zero routing overflow, 4-thread routing must be bit-identical to serial
// (each side a fresh build), and the route artifact must share the
// floorplan artifact's netlist and the placement artifact.
#include <benchmark/benchmark.h>
#include <malloc.h>

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
  netlist::FlatNetlist flat;
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
/// map from every pin's net name, then walk it. Kept as the speedup
/// reference.
double total_hpwl_string_map(const netlist::FlatNetlist& flat,
                             const synth::Placement& pl) {
  std::map<std::string, std::vector<int>> nets;
  for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
    for (const auto& p : flat.pins(static_cast<std::size_t>(i))) {
      const std::string& net = flat.net_name(p.net);
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

/// Bytes malloc has handed out, from its arenas and mapped on their own.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// The heap (kB) each stage artifact of the paper 40 nm spec at `slices`
/// holds while cached: the stages are built in turn into one cache, so
/// each delta is that stage's artifact (its inputs are already cached) plus
/// whatever scratch the build leaves behind. `shared` is whether the route
/// artifact's layout holds the floorplan artifact's netlist and the
/// placement artifact itself rather than copies.
struct StageHeap {
  double netlist_kb = 0;
  double floorplan_kb = 0;
  double placement_kb = 0;
  double route_kb = 0;
  double sim_run_kb = 0;
  bool shared = false;
};

StageHeap stage_heap(int slices) {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = slices;
  core::SimulationOptions sim;
  sim.n_samples = 1 << 14;
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = 1;
  core::Flow flow(ctx);
  flow.tech_library(spec);
  std::size_t heap = heap_in_use();
  auto delta_kb = [&heap]() {
    const std::size_t now = heap_in_use();
    const double kb =
        (static_cast<double>(now) - static_cast<double>(heap)) / 1e3;
    heap = now;
    return kb;
  };
  StageHeap out;
  flow.netlist(spec);
  out.netlist_kb = delta_kb();
  const auto fp = flow.floorplan(spec);
  out.floorplan_kb = delta_kb();
  const auto pl = flow.placement(spec);
  out.placement_kb = delta_kb();
  const auto syn = flow.synthesis(spec);
  out.route_kb = delta_kb();
  flow.sim_run(spec, sim);
  out.sim_run_kb = delta_kb();
  out.shared = fp != nullptr && pl != nullptr && syn != nullptr &&
               &syn->layout->flat() == fp->flat.get() &&
               &syn->layout->placement() == pl.get();
  return out;
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

  // Per-stage artifact heap. A first pass in a throwaway cache leaves the
  // process's lazily grown scratch (per-thread workspaces, FFT plans) at
  // full size, so the measured pass counts artifacts, not warm-up.
  const int heap_slices[] = {6, 16, 26};
  for (const int slices : heap_slices) stage_heap(slices);
  StageHeap heap[3];
  bool heap_shared = true;
  std::printf("\n  cached artifact heap, paper 40 nm (kB; mallinfo2 delta per"
              " stage, sim_run at 2^14 samples)\n");
  std::printf("  %6s %9s %10s %10s %9s %9s %9s\n", "slices", "netlist",
              "floorplan", "placement", "route", "sim_run", "total");
  for (int k = 0; k < 3; ++k) {
    const StageHeap& h = heap[k] = stage_heap(heap_slices[k]);
    heap_shared &= h.shared;
    std::printf("  %6d %9.0f %10.0f %10.0f %9.0f %9.0f %9.0f\n",
                heap_slices[k], h.netlist_kb, h.floorplan_kb, h.placement_kb,
                h.route_kb, h.sim_run_kb,
                h.netlist_kb + h.floorplan_kb + h.placement_kb + h.route_kb +
                    h.sim_run_kb);
  }
  std::printf("\n");

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
  bench::shape_check(
      "the route artifact shares the floorplan's netlist and the placement",
      heap_shared);

  std::printf(
      "\nBENCH_JSON {\"bench\":\"perf_synth\","
      "\"synth_40nm_ms\":%.2f,\"synth_180nm_ms\":%.2f,"
      "\"place_40nm_ms\":%.2f,\"route_40nm_ms\":%.2f,"
      "\"route_180nm_ms\":%.2f,\"hpwl_speedup\":%.1f,"
      "\"floorplan_heap_16_kb\":%.0f,\"route_heap_16_kb\":%.0f,"
      "\"drc_clean\":%s,\"parallel_identical\":%s}\n",
      synth_ms[0], synth_ms[1], place_ms[0], route_ms[0], route_ms[1],
      hpwl_speedup, heap[1].floorplan_kb, heap[1].route_kb,
      drc_clean && no_overflow ? "true" : "false",
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
