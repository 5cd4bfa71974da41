// Fast-path guarantees of the synth stack: the interned NetDb must be an
// exact replacement for the historical string-keyed net maps, the windowed
// A* must return Dijkstra-optimal path costs, and the parallel rip-up
// router must be bit-identical to the serial one.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <queue>
#include <set>

#include "core/adc_spec.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "synth/drc.h"
#include "synth/floorplan.h"
#include "synth/maze_router.h"
#include "synth/net_db.h"
#include "synth/placer.h"
#include "synth/route_grid.h"
#include "synth/router.h"
#include "synth/synthesis_flow.h"
#include "tech/tech_node.h"
#include "util/rng.h"
#include "util/trace.h"

namespace vcoadc::synth {
namespace {

netlist::FlatNetlist flat_adc(double node_nm) {
  core::AdcDesign adc(node_nm == 40 ? core::AdcSpec::paper_40nm()
                                    : core::AdcSpec::paper_180nm());
  return adc.netlist().flatten();
}

/// The pre-NetDb view, rebuilt the way every stage used to build it: a
/// name-keyed map of sorted-unique member lists plus multiplicity counts.
struct StringMapReference {
  std::map<std::string, std::vector<int>> members;
  std::map<std::string, int> conn_count;

  explicit StringMapReference(const netlist::FlatNetlist& flat) {
    for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
      for (const auto& p : flat.pins(static_cast<std::size_t>(i))) {
        const std::string& net = flat.net_name(p.net);
        if (netlist::is_supply_net(net)) continue;
        members[net].push_back(i);
        ++conn_count[net];
      }
    }
    for (auto& [name, cells] : members) {
      std::sort(cells.begin(), cells.end());
      cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    }
  }
};

TEST(NetDb, MatchesStringMapsAtBothNodes) {
  for (double nm : {40.0, 180.0}) {
    const auto flat = flat_adc(nm);
    const NetDb db(flat);
    const StringMapReference ref(flat);

    ASSERT_EQ(db.num_nets(), static_cast<int>(ref.members.size()));
    ASSERT_EQ(db.num_cells(), static_cast<int>(flat.size()));

    // Ids are dense and lexicographic: iterating ascending ids must visit
    // nets in exactly the historical std::map order, with identical member
    // lists and multiplicity counts.
    int id = 0;
    for (const auto& [name, cells] : ref.members) {
      ASSERT_EQ(db.name(id), name) << "node " << nm;
      EXPECT_EQ(db.id_of(name), id);
      const auto span = db.members(id);
      ASSERT_EQ(span.size(), cells.size()) << name;
      for (std::size_t k = 0; k < cells.size(); ++k) {
        EXPECT_EQ(span[k], cells[k]) << name;
      }
      EXPECT_EQ(db.connection_count(id), ref.conn_count.at(name)) << name;
      ++id;
    }

    // Supply nets are not interned.
    EXPECT_EQ(db.id_of("VDD"), -1);
    EXPECT_EQ(db.id_of("no/such/net"), -1);

    // Per-cell views agree with the per-net views.
    for (int c = 0; c < db.num_cells(); ++c) {
      for (int n : db.nets_of(c)) {
        const auto span = db.members(n);
        EXPECT_TRUE(std::find(span.begin(), span.end(), c) != span.end());
      }
      for (const auto& cp : db.cell_pins(c)) {
        const int net = flat.net_on(static_cast<std::size_t>(c), *cp.pin);
        ASSERT_GE(net, 0);
        EXPECT_EQ(cp.net, db.id_of(flat.net_name(net)));
      }
    }
  }
}

TEST(NetDb, UnifiedHpwlMatchesStringMapReference) {
  for (double nm : {40.0, 180.0}) {
    const auto flat = flat_adc(nm);
    const NetDb db(flat);
    const auto regions = partition_into_regions(flat);
    FloorplanOptions fo;
    fo.target_utilization = 0.08;
    auto fp = make_floorplan(regions, fo);
    const auto pl = place(flat, fp, {}, db);

    const StringMapReference ref(flat);
    double want = 0;
    for (const auto& [name, cells] : ref.members) {
      BBox bb;
      for (int c : cells) {
        bb.expand(pl.cells[static_cast<std::size_t>(c)].rect.center());
      }
      want += bb.half_perimeter();
    }
    // Bit-identical, not just close: summation order is the name order.
    EXPECT_EQ(total_hpwl(db, pl), want) << "node " << nm;
    EXPECT_EQ(total_hpwl(flat, pl), want) << "node " << nm;
  }
}

TEST(NetDb, RoutingEstimatePinCountsMatchReference) {
  const auto flat = flat_adc(40);
  const NetDb db(flat);
  const auto regions = partition_into_regions(flat);
  FloorplanOptions fo;
  fo.target_utilization = 0.08;
  auto fp = make_floorplan(regions, fo);
  const auto pl = place(flat, fp, {}, db);

  // The estimator reports multi-pin nets only (single-connection nets have
  // no wire), in name order, with multiplicity-counted pins.
  const StringMapReference ref(flat);
  const auto est = estimate_routing(flat, pl, fp.die, {}, db);
  std::size_t i = 0;
  for (const auto& [name, count] : ref.conn_count) {
    if (count < 2) continue;
    ASSERT_LT(i, est.nets.size());
    EXPECT_EQ(est.nets[i].net, name);
    EXPECT_EQ(est.nets[i].pins, count) << name;
    ++i;
  }
  EXPECT_EQ(est.nets.size(), i);
}

// The full-flow HPWL goldens. These are bit-stable: the NetDb rewrite
// reproduced the string-map flow exactly (same sums, same RNG stream), so
// any drift here means the determinism contract broke.
TEST(NetDb, FullFlowHpwlGoldens) {
  const core::ExecContext ctx;
  const auto r40 = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  EXPECT_NEAR(r40->routing.total_hpwl_m * 1e6, 21637.630, 1e-3);
  const auto r180 = core::Flow(ctx).synthesis(core::AdcSpec::paper_180nm());
  EXPECT_NEAR(r180->routing.total_hpwl_m * 1e6, 59815.980, 1e-3);
}

/// Plain Dijkstra over the full grid, the way the pre-A* router searched:
/// multi-source from `sources`, target accepted on either layer. Returns
/// the optimal path cost (not the path), or +inf when unreachable.
double dijkstra_cost(const RouteGrid& g, const std::vector<int>& sources,
                     const GridPoint& target, double via_cost, int cap,
                     double pressure) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), inf);
  using QE = std::pair<double, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  for (int s : sources) {
    dist[static_cast<std::size_t>(s)] = 0;
    pq.push({0, s});
  }
  const int t0 = g.node_id({target.x, target.y, 0});
  const int t1 = g.node_id({target.x, target.y, 1});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == t0 || u == t1) return d;
    const GridPoint p = g.from_id(u);
    auto relax = [&](const GridPoint& q, double w) {
      const int v = g.node_id(q);
      if (d + w < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = d + w;
        pq.push({d + w, v});
      }
    };
    if (p.layer == 0) {
      if (p.x > 0) {
        relax({p.x - 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  cap, pressure));
      }
      if (p.x + 1 < g.nx) {
        relax({p.x + 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 1}, via_cost);
    } else {
      if (p.y > 0) {
        relax({p.x, p.y - 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  cap, pressure));
      }
      if (p.y + 1 < g.ny) {
        relax({p.x, p.y + 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 0}, via_cost);
    }
  }
  return inf;
}

/// Cost of a path as the router priced it: per-edge route_edge_cost plus
/// via_cost per layer change.
double path_cost(const RouteGrid& g, const std::vector<GridPoint>& path,
                 double via_cost, int cap, double pressure) {
  double c = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GridPoint& a = path[i - 1];
    const GridPoint& b = path[i];
    if (a.layer != b.layer) {
      c += via_cost;
    } else if (a.layer == 0) {
      const auto e = static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x), a.y));
      c += route_edge_cost(g.h_use[e], g.h_hist[e], cap, pressure);
    } else {
      const auto e = static_cast<std::size_t>(g.v_idx(a.x, std::min(a.y, b.y)));
      c += route_edge_cost(g.v_use[e], g.v_hist[e], cap, pressure);
    }
  }
  return c;
}

// A* optimality: on a grid with random usage and history (so edge costs are
// wildly non-uniform), the windowed A* restricted to the full grid must
// return exactly the Dijkstra-optimal cost for every query.
TEST(AStar, CostsEqualDijkstraOnRandomGrid) {
  RouteGrid g({0, 0, 24e-6, 18e-6}, 1e-6);
  util::Rng rng(7);
  for (auto& u : g.h_use) u = static_cast<int>(rng.below(12));
  for (auto& u : g.v_use) u = static_cast<int>(rng.below(12));
  for (auto& h : g.h_hist) h = 2.0 * rng.uniform();
  for (auto& h : g.v_hist) h = 2.0 * rng.uniform();

  const double via_cost = 3.0;
  const int cap = 8;
  const double pressure = 4.0;
  const RouteWindow full{0, 0, g.nx - 1, g.ny - 1};
  SearchScratch s;
  s.bind(g.num_nodes());

  for (int trial = 0; trial < 50; ++trial) {
    GridPoint src{static_cast<int>(rng.below(static_cast<std::size_t>(g.nx))),
                  static_cast<int>(rng.below(static_cast<std::size_t>(g.ny))),
                  0};
    GridPoint dst{static_cast<int>(rng.below(static_cast<std::size_t>(g.nx))),
                  static_cast<int>(rng.below(static_cast<std::size_t>(g.ny))),
                  0};
    if (src.x == dst.x && src.y == dst.y) continue;

    // Seed the tree the way route_net does: the source on both layers.
    s.new_tree();
    s.add_tree(g.node_id(src));
    GridPoint src1 = src;
    src1.layer = 1;
    s.add_tree(g.node_id(src1));

    const auto path = astar_search(g, s, dst, via_cost, cap, pressure, full);
    ASSERT_FALSE(path.empty()) << "trial " << trial;
    EXPECT_EQ(path.back().x, dst.x);
    EXPECT_EQ(path.back().y, dst.y);

    const double want =
        dijkstra_cost(g, {g.node_id(src), g.node_id(src1)}, dst, via_cost,
                      cap, pressure);
    EXPECT_DOUBLE_EQ(path_cost(g, path, via_cost, cap, pressure), want)
        << "trial " << trial;
  }
}

/// Routes `spec` on `threads` route threads in a cache of its own, and
/// checks from the trace that the route stage really built (a miss), so a
/// comparison of two calls compares two routings.
std::shared_ptr<const SynthesisResult> route_fresh(const core::AdcSpec& spec,
                                                   int threads) {
  core::ArtifactCache cache(16);
  util::Trace trace;
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.trace = &trace;
  ctx.threads = threads;
  auto res = core::Flow(ctx).synthesis(spec);
  int route_misses = 0;
  for (const auto& e : trace.events()) {
    route_misses += e.name == "route" && e.cache_hit == 0;
  }
  EXPECT_EQ(route_misses, 1) << "threads " << threads;
  return res;
}

// Parallel rip-up batches must be bit-identical to the serial router on the
// real design: identical per-net paths, not just identical totals.
TEST(ParallelRoute, BitIdenticalToSerialOnFullAdc) {
  for (double nm : {40.0, 180.0}) {
    const core::AdcSpec spec = nm == 40 ? core::AdcSpec::paper_40nm()
                                        : core::AdcSpec::paper_180nm();
    const auto serial = route_fresh(spec, 1);
    const auto parallel = route_fresh(spec, 4);
    ASSERT_NE(serial, nullptr);
    ASSERT_NE(parallel, nullptr);

    const auto& a = serial->detailed_routing;
    const auto& b = parallel->detailed_routing;
    EXPECT_EQ(a.total_wirelength_m, b.total_wirelength_m) << "node " << nm;
    EXPECT_EQ(a.total_vias, b.total_vias);
    EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
    EXPECT_EQ(a.failed_nets, b.failed_nets);
    ASSERT_EQ(a.nets.size(), b.nets.size());
    for (std::size_t i = 0; i < a.nets.size(); ++i) {
      EXPECT_EQ(a.nets[i].name, b.nets[i].name);
      EXPECT_TRUE(a.nets[i].paths == b.nets[i].paths)
          << "net " << a.nets[i].name << " node " << nm;
    }
  }
}

/// FNV-1a-64 over every net's name and every path of it, in result order:
/// each path hashes its length and then x, y, layer of every GridPoint, as
/// little-endian 32-bit words, so moving a path boundary changes the hash.
std::uint64_t route_fingerprint(const MazeRouteResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto byte = [&](std::uint32_t b) {
    h ^= b & 0xffu;
    h *= 1099511628211ULL;
  };
  auto word = [&](std::size_t v) {
    for (int k = 0; k < 4; ++k) byte(static_cast<std::uint32_t>(v >> (8 * k)));
  };
  for (const RoutedNet& net : r.nets) {
    for (char c : net.name) byte(static_cast<unsigned char>(c));
    word(net.paths.size());
    for (const auto& path : net.paths) {
      word(path.size());
      for (const GridPoint& p : path) {
        word(static_cast<std::uint32_t>(p.x));
        word(static_cast<std::uint32_t>(p.y));
        word(static_cast<std::uint32_t>(p.layer));
      }
    }
  }
  return h;
}

// Golden pin of the maze route itself. The datasheet JSON carries no
// maze-route field (the power model reads the estimate's wire_cap_f), so no
// result fingerprint sees a path: this test is what fails when the A*
// pop order, and with it any path, via or edge usage, changes. All three
// routes run rip-up rounds: the paper specs two each, and the paper 180 nm
// spec with one DAC fragment three, with 15 rip-up groups of one net.
TEST(MazeRouteGolden, PathsPinnedOnPaperAndRipUpSpecs) {
  struct Case {
    const char* name;
    core::AdcSpec spec;
    double wirelength_m;
    int vias;
    std::uint64_t fingerprint;
  };
  core::AdcSpec one_fragment = core::AdcSpec::paper_180nm();
  one_fragment.dac_fragments = 1;
  const Case cases[] = {
      {"paper 40 nm", core::AdcSpec::paper_40nm(), 0x1.687b9475ee43ap-6, 407,
       0x5f014cf1ef4d7300ULL},
      {"paper 180 nm", core::AdcSpec::paper_180nm(), 0x1.f39a009cb2fe7p-5,
       409, 0xc7d40ee6eae5e11cULL},
      {"180 nm, 1 fragment", one_fragment, 0x1.aa5a2108b9372p-5, 333,
       0x175484c7bd243866ULL},
  };
  for (const Case& c : cases) {
    const auto res = route_fresh(c.spec, 2);
    ASSERT_NE(res, nullptr) << c.name;
    const MazeRouteResult& r = res->detailed_routing;
    EXPECT_EQ(r.total_wirelength_m, c.wirelength_m)
        << c.name << ": " << std::hexfloat << r.total_wirelength_m;
    EXPECT_EQ(r.total_vias, c.vias) << c.name;
    EXPECT_EQ(route_fingerprint(r), c.fingerprint)
        << c.name << ": 0x" << std::hex << route_fingerprint(r);
    EXPECT_EQ(r.failed_nets, 0) << c.name;
    EXPECT_EQ(r.overflowed_edges, 0) << c.name;
  }
}

// Off-row-grid cells are reported once and excluded from the row-bucket
// overlap pass: rounding them into a row used to fabricate overlap pairs
// against cells they do not abut.
TEST(Drc, OffGridCellSkipsRowOverlapPass) {
  netlist::StdCell cell;
  cell.name = "INVX1";
  cell.function = "inv";
  cell.width_m = 1e-6;
  cell.height_m = 1e-6;
  cell.pins = {{"A", netlist::PortDir::kInput},
               {"Y", netlist::PortDir::kOutput}};

  netlist::FlatNetlistBuilder builder;
  builder.add_cell({"u0", &cell, "PD_VDD", ""});
  builder.add_cell({"u1", &cell, "PD_VDD", ""});
  const netlist::FlatNetlist flat = std::move(builder).build();

  Floorplan fp;
  fp.die = {0, 0, 10e-6, 10e-6};
  fp.row_height_m = 1e-6;
  fp.site_width_m = 1e-7;

  Placement pl;
  pl.cells.resize(2);
  pl.cells[0].rect = {1e-6, 1e-6, 1e-6, 1e-6};  // on the row grid
  // Half a row off grid, geometrically overlapping u0. Before the fix this
  // cell was rounded into the nearest row bucket and compared against
  // cells it does not actually abut.
  pl.cells[1].rect = {1e-6, 1.5e-6, 1e-6, 1e-6};

  const DrcReport rep = run_drc(flat, pl, fp);
  EXPECT_EQ(rep.count(DrcKind::kOffRowGrid), 1);
  EXPECT_EQ(rep.count(DrcKind::kOverlap), 0);

  // Control: put u1 on the grid in u0's row and the overlap is caught.
  pl.cells[1].rect = {1.5e-6, 1e-6, 1e-6, 1e-6};
  const DrcReport rep2 = run_drc(flat, pl, fp);
  EXPECT_EQ(rep2.count(DrcKind::kOffRowGrid), 0);
  EXPECT_EQ(rep2.count(DrcKind::kOverlap), 1);
}

}  // namespace
}  // namespace vcoadc::synth
