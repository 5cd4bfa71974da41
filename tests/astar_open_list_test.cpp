// The A* open list against the single (f, node id) binary heap it replaced.
// astar_search must return the reference search's path GridPoint for
// GridPoint, which holds only when both pop the open entries in the same
// order: on tie-heavy uniform grids, on integral over-capacity costs, on
// fractional history with a fractional via cost, inside random windows and
// from multi-node source trees. Netlist-free (route_grid.h only), so it is
// also compiled with the parallel-router suite under TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <vector>

#include "synth/route_grid.h"
#include "util/rng.h"

namespace vcoadc::synth {
namespace {

/// The search with one open heap ordered by (f, node id): the pop order
/// every path is pinned to. Same window rules, heuristic and tree seeding
/// as astar_search; it uses only `s.heap` of the scratch's open lists.
std::vector<GridPoint> reference_astar_search(const RouteGrid& g,
                                              SearchScratch& s,
                                              const GridPoint& target,
                                              double via_cost, int cap,
                                              double pressure,
                                              const RouteWindow& win) {
  if (++s.epoch == 0) {
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    s.epoch = 1;
  }
  const int tx = target.x;
  const int ty = target.y;
  auto heuristic = [&](int x, int y, int layer) {
    const int dx = std::abs(x - tx);
    const int dy = std::abs(y - ty);
    int vias_lb = 0;
    if (dx > 0 && dy > 0) {
      vias_lb = 1;
    } else if ((dx > 0 && layer == 1) || (dy > 0 && layer == 0)) {
      vias_lb = 1;
    }
    return static_cast<double>(dx + dy) + via_cost * vias_lb;
  };

  using QE = std::pair<double, int>;
  s.heap.clear();
  for (int id : s.tree_nodes) {
    const auto u = static_cast<std::size_t>(id);
    s.dist[u] = 0;
    s.prev[u] = -1;
    s.stamp[u] = s.epoch;
    const GridPoint p = g.from_id(id);
    s.heap.push_back({heuristic(p.x, p.y, p.layer), id});
  }
  std::make_heap(s.heap.begin(), s.heap.end(), std::greater<QE>());

  const int target_id0 = g.node_id({tx, ty, 0});
  const int target_id1 = g.node_id({tx, ty, 1});

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<QE>());
    const auto [f, u] = s.heap.back();
    s.heap.pop_back();
    const auto ui = static_cast<std::size_t>(u);
    const GridPoint p = g.from_id(u);
    if (f > s.dist[ui] + heuristic(p.x, p.y, p.layer)) continue;
    if (u == target_id0 || u == target_id1) {
      std::vector<GridPoint> path;
      for (int cur = u; cur != -1;
           cur = s.prev[static_cast<std::size_t>(cur)]) {
        path.push_back(g.from_id(cur));
        if (s.in_tree(cur)) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto relax = [&](const GridPoint& q, double w) {
      const int v = g.node_id(q);
      const auto vi = static_cast<std::size_t>(v);
      const double nd = s.dist[ui] + w;
      if (s.stamp[vi] != s.epoch || nd < s.dist[vi]) {
        s.dist[vi] = nd;
        s.prev[vi] = u;
        s.stamp[vi] = s.epoch;
        s.heap.push_back({nd + heuristic(q.x, q.y, q.layer), v});
        std::push_heap(s.heap.begin(), s.heap.end(), std::greater<QE>());
      }
    };
    auto h_cost = [&](int x, int y) {
      const auto e = static_cast<std::size_t>(g.h_idx(x, y));
      return route_edge_cost(g.h_use[e], g.h_hist[e], cap, pressure);
    };
    auto v_cost = [&](int x, int y) {
      const auto e = static_cast<std::size_t>(g.v_idx(x, y));
      return route_edge_cost(g.v_use[e], g.v_hist[e], cap, pressure);
    };
    if (p.layer == 0) {
      if (p.x > win.x0) relax({p.x - 1, p.y, 0}, h_cost(p.x - 1, p.y));
      if (p.x < win.x1) relax({p.x + 1, p.y, 0}, h_cost(p.x, p.y));
      relax({p.x, p.y, 1}, via_cost);
    } else {
      if (p.y > win.y0) relax({p.x, p.y - 1, 1}, v_cost(p.x, p.y - 1));
      if (p.y < win.y1) relax({p.x, p.y + 1, 1}, v_cost(p.x, p.y));
      relax({p.x, p.y, 0}, via_cost);
    }
  }
  return {};
}

/// How a grid's edge costs are drawn.
enum class CostModel {
  kUniform,       ///< every edge costs 1: f ties everywhere
  kOverCapacity,  ///< usage up to 50 % above capacity, history in steps of 2
  kFractional,    ///< fractional history, usage below and above capacity
};

/// The search arguments that price a step, besides the grid itself.
struct SearchCosts {
  double via_cost = 3.0;
  int cap = 8;
  double pressure = 4.0;
};

SearchCosts fill_costs(RouteGrid& g, CostModel model, util::Rng& rng) {
  SearchCosts costs;
  switch (model) {
    case CostModel::kUniform:
      break;
    case CostModel::kOverCapacity:
      // Integral costs, as after rip-up rounds (history grows by 2.0 per
      // overflowed round and pressure doubles from 4).
      costs.pressure = 8.0;
      for (auto& u : g.h_use) u = static_cast<int>(rng.below(13));
      for (auto& u : g.v_use) u = static_cast<int>(rng.below(13));
      for (auto& h : g.h_hist) h = 2.0 * static_cast<double>(rng.below(3));
      for (auto& h : g.v_hist) h = 2.0 * static_cast<double>(rng.below(3));
      break;
    case CostModel::kFractional:
      costs.via_cost = 2.5;
      for (auto& u : g.h_use) u = static_cast<int>(rng.below(11));
      for (auto& u : g.v_use) u = static_cast<int>(rng.below(11));
      for (auto& h : g.h_hist) h = 1.7 * rng.uniform();
      for (auto& h : g.v_hist) h = 1.7 * rng.uniform();
      break;
  }
  return costs;
}

int coord(util::Rng& rng, int n) {
  return static_cast<int>(rng.below(static_cast<std::size_t>(n)));
}

/// Routes `nets` random multi-pin nets the way route_net grows a tree (pin
/// 0 on both layers, then each found path joins the tree), searching every
/// pin with both implementations on twin scratches. Windows are mostly a
/// pin bounding box plus a random margin, sometimes an arbitrary rectangle
/// that may leave pins outside (then both searches must fail alike).
/// Returns the number of searches that found a path.
int expect_same_paths(CostModel model, std::uint64_t seed, int nets) {
  RouteGrid g({0, 0, 30e-6, 24e-6}, 1e-6);
  util::Rng rng(seed);
  const SearchCosts c = fill_costs(g, model, rng);
  SearchScratch fast;
  SearchScratch ref;
  fast.bind(g.num_nodes());
  ref.bind(g.num_nodes());

  int found = 0;
  for (int n = 0; n < nets; ++n) {
    std::vector<GridPoint> pins(2 + rng.below(4));
    for (GridPoint& p : pins) p = {coord(rng, g.nx), coord(rng, g.ny), 0};
    RouteWindow win;
    if (rng.below(4) == 0) {
      win.x0 = coord(rng, g.nx);
      win.x1 = win.x0 + coord(rng, g.nx - win.x0);
      win.y0 = coord(rng, g.ny);
      win.y1 = win.y0 + coord(rng, g.ny - win.y0);
    } else {
      win = window_of(g, pins, static_cast<int>(rng.below(6)));
    }

    for (SearchScratch* s : {&fast, &ref}) {
      s->new_tree();
      s->add_tree(g.node_id(pins[0]));
      s->add_tree(g.node_id({pins[0].x, pins[0].y, 1}));
    }
    for (std::size_t k = 1; k < pins.size(); ++k) {
      const auto path =
          astar_search(g, fast, pins[k], c.via_cost, c.cap, c.pressure, win);
      const auto want = reference_astar_search(g, ref, pins[k], c.via_cost,
                                               c.cap, c.pressure, win);
      const auto diff = std::mismatch(path.begin(), path.end(), want.begin(),
                                      want.end());
      if (diff.first != path.end() || diff.second != want.end()) {
        ADD_FAILURE() << "net " << n << " pin " << k << ": paths of "
                      << path.size() << " and " << want.size()
                      << " points differ at step "
                      << (diff.first - path.begin());
        return found;
      }
      if (path.empty()) break;
      ++found;
      for (const GridPoint& p : path) {
        fast.add_tree(g.node_id(p));
        ref.add_tree(g.node_id(p));
      }
    }
  }
  return found;
}

TEST(AStarOpenList, SamePathsAsSingleHeapOnUniformGrid) {
  EXPECT_GT(expect_same_paths(CostModel::kUniform, 3, 200), 300);
}

TEST(AStarOpenList, SamePathsAsSingleHeapAboveCapacity) {
  EXPECT_GT(expect_same_paths(CostModel::kOverCapacity, 5, 200), 300);
}

TEST(AStarOpenList, SamePathsAsSingleHeapWithFractionalCosts) {
  EXPECT_GT(expect_same_paths(CostModel::kFractional, 7, 200), 300);
}

}  // namespace
}  // namespace vcoadc::synth
