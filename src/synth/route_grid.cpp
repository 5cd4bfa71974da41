#include "synth/route_grid.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/thread_pool.h"

namespace vcoadc::synth {
namespace {

/// One scratch per worker thread, persisting across route_nets calls so a
/// full reroute allocates nothing in steady state.
SearchScratch& thread_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// Applies +/-1 usage along a path.
void adjust_usage(RouteGrid& g, const std::vector<GridPoint>& path,
                  int delta) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GridPoint& a = path[i - 1];
    const GridPoint& b = path[i];
    if (a.layer != b.layer) continue;  // via
    if (a.layer == 0) {
      g.h_use[static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x), a.y))] +=
          delta;
    } else {
      g.v_use[static_cast<std::size_t>(g.v_idx(a.x, std::min(a.y, b.y)))] +=
          delta;
    }
  }
}

}  // namespace

RouteGrid::RouteGrid(const Rect& die_rect, double pitch_m) {
  die = die_rect;
  pitch = pitch_m;
  nx = std::max(2, static_cast<int>(std::ceil(die.w / pitch)) + 1);
  ny = std::max(2, static_cast<int>(std::ceil(die.h / pitch)) + 1);
  h_use.assign(static_cast<std::size_t>((nx - 1) * ny), 0);
  v_use.assign(static_cast<std::size_t>(nx * (ny - 1)), 0);
  h_hist.assign(h_use.size(), 0.0);
  v_hist.assign(v_use.size(), 0.0);
}

GridPoint RouteGrid::snap(double mx, double my) const {
  GridPoint p;
  p.x = std::clamp(static_cast<int>((mx - die.x) / pitch), 0, nx - 1);
  p.y = std::clamp(static_cast<int>((my - die.y) / pitch), 0, ny - 1);
  p.layer = 0;
  return p;
}

void SearchScratch::bind(int n_nodes) {
  const auto n = static_cast<std::size_t>(n_nodes);
  if (stamp.size() < n) {
    dist.assign(n, 0.0);
    prev.assign(n, -1);
    stamp.assign(n, 0);
    tree_mark.assign(n, 0);
    epoch = 0;
    tree_epoch = 0;
  }
}

void SearchScratch::new_tree() {
  if (++tree_epoch == 0) {  // wrapped: stale marks could alias epoch 0
    std::fill(tree_mark.begin(), tree_mark.end(), 0u);
    tree_epoch = 1;
  }
  tree_nodes.clear();
}

RouteWindow window_of(const RouteGrid& g, const std::vector<GridPoint>& pins,
                      int margin) {
  RouteWindow w;
  w.x0 = g.nx - 1;
  w.y0 = g.ny - 1;
  w.x1 = 0;
  w.y1 = 0;
  for (const GridPoint& p : pins) {
    w.x0 = std::min(w.x0, p.x);
    w.y0 = std::min(w.y0, p.y);
    w.x1 = std::max(w.x1, p.x);
    w.y1 = std::max(w.y1, p.y);
  }
  w.x0 = std::max(0, w.x0 - margin);
  w.y0 = std::max(0, w.y0 - margin);
  w.x1 = std::min(g.nx - 1, w.x1 + margin);
  w.y1 = std::min(g.ny - 1, w.y1 + margin);
  return w;
}

std::vector<GridPoint> astar_search(const RouteGrid& g, SearchScratch& s,
                                    const GridPoint& target, double via_cost,
                                    int cap, double pressure,
                                    const RouteWindow& win) {
  if (++s.epoch == 0) {
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    s.epoch = 1;
  }
  const int tx = target.x;
  const int ty = target.y;

  // Admissible (and consistent) lower bound on the remaining cost: every
  // grid step costs >= 1, so the Manhattan distance bounds the wire part;
  // layer direction-locking gives an exact lower bound on vias (both axes
  // pending -> at least one via; one axis pending but the node sits on the
  // wrong layer for it -> at least one via). The target is accepted on
  // either layer, so no via term is charged at dx == dy == 0.
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

  // Two-level open list. A grid step toward the target costs 1 and lowers
  // h by 1, so most relaxations keep f. Those entries go to `level`, a
  // min-heap of ids whose f all equal `level_f`; every other entry goes to
  // `heap`, ordered by (f, id). A pop takes the smaller of the two tops, so
  // the pop sequence is exactly a single (f, id) heap's, for any edge and
  // via costs. `level_f` only changes while the level is empty, which is
  // what keeps every level entry at f == level_f.
  using QE = std::pair<double, int>;  // (f = g + h, node id)
  s.heap.clear();
  s.level.clear();
  double level_f = -1.0;  // no entry takes it: f = g + h >= 0
  auto push = [&](double f, int id) {
    if (f == level_f) {
      s.level.push_back(id);
      std::push_heap(s.level.begin(), s.level.end(), std::greater<int>());
    } else {
      s.heap.push_back({f, id});
      std::push_heap(s.heap.begin(), s.heap.end(), std::greater<QE>());
    }
  };
  auto pop = [&]() -> QE {
    if (!s.level.empty() &&
        (s.heap.empty() || QE{level_f, s.level.front()} < s.heap.front())) {
      std::pop_heap(s.level.begin(), s.level.end(), std::greater<int>());
      const int id = s.level.back();
      s.level.pop_back();
      return {level_f, id};
    }
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<QE>());
    const QE top = s.heap.back();
    s.heap.pop_back();
    if (s.level.empty()) level_f = top.first;
    return top;
  };

  for (int id : s.tree_nodes) {
    const auto u = static_cast<std::size_t>(id);
    s.dist[u] = 0;
    s.prev[u] = -1;
    s.stamp[u] = s.epoch;
    const GridPoint p = g.from_id(id);
    push(heuristic(p.x, p.y, p.layer), id);
  }

  const int target_id0 = g.node_id({tx, ty, 0});
  GridPoint t1{tx, ty, 1};
  const int target_id1 = g.node_id(t1);

  while (!s.heap.empty() || !s.level.empty()) {
    const auto [f, u] = pop();
    const auto ui = static_cast<std::size_t>(u);
    const GridPoint p = g.from_id(u);
    if (f > s.dist[ui] + heuristic(p.x, p.y, p.layer)) continue;  // stale
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
        push(nd + heuristic(q.x, q.y, q.layer), v);
      }
    };
    if (p.layer == 0) {
      // Horizontal moves.
      if (p.x > win.x0) {
        relax({p.x - 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  cap, pressure));
      }
      if (p.x < win.x1) {
        relax({p.x + 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 1}, via_cost);
    } else {
      // Vertical moves.
      if (p.y > win.y0) {
        relax({p.x, p.y - 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  cap, pressure));
      }
      if (p.y < win.y1) {
        relax({p.x, p.y + 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 0}, via_cost);
    }
  }
  return {};
}

bool route_net(RouteGrid& g, SearchScratch& s, const NetPins& net,
               RoutedNet& out, const MazeRouterOptions& opts,
               double pressure, RouteWindow win, bool allow_escalate) {
  out.paths.clear();
  out.wirelength_m = 0;
  out.vias = 0;
  if (net.pins.size() < 2) {
    out.routed = true;
    return true;
  }
  s.bind(g.num_nodes());
  s.new_tree();
  s.add_tree(g.node_id(net.pins[0]));
  GridPoint p0v = net.pins[0];
  p0v.layer = 1;
  s.add_tree(g.node_id(p0v));

  // Prim-style decomposition: always connect the remaining pin nearest to
  // the *current* tree, updating pin-to-tree distances as the tree grows
  // (ties break toward the lowest pin index, i.e. GridPoint order).
  const std::size_t n_rem = net.pins.size() - 1;
  std::vector<int> dist_to_tree(n_rem);
  std::vector<char> done(n_rem, 0);
  for (std::size_t i = 0; i < n_rem; ++i) {
    dist_to_tree[i] = std::abs(net.pins[i + 1].x - net.pins[0].x) +
                      std::abs(net.pins[i + 1].y - net.pins[0].y);
  }
  for (std::size_t connected = 0; connected < n_rem; ++connected) {
    std::size_t best = n_rem;
    for (std::size_t i = 0; i < n_rem; ++i) {
      if (done[i]) continue;
      if (best == n_rem || dist_to_tree[i] < dist_to_tree[best]) best = i;
    }
    done[best] = 1;
    const GridPoint pin = net.pins[best + 1];
    if (s.in_tree(g.node_id(pin))) continue;

    auto path =
        astar_search(g, s, pin, opts.via_cost, opts.edge_capacity, pressure,
                     win);
    if (path.empty() && allow_escalate) {
      // Grow the window (doubling the extra margin) until it covers the
      // grid; only then is the pin genuinely unreachable.
      int extra = std::max(4, opts.window_margin);
      while (path.empty() &&
             (win.x0 > 0 || win.y0 > 0 || win.x1 < g.nx - 1 ||
              win.y1 < g.ny - 1)) {
        win.x0 = std::max(0, win.x0 - extra);
        win.y0 = std::max(0, win.y0 - extra);
        win.x1 = std::min(g.nx - 1, win.x1 + extra);
        win.y1 = std::min(g.ny - 1, win.y1 + extra);
        extra *= 2;
        path = astar_search(g, s, pin, opts.via_cost, opts.edge_capacity,
                            pressure, win);
      }
    }
    if (path.empty()) {
      out.routed = false;
      return false;
    }
    adjust_usage(g, path, +1);
    for (std::size_t i = 0; i < path.size(); ++i) {
      s.add_tree(g.node_id(path[i]));
      if (i > 0) {
        if (path[i].layer != path[i - 1].layer) {
          ++out.vias;
        } else {
          out.wirelength_m += g.pitch;
        }
      }
      // The tree grew: refresh the remaining pins' distance to it.
      for (std::size_t r = 0; r < n_rem; ++r) {
        if (done[r]) continue;
        const int d = std::abs(net.pins[r + 1].x - path[i].x) +
                      std::abs(net.pins[r + 1].y - path[i].y);
        dist_to_tree[r] = std::min(dist_to_tree[r], d);
      }
    }
    out.paths.push_back(std::move(path));
  }
  out.routed = true;
  return true;
}

MazeRouteResult route_nets(RouteGrid& g, std::vector<NetPins> nets,
                           const MazeRouterOptions& opts) {
  MazeRouteResult result;
  result.grid_x = g.nx;
  result.grid_y = g.ny;

  // Short nets first: they have the fewest detour options.
  std::sort(nets.begin(), nets.end(), [](const NetPins& a, const NetPins& b) {
    if (a.hpwl != b.hpwl) return a.hpwl < b.hpwl;
    return a.name < b.name;
  });

  result.nets.resize(nets.size());
  std::vector<RouteWindow> wins(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    result.nets[i].name = nets[i].name;
    result.nets[i].pins = static_cast<int>(nets[i].pins.size());
    wins[i] = window_of(g, nets[i].pins, opts.window_margin);
  }

  auto overflowed = [&](const std::vector<GridPoint>& path) {
    for (std::size_t k = 1; k < path.size(); ++k) {
      const GridPoint& a = path[k - 1];
      const GridPoint& b = path[k];
      if (a.layer != b.layer) continue;
      if (a.layer == 0) {
        if (g.h_use[static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x),
                                                     a.y))] >
            opts.edge_capacity) {
          return true;
        }
      } else {
        if (g.v_use[static_cast<std::size_t>(g.v_idx(a.x,
                                                     std::min(a.y, b.y)))] >
            opts.edge_capacity) {
          return true;
        }
      }
    }
    return false;
  };

  auto overflow_count = [&] {
    int n = 0;
    for (int use : g.h_use) n += (use > opts.edge_capacity);
    for (int use : g.v_use) n += (use > opts.edge_capacity);
    return n;
  };

  // Initial pass: serial, in net order, so every net negotiates against
  // all previously committed routes.
  double pressure = 4.0;
  {
    SearchScratch& s = thread_scratch();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      route_net(g, s, nets[i], result.nets[i], opts, pressure, wins[i],
                /*allow_escalate=*/true);
    }
  }

  int last_overflow = std::numeric_limits<int>::max();
  for (int round = 1;; ++round) {
    const int cur = overflow_count();
    bool any_failed = false;
    for (const RoutedNet& rn : result.nets) any_failed |= !rn.routed;
    if (cur == 0 && !any_failed) break;
    // max_iterations bounds the guaranteed negotiation rounds (matching
    // the historical router's budget); past it, keep going only while
    // overflow still strictly shrinks, so termination is guaranteed.
    if (round >= std::max(1, opts.max_iterations) && cur >= last_overflow) {
      break;
    }
    last_overflow = cur;

    // Rip up nets that traverse overflowed edges; bump history costs.
    for (std::size_t e = 0; e < g.h_use.size(); ++e) {
      if (g.h_use[e] > opts.edge_capacity) g.h_hist[e] += 2.0;
    }
    for (std::size_t e = 0; e < g.v_use.size(); ++e) {
      if (g.v_use[e] > opts.edge_capacity) g.v_hist[e] += 2.0;
    }
    pressure *= 2.0;
    std::vector<std::size_t> ripped;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      RoutedNet& rn = result.nets[i];
      bool needs = !rn.routed;
      for (const auto& path : rn.paths) {
        if (overflowed(path)) needs = true;
      }
      if (!needs) continue;
      ripped.push_back(i);
      for (const auto& path : rn.paths) adjust_usage(g, path, -1);
    }
    if (ripped.empty()) break;

    // Congestion relief needs detours ever farther from the pin bbox, so
    // a ripped net's window doubles its margin each round (clamped to the
    // grid by window_of). Windows only grow, so the disjointness grouping
    // below stays conservative.
    const int grow =
        std::max(1, opts.window_margin) << std::min(round, 16);
    for (std::size_t i : ripped) {
      wins[i] = window_of(g, nets[i].pins, grow);
    }

    // Greedy first-fit grouping: each group only holds nets whose search
    // windows are pairwise disjoint, so no two nets in a group can read or
    // write the same edge — routing a group concurrently is bit-identical
    // to routing it serially, for any thread count.
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i : ripped) {
      bool placed = false;
      for (auto& grp : groups) {
        bool ok = true;
        for (std::size_t j : grp) {
          if (!wins[i].disjoint(wins[j])) {
            ok = false;
            break;
          }
        }
        if (ok) {
          grp.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({i});
    }

    for (const auto& grp : groups) {
      // Batch phase: fixed windows, no escalation (escalation could leave
      // the window and race another net in the group).
      auto route_in_window = [&](std::size_t k) {
        const std::size_t i = grp[k];
        route_net(g, thread_scratch(), nets[i], result.nets[i], opts,
                  pressure, wins[i], /*allow_escalate=*/false);
      };
      util::parallel_for_each(
          static_cast<std::size_t>(std::max(0, opts.threads)), grp.size(),
          route_in_window);
      // Serial retries for in-window failures, in net order, with
      // escalation — still deterministic: the grid state after the batch
      // does not depend on the thread count.
      for (std::size_t i : grp) {
        if (result.nets[i].routed) continue;
        for (const auto& path : result.nets[i].paths) {
          adjust_usage(g, path, -1);
        }
        route_net(g, thread_scratch(), nets[i], result.nets[i], opts,
                  pressure, wins[i], /*allow_escalate=*/true);
      }
    }
  }

  for (const RoutedNet& rn : result.nets) {
    result.total_wirelength_m += rn.wirelength_m;
    result.total_vias += rn.vias;
    if (!rn.routed) ++result.failed_nets;
  }
  for (int use : g.h_use) {
    if (use > opts.edge_capacity) ++result.overflowed_edges;
  }
  for (int use : g.v_use) {
    if (use > opts.edge_capacity) ++result.overflowed_edges;
  }
  return result;
}

}  // namespace vcoadc::synth
