// Netlist-free core of the grid-based detailed router.
//
// The routing model is unchanged from the original maze router: two metal
// layers (layer 0 horizontal, layer 1 vertical, vias between), per-edge
// track capacities, negotiated congestion (history costs + rip-up and
// reroute). What lives here is the fast path:
//
//   * windowed A* search with an admissible Manhattan + via-lower-bound
//     heuristic instead of full-grid Dijkstra, over a two-level open list
//     (entries at the current f level in an id heap, the rest in an
//     (f, id) heap) that pops exactly in (f, id) order;
//   * epoch-stamped dist/prev/tree scratch arrays reused across searches
//     (no O(grid) allocation or clearing per pin);
//   * Prim-style multi-pin decomposition (always connect the pin nearest to
//     the *growing tree* next);
//   * rip-up batches whose search windows are pairwise disjoint routed in
//     parallel by util::parallel_for_each (the calling thread plus the
//     process-wide helpers) — disjoint windows cannot share a grid edge or
//     node, so the parallel result is bit-identical to serial. A batch of
//     one net routes inline.
//
// This header is independent of the netlist layer so the parallel-router
// tests (including the TSan variant) can drive it with synthetic nets; the
// netlist-facing entry point is maze_router.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth/geometry.h"

namespace vcoadc::synth {

struct GridPoint {
  int x = 0;
  int y = 0;
  int layer = 0;  ///< 0 = horizontal metal, 1 = vertical metal

  bool operator==(const GridPoint& o) const {
    return x == o.x && y == o.y && layer == o.layer;
  }
  bool operator<(const GridPoint& o) const {
    if (x != o.x) return x < o.x;
    if (y != o.y) return y < o.y;
    return layer < o.layer;
  }
};

struct RoutedNet {
  std::string name;
  int pins = 0;
  std::vector<std::vector<GridPoint>> paths;  ///< one per 2-pin segment
  double wirelength_m = 0;
  int vias = 0;
  bool routed = false;
};

struct MazeRouteResult {
  std::vector<RoutedNet> nets;
  double total_wirelength_m = 0;
  int total_vias = 0;
  int failed_nets = 0;
  int overflowed_edges = 0;  ///< edges above capacity after the final pass
  int grid_x = 0, grid_y = 0;
};

struct MazeRouterOptions {
  /// Routing-grid pitch [m]; 0 = one track row per cell row height.
  double grid_pitch_m = 0;
  /// Tracks per grid edge. A cell row spans ~9 M1 pitches; one is the
  /// rail, leaving ~8 signal tracks per row-pitch grid edge.
  int edge_capacity = 8;
  double via_cost = 3.0;   ///< in units of one grid step
  /// Guaranteed rip-up & reroute rounds. The loop exits as soon as the
  /// grid is overflow-free, and keeps negotiating past this bound only
  /// while the overflow count still strictly shrinks.
  int max_iterations = 8;
  /// Threads routing one rip-up batch, the calling thread included; 0 and
  /// 1 route inline on the calling thread, and a batch never uses more
  /// threads than the hardware has. Any value produces bit-identical
  /// routing (batches only group nets whose search windows are disjoint).
  int threads = 0;
  /// A* search-window margin around a net's pin bounding box, in grid
  /// cells. Failed searches escalate (double the margin, up to the whole
  /// grid) before a net is declared unroutable.
  int window_margin = 8;
};

/// One net to route: deduplicated layer-0 pin locations plus the pin-bbox
/// half-perimeter used for net ordering.
struct NetPins {
  std::string name;
  std::vector<GridPoint> pins;
  double hpwl = 0;
};

/// The routing grid: geometry plus per-edge usage and history cost.
/// Horizontal edges live on layer 0, vertical edges on layer 1.
struct RouteGrid {
  int nx = 0, ny = 0;
  double pitch = 0;
  Rect die;

  std::vector<int> h_use;  // (nx-1) * ny
  std::vector<int> v_use;  // nx * (ny-1)
  std::vector<double> h_hist;
  std::vector<double> v_hist;

  RouteGrid() = default;
  /// Builds an empty grid covering `die` at `pitch` (>= 2x2 nodes).
  RouteGrid(const Rect& die_rect, double pitch_m);

  int h_idx(int x, int y) const { return y * (nx - 1) + x; }
  int v_idx(int x, int y) const { return y * nx + x; }

  int num_nodes() const { return nx * ny * 2; }
  int node_id(const GridPoint& p) const {
    return (p.layer * ny + p.y) * nx + p.x;
  }
  GridPoint from_id(int id) const {
    GridPoint p;
    p.x = id % nx;
    p.y = (id / nx) % ny;
    p.layer = id / (nx * ny);
    return p;
  }

  GridPoint snap(double mx, double my) const;
};

/// Cost of crossing one routing edge given usage/capacity and history.
/// Always >= 1 (one grid step), which is what makes the A* heuristic's
/// Manhattan term admissible.
inline double route_edge_cost(int use, double hist, int cap,
                              double pressure) {
  double c = 1.0 + hist;
  if (use >= cap) c += pressure * static_cast<double>(use - cap + 1);
  return c;
}

/// Per-thread search scratch: dist/prev arrays validated by an epoch stamp
/// (so a new search is O(touched) instead of O(grid) to reset), the current
/// net's route tree as an epoch-stamped mask + node list, and the reusable
/// storage of the A* open list's two levels.
struct SearchScratch {
  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<std::uint32_t> stamp;      ///< dist/prev valid iff == epoch
  std::vector<std::uint32_t> tree_mark;  ///< in tree iff == tree_epoch
  std::uint32_t epoch = 0;
  std::uint32_t tree_epoch = 0;
  std::vector<int> tree_nodes;                 ///< current tree, add order
  std::vector<std::pair<double, int>> heap;    ///< open (f, id) min-heap
  std::vector<int> level;  ///< open ids at f == the level value, min-heap

  /// Ensures capacity for `n_nodes`; keeps stamps valid when shrinking.
  void bind(int n_nodes);
  void new_tree();
  bool in_tree(int id) const {
    return tree_mark[static_cast<std::size_t>(id)] == tree_epoch;
  }
  void add_tree(int id) {
    if (!in_tree(id)) {
      tree_mark[static_cast<std::size_t>(id)] = tree_epoch;
      tree_nodes.push_back(id);
    }
  }
};

/// Inclusive node-coordinate search window.
struct RouteWindow {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool disjoint(const RouteWindow& o) const {
    return x1 < o.x0 || o.x1 < x0 || y1 < o.y0 || o.y1 < y0;
  }
};

/// Window spanning a net's pins plus `margin` cells, clamped to the grid.
RouteWindow window_of(const RouteGrid& g, const std::vector<GridPoint>& pins,
                      int margin);

/// A* from the scratch's current tree (multi-source) to `target` (either
/// layer), restricted to `win`. Returns the path in source..target order,
/// or empty when unreachable inside the window. Open entries pop in
/// (f, node id) order; ties therefore break toward the lower node id.
std::vector<GridPoint> astar_search(const RouteGrid& g, SearchScratch& s,
                                    const GridPoint& target, double via_cost,
                                    int cap, double pressure,
                                    const RouteWindow& win);

/// Routes all segments of one net inside `win` (escalating the window on
/// failure when `allow_escalate`); commits usage for routed segments.
/// Returns false when any segment failed (partial paths stay committed,
/// exactly like the historical router, so rip-up accounting balances).
bool route_net(RouteGrid& g, SearchScratch& s, const NetPins& net,
               RoutedNet& out, const MazeRouterOptions& opts,
               double pressure, RouteWindow win, bool allow_escalate);

/// Full negotiated-congestion routing of `nets` on `g`: initial serial pass
/// in (hpwl, name) order, then rip-up-and-reroute iterations whose batches
/// of two or more nets run on `opts.threads` workers (the pool starts at
/// the first such batch). Output is independent of `opts.threads`.
MazeRouteResult route_nets(RouteGrid& g, std::vector<NetPins> nets,
                           const MazeRouterOptions& opts);

}  // namespace vcoadc::synth
