// Grid-based detailed router (maze search with negotiated congestion).
//
// Completes the APR stage of Fig. 9 beyond the HPWL estimate: every signal
// net is routed on a two-layer grid (layer 0 horizontal, layer 1 vertical,
// vias between) with per-edge track capacities. Multi-pin nets decompose
// into source-to-tree segments; congested edges get history costs and
// overflowing nets are ripped up and rerouted. Outputs per-net paths,
// total routed wirelength (to compare against the HPWL lower bound), via
// counts, and any remaining overflows.
//
// This is the netlist-facing entry point: it interns the flat netlist's
// signal nets (via NetDb), snaps pin locations to the grid and hands the
// per-net pin sets to the netlist-free core in route_grid.h (windowed A*,
// epoch-stamped scratch, parallel rip-up batches).
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/net_db.h"
#include "synth/placer.h"
#include "synth/route_grid.h"

namespace vcoadc::synth {

/// Routes all multi-pin signal nets of a placed design.
MazeRouteResult maze_route(const netlist::FlatNetlist& flat,
                           const Placement& pl, const Rect& die,
                           const MazeRouterOptions& opts = {});

/// As above, with a prebuilt net database over the same `flat` netlist.
MazeRouteResult maze_route(const netlist::FlatNetlist& flat,
                           const Placement& pl, const Rect& die,
                           const MazeRouterOptions& opts, const NetDb& db);

}  // namespace vcoadc::synth
