// Global-routing estimation: per-net half-perimeter wirelength, a tile-based
// congestion map, and the wire capacitance feeding the power model. A full
// track router is out of scope for the flow's claims; congestion + HPWL is
// what APR signoff reads at this stage.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/placer.h"

namespace vcoadc::synth {

struct NetRoute {
  std::string net;
  int pins = 0;
  double hpwl_m = 0;
  /// Steiner-corrected length estimate: HPWL * sqrt(pins/4) for pins > 3
  /// (the usual RSMT upscaling for multi-pin nets).
  double est_length_m = 0;
};

struct CongestionMap {
  int nx = 0, ny = 0;
  std::vector<double> demand;  ///< nets whose bbox crosses each tile
  double max_demand = 0;
  double mean_demand = 0;

  double at(int x, int y) const {
    return demand[static_cast<std::size_t>(y * nx + x)];
  }
};

struct RoutingEstimate {
  std::vector<NetRoute> nets;
  double total_hpwl_m = 0;
  double total_est_length_m = 0;
  CongestionMap congestion;
  /// Estimated total signal-wire capacitance, given cap per metre.
  double wire_cap_f = 0;
};

struct RouterOptions {
  int grid_x = 16;
  int grid_y = 16;
  /// Wire capacitance per metre (typ. ~0.15 fF/um = 1.5e-10 F/m).
  double cap_per_m = 1.5e-10;
};

RoutingEstimate estimate_routing(const netlist::FlatNetlist& flat,
                                 const Placement& pl, const Rect& die,
                                 const RouterOptions& opts);

/// As above, with a prebuilt net database over the same `flat` netlist.
RoutingEstimate estimate_routing(const netlist::FlatNetlist& flat,
                                 const Placement& pl, const Rect& die,
                                 const RouterOptions& opts, const NetDb& db);

}  // namespace vcoadc::synth
