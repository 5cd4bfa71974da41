#include "synth/router.h"

#include <algorithm>
#include <cmath>

#include "synth/net_db.h"

namespace vcoadc::synth {

RoutingEstimate estimate_routing(const netlist::FlatNetlist& flat,
                                 const Placement& pl, const Rect& die,
                                 const RouterOptions& opts) {
  const NetDb db(flat);
  return estimate_routing(flat, pl, die, opts, db);
}

RoutingEstimate estimate_routing(const netlist::FlatNetlist& flat,
                                 const Placement& pl, const Rect& die,
                                 const RouterOptions& opts, const NetDb& db) {
  (void)flat;  // net topology comes interned through `db`
  RoutingEstimate est;
  est.congestion.nx = opts.grid_x;
  est.congestion.ny = opts.grid_y;
  est.congestion.demand.assign(
      static_cast<std::size_t>(opts.grid_x * opts.grid_y), 0.0);

  const double tile_w = die.w / opts.grid_x;
  const double tile_h = die.h / opts.grid_y;

  // Net ids ascend in name order, matching the historical string-map
  // iteration, so est.nets comes out in the same order as before.
  for (int n = 0; n < db.num_nets(); ++n) {
    const int pins = db.connection_count(n);
    if (pins < 2) continue;
    BBox bb;
    for (int c : db.members(n)) {
      bb.expand(pl.cells[static_cast<std::size_t>(c)].rect.center());
    }
    NetRoute nr;
    nr.net = db.name(n);
    nr.pins = pins;
    nr.hpwl_m = bb.half_perimeter();
    nr.est_length_m =
        (pins <= 3) ? nr.hpwl_m
                    : nr.hpwl_m * std::sqrt(static_cast<double>(pins) / 4.0);
    est.total_hpwl_m += nr.hpwl_m;
    est.total_est_length_m += nr.est_length_m;

    // Spread one unit of demand over the tiles the net's bbox covers.
    int x0 = static_cast<int>((bb.xmin - die.x) / tile_w);
    int x1 = static_cast<int>((bb.xmax - die.x) / tile_w);
    int y0 = static_cast<int>((bb.ymin - die.y) / tile_h);
    int y1 = static_cast<int>((bb.ymax - die.y) / tile_h);
    x0 = std::clamp(x0, 0, opts.grid_x - 1);
    x1 = std::clamp(x1, 0, opts.grid_x - 1);
    y0 = std::clamp(y0, 0, opts.grid_y - 1);
    y1 = std::clamp(y1, 0, opts.grid_y - 1);
    const double tiles =
        static_cast<double>((x1 - x0 + 1) * (y1 - y0 + 1));
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        est.congestion.demand[static_cast<std::size_t>(y * opts.grid_x + x)] +=
            1.0 / tiles * static_cast<double>(pins);
      }
    }
    est.nets.push_back(std::move(nr));
  }

  for (double d : est.congestion.demand) {
    est.congestion.max_demand = std::max(est.congestion.max_demand, d);
    est.congestion.mean_demand += d;
  }
  if (!est.congestion.demand.empty()) {
    est.congestion.mean_demand /=
        static_cast<double>(est.congestion.demand.size());
  }
  est.wire_cap_f = est.total_est_length_m * opts.cap_per_m;
  return est;
}

}  // namespace vcoadc::synth
