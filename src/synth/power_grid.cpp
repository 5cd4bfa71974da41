#include "synth/power_grid.h"

#include <algorithm>
#include <cmath>

#include "netlist/generator.h"
#include "util/strings.h"

namespace vcoadc::synth {

std::string power_net_of_domain(const std::string& pd) {
  if (pd == netlist::kPdVdd) return "VDD";
  if (pd == netlist::kPdVrefp) return "VREFP";
  if (pd == netlist::kPdVctrlp) return "VCTRLP";
  if (pd == netlist::kPdVctrln) return "VCTRLN";
  if (pd == netlist::kPdVbuf1 || pd == netlist::kPdVbuf2) return "VBUF";
  // Unknown domains default to the global supply.
  return "VDD";
}

std::vector<const RailSegment*> PowerGrid::rails_at(double y, double x0,
                                                    double x1) const {
  std::vector<const RailSegment*> out;
  for (const RailSegment& r : rails) {
    const double yc = r.rect.y + r.rect.h / 2;
    if (std::fabs(yc - y) > r.rect.h) continue;
    // Strict x overlap: rails of adjacent regions abut exactly at the cut
    // line and must not count as covering a cell across the boundary.
    const double eps = 1e-12;
    if (r.rect.x2() <= x0 + eps || r.rect.x >= x1 - eps) continue;
    out.push_back(&r);
  }
  return out;
}

PowerGrid generate_power_grid(const Floorplan& fp,
                              const PowerGridOptions& opts) {
  PowerGrid grid;
  grid.rail_width_m =
      (opts.rail_width_m > 0) ? opts.rail_width_m : 2.0 * fp.site_width_m;
  grid.rail_sheet_ohms = opts.rail_sheet_ohms;
  const double row_h = fp.row_height_m;

  for (const PlacedRegion& region : fp.regions) {
    if (region.spec.is_group) continue;  // resistor groups: no rails
    const std::string power = power_net_of_domain(region.spec.name);
    // Row boundary lines inside the region, aligned to the die row grid.
    const double y_start =
        fp.die.y +
        std::ceil((region.rect.y - fp.die.y) / row_h - 1e-9) * row_h;
    for (double y = y_start; y <= region.rect.y2() + 1e-12; y += row_h) {
      const long line = std::lround((y - fp.die.y) / row_h);
      RailSegment rail;
      rail.net = (line % 2 == 0) ? "VSS" : power;
      rail.region = region.spec.name;
      rail.rect = {region.rect.x, y - grid.rail_width_m / 2, region.rect.w,
                   grid.rail_width_m};
      grid.rails.push_back(std::move(rail));
    }
  }
  return grid;
}

PowerGridCheck check_power_grid(const PowerGrid& grid,
                                const netlist::FlatNetlist& flat,
                                const Placement& pl, const Floorplan& fp,
                                double current_per_cell_a) {
  PowerGridCheck check;
  (void)fp;

  // Current tally per rail for the IR-drop estimate.
  std::map<const RailSegment*, double> rail_current;

  for (std::size_t i = 0; i < flat.size(); ++i) {
    const auto& fi = flat[i];
    if (fi.cell->is_resistor) continue;
    ++check.cells_checked;
    const PlacedCell& pc = pl.cells[i];
    const std::string want_power = power_net_of_domain(fi.power_domain);

    bool found_power = false, found_ground = false, wrong = false;
    for (double y : {pc.rect.y, pc.rect.y2()}) {
      for (const RailSegment* r : grid.rails_at(y, pc.rect.x, pc.rect.x2())) {
        if (r->net == "VSS") {
          found_ground = true;
        } else if (r->net == want_power) {
          found_power = true;
          rail_current[r] += current_per_cell_a;
        } else {
          wrong = true;  // a supply rail of another domain under this cell
        }
      }
    }
    if (!found_power || !found_ground) {
      ++check.unconnected_cells;
      if (check.problems.size() < 10) {
        check.problems.push_back(fi.path + ": missing " +
                                 (found_power ? "VSS" : want_power) +
                                 " rail");
      }
    } else if (wrong) {
      ++check.wrong_rail_cells;
      if (check.problems.size() < 10) {
        check.problems.push_back(fi.path + ": foreign supply rail under cell");
      }
    }
  }

  // Distributed IR drop on each rail: I_total * R_rail / 2 for a uniform
  // current distribution fed from one end.
  for (const auto& [rail, current] : rail_current) {
    const double squares = rail->rect.w / std::max(rail->rect.h, 1e-12);
    const double resistance = grid.rail_sheet_ohms * squares;
    const double drop = current * resistance / 2.0;
    if (drop > check.max_ir_drop_v) {
      check.max_ir_drop_v = drop;
      check.worst_rail = rail->net + "@" + rail->region;
    }
  }
  return check;
}

}  // namespace vcoadc::synth
