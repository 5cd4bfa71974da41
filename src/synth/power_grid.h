// Power-grid generation and verification.
//
// The reason the whole Sec. 3.3 floorplan machinery exists: each power
// domain's region gets its own P/G rail pairs (standard-cell rows share a
// ground rail below and the domain's power rail above, alternating), so
// VCTRLP inverters are fed from the VCTRLP rail and never short to VDD.
//
// generate_power_grid builds the rail geometry for a floorplan;
// check_power_grid verifies every placed cell's supply pins land on rails
// of the right nets (running it on a PD-oblivious placement reproduces the
// "P/G rails ... short their P/G pins" failure physically), and estimates
// the worst rail IR drop from per-cell current draw.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/floorplan.h"
#include "synth/placer.h"

namespace vcoadc::synth {

/// Power net a domain's cells draw from ("PD_VCTRLP" -> "VCTRLP", ...).
std::string power_net_of_domain(const std::string& pd);

struct RailSegment {
  std::string net;    ///< e.g. "VSS", "VDD", "VCTRLP"
  std::string region; ///< owning region name
  Rect rect;          ///< rail geometry (width = rail_width)
};

struct PowerGridOptions {
  double rail_width_m = 0;       ///< 0 = 2 x site width
  double rail_sheet_ohms = 0.05; ///< metal sheet resistance [ohm/sq]
};

struct PowerGrid {
  std::vector<RailSegment> rails;
  double rail_width_m = 0;
  double rail_sheet_ohms = 0.05;

  /// Rails overlapping a horizontal span on a given y line.
  std::vector<const RailSegment*> rails_at(double y, double x0,
                                           double x1) const;
};

/// Generates alternating VSS / domain-power rails on the row grid of every
/// power-domain region (component groups get no rails - resistors have no
/// supply pins).
PowerGrid generate_power_grid(const Floorplan& fp,
                              const PowerGridOptions& opts = {});

struct PowerGridCheck {
  int cells_checked = 0;
  int unconnected_cells = 0;   ///< no rail at the cell's row boundary
  int wrong_rail_cells = 0;    ///< rail present but wrong power net
  double max_ir_drop_v = 0;    ///< worst distributed rail drop
  std::string worst_rail;      ///< "<net>@<region>" of the worst drop
  std::vector<std::string> problems;  ///< first few, human-readable
  bool clean() const {
    return unconnected_cells == 0 && wrong_rail_cells == 0;
  }
};

/// Verifies supply connectivity of every non-resistor cell and computes
/// IR drop with `current_per_cell_a` drawn uniformly by each cell.
PowerGridCheck check_power_grid(const PowerGrid& grid,
                                const netlist::FlatNetlist& flat,
                                const Placement& pl, const Floorplan& fp,
                                double current_per_cell_a = 10e-6);

}  // namespace vcoadc::synth
