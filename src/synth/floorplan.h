// Floorplan generation (Sec. 3.3 / Fig. 10b / Fig. 12):
//   1. Partition the flattened circuit into power domains and component
//      groups (cells whose supply pins tie to the same P/G nets share a
//      domain; supply-less cells such as resistors go into groups).
//   2. Floorplan the domains/groups as rectangular regions of a die sized
//      for a target placement density ("the circuit is floorplanned such
//      that the placement density is similar in both technology nodes").
//
// The region arrangement is computed with recursive area bisection, which
// yields a slicing floorplan like the paper's Fig. 14 screenshot; region
// heights snap to the standard-cell row grid so every region holds an
// integer number of rows.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/geometry.h"

namespace vcoadc::synth {

/// One power domain or component group to be floorplanned.
struct RegionSpec {
  std::string name;             ///< e.g. "PD_VCTRLP" or "GRP_DAC_RES1"
  bool is_group = false;        ///< true for supply-less component groups
  std::vector<int> members;     ///< cell indices into the flat netlist
  double cell_area_m2 = 0;      ///< sum of member cell areas
  double max_cell_width_m = 0;  ///< widest member (regions must fit it)
};

/// Partitions flat instances into RegionSpecs by power_domain / group.
std::vector<RegionSpec> partition_into_regions(
    const netlist::FlatNetlist& flat);

/// A placed region in the floorplan.
struct PlacedRegion {
  RegionSpec spec;
  Rect rect;
};

struct FloorplanOptions {
  double target_utilization = 0.6;  ///< cell area / region area
  double aspect_ratio = 1.0;        ///< die height / width
  double row_height_m = 1e-6;       ///< standard-cell row height
  double site_width_m = 1e-7;       ///< placement site (M1 pitch)
};

struct Floorplan {
  Rect die;
  std::vector<PlacedRegion> regions;
  double row_height_m = 0;
  double site_width_m = 0;

  const PlacedRegion* find(const std::string& name) const;
  /// Sum of region areas / die area.
  double region_area_fraction() const;
};

/// Computes the floorplan. Regions are disjoint, inside the die, row-aligned
/// in y and sized for the target utilization. Aborts only on impossible
/// inputs (no regions / zero area).
Floorplan make_floorplan(const std::vector<RegionSpec>& regions,
                         const FloorplanOptions& opts);

/// Serializes region constraints in the spirit of an Encounter .fp file
/// (the "floorplan specification" input of Fig. 9).
std::string write_floorplan_spec(const Floorplan& fp);

struct FloorplanParseResult {
  bool ok = false;
  std::string error;
  Floorplan floorplan;  ///< geometry only; RegionSpec members stay empty
};

/// Parses the write_floorplan_spec format back into a Floorplan (die +
/// region rectangles + names/kinds). Member lists are re-derived by the
/// caller from the netlist (they are not part of the .fp geometry).
FloorplanParseResult parse_floorplan_spec(const std::string& text);

}  // namespace vcoadc::synth
