// Design-rule / constraint checks on a placed layout.
//
// The decisive check is kPowerRailShort: "In conventional digital APR, the
// P/G rails of the cells in the same placement row will be connected and
// short their P/G pins, which will cause a problem if any two cells in the
// row are connected to different P/G nets" (Sec. 3.3). Running the checker
// on a PD-oblivious placement reproduces exactly that failure; the PD-aware
// flow passes.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/floorplan.h"
#include "synth/placer.h"

namespace vcoadc::synth {

enum class DrcKind {
  kOverlap,         ///< two cells overlap
  kOutsideDie,      ///< cell outside the die outline
  kOutsideRegion,   ///< cell outside its assigned region's rectangle
  kOffRowGrid,      ///< cell y not on the row grid
  kPowerRailShort,  ///< different power domains abut on one rail segment
  kRegionOverlap,   ///< two floorplan regions overlap
};

std::string to_string(DrcKind kind);

struct DrcViolation {
  DrcKind kind;
  std::string detail;  ///< human-readable, includes instance paths
};

struct DrcReport {
  std::vector<DrcViolation> violations;
  bool clean() const { return violations.empty(); }
  int count(DrcKind kind) const;
};

/// Runs all checks. `flat` supplies instance names and power domains;
/// `pl.cells` must be index-aligned with `flat`.
DrcReport run_drc(const netlist::FlatNetlist& flat,
                  const Placement& pl, const Floorplan& fp);

}  // namespace vcoadc::synth
