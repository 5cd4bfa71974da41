// Layout database and serialization: the "resulting layout" of Fig. 9.
// Includes a GDS-like text writer and an ASCII floorplan renderer that
// reproduces the Fig. 13/14 screenshots in terminal form.
//
// A Layout shares its flat netlist and placement with the stage artifacts
// that built them (the floorplan and placement artifacts) rather than
// holding copies: both are immutable once built.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/floorplan.h"
#include "synth/placer.h"

namespace vcoadc::synth {

struct LayoutStats {
  double die_area_m2 = 0;
  double cell_area_m2 = 0;
  double utilization = 0;      ///< cell area / die area
  int num_cells = 0;
  int num_rows = 0;
  int num_regions = 0;
};

class Layout {
 public:
  Layout(std::shared_ptr<const netlist::FlatNetlist> flat, Floorplan fp,
         std::shared_ptr<const Placement> pl);

  LayoutStats stats() const;

  /// GDS-like text stream: one record per region and per placed cell.
  std::string write_gds_text(const std::string& design_name) const;

  /// ASCII rendering of the floorplan with region labels (Fig. 14 analog).
  /// `width` is the output width in characters.
  std::string render_ascii(int width = 100) const;

  const Floorplan& floorplan() const { return fp_; }
  const Placement& placement() const { return *pl_; }
  const netlist::FlatNetlist& flat() const { return *flat_; }

 private:
  std::shared_ptr<const netlist::FlatNetlist> flat_;
  Floorplan fp_;
  std::shared_ptr<const Placement> pl_;
};

}  // namespace vcoadc::synth
