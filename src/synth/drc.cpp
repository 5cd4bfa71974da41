#include "synth/drc.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace vcoadc::synth {

std::string to_string(DrcKind kind) {
  switch (kind) {
    case DrcKind::kOverlap:
      return "cell-overlap";
    case DrcKind::kOutsideDie:
      return "outside-die";
    case DrcKind::kOutsideRegion:
      return "outside-region";
    case DrcKind::kOffRowGrid:
      return "off-row-grid";
    case DrcKind::kPowerRailShort:
      return "power-rail-short";
    case DrcKind::kRegionOverlap:
      return "region-overlap";
  }
  return "?";
}

int DrcReport::count(DrcKind kind) const {
  int n = 0;
  for (const auto& v : violations) n += (v.kind == kind);
  return n;
}

DrcReport run_drc(const netlist::FlatNetlist& flat,
                  const Placement& pl, const Floorplan& fp) {
  DrcReport rep;
  auto add = [&](DrcKind kind, std::string detail) {
    rep.violations.push_back({kind, std::move(detail)});
  };

  // Region disjointness.
  for (std::size_t i = 0; i < fp.regions.size(); ++i) {
    for (std::size_t j = i + 1; j < fp.regions.size(); ++j) {
      if (fp.regions[i].rect.overlaps(fp.regions[j].rect)) {
        add(DrcKind::kRegionOverlap,
            fp.regions[i].spec.name + " overlaps " + fp.regions[j].spec.name);
      }
    }
  }

  // Per-cell geometric checks + row bucketing. Cells that sit off the row
  // grid are reported once and *excluded* from the row-overlap pass:
  // rounding a mis-gridded cell into an arbitrary row would fabricate (or
  // mask) overlap and rail-short pairs against cells it does not abut.
  struct RowEntry {
    int row;
    int idx;
  };
  std::vector<RowEntry> row_cells;
  row_cells.reserve(pl.cells.size());
  for (std::size_t i = 0; i < pl.cells.size(); ++i) {
    const PlacedCell& pc = pl.cells[i];
    const auto& fi = flat[i];
    if (!fp.die.contains(pc.rect)) {
      add(DrcKind::kOutsideDie, fi.path + " at " + pc.rect.to_string());
    }
    // Region containment against the *assigned* power domain's region (if a
    // region with that name exists in the floorplan).
    const std::string want =
        fi.cell->is_resistor ? fi.group : fi.power_domain;
    if (const PlacedRegion* r = fp.find(want)) {
      if (!r->rect.contains(pc.rect)) {
        add(DrcKind::kOutsideRegion,
            fi.path + " (" + want + ") at " + pc.rect.to_string());
      }
    }
    const double row_pos = (pc.rect.y - fp.die.y) / fp.row_height_m;
    if (std::fabs(row_pos - std::round(row_pos)) > 1e-6) {
      add(DrcKind::kOffRowGrid, fi.path);
      continue;
    }
    row_cells.push_back({static_cast<int>(std::lround(row_pos)),
                         static_cast<int>(i)});
  }

  // Overlaps + rail shorts, per row: one (row, x) sort replaces the old
  // string-free but allocation-heavy map-of-vectors bucketing.
  std::sort(row_cells.begin(), row_cells.end(),
            [&](const RowEntry& a, const RowEntry& b) {
              if (a.row != b.row) return a.row < b.row;
              const double xa = pl.cells[static_cast<std::size_t>(a.idx)].rect.x;
              const double xb = pl.cells[static_cast<std::size_t>(b.idx)].rect.x;
              if (xa != xb) return xa < xb;
              return a.idx < b.idx;
            });
  for (std::size_t k = 1; k < row_cells.size(); ++k) {
    if (row_cells[k].row == row_cells[k - 1].row) {
      const int row = row_cells[k].row;
      const int a = row_cells[k - 1].idx;
      const int b = row_cells[k].idx;
      const PlacedCell& ca = pl.cells[static_cast<std::size_t>(a)];
      const PlacedCell& cb = pl.cells[static_cast<std::size_t>(b)];
      if (ca.rect.overlaps(cb.rect)) {
        add(DrcKind::kOverlap,
            flat[static_cast<std::size_t>(a)].path + " / " +
                flat[static_cast<std::size_t>(b)].path);
      }
      // Rail short: two cells on the same row whose supply pins resolve to
      // different P/G nets, with no region boundary between them. A region
      // boundary breaks the rail, so only flag pairs in the same region.
      const auto& fa = flat[static_cast<std::size_t>(a)];
      const auto& fb = flat[static_cast<std::size_t>(b)];
      if (ca.region != cb.region) continue;
      const std::string pda = fa.cell->is_resistor ? "" : fa.power_domain;
      const std::string pdb = fb.cell->is_resistor ? "" : fb.power_domain;
      if (!pda.empty() && !pdb.empty() && pda != pdb) {
        add(DrcKind::kPowerRailShort,
            fa.path + " (" + pda + ") abuts " + fb.path + " (" + pdb +
                ") on row " + std::to_string(row));
      }
    }
  }
  return rep;
}

}  // namespace vcoadc::synth
