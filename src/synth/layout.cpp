#include "synth/layout.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/strings.h"

namespace vcoadc::synth {

Layout::Layout(std::shared_ptr<const netlist::FlatNetlist> flat, Floorplan fp,
               std::shared_ptr<const Placement> pl)
    : flat_(std::move(flat)), fp_(std::move(fp)), pl_(std::move(pl)) {}

LayoutStats Layout::stats() const {
  LayoutStats s;
  s.die_area_m2 = fp_.die.area();
  std::set<int> rows;
  for (std::size_t i = 0; i < pl_->cells.size(); ++i) {
    s.cell_area_m2 += flat()[i].cell->area_m2();
    rows.insert(pl_->cells[i].row);
    ++s.num_cells;
  }
  s.utilization = (s.die_area_m2 > 0) ? s.cell_area_m2 / s.die_area_m2 : 0;
  s.num_rows = static_cast<int>(rows.size());
  s.num_regions = static_cast<int>(fp_.regions.size());
  return s;
}

std::string Layout::write_gds_text(const std::string& design_name) const {
  std::ostringstream os;
  auto um = [](double m) { return m * 1e6; };
  os << "HEADER vcoadc-gds-text 1\n";
  os << "BGNSTR " << design_name << "\n";
  os << "  BOUNDARY die 0 0 " << um(fp_.die.w) << " " << um(fp_.die.h)
     << "\n";
  for (const PlacedRegion& r : fp_.regions) {
    os << "  REGION " << r.spec.name << " " << um(r.rect.x) << " "
       << um(r.rect.y) << " " << um(r.rect.w) << " " << um(r.rect.h) << "\n";
  }
  for (std::size_t i = 0; i < pl_->cells.size(); ++i) {
    const PlacedCell& pc = pl_->cells[i];
    os << "  SREF " << flat()[i].cell->name << " " << flat()[i].path << " "
       << um(pc.rect.x) << " " << um(pc.rect.y) << "\n";
  }
  os << "ENDSTR\n";
  return os.str();
}

std::string Layout::render_ascii(int width) const {
  width = std::max(width, 20);
  const double scale = fp_.die.w / width;
  const int height =
      std::max(6, static_cast<int>(std::lround(fp_.die.h / scale / 2.2)));
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), '.'));

  // Assign a letter per region, draw its area, then overlay the label.
  std::ostringstream legend;
  char symbol = 'A';
  for (const PlacedRegion& r : fp_.regions) {
    const int x0 = std::clamp(
        static_cast<int>(r.rect.x / fp_.die.w * width), 0, width - 1);
    const int x1 = std::clamp(
        static_cast<int>(r.rect.x2() / fp_.die.w * width) - 1, 0, width - 1);
    const int y0 = std::clamp(
        static_cast<int>((1.0 - r.rect.y2() / fp_.die.h) * height), 0,
        height - 1);
    const int y1 = std::clamp(
        static_cast<int>((1.0 - r.rect.y / fp_.die.h) * height) - 1, 0,
        height - 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = symbol;
      }
    }
    legend << "  " << symbol << " = " << r.spec.name << " ("
           << r.spec.members.size() << " cells)\n";
    ++symbol;
    if (symbol > 'Z') symbol = 'a';
  }

  std::ostringstream os;
  os << "+" << std::string(static_cast<std::size_t>(width), '-') << "+\n";
  for (const std::string& line : grid) os << "|" << line << "|\n";
  os << "+" << std::string(static_cast<std::size_t>(width), '-') << "+\n";
  os << util::format("die: %.1f um x %.1f um (%.4f mm^2)\n", fp_.die.w * 1e6,
                     fp_.die.h * 1e6, fp_.die.area() * 1e12);
  os << legend.str();
  return os.str();
}

}  // namespace vcoadc::synth
