#include "synth/floorplan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/strings.h"

namespace vcoadc::synth {
namespace {

double snap_down(double v, double grid) {
  if (grid <= 0) return v;
  return std::floor(v / grid + 1e-9) * grid;
}

double snap_up(double v, double grid) {
  if (grid <= 0) return v;
  return std::ceil(v / grid - 1e-9) * grid;
}

struct Job {
  std::vector<int> region_ids;  // indices into the spec vector
  Rect rect;
};

}  // namespace

std::vector<RegionSpec> partition_into_regions(
    const netlist::FlatNetlist& flat) {
  std::map<std::string, RegionSpec> by_name;
  for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
    const auto& fi = flat[static_cast<std::size_t>(i)];
    const bool is_group = fi.cell->is_resistor;
    std::string name = is_group ? fi.group : fi.power_domain;
    if (name.empty()) name = is_group ? "GRP_DEFAULT" : "PD_VDD";
    RegionSpec& spec = by_name[name];
    if (spec.name.empty()) {
      spec.name = name;
      spec.is_group = is_group;
    }
    spec.members.push_back(i);
    spec.cell_area_m2 += fi.cell->area_m2();
    spec.max_cell_width_m = std::max(spec.max_cell_width_m, fi.cell->width_m);
  }
  std::vector<RegionSpec> out;
  out.reserve(by_name.size());
  for (auto& [name, spec] : by_name) out.push_back(std::move(spec));
  return out;
}

const PlacedRegion* Floorplan::find(const std::string& name) const {
  for (const PlacedRegion& r : regions) {
    if (r.spec.name == name) return &r;
  }
  return nullptr;
}

double Floorplan::region_area_fraction() const {
  double a = 0;
  for (const PlacedRegion& r : regions) a += r.rect.area();
  return (die.area() > 0) ? a / die.area() : 0.0;
}

Floorplan make_floorplan(const std::vector<RegionSpec>& regions,
                         const FloorplanOptions& opts) {
  assert(!regions.empty());
  assert(opts.target_utilization > 0 && opts.target_utilization < 1.0);

  // Target area per region; every region must hold at least one row that
  // fits its widest cell.
  std::vector<double> target(regions.size());
  double total = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const double min_area =
        std::max(regions[i].max_cell_width_m, opts.site_width_m) *
        opts.row_height_m / opts.target_utilization;
    target[i] = std::max(regions[i].cell_area_m2 / opts.target_utilization,
                         min_area);
    total += target[i];
  }

  Floorplan fp;
  fp.row_height_m = opts.row_height_m;
  fp.site_width_m = opts.site_width_m;
  // Horizontal geometry snaps to row PAIRS so that every region boundary
  // lands on an even row line - even lines carry the shared VSS rail, so
  // vertically abutting power domains never collide power rails.
  const double row_pair = 2.0 * opts.row_height_m;
  const double die_w =
      snap_up(std::sqrt(total / opts.aspect_ratio), opts.site_width_m);
  const double die_h = snap_up(total / die_w, row_pair);
  fp.die = {0, 0, die_w, die_h};
  fp.regions.resize(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    fp.regions[i].spec = regions[i];
  }

  // Recursive area bisection over the die.
  std::vector<int> all(regions.size());
  std::iota(all.begin(), all.end(), 0);
  // Deterministic ordering: biggest first so the greedy halving balances.
  std::sort(all.begin(), all.end(), [&](int a, int b) {
    if (target[static_cast<std::size_t>(a)] !=
        target[static_cast<std::size_t>(b)]) {
      return target[static_cast<std::size_t>(a)] >
             target[static_cast<std::size_t>(b)];
    }
    return regions[static_cast<std::size_t>(a)].name <
           regions[static_cast<std::size_t>(b)].name;
  });

  std::vector<Job> stack;
  stack.push_back({all, fp.die});
  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    if (job.region_ids.size() == 1) {
      fp.regions[static_cast<std::size_t>(job.region_ids[0])].rect = job.rect;
      continue;
    }
    // Greedy balanced split of the id list by target area.
    std::vector<int> left, right;
    double a_left = 0, a_right = 0;
    for (int id : job.region_ids) {
      if (a_left <= a_right) {
        left.push_back(id);
        a_left += target[static_cast<std::size_t>(id)];
      } else {
        right.push_back(id);
        a_right += target[static_cast<std::size_t>(id)];
      }
    }
    const double frac = a_left / (a_left + a_right);
    double min_left = 0, min_right = 0;
    for (int id : left) {
      min_left = std::max(min_left,
                          regions[static_cast<std::size_t>(id)].max_cell_width_m);
    }
    for (int id : right) {
      min_right = std::max(
          min_right, regions[static_cast<std::size_t>(id)].max_cell_width_m);
    }
    Rect ra = job.rect, rb = job.rect;
    // Prefer the cut direction whose minimum-size constraints can be met:
    // a vertical cut must leave each side wide enough for its widest cell,
    // a horizontal cut must leave each side at least one row tall.
    const double row_pair = 2.0 * opts.row_height_m;
    const bool v_ok =
        job.rect.w >= min_left + min_right + 2 * opts.site_width_m;
    const bool h_ok = job.rect.h >= 2 * row_pair;
    const bool vertical = v_ok && (job.rect.w >= job.rect.h || !h_ok);
    if (vertical) {
      double cut = snap_down(job.rect.w * frac, opts.site_width_m);
      cut = std::clamp(cut, snap_up(min_left, opts.site_width_m),
                       snap_down(job.rect.w - min_right, opts.site_width_m));
      ra.w = cut;
      rb.x = job.rect.x + cut;
      rb.w = job.rect.w - cut;
    } else {
      double cut = snap_down(job.rect.h * frac, row_pair);
      cut = std::clamp(cut, row_pair,
                       std::max(row_pair, job.rect.h - row_pair));
      ra.h = cut;
      rb.y = job.rect.y + cut;
      rb.h = job.rect.h - cut;
    }
    stack.push_back({std::move(left), ra});
    stack.push_back({std::move(right), rb});
  }
  return fp;
}

std::string write_floorplan_spec(const Floorplan& fp) {
  std::ostringstream os;
  os << "# Floorplan specification (power domains / component groups)\n";
  os << "# Units: micrometres\n";
  auto um = [](double m) { return m * 1e6; };
  os << "DIE 0.000 0.000 " << um(fp.die.w) << " " << um(fp.die.h) << "\n";
  for (const PlacedRegion& r : fp.regions) {
    os << (r.spec.is_group ? "GROUP " : "POWER_DOMAIN ") << r.spec.name << " "
       << um(r.rect.x) << " " << um(r.rect.y) << " " << um(r.rect.w) << " "
       << um(r.rect.h) << " cells=" << r.spec.members.size() << "\n";
  }
  os << util::format("GRID row_um=%.6f site_um=%.6f\n", fp.row_height_m * 1e6,
                     fp.site_width_m * 1e6);
  return os.str();
}

FloorplanParseResult parse_floorplan_spec(const std::string& text) {
  FloorplanParseResult res;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  bool saw_die = false;
  auto fail = [&](const std::string& msg) {
    res.ok = false;
    res.error = util::format("line %d: %s", line_no, msg.c_str());
  };
  while (std::getline(is, line)) {
    ++line_no;
    const auto tokens = util::split(util::trim(line), " \t");
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& kw = tokens[0];
    auto um = [](const std::string& s) { return std::atof(s.c_str()) * 1e-6; };
    if (kw == "DIE") {
      if (tokens.size() < 5) {
        fail("DIE needs 4 coordinates");
        return res;
      }
      res.floorplan.die = {um(tokens[1]), um(tokens[2]), um(tokens[3]),
                           um(tokens[4])};
      saw_die = true;
    } else if (kw == "POWER_DOMAIN" || kw == "GROUP") {
      if (tokens.size() < 6) {
        fail(kw + " needs a name and 4 coordinates");
        return res;
      }
      PlacedRegion region;
      region.spec.name = tokens[1];
      region.spec.is_group = (kw == "GROUP");
      region.rect = {um(tokens[2]), um(tokens[3]), um(tokens[4]),
                     um(tokens[5])};
      res.floorplan.regions.push_back(std::move(region));
    } else if (kw == "GRID") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto kv = util::split(tokens[i], "=");
        if (kv.size() != 2) continue;
        if (kv[0] == "row_um") {
          res.floorplan.row_height_m = std::atof(kv[1].c_str()) * 1e-6;
        }
        if (kv[0] == "site_um") {
          res.floorplan.site_width_m = std::atof(kv[1].c_str()) * 1e-6;
        }
      }
    } else {
      fail("unknown directive '" + kw + "'");
      return res;
    }
  }
  if (!saw_die) {
    res.error = "missing DIE directive";
    return res;
  }
  res.ok = true;
  return res;
}

}  // namespace vcoadc::synth
