#include "synth/placer_quadratic.h"

#include <algorithm>
#include <cmath>

#include "synth/net_db.h"
#include "util/rng.h"

namespace vcoadc::synth {
namespace {

struct Spring {
  int other;      // flat index of the connected cell
  double weight;  // spring constant
};

/// Builds star-model springs per cell from the signal nets: each net of k
/// pins contributes k springs of weight 1/(k-1) between every pin and the
/// (implicit) star centre; collapsing the star yields pairwise weights
/// 2/(k(k-1))... we use the standard clique-with-1/(k-1) approximation.
std::vector<std::vector<Spring>> build_springs(const NetDb& db) {
  std::vector<std::vector<Spring>> springs(
      static_cast<std::size_t>(db.num_cells()));
  for (int n = 0; n < db.num_nets(); ++n) {
    const auto cells = db.members(n);
    const std::size_t k = cells.size();
    if (k < 2) continue;
    const double w = 1.0 / static_cast<double>(k - 1);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        springs[static_cast<std::size_t>(cells[a])].push_back({cells[b], w});
        springs[static_cast<std::size_t>(cells[b])].push_back({cells[a], w});
      }
    }
  }
  return springs;
}

}  // namespace

Placement place_quadratic(const netlist::FlatNetlist& flat,
                          const Floorplan& fp,
                          const QuadraticPlacerOptions& opts) {
  const NetDb db(flat);
  return place_quadratic(flat, fp, opts, db);
}

Placement place_quadratic(const netlist::FlatNetlist& flat,
                          const Floorplan& fp,
                          const QuadraticPlacerOptions& opts,
                          const NetDb& db) {
  Placement pl;
  pl.cells.resize(flat.size());
  for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
    pl.cells[static_cast<std::size_t>(i)].flat_index = i;
  }

  // Region assignment per cell.
  std::vector<const PlacedRegion*> region_of(flat.size(), nullptr);
  for (const PlacedRegion& r : fp.regions) {
    for (int m : r.spec.members) {
      region_of[static_cast<std::size_t>(m)] = &r;
    }
  }

  const auto springs = build_springs(db);

  // Initial positions: region centres with a small deterministic spread so
  // the Jacobi solve does not start degenerate.
  util::Rng rng(opts.seed);
  std::vector<double> x(flat.size()), y(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const PlacedRegion* r = region_of[i];
    const Point c = (r != nullptr) ? r->rect.center() : fp.die.center();
    const double rx = (r != nullptr) ? r->rect.w : fp.die.w;
    const double ry = (r != nullptr) ? r->rect.h : fp.die.h;
    x[i] = c.x + rng.uniform(-0.25, 0.25) * rx;
    y[i] = c.y + rng.uniform(-0.25, 0.25) * ry;
  }

  // Jacobi iterations: x_i = (sum w x_j + a cx) / (sum w + a).
  for (int iter = 0; iter < opts.solver_iterations; ++iter) {
    std::vector<double> nx = x, ny = y;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const PlacedRegion* r = region_of[i];
      const Point c = (r != nullptr) ? r->rect.center() : fp.die.center();
      double sw = 0, sx = 0, sy = 0;
      for (const Spring& s : springs[i]) {
        sw += s.weight;
        sx += s.weight * x[static_cast<std::size_t>(s.other)];
        sy += s.weight * y[static_cast<std::size_t>(s.other)];
      }
      const double a =
          std::max(1e-6, opts.anchor_weight * std::max(sw, 1.0));
      nx[i] = (sx + a * c.x) / (sw + a);
      ny[i] = (sy + a * c.y) / (sw + a);
      // Clamp into the region so legalization stays local.
      if (r != nullptr) {
        nx[i] = std::clamp(nx[i], r->rect.x, r->rect.x2());
        ny[i] = std::clamp(ny[i], r->rect.y, r->rect.y2());
      }
    }
    x.swap(nx);
    y.swap(ny);
  }

  // Legalization per region: order cells by (row estimate, x), then pack
  // rows left-to-right on the site grid.
  const double row_h = fp.row_height_m;
  const double site = fp.site_width_m;
  for (const PlacedRegion& r : fp.regions) {
    // Row slots.
    std::vector<double> row_y;
    double ry = fp.die.y +
                std::ceil((r.rect.y - fp.die.y) / row_h - 1e-9) * row_h;
    for (; ry + row_h <= r.rect.y2() + 1e-12; ry += row_h) {
      row_y.push_back(ry);
    }
    if (row_y.empty()) {
      pl.overflow = true;
      continue;
    }
    // Order members by solved y then x.
    std::vector<int> order = r.spec.members;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ya = y[static_cast<std::size_t>(a)];
      const double yb = y[static_cast<std::size_t>(b)];
      if (std::fabs(ya - yb) > row_h / 2) return ya < yb;
      return x[static_cast<std::size_t>(a)] < x[static_cast<std::size_t>(b)];
    });
    std::size_t row = 0;
    double cursor = r.rect.x;
    for (int idx : order) {
      const auto& cell = *flat[static_cast<std::size_t>(idx)].cell;
      const double w = std::ceil(cell.width_m / site - 1e-9) * site;
      if (cursor + w > r.rect.x2() + 1e-12 && cursor > r.rect.x) {
        ++row;
        cursor = r.rect.x;
        if (row >= row_y.size()) {
          row = row_y.size() - 1;
          cursor = r.rect.x2();
          pl.overflow = true;
        }
      }
      PlacedCell& pc = pl.cells[static_cast<std::size_t>(idx)];
      pc.rect = {cursor, row_y[row], w, row_h};
      pc.row = static_cast<int>(std::lround((row_y[row] - fp.die.y) / row_h));
      pc.region = r.spec.name;
      cursor += w;
    }
  }

  // Light HPWL swap refinement between equal-width cells of one region.
  if (opts.refine_passes > 0) {
    refine_equal_width_swaps(db, fp.regions, opts.refine_passes, rng, pl);
  }
  return pl;
}

}  // namespace vcoadc::synth
