#include "synth/placer.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace vcoadc::synth {
namespace {

/// Net ids with >= 2 member cells; single-pin nets contribute nothing to
/// ordering or HPWL deltas.
std::vector<int> multi_pin_nets(const NetDb& db) {
  std::vector<int> ids;
  for (int n = 0; n < db.num_nets(); ++n) {
    if (db.members(n).size() >= 2) ids.push_back(n);
  }
  return ids;
}

/// Orders `members` by iterative barycenter over their shared nets.
///
/// Star model: instead of expanding each k-pin net into k(k-1) clique
/// neighbour entries, keep one per-net position sum S_n per pass; cell m's
/// neighbour sum over net n is S_n - pos[m] and its neighbour count is
/// |n|-1. Positions are integer ranks after every pass, so all sums are
/// exact in double arithmetic and the result is bit-identical to the old
/// clique expansion at O(pins) instead of O(pins^2) per pass.
std::vector<int> connectivity_order(const std::vector<int>& members,
                                    const NetDb& db,
                                    const std::vector<int>& multi,
                                    int passes) {
  const auto n_cells = static_cast<std::size_t>(db.num_cells());
  std::vector<double> pos(n_cells, 0.0);
  std::vector<char> in_region(n_cells, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto m = static_cast<std::size_t>(members[i]);
    pos[m] = static_cast<double>(i);
    in_region[m] = 1;
  }

  // Region-local member lists per net (only nets with >= 2 local members
  // pull on the ordering), plus each cell's list of those nets.
  std::vector<std::vector<int>> local;
  std::vector<std::vector<int>> cell_local(n_cells);
  for (int n : multi) {
    std::vector<int> lm;
    for (int c : db.members(n)) {
      if (in_region[static_cast<std::size_t>(c)]) lm.push_back(c);
    }
    if (lm.size() < 2) continue;
    const int li = static_cast<int>(local.size());
    for (int c : lm) cell_local[static_cast<std::size_t>(c)].push_back(li);
    local.push_back(std::move(lm));
  }

  std::vector<int> order = members;
  std::vector<double> net_sum(local.size(), 0.0);
  std::vector<double> next(n_cells, 0.0);
  for (int p = 0; p < passes; ++p) {
    for (std::size_t li = 0; li < local.size(); ++li) {
      double s = 0;
      for (int c : local[li]) s += pos[static_cast<std::size_t>(c)];
      net_sum[li] = s;
    }
    for (int m : order) {
      const auto mi = static_cast<std::size_t>(m);
      double s = 0, cnt = 0;
      for (int li : cell_local[mi]) {
        s += net_sum[static_cast<std::size_t>(li)] - pos[mi];
        cnt += static_cast<double>(local[static_cast<std::size_t>(li)].size() -
                                   1);
      }
      next[mi] = (cnt > 0) ? 0.5 * pos[mi] + 0.5 * s / cnt : pos[mi];
    }
    for (int m : order) {
      pos[static_cast<std::size_t>(m)] = next[static_cast<std::size_t>(m)];
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return pos[static_cast<std::size_t>(a)] <
             pos[static_cast<std::size_t>(b)];
    });
    for (std::size_t i = 0; i < order.size(); ++i) {
      pos[static_cast<std::size_t>(order[i])] = static_cast<double>(i);
    }
  }
  return order;
}

struct RegionRows {
  std::vector<double> row_y;  // absolute y of each row bottom
  double x0 = 0, x1 = 0;      // usable x span
};

RegionRows make_rows(const Rect& region, const Rect& die, double row_h) {
  RegionRows rows;
  rows.x0 = region.x;
  rows.x1 = region.x2();
  // Rows align to the global die row grid.
  double y = die.y + std::ceil((region.y - die.y) / row_h - 1e-9) * row_h;
  for (; y + row_h <= region.y2() + 1e-12; y += row_h) {
    rows.row_y.push_back(y);
  }
  return rows;
}

/// Packs `order` into a region's rows, serpentine. Returns overflow flag.
bool pack_region(const netlist::FlatNetlist& flat,
                 const PlacedRegion& region, const RegionRows& rows,
                 const std::vector<int>& order, const Floorplan& fp,
                 Placement& pl) {
  const double row_h = fp.row_height_m;
  const double site = fp.site_width_m;
  bool overflow = false;
  std::size_t row = 0;
  double cursor = rows.x0;
  std::vector<std::vector<int>> row_members(rows.row_y.size());
  for (int idx : order) {
    const auto& cell = *flat[static_cast<std::size_t>(idx)].cell;
    const double w = std::ceil(cell.width_m / site - 1e-9) * site;
    if (cursor + w > rows.x1 + 1e-12 && cursor > rows.x0) {
      ++row;
      cursor = rows.x0;
      if (row >= rows.row_y.size()) {
        row = rows.row_y.size() - 1;
        cursor = rows.x1;  // spill past the edge; DRC reports it
        overflow = true;
      }
    }
    PlacedCell& pc = pl.cells[static_cast<std::size_t>(idx)];
    pc.rect = {cursor, rows.row_y[row], w, row_h};
    pc.row =
        static_cast<int>(std::lround((rows.row_y[row] - fp.die.y) / row_h));
    pc.region = region.spec.name;
    cursor += w;
    row_members[row].push_back(idx);
  }
  // Mirror odd rows so consecutive order indices stay spatially adjacent.
  for (std::size_t r = 1; r < row_members.size(); r += 2) {
    for (int idx : row_members[r]) {
      PlacedCell& pc = pl.cells[static_cast<std::size_t>(idx)];
      const double mirrored = rows.x0 + (rows.x1 - pc.rect.x2());
      pc.rect.x = std::max(rows.x0, std::floor(mirrored / site + 0.5) * site);
    }
  }
  return overflow;
}

}  // namespace

bool is_supply_net(const std::string& net) {
  return netlist::is_supply_net(net);
}

double total_hpwl(const NetDb& db, const Placement& pl) {
  double total = 0;
  for (int n = 0; n < db.num_nets(); ++n) {
    BBox bb;
    for (int c : db.members(n)) {
      bb.expand(pl.cells[static_cast<std::size_t>(c)].rect.center());
    }
    total += bb.half_perimeter();
  }
  return total;
}

void refine_equal_width_swaps(const NetDb& db,
                              const std::vector<PlacedRegion>& regions,
                              int refine_passes, util::Rng& rng,
                              Placement& pl) {
  const auto n_nets = static_cast<std::size_t>(db.num_nets());
  auto center_of = [&](int c) {
    return pl.cells[static_cast<std::size_t>(c)].rect.center();
  };

  // Cached per-net bbox + HPWL for every multi-pin net; swaps update these
  // incrementally and the caches are restored on reject.
  std::vector<char> is_multi(n_nets, 0);
  std::vector<BBox> net_bb(n_nets);
  std::vector<double> net_hp(n_nets, 0.0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    if (db.members(static_cast<int>(n)).size() < 2) continue;
    is_multi[n] = 1;
    BBox bb;
    for (int c : db.members(static_cast<int>(n))) bb.expand(center_of(c));
    net_bb[n] = bb;
    net_hp[n] = bb.half_perimeter();
  }

  std::vector<int> in_affected(n_nets, -1);
  std::vector<int> is_shared(n_nets, -1);
  std::vector<int> affected;
  std::vector<std::pair<BBox, double>> saved;  // old cache of affected[i]
  int tick = 0;

  // Exact bbox of net n after member `moved` went old_c -> new_c: if the
  // old centre was strictly interior the extremes were attained elsewhere,
  // so expanding the cached bbox by the new centre is exact; otherwise the
  // moved cell may have defined an extreme and the members are rescanned.
  auto moved_bbox = [&](std::size_t n, Point old_c, Point new_c) {
    const BBox& bb = net_bb[n];
    if (old_c.x > bb.xmin && old_c.x < bb.xmax && old_c.y > bb.ymin &&
        old_c.y < bb.ymax) {
      BBox out = bb;
      out.expand(new_c);
      return out;
    }
    BBox out;
    for (int c : db.members(static_cast<int>(n))) out.expand(center_of(c));
    return out;
  };

  for (const PlacedRegion& region : regions) {
    const auto& members = region.spec.members;
    if (members.size() < 2) continue;
    const int tries = refine_passes * static_cast<int>(members.size());
    for (int t = 0; t < tries; ++t) {
      const int a = members[rng.below(members.size())];
      const int b = members[rng.below(members.size())];
      if (a == b) continue;
      PlacedCell& ca = pl.cells[static_cast<std::size_t>(a)];
      PlacedCell& cb = pl.cells[static_cast<std::size_t>(b)];
      if (std::fabs(ca.rect.w - cb.rect.w) > 1e-12) continue;

      // Affected nets in the historical cost order: a's nets, then b's
      // unshared nets, ascending id (= net-name order) within each group.
      ++tick;
      affected.clear();
      std::size_t a_count = 0;
      for (int n : db.nets_of(a)) {
        if (!is_multi[static_cast<std::size_t>(n)]) continue;
        in_affected[static_cast<std::size_t>(n)] = tick;
        affected.push_back(n);
      }
      a_count = affected.size();
      for (int n : db.nets_of(b)) {
        if (!is_multi[static_cast<std::size_t>(n)]) continue;
        if (in_affected[static_cast<std::size_t>(n)] == tick) {
          is_shared[static_cast<std::size_t>(n)] = tick;
        } else {
          affected.push_back(n);
        }
      }
      double before = 0;
      for (int n : affected) before += net_hp[static_cast<std::size_t>(n)];

      const Point a_old = ca.rect.center();
      const Point b_old = cb.rect.center();
      std::swap(ca.rect.x, cb.rect.x);
      std::swap(ca.rect.y, cb.rect.y);
      std::swap(ca.row, cb.row);

      // Shared nets keep an identical point multiset (equal-width cells in
      // equal-height rows trade centres exactly), so only unshared nets
      // change. Update their caches, remembering the old values.
      saved.clear();
      double after = 0;
      for (std::size_t k = 0; k < affected.size(); ++k) {
        const auto n = static_cast<std::size_t>(affected[k]);
        if (is_shared[n] == tick) {
          after += net_hp[n];
          continue;
        }
        const Point old_c = (k < a_count) ? a_old : b_old;
        const Point new_c = (k < a_count) ? b_old : a_old;
        saved.emplace_back(net_bb[n], net_hp[n]);
        net_bb[n] = moved_bbox(n, old_c, new_c);
        net_hp[n] = net_bb[n].half_perimeter();
        after += net_hp[n];
      }

      if (after > before) {
        std::swap(ca.rect.x, cb.rect.x);
        std::swap(ca.rect.y, cb.rect.y);
        std::swap(ca.row, cb.row);
        std::size_t s = 0;
        for (std::size_t k = 0; k < affected.size(); ++k) {
          const auto n = static_cast<std::size_t>(affected[k]);
          if (is_shared[n] == tick) continue;
          net_bb[n] = saved[s].first;
          net_hp[n] = saved[s].second;
          ++s;
        }
      }
    }
  }
}

Placement place(const netlist::FlatNetlist& flat,
                const Floorplan& fp, const PlacementOptions& opts) {
  const NetDb db(flat);
  return place(flat, fp, opts, db);
}

Placement place(const netlist::FlatNetlist& flat,
                const Floorplan& fp, const PlacementOptions& opts,
                const NetDb& db) {
  const std::vector<int> multi = multi_pin_nets(db);

  // Region list: either the real floorplan regions or one die-wide region
  // reproducing the naive (PD-oblivious) flow.
  std::vector<PlacedRegion> regions;
  if (opts.respect_regions) {
    regions = fp.regions;
  } else {
    PlacedRegion all;
    all.spec.name = "DIE";
    for (const PlacedRegion& r : fp.regions) {
      for (int m : r.spec.members) all.spec.members.push_back(m);
    }
    std::sort(all.spec.members.begin(), all.spec.members.end());
    all.rect = fp.die;
    regions.push_back(std::move(all));
  }

  auto pack_all = [&](bool use_barycenter) {
    Placement pl;
    pl.cells.resize(flat.size());
    for (int i = 0; i < static_cast<int>(flat.size()); ++i) {
      pl.cells[static_cast<std::size_t>(i)].flat_index = i;
    }
    for (const PlacedRegion& region : regions) {
      const RegionRows rows = make_rows(region.rect, fp.die, fp.row_height_m);
      if (rows.row_y.empty()) {
        pl.overflow = true;
        continue;
      }
      const std::vector<int> order =
          use_barycenter
              ? connectivity_order(region.spec.members, db, multi,
                                   opts.barycenter_passes)
              : region.spec.members;
      pl.overflow |= pack_region(flat, region, rows, order, fp, pl);
    }
    return pl;
  };

  // Pack with both orderings and keep the better starting point.
  Placement natural = pack_all(false);
  Placement pl = natural;
  if (opts.barycenter_passes > 0) {
    Placement bary = pack_all(true);
    if (total_hpwl(db, bary) < total_hpwl(db, natural)) {
      pl = std::move(bary);
    }
  }

  // Greedy HPWL-improving swaps within each region (equal-width cells only,
  // which keeps rows legal without repacking).
  if (opts.refine_passes > 0) {
    util::Rng rng(opts.seed);
    refine_equal_width_swaps(db, regions, opts.refine_passes, rng, pl);
  }
  return pl;
}

double total_hpwl(const netlist::FlatNetlist& flat,
                  const Placement& pl) {
  const NetDb db(flat);
  return total_hpwl(db, pl);
}

}  // namespace vcoadc::synth
