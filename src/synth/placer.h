// Row-based detailed placement with power-domain region constraints.
//
// This is the APR stage of Fig. 9, restricted to what the paper's circuit
// needs: every cell is placed in a standard-cell row *inside its power
// domain's (or component group's) region*, so that P/G rails never short
// across domains (the Sec. 3.3 failure mode of naive digital APR).
//
// Pipeline per region:
//   1. connectivity ordering   - iterative barycenter passes on a 1-D
//                                ordering of the region's cells
//   2. serpentine row packing  - fills the region's rows boustrophedon so
//                                neighbours in the ordering stay adjacent
//   3. greedy swap refinement  - HPWL-improving pairwise swaps
//
// A `respect_regions = false` mode reproduces the oversimplified prior flow
// (everything in one die-wide region); the DRC then reports the rail-short
// violations, which is the paper's argument for PD-aware synthesis.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "synth/floorplan.h"
#include "synth/net_db.h"

namespace vcoadc::util {
class Rng;
}

namespace vcoadc::synth {

struct PlacedCell {
  int flat_index = -1;  ///< index of the cell in the flat netlist
  Rect rect;
  int row = -1;               ///< global row index on the die row grid
  std::string region;         ///< region the cell was assigned to
};

struct PlacementOptions {
  bool respect_regions = true;
  int barycenter_passes = 6;
  int refine_passes = 3;
  std::uint64_t seed = 1;
};

struct Placement {
  std::vector<PlacedCell> cells;  ///< one per flat instance, same order
  bool overflow = false;  ///< true if some region could not hold its cells
};

/// Places every flat cell. The floorplan's RegionSpec member indices must
/// be cell indices of `flat`.
Placement place(const netlist::FlatNetlist& flat,
                const Floorplan& fp, const PlacementOptions& opts);

/// As above, with a prebuilt net database over the same `flat` netlist (the
/// flow builds one NetDb and shares it across all stages).
Placement place(const netlist::FlatNetlist& flat,
                const Floorplan& fp, const PlacementOptions& opts,
                const NetDb& db);

/// Total half-perimeter wirelength of all signal nets for a placement.
/// Supply-class nets (VDD/VSS/VREFP/VCTRL*/VBUF and their hierarchical
/// aliases) are excluded - they route as rails/meshes, not signal wires.
double total_hpwl(const netlist::FlatNetlist& flat,
                  const Placement& pl);

/// The one HPWL definition every stage shares: for each signal net, the
/// half-perimeter of the bounding box of its member-cell centres, summed
/// over all nets (single-pin nets contribute exactly 0).
double total_hpwl(const NetDb& db, const Placement& pl);

/// Greedy HPWL-improving swap refinement between equal-width cells of the
/// same region, shared by both placement engines. Evaluates each candidate
/// swap incrementally against cached per-net bounding boxes; accept/reject
/// decisions (and therefore the final placement) are bit-identical to
/// recomputing every touched net from scratch. Consumes `rng` exactly as
/// the historical in-placer loop did.
void refine_equal_width_swaps(const NetDb& db,
                              const std::vector<PlacedRegion>& regions,
                              int refine_passes, util::Rng& rng,
                              Placement& pl);

/// True if `net` is distributed as a supply (rail/mesh) rather than routed
/// as a signal wire.
bool is_supply_net(const std::string& net);

}  // namespace vcoadc::synth
