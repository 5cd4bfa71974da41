// Quadratic (force-directed) global placement with region-aware
// legalization - the analytical-placement counterpart to the serpentine
// packer in placer.cpp, and the style of engine the paper's citation [13]
// (hierarchical/analytical placement for analog circuits) builds on.
//
// Model: every signal net becomes a star of quadratic springs; every cell
// is weakly anchored to its power-domain region's centre so the solution
// stays region-local. The two axes decouple, each solved by Jacobi
// iterations on the graph Laplacian. Legalization then snaps cells into
// their region's rows preserving the global ordering.
#pragma once

#include "synth/floorplan.h"
#include "synth/placer.h"

namespace vcoadc::synth {

struct QuadraticPlacerOptions {
  int solver_iterations = 60;
  /// Anchor weight pulling each cell to its region centre, relative to the
  /// average net weight. Keeps disconnected cells placed and bounds drift.
  double anchor_weight = 0.05;
  /// Post-legalization HPWL swap refinement passes (reuses the detailed
  /// placer's refinement machinery semantics).
  int refine_passes = 2;
  std::uint64_t seed = 1;
};

/// Places every flat instance with quadratic global placement followed by
/// row legalization inside the floorplan regions.
Placement place_quadratic(const netlist::FlatNetlist& flat,
                          const Floorplan& fp,
                          const QuadraticPlacerOptions& opts = {});

/// As above, with a prebuilt net database over the same `flat` netlist.
Placement place_quadratic(const netlist::FlatNetlist& flat,
                          const Floorplan& fp,
                          const QuadraticPlacerOptions& opts,
                          const NetDb& db);

}  // namespace vcoadc::synth
