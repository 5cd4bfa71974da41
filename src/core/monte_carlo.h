// Monte-Carlo mismatch analysis and PVT-corner evaluation.
//
// The paper argues the architecture is "robust against random mismatches"
// from a single post-layout run; a production generator must show it
// statistically. A Monte-Carlo request (core::evaluate, EvalKind::
// kMonteCarlo) re-draws every mismatch source (VCO stage delays, Kvco, DAC
// resistors, comparator offsets) per run and reports the SNDR distribution
// and the parametric yield against a target; a corner-sweep request
// (kCornerSweep) evaluates the classic PVT corner set.
//
// Both analyses run on the parallel evaluation engine (core::BatchRunner):
// run i always simulates with seed0 + i and results are ordered by run
// index, so the output is bit-identical regardless of the thread count.
// Mismatch draws and PVT corners only perturb the behavioral model, so the
// AdcDesign (cell library + netlist) is built once and shared read-only
// across workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/batch.h"

namespace vcoadc::core {

struct MonteCarloOptions {
  int runs = 20;
  /// Per-run simulation options (unified with AdcDesign::simulate). The
  /// seed field is overwritten per run with seed0 + i. Default capture
  /// length is shorter than a single run's: MC wants many draws, not one
  /// long spectrum.
  SimulationOptions sim = [] {
    SimulationOptions s;
    s.n_samples = 1 << 13;
    return s;
  }();
  std::uint64_t seed0 = 1000;  ///< run i uses seed0 + i
  /// SIMD lane width for the batched transient engine: 0 picks the host's
  /// preferred width (msim::BatchedModulator::preferred_width), 1 forces
  /// the scalar per-draw path, 2/4/8 force that lane width. Draws are cut
  /// into lane groups as Flow::sim_run_lanes does (7 draws at width 4:
  /// 4 + 2 + 1). Results are bit-identical across all settings — the lanes
  /// replay the scalar draw sequence exactly — so this knob trades nothing
  /// but wall time.
  int batch_width = 0;
};

struct MonteCarloResult {
  std::vector<double> sndr_db;  ///< one per run, ordered by run index
  double mean_db = 0;
  double stddev_db = 0;
  double min_db = 0;
  double max_db = 0;
  /// Engine instrumentation: wall/busy time, per-run wall time, worker
  /// utilization and queue depth for the batch that produced sndr_db.
  BatchStats batch;

  /// Fraction of runs meeting `spec_db`.
  double yield(double spec_db) const;
};

/// One corner of a corner-sweep request: the classic set (TT, FF, SS, plus
/// low/high voltage and hot/cold temperature), reported in that order.
struct CornerResult {
  std::string name;
  PvtCorner pvt;
  double sndr_db = 0;
  double power_w = 0;
};

}  // namespace vcoadc::core
