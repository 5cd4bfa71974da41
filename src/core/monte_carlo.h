// Monte-Carlo mismatch analysis and PVT-corner evaluation.
//
// The paper argues the architecture is "robust against random mismatches"
// from a single post-layout run; a production generator must show it
// statistically. monte_carlo_sndr re-draws every mismatch source (VCO
// stage delays, Kvco, DAC resistors, comparator offsets) per run and
// reports the SNDR distribution and the parametric yield against a target.
//
// Both analyses run on the parallel evaluation engine (core::BatchRunner):
// run i always simulates with seed0 + i and results are ordered by run
// index, so the output is bit-identical regardless of the thread count.
// Mismatch draws and PVT corners only perturb the behavioral model, so the
// AdcDesign (cell library + netlist) is built once and shared read-only
// across workers — callers that already hold a design use the AdcDesign
// overloads and skip the rebuild entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/batch.h"
#include "core/exec_context.h"

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
  /// Execution environment (worker threads, trace sink, artifact cache);
  /// every draw runs as a SimRun stage of the flow graph, so a repeated
  /// batch over the same spec is served from the cache.
  ExecContext exec;
  std::uint64_t seed0 = 1000;  ///< run i uses seed0 + i
  /// SIMD lane width for the batched transient engine: 0 picks the host's
  /// preferred width (util::simd::active_width), 1 forces the scalar
  /// per-draw path, 2/4/8 force that lane width. Draws are cut into lane
  /// groups as Flow::sim_run_lanes does (7 draws at width 4: 4 + 2 + 1).
  /// Results are bit-identical across all settings — the lanes replay the
  /// scalar draw sequence exactly — so this knob trades nothing but wall
  /// time.
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

/// Runs `opts.runs` simulations of an already-built design with independent
/// mismatch draws (seed of run i = seed0 + i), fanned across the engine.
/// Thin shim over core::evaluate(EvalKind::kMonteCarlo) — the design's
/// stages are cache-shared, so re-deriving them from its spec is free.
MonteCarloResult monte_carlo_sndr(const AdcDesign& design,
                                  const MonteCarloOptions& opts = {});

/// Spec-shaped shim over the same evaluate() entry point.
MonteCarloResult monte_carlo_sndr(const AdcSpec& spec,
                                  const MonteCarloOptions& opts = {});

struct CornerResult {
  std::string name;
  PvtCorner pvt;
  double sndr_db = 0;
  double power_w = 0;
};

/// Evaluates the classic corner set (TT, FF, SS, plus low/high voltage and
/// hot/cold temperature) on an already-built design, corners fanned across
/// the engine as SimRun stages of the flow graph. Results are ordered by
/// the canonical corner table. All three signatures are thin shims over
/// core::evaluate(EvalKind::kCornerSweep); they differ only in where the
/// ExecContext comes from (explicit, the design's own, or a default).
std::vector<CornerResult> corner_sweep(const AdcDesign& design,
                                       const ExecContext& exec,
                                       std::size_t n_samples = 1 << 13);

std::vector<CornerResult> corner_sweep(const AdcDesign& design,
                                       std::size_t n_samples = 1 << 13);

std::vector<CornerResult> corner_sweep(const AdcSpec& spec,
                                       std::size_t n_samples = 1 << 13);

}  // namespace vcoadc::core
