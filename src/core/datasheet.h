// Datasheet generation: one request (core::evaluate, EvalKind::kDatasheet)
// that takes an AdcSpec through simulation, synthesis, timing, power-grid
// signoff and (optionally) Monte Carlo, and renders the numbers a part's
// front page would carry. This is the "product view" of the generator -
// what a downstream user reads before instantiating the ADC in their SoC.
#pragma once

#include <string>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/monte_carlo.h"
#include "synth/power_grid.h"
#include "synth/sta.h"

namespace vcoadc::core {

struct DatasheetOptions {
  std::size_t n_samples = 1 << 15;
  /// Monte-Carlo runs for the min/max SNDR lines; 0 disables.
  int mc_runs = 0;
  /// Points for the SNDR-vs-amplitude sweep (the dynamic-range curve a
  /// datasheet's "SNDR vs input level" plot carries); 0 disables. Point k
  /// drives the input at -3 - 6k dBFS, so the first point coincides with
  /// the nominal run and is served from the cache.
  int amp_sweep_points = 0;
  /// SIMD lane width for the amplitude sweep's batched lane groups, the
  /// MonteCarloOptions convention: 0 = host-preferred, 1 = scalar per-point
  /// stages, 2/4/8 = forced width. Bit-identical at every setting.
  int batch_width = 0;
};

/// One point of the SNDR-vs-amplitude curve.
struct AmplitudePoint {
  double amplitude_dbfs = 0;
  double sndr_db = 0;
  double enob = 0;
};

struct Datasheet {
  AdcSpec spec;
  RunResult nominal;
  synth::LayoutStats layout;
  synth::DrcReport drc;
  synth::MazeRouteResult routing;
  synth::TimingReport timing;
  synth::PowerGridCheck power_grid;
  MonteCarloResult mc;  ///< empty when mc_runs == 0
  std::vector<AmplitudePoint> amp_sweep;  ///< empty when amp_sweep_points == 0
  double area_mm2 = 0;
  /// True when every stage completed. False means a stage rejected its
  /// input: diagnostics were reported through the ExecContext and the
  /// unreached sections are default-constructed.
  bool complete = false;

  /// Renders the datasheet as a text document.
  std::string render() const;
};

}  // namespace vcoadc::core
