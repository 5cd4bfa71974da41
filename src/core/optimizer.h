// Specification-driven design optimization - the generator workflow the
// paper's Sec. 2.2 sketches by hand ("easy adaptations to different
// specifications as long as they are within the ADC performance boundary
// in a given process"), automated: given a target SNDR in a target
// bandwidth at a node, search the (slices, fs, loop gain) space for the
// minimum-power spec that meets it, honoring AdcSpec::validate()'s
// realizability rules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/adc_spec.h"

namespace vcoadc::core {

struct OptimizeTarget {
  double node_nm = 40;
  double min_sndr_db = 60.0;
  double bandwidth_hz = 2e6;
  /// Margin added to the target during search so the pick survives
  /// mismatch draws (see MonteCarlo sigma ~1 dB).
  double margin_db = 1.0;
};

struct OptimizeOptions {
  std::vector<int> slice_choices{4, 8, 12, 16, 24, 32};
  std::vector<double> osr_choices{32, 50, 75, 100, 150};
  std::size_t n_samples = 1 << 13;
  std::uint64_t seed = 1;
};

struct CandidateResult {
  AdcSpec spec;
  double sndr_db = 0;
  double power_w = 0;
  bool meets = false;
  bool valid = false;  ///< passed AdcSpec::validate()
};

/// Result of an optimize request (core::evaluate, EvalKind::kOptimize): an
/// exhaustive search over the candidate grid with early pruning.
/// Candidates are ordered by a power prior (slices * fs) and a candidate is
/// skipped once a cheaper design already met the target. Every candidate
/// evaluation is a SimRun stage, so a re-search over an overlapping grid
/// reuses cached runs.
struct OptimizeResult {
  std::optional<AdcSpec> best;   ///< empty when nothing met the target
  double best_power_w = 0;
  double best_sndr_db = 0;
  std::vector<CandidateResult> evaluated;  ///< full search trace
};

}  // namespace vcoadc::core
