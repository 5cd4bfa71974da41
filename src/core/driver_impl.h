// Internal seam between core::evaluate() and the driver bodies it
// dispatches to. Each body takes the authoritative ExecContext explicitly
// and reaches its stages through core::Flow; the single-stage request
// kinds (synthesize, migrate, hdl_emit, gate_sim) call Flow directly from
// evaluate(). Not installed API: only eval.cpp and the driver translation
// units include this, and none of them includes eval.h back, so
// dependencies run one way: eval.cpp -> these bodies -> Flow.
#pragma once

#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "core/optimizer.h"

namespace vcoadc::core::detail {

/// Monte-Carlo draws over an already-built design (EvalKind::kMonteCarlo).
MonteCarloResult monte_carlo_impl(const ExecContext& ctx,
                                  const AdcDesign& design,
                                  const MonteCarloOptions& opts);

/// PVT corner sweep over an already-built design (EvalKind::kCornerSweep).
/// `batch_width` follows the MonteCarloOptions convention: 0 = host-
/// preferred SIMD lane width, 1 = scalar per-corner stages, 2/4/8 = forced
/// width; corners run through Flow::sim_run_lanes (results bit-identical
/// at every setting).
std::vector<CornerResult> corner_sweep_impl(const ExecContext& ctx,
                                            const AdcDesign& design,
                                            std::size_t n_samples,
                                            int batch_width);

/// The full datasheet flow for a spec (EvalKind::kDatasheet).
Datasheet datasheet_impl(const ExecContext& ctx, const AdcSpec& spec,
                         const DatasheetOptions& opts);

/// Minimum-power spec search (EvalKind::kOptimize).
OptimizeResult optimize_impl(const ExecContext& ctx,
                             const OptimizeTarget& target,
                             const OptimizeOptions& opts);

}  // namespace vcoadc::core::detail
