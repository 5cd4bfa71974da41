// Internal seam between core::evaluate() and the driver bodies.
//
// The public driver functions (monte_carlo_sndr, corner_sweep,
// generate_datasheet, optimize_spec, Flow::migrate) are thin wrappers over
// evaluate(); the actual work lives in these detail:: functions, which
// take the authoritative ExecContext explicitly — no per-options exec
// copies, no deprecated thread forwarders. Not installed API: only eval.cpp
// and the driver translation units include this.
#pragma once

#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "core/optimizer.h"

namespace vcoadc::core::detail {

/// Body of monte_carlo_sndr; `opts.exec` is ignored in favor of `ctx`.
MonteCarloResult monte_carlo_impl(const ExecContext& ctx,
                                  const AdcDesign& design,
                                  const MonteCarloOptions& opts);

/// Body of corner_sweep over an already-built design. `batch_width`
/// follows the MonteCarloOptions convention: 0 = host-preferred SIMD lane
/// width, 1 = scalar per-corner stages, 2/4/8 = forced width; corners run
/// through Flow::sim_run_lanes (results bit-identical at every setting).
std::vector<CornerResult> corner_sweep_impl(const ExecContext& ctx,
                                            const AdcDesign& design,
                                            std::size_t n_samples,
                                            int batch_width);

/// Body of generate_datasheet; `opts.exec` is ignored in favor of `ctx`.
Datasheet datasheet_impl(const ExecContext& ctx, const AdcSpec& spec,
                         const DatasheetOptions& opts);

/// Body of optimize_spec; `opts.exec` is ignored in favor of `ctx`.
OptimizeResult optimize_impl(const ExecContext& ctx,
                             const OptimizeTarget& target,
                             const OptimizeOptions& opts);

/// Body of Flow::migrate (defined in flow.cpp with the other stages).
MigratedDesign migrate_impl(const ExecContext& ctx, const AdcSpec& src_spec,
                            double target_node_nm);

}  // namespace vcoadc::core::detail
