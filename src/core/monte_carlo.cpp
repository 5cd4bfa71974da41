#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/driver_impl.h"
#include "core/flow.h"

namespace vcoadc::core {

double MonteCarloResult::yield(double spec_db) const {
  if (sndr_db.empty()) return 0.0;
  int pass = 0;
  for (double s : sndr_db) pass += (s >= spec_db);
  return static_cast<double>(pass) / static_cast<double>(sndr_db.size());
}

MonteCarloResult detail::monte_carlo_impl(const ExecContext& ctx,
                                          const AdcDesign& design,
                                          const MonteCarloOptions& opts) {
  MonteCarloResult result;
  if (opts.runs <= 0) return result;

  // Boundary checks before fanning out: a design that never built or
  // rejected simulation options would fail identically in every worker.
  if (!design.ok()) {
    emit_diag(ctx, util::Diagnostic{util::Severity::kError, "monte_carlo",
                                    "", "design was not built (invalid "
                                        "spec); no runs executed"});
    return result;
  }
  {
    const auto diags = validate_sim_options(opts.sim);
    emit_diags(ctx, diags);
    if (has_errors(diags)) return result;
  }

  // Draw i is a SimRun stage with seed seed0 + i: distinct seed, distinct
  // key, so the first batch populates the cache and a repeat batch is all
  // hits. A refused draw (only a fault plan can refuse one here, since the
  // options were validated above) contributes an explicit NaN rather than
  // crashing the batch.
  const std::size_t runs = static_cast<std::size_t>(opts.runs);
  result.sndr_db.assign(runs, std::numeric_limits<double>::quiet_NaN());
  result.batch = Flow(ctx).sim_run_lanes(
      design, runs, opts.batch_width,
      [&opts](std::size_t i) {
        SimulationOptions sim = opts.sim;
        sim.seed = opts.seed0 + i;
        return sim;
      },
      [&result](std::size_t i, const RunResult* run) {
        if (run != nullptr) result.sndr_db[i] = run->sndr.sndr_db;
      });

  const double n = static_cast<double>(result.sndr_db.size());
  double sum = 0, sum2 = 0;
  result.min_db = result.sndr_db.front();
  result.max_db = result.sndr_db.front();
  for (double s : result.sndr_db) {
    sum += s;
    sum2 += s * s;
    result.min_db = std::min(result.min_db, s);
    result.max_db = std::max(result.max_db, s);
  }
  result.mean_db = sum / n;
  result.stddev_db =
      std::sqrt(std::max(0.0, sum2 / n - result.mean_db * result.mean_db));
  return result;
}

std::vector<CornerResult> detail::corner_sweep_impl(const ExecContext& ctx,
                                                    const AdcDesign& design,
                                                    std::size_t n_samples,
                                                    int batch_width) {
  struct Corner {
    const char* name;
    PvtCorner pvt;
  };
  static constexpr Corner kCorners[] = {
      {"TT  1.00V  27C", {1.00, 1.00, 300.0}},
      {"FF  1.05V  -40C", {0.85, 1.05, 233.0}},
      {"SS  0.95V  125C", {1.20, 0.95, 398.0}},
      {"TT  0.90V  27C", {1.00, 0.90, 300.0}},
      {"TT  1.10V  27C", {1.00, 1.10, 300.0}},
      {"TT  1.00V  125C", {1.00, 1.00, 398.0}},
  };
  if (!design.ok()) {
    emit_diag(ctx, util::Diagnostic{util::Severity::kError, "corner_sweep",
                                    "", "design was not built (invalid "
                                        "spec); no corners evaluated"});
    return {};
  }

  // Corners differ only in PVT — a run-value change the batched engine
  // takes per lane — and keep the spec's own seed (sim.seed = 0 means "no
  // override"): a corner changes the operating point, not the draw.
  std::vector<CornerResult> out(std::size(kCorners));
  Flow(ctx).sim_run_lanes(
      design, out.size(), batch_width,
      [&design, n_samples](std::size_t i) {
        SimulationOptions sim;
        sim.n_samples = n_samples;
        sim.fin_target_hz = design.spec().bandwidth_hz / 5.0;
        sim.pvt = kCorners[i].pvt;
        return sim;
      },
      [&out](std::size_t i, const RunResult* run) {
        // A refused run (the flow already reported why) marks the corner
        // unusable.
        constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
        out[i].name = kCorners[i].name;
        out[i].pvt = kCorners[i].pvt;
        out[i].sndr_db = run != nullptr ? run->sndr.sndr_db : kNaN;
        out[i].power_w = run != nullptr ? run->power.total_w() : kNaN;
      });
  return out;
}

}  // namespace vcoadc::core
