#include "core/optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/driver_impl.h"
#include "core/flow.h"

namespace vcoadc::core {

OptimizeResult detail::optimize_impl(const ExecContext& ctx,
                                     const OptimizeTarget& target,
                                     const OptimizeOptions& opts) {
  OptimizeResult result;

  // Target/grid sanity: a malformed target would otherwise just produce a
  // grid of invalid candidates (or a division by zero in the fin choice).
  {
    std::vector<util::Diagnostic> diags;
    if (!(std::isfinite(target.bandwidth_hz) && target.bandwidth_hz > 0)) {
      diags.push_back(util::Diagnostic{
          util::Severity::kError, "optimize", "bandwidth_hz",
          "target bandwidth must be finite and positive"});
    }
    if (!std::isfinite(target.min_sndr_db) ||
        !std::isfinite(target.margin_db)) {
      diags.push_back(util::Diagnostic{util::Severity::kError, "optimize",
                                       "min_sndr_db/margin_db",
                                       "must be finite"});
    }
    if (opts.slice_choices.empty() || opts.osr_choices.empty()) {
      diags.push_back(util::Diagnostic{util::Severity::kError, "optimize",
                                       "choices",
                                       "candidate grid is empty"});
    }
    emit_diags(ctx, diags);
    if (has_errors(diags)) return result;
  }

  struct Candidate {
    int slices;
    double osr;
    double prior;  // power prior ~ slices * fs
  };
  std::vector<Candidate> candidates;
  for (int slices : opts.slice_choices) {
    for (double osr : opts.osr_choices) {
      const double fs = 2.0 * target.bandwidth_hz * osr;
      candidates.push_back({slices, osr, static_cast<double>(slices) * fs});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.prior != b.prior) return a.prior < b.prior;
              return a.slices < b.slices;
            });

  double best_power = 0;
  for (const Candidate& c : candidates) {
    AdcSpec spec = AdcSpec::paper_40nm();
    spec.node_nm = target.node_nm;
    spec.num_slices = c.slices;
    spec.bandwidth_hz = target.bandwidth_hz;
    spec.fs_hz = 2.0 * target.bandwidth_hz * c.osr;
    spec.seed = opts.seed;

    CandidateResult cr;
    cr.spec = spec;
    cr.valid = spec.validate().empty();
    if (cr.valid) {
      // Prune: the power prior grows monotonically within the sorted list
      // only approximately, so only skip when a met design was strictly
      // cheaper in prior terms than this candidate.
      Flow flow(ctx);
      SimulationOptions sim;
      sim.n_samples = opts.n_samples;
      sim.fin_target_hz = target.bandwidth_hz / 5.0;
      const auto run = flow.sim_run(spec, sim);
      if (run == nullptr) {
        // The flow refused the run (bad options / injected fault) and
        // already reported why; record the candidate as unevaluated.
        cr.valid = false;
        result.evaluated.push_back(std::move(cr));
        continue;
      }
      cr.sndr_db = run->sndr.sndr_db;
      cr.power_w = run->power.total_w();
      cr.meets = cr.sndr_db >= target.min_sndr_db + target.margin_db;
      if (cr.meets &&
          (!result.best.has_value() || cr.power_w < best_power)) {
        result.best = spec;
        best_power = cr.power_w;
        result.best_sndr_db = cr.sndr_db;
      }
    }
    result.evaluated.push_back(std::move(cr));
  }
  result.best_power_w = best_power;
  return result;
}

}  // namespace vcoadc::core
