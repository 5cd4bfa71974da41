// Design-space exploration for an IoT sensor-node ADC.
//
// Scenario (the paper's motivating application class, Sec. 1: "ultra-low-
// power ... ADCs ... in increasingly high demand by IoT, WSN, biomedical
// implants"): we need >= 60 dB SNDR in a 2 MHz band at 40 nm, minimum
// power. The architecture's knobs (slices, clock) trade resolution against
// power; this example sweeps them and picks the cheapest point meeting the
// target - exactly the "easy adaptation to different specifications"
// workflow of Sec. 2.2.
//
// The sweep points are independent, so they fan out across the parallel
// evaluation engine (core::BatchRunner); results come back ordered by grid
// index, so the table and the selected design are identical at any thread
// count.
#include <cstdio>
#include <iostream>
#include <limits>
#include <vector>

#include "core/adc.h"
#include "core/batch.h"
#include "core/eval.h"
#include "core/flow.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace vcoadc;
  constexpr double kTargetSndrDb = 60.0;
  constexpr double kBandwidthHz = 2e6;

  std::printf("goal: >= %.0f dB SNDR in %.0f MHz at 40 nm, minimum power\n\n",
              kTargetSndrDb, kBandwidthHz / 1e6);

  std::vector<core::AdcSpec> grid;
  for (int slices : {4, 8, 16}) {
    for (double fs : {150e6, 300e6, 600e6}) {
      core::AdcSpec spec = core::AdcSpec::paper_40nm();
      spec.num_slices = slices;
      spec.fs_hz = fs;
      spec.bandwidth_hz = kBandwidthHz;
      grid.push_back(spec);
    }
  }

  // Every sweep point runs as a SimRun stage of the flow graph: points
  // sharing a netlist (same slices, different clock) build it once, and a
  // re-run of the explorer is served from the artifact cache.
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::BatchRunner runner(ctx);  // threads = hardware concurrency
  const auto evals =
      runner.map(grid.size(), [&](std::size_t i, std::uint64_t) {
        core::SimulationOptions opts;
        opts.n_samples = 1 << 14;
        opts.fin_target_hz = kBandwidthHz / 5.0;
        return *flow.sim_run(grid[i], opts);
      });
  const core::BatchStats& stats = runner.last_stats();

  util::Table t("design space sweep");
  t.set_header({"slices", "fs [MHz]", "OSR", "SNDR [dB]", "power [mW]",
                "FOM [fJ/conv]", "meets spec"});

  core::AdcSpec best;
  double best_power = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::AdcSpec& spec = grid[i];
    const core::RunResult& res = evals[i];
    const bool ok = res.sndr.sndr_db >= kTargetSndrDb;
    t.add_row({std::to_string(spec.num_slices),
               util::fixed_format(spec.fs_hz / 1e6, 0),
               util::fixed_format(spec.osr(), 0),
               util::fixed_format(res.sndr.sndr_db, 1),
               util::fixed_format(res.power.total_w() * 1e3, 3),
               util::fixed_format(res.fom_fj, 0), ok ? "yes" : "no"});
    if (ok && res.power.total_w() < best_power) {
      best_power = res.power.total_w();
      best = spec;
      found = true;
    }
  }
  t.print(std::cout);
  std::printf("\nswept %zu points in %.2f s on %d threads "
              "(utilization %.0f%%)\n",
              grid.size(), stats.wall_s, stats.threads,
              stats.utilization * 100.0);

  if (found) {
    std::printf("\nselected design: %s\n", best.describe().c_str());
    std::printf("power: %s\n", util::si_format(best_power, "W").c_str());
    // Hand the winner to the synthesis flow.
    const auto layout = flow.synthesis(best);
    std::printf("synthesized: %.4f mm^2, DRC %s\n",
                layout->stats.die_area_m2 * 1e6,
                layout->drc.clean() ? "clean" : "VIOLATIONS");
  } else {
    std::printf("\nno design point met the spec - widen the sweep.\n");
  }

  // The same search, via the library's optimizer (with realizability
  // pruning and a mismatch margin baked in).
  core::EvalRequest req;
  req.kind = core::EvalKind::kOptimize;
  req.optimize_target.min_sndr_db = kTargetSndrDb;
  req.optimize_target.bandwidth_hz = kBandwidthHz;
  req.optimize.n_samples = 1 << 13;
  const auto opt = core::evaluate(req, ctx).optimize;
  if (opt.best.has_value()) {
    std::printf("\noptimizer pick: %s -> %.1f dB at %s "
                "(%zu candidates evaluated)\n",
                opt.best->describe().c_str(), opt.best_sndr_db,
                util::si_format(opt.best_power_w, "W").c_str(),
                opt.evaluated.size());
  }
  return 0;
}
