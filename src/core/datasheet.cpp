#include "core/datasheet.h"

#include <limits>
#include <sstream>

#include "core/driver_impl.h"
#include "core/eval.h"
#include "core/flow.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/units.h"

namespace vcoadc::core {

Datasheet detail::datasheet_impl(const ExecContext& ctx, const AdcSpec& spec,
                                 const DatasheetOptions& opts) {
  Datasheet ds;
  ds.spec = spec;

  Flow flow(ctx);

  AdcDesign adc(spec, ctx);
  if (!adc.ok()) return ds;  // spec rejected; flow already reported why
  // The Route-stage artifact is shared, not cloned: the datasheet only
  // reads it, and a full_report() over the same spec reuses it for free.
  auto synth_res = flow.synthesis(spec);
  if (synth_res == nullptr || synth_res->layout == nullptr) {
    emit_diag(ctx, util::Diagnostic{util::Severity::kError, "datasheet", "",
                                    "synthesis produced no layout; "
                                    "datasheet incomplete"});
    return ds;
  }
  ds.layout = synth_res->stats;
  ds.drc = synth_res->drc;
  ds.routing = synth_res->detailed_routing;
  ds.area_mm2 = synth_res->stats.die_area_m2 * 1e6;

  {
    util::TraceSpan span(ctx.trace, "timing");
    synth::TimingOptions topts;
    topts.clock_period_s = 1.0 / spec.fs_hz;
    topts.placement = &synth_res->layout->placement();
    ds.timing = synth::analyze_timing(adc.netlist(), spec.tech_node(), topts);
  }

  {
    util::TraceSpan span(ctx.trace, "power_grid");
    const synth::PowerGrid grid =
        synth::generate_power_grid(synth_res->layout->floorplan());
    ds.power_grid = synth::check_power_grid(grid, synth_res->layout->flat(),
                                            synth_res->layout->placement(),
                                            synth_res->layout->floorplan());
  }

  SimulationOptions sim;
  sim.n_samples = opts.n_samples;
  sim.fin_target_hz = spec.bandwidth_hz / 5.0;
  sim.wire_cap_f = synth_res->routing.wire_cap_f;
  const auto nominal = flow.sim_run(adc, sim);
  if (nominal == nullptr) return ds;  // options rejected; already reported
  ds.nominal = *nominal;

  if (opts.amp_sweep_points > 0) {
    util::TraceSpan span(ctx.trace, "amp_sweep");
    // The sweep points differ from the nominal run only in drive level, so
    // they take the lane-batch path the MC draws and corners take. Each
    // point keeps its scalar sim_run() cache key (point 0 *is* the nominal
    // run and comes back warm).
    auto amplitude = [](std::size_t k) {
      return -3.0 - 6.0 * static_cast<double>(k);
    };
    ds.amp_sweep.resize(static_cast<std::size_t>(opts.amp_sweep_points));
    flow.sim_run_lanes(
        adc, ds.amp_sweep.size(), opts.batch_width,
        [&sim, &amplitude](std::size_t k) {
          SimulationOptions point = sim;
          point.amplitude_dbfs = amplitude(k);
          return point;
        },
        [&ds, &amplitude](std::size_t k, const RunResult* run) {
          constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
          AmplitudePoint& pt = ds.amp_sweep[k];
          pt.amplitude_dbfs = amplitude(k);
          pt.sndr_db = run != nullptr ? run->sndr.sndr_db : kNaN;
          pt.enob = run != nullptr ? run->sndr.enob : kNaN;
        });
  }

  if (opts.mc_runs > 0) {
    MonteCarloOptions mc;
    mc.runs = opts.mc_runs;
    mc.sim.n_samples = std::min<std::size_t>(opts.n_samples, 1 << 13);
    mc.sim.fin_target_hz = sim.fin_target_hz;
    // Reuse the design built above instead of reconstructing it per run;
    // calling the impl directly keeps this one evaluate() request.
    ds.mc = detail::monte_carlo_impl(ctx, adc, mc);
  }
  ds.complete = true;
  return ds;
}

Datasheet generate_datasheet(const AdcSpec& spec,
                             const DatasheetOptions& opts) {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = spec;
  req.datasheet = opts;
  return std::move(evaluate(req, opts.exec).datasheet);
}

std::string Datasheet::render() const {
  std::ostringstream os;
  const auto& run = nominal;
  os << "=====================================================\n";
  os << " vcoadc synthesis-friendly VCO-based delta-sigma ADC\n";
  os << "=====================================================\n";
  os << "design point : " << spec.describe() << "\n";
  os << "input range  : " << util::si_format(run.full_scale_v, "V")
     << " differential (FS)\n\n";

  os << "-- dynamic performance (behavioral, post-layout wire load) --\n";
  os << util::format("  SNDR            %.1f dB (tone at %s, %.1f dBFS)\n",
                     run.sndr.sndr_db,
                     util::si_format(run.fin_hz, "Hz").c_str(),
                     run.sndr.fundamental_dbfs);
  os << util::format("  SNR / SFDR      %.1f / %.1f dB\n", run.sndr.snr_db,
                     run.sndr.sfdr_db);
  os << util::format("  ENOB            %.2f bits\n", run.sndr.enob);
  os << util::format("  noise shaping   %.1f dB/dec\n",
                     run.shaping.db_per_decade);
  if (!mc.sndr_db.empty()) {
    os << util::format("  SNDR (MC, n=%zu) %.1f .. %.1f dB (sigma %.2f)\n",
                       mc.sndr_db.size(), mc.min_db, mc.max_db, mc.stddev_db);
  }
  if (!amp_sweep.empty()) {
    os << "\n-- SNDR vs input amplitude --\n";
    for (const AmplitudePoint& pt : amp_sweep) {
      os << util::format("  %+7.1f dBFS    %.1f dB SNDR (%.2f ENOB)\n",
                         pt.amplitude_dbfs, pt.sndr_db, pt.enob);
    }
  }

  os << "\n-- power --\n";
  os << util::format("  total           %s (digital %.0f%%, analog %.0f%%)\n",
                     util::si_format(run.power.total_w(), "W").c_str(),
                     run.power.digital_fraction() * 100,
                     (1 - run.power.digital_fraction()) * 100);
  os << util::format("  Walden FOM      %.0f fJ/conv-step\n", run.fom_fj);

  os << "\n-- physical (automatically synthesized layout) --\n";
  os << util::format("  die area        %.4f mm^2 (%d cells, %d regions)\n",
                     area_mm2, layout.num_cells, layout.num_regions);
  os << util::format("  routing         %.1f um wire, %d vias, %d overflows\n",
                     routing.total_wirelength_m * 1e6, routing.total_vias,
                     routing.overflowed_edges);
  os << util::format("  DRC             %zu violations\n",
                     drc.violations.size());
  os << util::format("  power grid      %s (max IR drop %.2f mV)\n",
                     power_grid.clean() ? "clean" : "VIOLATIONS",
                     power_grid.max_ir_drop_v * 1e3);

  os << "\n-- timing --\n";
  os << util::format("  critical path   %.1f ps (%d loops cut)\n",
                     timing.critical_delay_s * 1e12, timing.loops_cut);
  os << util::format("  slack @ fs      %+.1f ps (max clock %.2f GHz)\n",
                     timing.slack_s * 1e12, timing.max_clock_hz / 1e9);
  return os.str();
}

}  // namespace vcoadc::core
