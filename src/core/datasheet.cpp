#include "core/datasheet.h"

#include <atomic>
#include <future>
#include <limits>
#include <sstream>

#include "core/driver_impl.h"
#include "core/flow.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/units.h"

namespace vcoadc::core {

namespace {

/// The one process-wide thread that runs datasheets' early nominal runs,
/// created on first use. A thread per datasheet would pay, per request,
/// for a fresh malloc arena and fresh thread-local FFT plans and
/// simulation scratch.
util::ThreadPool& early_run_worker() {
  static util::ThreadPool worker(1);
  return worker;
}

/// A cold datasheet's nominal sim_run, started from the route stage's
/// routing estimate (the wire load is all it needs from layout) so that it
/// simulates beside the maze router. Whichever thread claims the run
/// first executes it: the worker, or the datasheet itself when it needs
/// the result before the worker got to it. A datasheet therefore never
/// waits behind another request's queued run. The task touches the flow
/// and the design only after a won claim, and a datasheet that lost the
/// claim waits for the result before its frame ends.
class EarlyNominalRun {
 public:
  EarlyNominalRun(Flow& flow, const AdcDesign& adc) : flow_(flow), adc_(adc) {}
  EarlyNominalRun(const EarlyNominalRun&) = delete;
  EarlyNominalRun& operator=(const EarlyNominalRun&) = delete;

  /// A return path that never took the run still claims it, or waits for
  /// the worker that claimed it first.
  ~EarlyNominalRun() {
    if (state_ != nullptr && state_->claimed.exchange(true)) {
      state_->done.get_future().wait();
    }
  }

  /// The route-stage callback: queues the run of `sim` on the worker, or
  /// runs it here when the context is the serial reference (threads 1).
  void start(const SimulationOptions& sim) {
    sim_ = sim;
    state_ = std::make_shared<State>();
    auto task = [this, state = state_] {
      if (state->claimed.exchange(true)) return;  // the datasheet took it
      try {
        state->done.set_value(run());
      } catch (...) {
        state->done.set_exception(std::current_exception());
      }
    };
    if (flow_.ctx().threads == 1) {
      task();
    } else {
      early_run_worker().submit(std::move(task));
    }
  }

  bool started() const { return state_ != nullptr; }

  /// The run's result, once started(): run here if the worker has not
  /// claimed it, else the worker's result (or exception).
  std::shared_ptr<const RunResult> take() {
    const std::shared_ptr<State> state = std::move(state_);
    if (!state->claimed.exchange(true)) return run();
    return state->done.get_future().get();
  }

 private:
  struct State {
    std::atomic<bool> claimed{false};
    std::promise<std::shared_ptr<const RunResult>> done;
  };

  std::shared_ptr<const RunResult> run() { return flow_.sim_run(adc_, sim_); }

  Flow& flow_;
  const AdcDesign& adc_;
  SimulationOptions sim_;
  std::shared_ptr<State> state_;
};

}  // namespace

Datasheet detail::datasheet_impl(const ExecContext& ctx, const AdcSpec& spec,
                                 const DatasheetOptions& opts) {
  Datasheet ds;
  ds.spec = spec;

  Flow flow(ctx);

  AdcDesign adc(spec, ctx);
  if (!adc.ok()) return ds;  // spec rejected; flow already reported why
  SimulationOptions sim;
  sim.n_samples = opts.n_samples;
  sim.fin_target_hz = spec.bandwidth_hz / 5.0;
  // A cold route hands over its estimated wire load (the value
  // synth_res->routing holds afterwards, so the run's key and bits are the
  // same) before its maze route starts; a warm route never calls back.
  EarlyNominalRun early(flow, adc);
  // The Route-stage artifact is shared, not cloned: the datasheet only
  // reads it, and a Flow::report() over the same spec reuses it for free.
  auto synth_res =
      flow.synthesis(spec, {}, [&](const synth::RoutingEstimate& est) {
        SimulationOptions with_wire = sim;
        with_wire.wire_cap_f = est.wire_cap_f;
        early.start(with_wire);
      });
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

  const auto timing = flow.timing(spec);
  const auto power_grid = flow.power_grid(spec);
  // A refused stage already reported why.
  if (timing == nullptr || power_grid == nullptr) return ds;
  ds.timing = *timing;
  ds.power_grid = *power_grid;

  sim.wire_cap_f = synth_res->routing.wire_cap_f;
  const auto nominal = early.started() ? early.take() : flow.sim_run(adc, sim);
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
    std::atomic<bool> refused{false};
    flow.sim_run_lanes(
        adc, ds.amp_sweep.size(), opts.batch_width,
        [&sim, &amplitude](std::size_t k) {
          SimulationOptions point = sim;
          point.amplitude_dbfs = amplitude(k);
          return point;
        },
        [&ds, &amplitude, &refused](std::size_t k, const RunResult* run) {
          constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
          AmplitudePoint& pt = ds.amp_sweep[k];
          pt.amplitude_dbfs = amplitude(k);
          pt.sndr_db = run != nullptr ? run->sndr.sndr_db : kNaN;
          pt.enob = run != nullptr ? run->sndr.enob : kNaN;
          if (run == nullptr) refused = true;
        });
    // A refused point already reported why; the sweep is incomplete.
    if (refused) return ds;
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
