// Extension bench: the digital back end (Sec. 2.1's "low pass filtering and
// decimating in digital domain"). Shows the decimated output spectrum a
// downstream user consumes, the CIC droop compensation at work, and that
// the in-band SNDR survives decimation. A second phase runs the gate-level
// backend (emitted-HDL event simulation, DESIGN.md §3j) over a short
// capture and cross-checks its decoded+decimated stream against the
// behavioral engine, reporting in the BENCH_JSON line the replay's event
// throughput (the sign-off alone) and the cold stage's wall time.
#include <chrono>

#include "bench/bench_common.h"
#include "core/backend.h"
#include "core/sim_backend.h"
#include "dsp/signal_gen.h"
#include "dsp/spectrum.h"
#include "msim/modulator.h"
#include "util/ascii_plot.h"

using namespace vcoadc;

int main(int argc, char** argv) {
  const std::string json_out = bench::json_out_path(&argc, argv);
  bench::header("Extension - digital back end (CIC + droop comp + FIR)",
                "Sec. 2.1 decimation chain, end-to-end product view");

  const auto spec = core::AdcSpec::paper_40nm();
  const msim::SimConfig cfg = spec.to_sim_config();
  const std::size_t n_total = 1 << 17;
  const std::size_t n_half = n_total / 2;
  const double fin = dsp::coherent_freq(1e6, cfg.fs_hz, n_half);

  msim::VcoDsmModulator mod(cfg);
  const double amp = mod.full_scale_diff() * util::from_db_amplitude(-3.0);
  const auto res = mod.run(dsp::make_sine(amp, fin), n_total);

  const auto sp_mod = dsp::compute_spectrum(res.output, cfg.fs_hz, 1.0,
                                            dsp::WindowKind::kHann);
  const double sndr_mod =
      dsp::analyze_sndr(sp_mod, spec.bandwidth_hz, fin).sndr_db;

  core::DigitalBackend be(spec);
  std::printf("chain: CIC^3 /%d -> droop comp (%zu taps) -> FIR /4 "
              "(total /%d, output rate %s)\n",
              be.cic_rate(), be.compensator_taps().size(),
              be.total_decimation(),
              util::si_format(be.output_rate_hz(), "Hz").c_str());

  const auto dec = be.process(res.output);
  const std::size_t n_dec =
      n_half / static_cast<std::size_t>(be.total_decimation());
  std::vector<double> tail(dec.end() - static_cast<long>(n_dec), dec.end());
  const auto sp_dec = dsp::compute_spectrum(tail, be.output_rate_hz(), 1.0,
                                            dsp::WindowKind::kHann);
  const auto rep = dsp::analyze_sndr(sp_dec, spec.bandwidth_hz, fin);

  util::PlotOptions po;
  po.log_x = true;
  po.clamp_y = true;
  po.y_min = -130;
  po.y_max = 0;
  po.title = "decimated output spectrum [dBFS]";
  po.x_label = "frequency [Hz]";
  std::printf("\n%s", util::ascii_plot(sp_dec.freq_hz, sp_dec.dbfs, po).c_str());

  std::printf("SNDR: modulator domain %.1f dB -> decimated domain %.1f dB\n",
              sndr_mod, rep.sndr_db);

  bench::shape_check("decimation preserves in-band SNDR (within 3 dB)",
                     rep.sndr_db > sndr_mod - 3.0);
  bench::shape_check("output Nyquist covers the signal band",
                     be.output_rate_hz() / 2.0 > spec.bandwidth_hz);
  bench::shape_check("tone amplitude preserved (droop compensated)",
                     std::fabs(rep.fundamental_dbfs + 3.0) < 0.5);

  // --- gate-level cross-check phase ---------------------------------------
  // The same digital back end fed from the other engine: event-driven
  // simulation of the emitted Verilog must decode the identical stream.
  std::printf("\ngate-level backend cross-check (emitted HDL, event-driven):\n");
  core::AdcSpec gate_spec = spec;
  gate_spec.num_slices = 4;  // event sim cost scales with slices * samples
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 1 << 12;
  auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  // The cold stage: netlist, hdl_emit with its equivalence check, the
  // behavioral reference run and the sign-off.
  const auto t0 = std::chrono::steady_clock::now();
  const auto gate = flow.gate_sim(gate_spec, gopts);
  const double stage_s = seconds_since(t0);
  const bool identical = gate != nullptr && gate->matches_behavioral;
  // The replay rate times the sign-off alone, over the emitted design and
  // the reference run the stage left in the cache.
  double events_per_s = 0.0;
  if (gate != nullptr) {
    core::GateSimOptions o = gopts;
    o.sim.record_bits = true;  // the reference gate_sim replays
    const auto hdl = flow.hdl_emit(gate_spec);
    const auto ref = flow.sim_run(gate_spec, o.sim);
    if (hdl != nullptr && ref != nullptr) {
      o.top = hdl->parsed->top();
      std::vector<util::Diagnostic> diags;
      const auto t1 = std::chrono::steady_clock::now();
      const auto replay =
          core::run_gate_level_signoff(*hdl->parsed, gate_spec, *ref, o,
                                       &diags);
      const double replay_s = seconds_since(t1);
      if (replay != nullptr && replay_s > 0) {
        events_per_s = static_cast<double>(replay->transitions) / replay_s;
      }
    }
  }
  if (gate != nullptr) {
    std::printf("  %zu samples x %d slices, %llu gate events "
                "(%.0f events/s in the sign-off; cold stage %.3f s)\n",
                gate->n_samples, gate->num_slices,
                static_cast<unsigned long long>(gate->transitions),
                events_per_s, stage_s);
    std::printf("  ring period %.1f ps (predicted %.1f ps)\n",
                gate->ring_period_s * 1e12, gate->ring_period_pred_s * 1e12);
  }
  bench::shape_check("gate-level sign-off produced a result", gate != nullptr);
  bench::shape_check("gate-level decode bit-identical to behavioral",
                     identical);

  bench::emit_json(
      json_out,
      util::format("{\"bench\":\"extension_backend\","
                   "\"sndr_modulator_db\":%.2f,"
                   "\"sndr_decimated_db\":%.2f,"
                   "\"gate_sim_events_per_s\":%.0f,"
                   "\"gate_sim_stage_s\":%.4f,"
                   "\"gate_vs_behavioral_identical\":%s}",
                   sndr_mod, rep.sndr_db, events_per_s, stage_s,
                   identical ? "true" : "false"));
  return 0;
}
