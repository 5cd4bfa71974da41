#include "core/adc.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/flow.h"
#include "dsp/signal_gen.h"
#include "util/units.h"

namespace vcoadc::core {

namespace {

/// Everything downstream of the modulator run: spectrum, SNDR, shaping
/// slope, idle tones, power, FOM. Shared verbatim by the scalar and the
/// batched simulation paths so their RunResults cannot drift apart.
void analyze_run(const AdcSpec& sp, const msim::SimConfig& cfg,
                 const SimulationOptions& opts,
                 const netlist::Design& design, RunResult& res) {
  res.spectrum = dsp::compute_spectrum(res.mod.output, cfg.fs_hz, 1.0,
                                       dsp::WindowKind::kHann);
  res.sndr = dsp::analyze_sndr(res.spectrum, sp.bandwidth_hz, res.fin_hz);
  // Shaping slope fitted from just above the band edge to fs/4.
  res.shaping = dsp::fit_noise_slope(res.spectrum, sp.bandwidth_hz * 1.2,
                                     cfg.fs_hz / 4.0);
  res.idle_tones = dsp::find_idle_tones(res.spectrum, res.sndr,
                                        res.fin_hz * 3.0,
                                        sp.bandwidth_hz, 12.0);

  PowerModelOptions popts;
  popts.wire_cap_f = opts.wire_cap_f;
  res.power = estimate_power(sp, design, res.mod, popts);
  res.fom_fj = util::walden_fom_fj(res.power.total_w(), res.sndr.sndr_db,
                                   sp.bandwidth_hz);
}

}  // namespace

AdcDesign::AdcDesign(const AdcSpec& spec) : AdcDesign(spec, ExecContext{}) {}

AdcDesign::AdcDesign(const AdcSpec& spec, const ExecContext& ctx)
    : spec_(spec), ctx_(ctx) {
  // TechLibrary + Netlist stages, shared through the context's cache: two
  // designs of the same spec (or a batch rebuilt per worker) resolve to
  // the same artifacts. The Flow validates the spec at the boundary; on
  // rejection it reports diagnostics through the context and returns an
  // empty bundle, leaving this design unbuilt (ok() == false).
  DesignBundle bundle = Flow(ctx_).netlist(spec_);
  lib_ = std::move(bundle.lib);
  design_ = std::move(bundle.design);
}

RunResult AdcDesign::simulate(const SimulationOptions& opts) const {
  msim::SimWorkspace ws;
  return simulate(opts, ws);
}

RunResult AdcDesign::simulate(const SimulationOptions& opts,
                              msim::SimWorkspace& ws) const {
  RunResult res;
  if (!ok()) {
    emit_diag(ctx_, util::Diagnostic{util::Severity::kError, "sim_run", "",
                                     "design was not built (invalid spec)"});
    return res;
  }
  // Per-run overrides: seed and PVT only influence the behavioral model and
  // the power estimate, never the netlist, so applying them here is exactly
  // equivalent to rebuilding the design from a modified spec.
  AdcSpec sp = spec_;
  if (opts.seed != 0) sp.seed = opts.seed;
  if (opts.pvt.has_value()) sp.pvt = *opts.pvt;
  const msim::SimConfig cfg = sp.to_sim_config();

  msim::VcoDsmModulator::Options mopts;
  mopts.comparator = opts.comparator;
  mopts.dac = opts.dac;
  mopts.record_bits = opts.record_bits;
  msim::VcoDsmModulator mod(cfg, mopts);

  res.full_scale_v = mod.full_scale_diff();
  res.fin_hz = dsp::coherent_freq(opts.fin_target_hz, cfg.fs_hz,
                                  opts.n_samples);
  res.amplitude_v =
      res.full_scale_v * util::from_db_amplitude(opts.amplitude_dbfs);
  res.mod = mod.run(dsp::make_sine(res.amplitude_v, res.fin_hz),
                    opts.n_samples, ws);
  analyze_run(sp, cfg, opts, *design_, res);
  return res;
}

std::vector<RunResult> AdcDesign::simulate_batch(
    const std::vector<SimulationOptions>& opts_list,
    msim::BatchedWorkspace& ws) const {
  std::vector<RunResult> out(opts_list.size());
  if (opts_list.empty()) return out;
  if (!ok()) {
    emit_diag(ctx_, util::Diagnostic{util::Severity::kError, "sim_run", "",
                                     "design was not built (invalid spec)"});
    return out;
  }
  // The lanes share one input-sample schedule (n_samples * substeps base
  // values) and one analysis netlist, so the non-PVT knobs must agree;
  // anything else goes through the scalar loop below.
  const SimulationOptions& o0 = opts_list.front();
  bool shared_shape = true;
  for (const SimulationOptions& o : opts_list) {
    shared_shape = shared_shape && o.n_samples == o0.n_samples &&
                   o.fin_target_hz == o0.fin_target_hz &&
                   o.comparator == o0.comparator && o.dac == o0.dac &&
                   o.record_bits == o0.record_bits;
  }

  // Per-lane spec/PVT resolution replays the scalar rule exactly.
  std::vector<AdcSpec> lane_sp(opts_list.size(), spec_);
  std::vector<msim::SimConfig> cfgs;
  cfgs.reserve(opts_list.size());
  for (std::size_t k = 0; k < opts_list.size(); ++k) {
    if (opts_list[k].seed != 0) lane_sp[k].seed = opts_list[k].seed;
    if (opts_list[k].pvt.has_value()) lane_sp[k].pvt = *opts_list[k].pvt;
    cfgs.push_back(lane_sp[k].to_sim_config());
  }

  std::unique_ptr<msim::BatchedModulator> batch;
  if (shared_shape) {
    msim::VcoDsmModulator::Options mopts;
    mopts.comparator = o0.comparator;
    mopts.dac = o0.dac;
    mopts.record_bits = o0.record_bits;
    batch = msim::BatchedModulator::create(cfgs, mopts);
  }
  if (batch == nullptr) {
    // One workspace per thread, as for a lone scalar stage: a group of one
    // is how Flow runs every scalar SimRun over a built design.
    static thread_local msim::SimWorkspace sws;
    for (std::size_t k = 0; k < opts_list.size(); ++k) {
      out[k] = simulate(opts_list[k], sws);
    }
    return out;
  }

  // PVT never moves fs (AdcSpec::to_sim_config derives fs from OSR and
  // bandwidth alone), so the coherent-bin snap is one shared computation.
  const double fin =
      dsp::coherent_freq(o0.fin_target_hz, cfgs.front().fs_hz, o0.n_samples);
  const int W = static_cast<int>(opts_list.size());
  std::vector<double> scale(opts_list.size());
  for (int k = 0; k < W; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    out[sk].fin_hz = fin;
    out[sk].full_scale_v = batch->full_scale_diff(k);
    out[sk].amplitude_v =
        out[sk].full_scale_v *
        util::from_db_amplitude(opts_list[sk].amplitude_dbfs);
    scale[sk] = out[sk].amplitude_v;
  }
  const std::vector<msim::ModulatorResult>& lanes =
      batch->run(dsp::make_sine(1.0, fin), scale, o0.n_samples, ws);
  for (int k = 0; k < W; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    out[sk].mod = lanes[sk];
    analyze_run(lane_sp[sk], cfgs[sk], opts_list[sk], *design_, out[sk]);
  }
  return out;
}

synth::SynthesisResult AdcDesign::synthesize(
    const synth::SynthesisOptions& opts) const {
  // Route stage through the graph; the cached result is cloned so the
  // caller owns its copy (the historical by-value contract). A rejected
  // input yields an empty result (null layout) with diagnostics reported
  // through the context, mirroring synth::synthesize().
  auto syn = Flow(ctx_).synthesis(spec_, opts);
  return syn != nullptr ? syn->clone() : synth::SynthesisResult{};
}

NodeReport AdcDesign::full_report(const SimulationOptions& opts) const {
  return Flow(ctx_).report(spec_, opts);
}

}  // namespace vcoadc::core
