// Direct-call layer rates for the traced run.
//
// msim.* and dsp.fft_msamples_per_s are defined exactly as
// bench_perf_engine's BENCH_JSON fields: paper 40 nm config, 4096-clock
// repetitions on a warm workspace (scalar: 0.5 amplitude sine; batched: unit
// sine scaled 0.5 per lane, seeds 100+k), a real FFT of 2^16 Gaussian
// samples, each looped for at least 0.5 s. The batched rate is recorded at
// W = 2, 4 and 8 so the best width can be read off every run.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "core/adc.h"
#include "core/artifact_serde.h"
#include "core/flow.h"
#include "dsp/fft.h"
#include "dsp/signal_gen.h"
#include "dsp/spectrum.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "util/rng.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace dsp = vcoadc::dsp;
namespace msim = vcoadc::msim;

namespace {

/// Calls `fn` until at least `min_s` has elapsed; returns (calls, seconds).
template <typename Fn>
std::pair<std::size_t, double> loop_for(double min_s, Fn&& fn) {
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return {reps, elapsed};
}

template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

volatile double g_sink = 0;  // keeps timed results observable

void modulator_rates(std::map<std::string, double>* out) {
  const msim::SimConfig cfg = core::AdcSpec::paper_40nm().to_sim_config();
  constexpr std::size_t kClocks = 4096;

  msim::VcoDsmModulator mod(cfg);
  const auto sine = dsp::make_sine(0.5, 1e6);
  msim::SimWorkspace ws;
  mod.run(sine, kClocks, ws);  // warm-up
  const auto [reps, secs] = loop_for(
      0.5, [&] { g_sink = g_sink + mod.run(sine, kClocks, ws).output.back(); });
  const double scalar = static_cast<double>(reps * kClocks) / secs;
  (*out)["msim.scalar_clocks_per_s"] = scalar;

  const auto base = dsp::make_sine(1.0, 1e6);
  msim::BatchedWorkspace bws;
  double best = 0;
  int best_w = 0;
  for (int w : {2, 4, 8}) {
    std::vector<std::uint64_t> seeds;
    for (int k = 0; k < w; ++k) seeds.push_back(100 + static_cast<unsigned>(k));
    auto batch = msim::BatchedModulator::create(cfg, seeds);
    if (batch == nullptr) continue;
    const std::vector<double> scale(static_cast<std::size_t>(w), 0.5);
    batch->run(base, scale, kClocks, bws);  // warm-up
    const auto [breps, bsecs] = loop_for(0.5, [&] {
      g_sink = g_sink +
               batch->run(base, scale, kClocks, bws).front().output.back();
    });
    const double lane_clocks =
        static_cast<double>(breps * kClocks) * w / bsecs;
    (*out)["msim.batched_lane_clocks_per_s.w" + std::to_string(w)] =
        lane_clocks;
    if (lane_clocks > best) {
      best = lane_clocks;
      best_w = w;
    }
  }
  (*out)["msim.batched_lane_clocks_per_s"] = best;
  (*out)["msim.batched_width"] = best_w;
  (*out)["msim.batched_speedup"] = scalar > 0 ? best / scalar : 0;
}

void fft_rate(std::map<std::string, double>* out) {
  constexpr std::size_t kN = 1 << 16;
  vcoadc::util::Rng rng(1);
  std::vector<double> x(kN);
  for (double& v : x) v = rng.gaussian();
  const dsp::RealFftPlan& plan = dsp::RealFftPlan::of(kN);
  std::vector<dsp::Complex> bins(plan.out_size());
  plan.forward(x.data(), bins.data());  // warm-up (builds the plan)
  const auto [reps, secs] = loop_for(0.5, [&] {
    plan.forward(x.data(), bins.data());
    g_sink = g_sink + bins[1].real();
  });
  (*out)["dsp.fft_msamples_per_s"] =
      static_cast<double>(reps * kN) / secs / 1e6;
}

/// The analysis half of a SimRun (spectrum, SNDR, slope, idle tones, as
/// analyze_run in core/adc.cpp) on a cached run of the workload's length.
/// Recomputing the SNDR also checks it against the cached artifact.
bool spectrum_time(const core::RunResult& run, const core::AdcSpec& spec,
                   std::map<std::string, double>* out) {
  const double fs = spec.to_sim_config().fs_hz;
  std::vector<double> times;
  double sndr = 0;
  for (int rep = 0; rep < 15; ++rep) {
    times.push_back(time_s([&] {
      const dsp::Spectrum s = dsp::compute_spectrum(run.mod.output, fs, 1.0,
                                                    dsp::WindowKind::kHann);
      const dsp::SndrReport r =
          dsp::analyze_sndr(s, spec.bandwidth_hz, run.fin_hz);
      g_sink = g_sink +
               dsp::fit_noise_slope(s, spec.bandwidth_hz * 1.2, fs / 4.0)
                   .db_per_decade;
      g_sink = g_sink + static_cast<double>(
                            dsp::find_idle_tones(s, r, run.fin_hz * 3.0,
                                                 spec.bandwidth_hz, 12.0)
                                .size());
      sndr = r.sndr_db;
    }));
  }
  (*out)["dsp.spectrum_ms"] = median(times) * 1e3;
  return sndr == run.sndr.sndr_db;
}

/// Gate-level replay rate: committed gate events per second of the sign-off
/// engine on the paper 40 nm design's emitted HDL (artifacts built or taken
/// from the cache first, outside the timing).
bool gate_rate(core::Flow& flow, const core::AdcSpec& spec,
               std::map<std::string, double>* out) {
  core::GateSimOptions o;
  o.sim.n_samples = 1 << 11;
  o.sim.record_bits = true;
  const auto hdl = flow.hdl_emit(spec);
  const auto ref = flow.sim_run(spec, o.sim);
  if (hdl == nullptr || ref == nullptr) return false;
  o.top = hdl->parsed->top();
  std::vector<vcoadc::util::Diagnostic> diags;
  std::shared_ptr<const core::GateSimResult> res;
  const double secs = time_s([&] {
    res = core::run_gate_level_signoff(*hdl->parsed, spec, *ref, o, &diags);
  });
  if (res == nullptr || !res->matches_behavioral) return false;
  (*out)["netlist.gate_events_per_s"] =
      static_cast<double>(res->transitions) / secs;
  return true;
}

/// Store codec round trip over the six records of one paper-40 nm
/// datasheet (library, netlist, floorplan, placement, route, sim_run):
/// encode, save, load and decode times per record set, median of 5.
bool codec_times(core::Flow& flow, const core::AdcSpec& spec,
                 std::size_t sim_samples, const std::string& dir,
                 std::map<std::string, double>* out) {
  const auto lib = flow.tech_library(spec);
  const auto bundle = std::make_shared<const core::DesignBundle>(
      flow.netlist(spec));
  const auto fp = flow.floorplan(spec);
  const auto pl = flow.placement(spec);
  const auto syn = flow.synthesis(spec);
  core::SimulationOptions sim;
  sim.n_samples = sim_samples;
  sim.fin_target_hz = spec.bandwidth_hz / 5.0;
  const auto run = flow.sim_run(spec, sim);
  if (!lib || !bundle->design || !fp || !pl || !syn || !run) return false;

  core::ArtifactStore store(dir);
  bool ok = store.ok();
  double enc = 0, sav = 0, lod = 0, dec = 0;
  std::size_t bytes = 0;
  auto round_trip = [&](const auto& codec, const auto& artifact,
                        const core::CacheKey& key) {
    vcoadc::core::serde::Writer w;
    enc += time_s([&] { codec.encode(artifact, w); });
    sav += time_s([&] {
      ok = store.save(key, codec.type_tag, codec.type_version, w.bytes()) && ok;
    });
    std::vector<std::uint8_t> payload;
    lod += time_s([&] {
      ok = store.load(key, codec.type_tag, codec.type_version, &payload) && ok;
    });
    dec += time_s([&] {
      vcoadc::core::serde::Reader r(payload);
      ok = codec.decode(r) != nullptr && ok;
    });
    bytes += w.bytes().size();
  };
  std::vector<double> e, s, l, d;
  for (int rep = 0; rep < 5; ++rep) {
    enc = sav = lod = dec = 0;
    bytes = 0;
    round_trip(core::cell_library_codec(), *lib, core::tech_library_key(spec));
    round_trip(core::design_bundle_codec(), *bundle, core::netlist_key(spec));
    round_trip(core::floorplan_codec(), *fp, core::floorplan_key(spec, {}));
    round_trip(core::placement_codec(), *pl, core::placement_key(spec, {}));
    round_trip(core::synthesis_codec(), *syn, core::synthesis_key(spec, {}));
    round_trip(core::run_result_codec(), *run, core::sim_run_key(spec, sim));
    e.push_back(enc);
    s.push_back(sav);
    l.push_back(lod);
    d.push_back(dec);
  }
  (*out)["store.encode_ms"] = median(e) * 1e3;
  (*out)["store.save_ms"] = median(s) * 1e3;
  (*out)["store.load_ms"] = median(l) * 1e3;
  (*out)["store.decode_ms"] = median(d) * 1e3;
  (*out)["store.record_set_kb"] = static_cast<double>(bytes) / 1e3;
  std::filesystem::remove_all(dir);
  return ok;
}

}  // namespace

bool measure_kernels(const Session& session, std::size_t sim_samples,
                     const std::string& scratch_dir,
                     std::map<std::string, double>* out) {
  modulator_rates(out);
  fft_rate(out);
  // Artifacts come from (or are added to) the session's memory cache; no
  // store, so the timed phase's store counters are unaffected.
  vcoadc::util::DiagSink sink;
  core::ExecContext ctx = session.ctx;
  ctx.store = nullptr;
  ctx.diag = &sink;
  core::Flow flow(ctx);
  const core::AdcSpec spec = core::AdcSpec::paper_40nm();
  core::SimulationOptions sim;
  sim.n_samples = sim_samples;
  sim.fin_target_hz = spec.bandwidth_hz / 5.0;
  const auto run = flow.sim_run(spec, sim);
  bool ok = run != nullptr && spectrum_time(*run, spec, out);
  ok = gate_rate(flow, spec, out) && ok;
  ok = codec_times(flow, spec, sim_samples, scratch_dir + "/codec_probe",
                   out) && ok;
  if (!ok) std::fprintf(stderr, "perfbench: a kernel self-check failed\n");
  return ok;
}

}  // namespace perfbench
