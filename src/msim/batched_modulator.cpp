#include "msim/batched_modulator.h"

#include <cmath>
#include <numbers>

#include "msim/batched_lockstep.h"
#include "util/simd.h"
#include "util/units.h"

namespace vcoadc::msim {

/// Friend-access transposer: reads the private post-construction state of
/// the W per-lane scalar modulators into the flattened lane-major setup.
/// Construction itself already happened through the scalar code path, so
/// every ctor-time mismatch draw is the serial one by construction; this
/// struct only copies results out, it never mutates a lane modulator.
struct BatchedStateAccess {
  /// True when the constructed lanes can run in lockstep. Per-lane run
  /// *values* (kvco, vrefp, noise amplitudes, ...) may differ freely — the
  /// kernel holds them in lane vectors — but the clock structure and every
  /// noise-source on/off decision must agree: gaussian_lanes advances all
  /// lane streams together, so a source firing in one lane but not another
  /// would desynchronize the per-lane draw sequences from the scalar
  /// modulator's. Checked on the *derived* component state (not the raw
  /// SimConfig) because e.g. the comparator's common-mode error rate is a
  /// function of vdd and could cross zero between corners.
  static bool batchable(const std::vector<VcoDsmModulator>& lanes) {
    const VcoDsmModulator& m0 = lanes.front();
    const SimConfig& c0 = m0.cfg_;
    for (const VcoDsmModulator& m : lanes) {
      const SimConfig& c = m.cfg_;
      // Clock / loop structure shapes the substep schedule and buffers.
      if (c.fs_hz != c0.fs_hz || c.substeps != c0.substeps ||
          c.num_slices != c0.num_slices) {
        return false;
      }
      if (c.thermal_noise != c0.thermal_noise) return false;
      if ((m.vco1_.white_fm_ > 0.0) != (m0.vco1_.white_fm_ > 0.0)) {
        return false;
      }
      if ((c.clock_jitter_sigma_s > 0.0) !=
          (c0.clock_jitter_sigma_s > 0.0)) {
        return false;
      }
      const SamplingFrontEnd::Params& fp = m.fe1_.front().params_;
      const SamplingFrontEnd::Params& fp0 = m0.fe1_.front().params_;
      if ((fp.noise_sigma_v > 0.0) != (fp0.noise_sigma_v > 0.0)) {
        return false;
      }
      if ((fp.meta_window_s > 0.0) != (fp0.meta_window_s > 0.0)) {
        return false;
      }
      if ((m.fe1_.front().cm_error_prob_ > 0.0) !=
          (m0.fe1_.front().cm_error_prob_ > 0.0)) {
        return false;
      }
      // The reference-ripple time series is shared across lanes, so with
      // ripple enabled the reference itself must be uniform too.
      if (c.vref_ripple_amp_v != c0.vref_ripple_amp_v ||
          c.vref_ripple_freq_hz != c0.vref_ripple_freq_hz) {
        return false;
      }
      if (c0.vref_ripple_amp_v > 0.0 && c.vrefp != c0.vrefp) return false;
    }
    return true;
  }

  static lockstep::BatchedSetup build(
      const std::vector<VcoDsmModulator>& lanes) {
    const int W = static_cast<int>(lanes.size());
    const VcoDsmModulator& m0 = lanes.front();
    const SimConfig& cfg = m0.cfg_;
    const int n_slices = cfg.num_slices;

    lockstep::BatchedSetup s;
    s.width = W;
    s.n_slices = n_slices;
    s.substeps = cfg.substeps;
    s.ts = 1.0 / cfg.fs_hz;
    s.dt = s.ts / cfg.substeps;
    s.vref_ripple = cfg.vref_ripple_amp_v > 0.0;
    s.ripple_amp = cfg.vref_ripple_amp_v;
    s.ripple_freq = cfg.vref_ripple_freq_hz;
    // Control-flow flags from lane 0; batchable() (checked by create())
    // guarantees every lane agrees on them.
    s.thermal_noise = cfg.thermal_noise;
    s.white_fm = m0.vco1_.white_fm_ > 0.0;
    s.has_jitter = cfg.clock_jitter_sigma_s > 0.0;
    s.has_comp_noise = m0.fe1_.front().params_.noise_sigma_v > 0.0;
    s.has_meta = m0.fe1_.front().params_.meta_window_s > 0.0;
    s.has_cm_error = m0.fe1_.front().cm_error_prob_ > 0.0;
    s.record_bits = m0.opts_.record_bits;
    s.static_mapping = m0.opts_.mapping == ElementMapping::kStaticThermometer;
    s.d_init = SliceBits::alternating(n_slices).mask();

    const std::size_t lw = static_cast<std::size_t>(W);
    const std::size_t slw = static_cast<std::size_t>(n_slices) * lw;
    s.vctrl_mid.resize(lw);
    s.f_center.resize(lw);
    s.f_floor.resize(lw);
    s.g_input.resize(lw);
    s.vrefp.resize(lw);
    s.fm_noise_amp.resize(lw);
    s.jitter_sigma.resize(lw);
    s.comp_noise_sigma.resize(lw);
    s.comp_meta_window.resize(lw);
    s.comp_slew_div.resize(lw);
    s.comp_buffer_delay.resize(lw);
    s.cm_error_prob.resize(lw);
    s.scale.resize(lw);
    s.vcm_in.resize(lw);
    s.kvco1.resize(lw);
    s.kvco2.resize(lw);
    s.phase1.resize(lw);
    s.phase2.resize(lw);
    s.g_total_p.resize(lw);
    s.g_total_n.resize(lw);
    s.g_fold.resize(lw);
    s.pole_a.resize(lw);
    s.pole_g_total.resize(lw);
    s.node_noise_sigma.resize(lw);
    s.tap_off1.resize(slw);
    s.tap_off2.resize(slw);
    s.offt1.resize(slw);
    s.offt2.resize(slw);
    s.g_p.resize(slw);
    s.g_n.resize(slw);
    s.rng_node_p.resize(lw);
    s.rng_node_n.resize(lw);
    s.rng_vco1.resize(lw);
    s.rng_vco2.resize(lw);
    s.rng_jit.resize(lw);
    s.rng_fe1.resize(slw);
    s.rng_fe2.resize(slw);

    for (int w = 0; w < W; ++w) {
      const VcoDsmModulator& m = lanes[static_cast<std::size_t>(w)];
      const std::size_t sw = static_cast<std::size_t>(w);
      // Formerly shared run constants, now per lane (PVT corners and
      // amplitude points move them); each expression is the one the scalar
      // modulator computes for its own config.
      s.vctrl_mid[sw] = m.cfg_.vctrl_mid;
      s.f_center[sw] = m.vco1_.center_freq_hz();
      s.f_floor[sw] = 0.01 * s.f_center[sw];
      s.g_input[sw] = m.node_p_.params_.g_input_s;
      s.vrefp[sw] = m.cfg_.vrefp;
      // RingVco::advance caches 2*pi*sqrt(S_f*dt) on its first step; same
      // expression here (baseline TU), per lane (S_f may differ, dt shared).
      s.fm_noise_amp[sw] =
          2.0 * std::numbers::pi * std::sqrt(m.vco1_.white_fm_ * s.dt);
      s.jitter_sigma[sw] = m.cfg_.clock_jitter_sigma_s;
      const SamplingFrontEnd::Params& fp = m.fe1_.front().params_;
      s.comp_noise_sigma[sw] = fp.noise_sigma_v;
      s.comp_meta_window[sw] = fp.meta_window_s;
      s.comp_slew_div[sw] = std::max(fp.tap_slew_v_per_s, 1.0);
      s.comp_buffer_delay[sw] = fp.buffer_delay_s;
      s.cm_error_prob[sw] = m.fe1_.front().cm_error_prob_;
      s.vcm_in[sw] = m.vcm_in_;
      s.kvco1[sw] = m.vco1_.kvco();
      s.kvco2[sw] = m.vco2_.kvco();
      s.phase1[sw] = m.vco1_.phase();
      s.phase2[sw] = m.vco2_.phase();
      s.g_total_p[sw] = m.dac_p_.total_conductance();
      s.g_total_n[sw] = m.dac_n_.total_conductance();
      // The scalar run folds dac_p's conductance into BOTH node poles.
      s.g_fold[sw] = s.g_total_p[sw];
      // ControlNode::prepare_pole, exact expressions (both nodes share the
      // parameters and the folded conductance, hence one pole per lane).
      const ControlNode::Params& np = m.node_p_.params_;
      const double pole_g_total = np.g_input_s + np.g_load_s + s.g_fold[sw];
      const double tau = np.c_node_f / pole_g_total;
      const double pole_a = std::exp(-s.dt / tau);
      const double var_stat =
          util::kBoltzmann * np.temperature_k / np.c_node_f;
      s.pole_g_total[sw] = pole_g_total;
      s.pole_a[sw] = pole_a;
      s.node_noise_sigma[sw] = std::sqrt(var_stat * (1.0 - pole_a * pole_a));
      s.rng_node_p[sw] = m.node_p_.rng_;
      s.rng_node_n[sw] = m.node_n_.rng_;
      s.rng_vco1[sw] = m.vco1_.rng_;
      s.rng_vco2[sw] = m.vco2_.rng_;
      // The scalar run() constructs the jitter stream at run time from the
      // lane seed; replicate the same fork.
      s.rng_jit[sw] = util::Rng(m.cfg_.seed).fork("clkjit");
      for (int i = 0; i < n_slices; ++i) {
        const std::size_t si = static_cast<std::size_t>(i);
        const std::size_t iw = static_cast<std::size_t>(i * W + w);
        s.tap_off1[iw] = m.vco1_.tap_offsets()[si];
        s.tap_off2[iw] = m.vco2_.tap_offsets()[si];
        s.offt1[iw] = m.fe1_[si].offset_time_s();
        s.offt2[iw] = m.fe2_[si].offset_time_s();
        s.g_p[iw] = m.dac_p_.conductances()[si];
        s.g_n[iw] = m.dac_n_.conductances()[si];
        s.rng_fe1[iw] = m.fe1_[si].rng_;
        s.rng_fe2[iw] = m.fe2_[si].rng_;
      }
    }
    return s;
  }
};

namespace {

const lockstep::LockstepTable& tier_table(util::simd::Tier t) {
  switch (t) {
    case util::simd::Tier::kAvx512: return lockstep::tier_avx512::table();
    case util::simd::Tier::kAvx2: return lockstep::tier_avx2::table();
    case util::simd::Tier::kSse2: break;
  }
  return lockstep::tier_sse2::table();
}

lockstep::LockstepFn pick_kernel(int width) {
  const lockstep::LockstepTable& t = tier_table(util::simd::active_tier());
  if (width == 2) return t.w2;
  if (width == 4) return t.w4;
  return t.w8;
}

}  // namespace

int BatchedModulator::preferred_width() {
  return util::simd::tier_width(util::simd::active_tier());
}

std::unique_ptr<BatchedModulator> BatchedModulator::create(
    const SimConfig& cfg, const std::vector<std::uint64_t>& seeds,
    const Options& opts) {
  std::vector<SimConfig> cfgs(seeds.size(), cfg);
  for (std::size_t k = 0; k < seeds.size(); ++k) cfgs[k].seed = seeds[k];
  return create(cfgs, opts);
}

std::unique_ptr<BatchedModulator> BatchedModulator::create(
    const std::vector<SimConfig>& cfgs, const Options& opts) {
  if (!width_supported(static_cast<int>(cfgs.size()))) return nullptr;
  // The current-steering bank threads one shared bias-noise stream through
  // every substep — a serial dependency the lane model cannot batch.
  if (opts.dac != DacKind::kResistor) return nullptr;
  std::vector<VcoDsmModulator> lanes;
  lanes.reserve(cfgs.size());
  for (const SimConfig& lane_cfg : cfgs) lanes.emplace_back(lane_cfg, opts);
  // Heterogeneous lanes (PVT corners, amplitude points) batch as long as
  // the clock structure and noise-source flags agree; otherwise the caller
  // falls back to the scalar path.
  if (!BatchedStateAccess::batchable(lanes)) return nullptr;
  return std::unique_ptr<BatchedModulator>(
      new BatchedModulator(std::move(lanes)));
}

double BatchedModulator::full_scale_diff(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].full_scale_diff();
}

double BatchedModulator::input_common_mode(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].input_common_mode();
}

const std::vector<ModulatorResult>& BatchedModulator::run(
    const dsp::SignalFn& base, const std::vector<double>& lane_scale,
    std::size_t n_samples, BatchedWorkspace& ws) const {
  const int W = width();
  const SimConfig& cfg = config();
  lockstep::BatchedSetup setup = BatchedStateAccess::build(lanes_);
  setup.n_samples = n_samples;
  for (int w = 0; w < W; ++w) {
    setup.scale[static_cast<std::size_t>(w)] =
        lane_scale[static_cast<std::size_t>(w)];
  }

  // Same buffer reuse contract as the scalar SimWorkspace: a warmed-up
  // workspace runs allocation-free. counts/output are pre-sized to
  // n_samples (not just reserved) — the kernel streams its per-clock
  // results through raw data pointers with indexed stores, writing every
  // element exactly once.
  ws.results.resize(static_cast<std::size_t>(W));
  for (ModulatorResult& res : ws.results) {
    res.output.resize(n_samples);
    res.counts.resize(n_samples);
    if (setup.record_bits) {
      res.slice_bits.resize(static_cast<std::size_t>(cfg.num_slices));
      for (auto& v : res.slice_bits) {
        v.clear();
        v.reserve(n_samples);
      }
    } else {
      res.slice_bits.clear();
    }
    res.mean_vctrlp = res.mean_vctrln = 0.0;
    res.mean_freq1_hz = res.mean_freq2_hz = 0.0;
    res.bit_toggle_rate = 0.0;
  }
  if (ws.substep_frac.size() != static_cast<std::size_t>(cfg.substeps)) {
    ws.substep_frac.resize(static_cast<std::size_t>(cfg.substeps));
    for (int m = 0; m < cfg.substeps; ++m) {
      ws.substep_frac[static_cast<std::size_t>(m)] =
          static_cast<double>(m) / cfg.substeps;
    }
  }

  // Pre-evaluate the input (and the reference ripple, when enabled) at
  // every substep instant. The instants depend only on (n, m), and the
  // pre-pass calls `base` once per instant in exactly the order the scalar
  // modulator would, so even a stateful SignalFn sees the identical call
  // sequence and the values are bit-identical.
  const std::size_t n_sub =
      n_samples * static_cast<std::size_t>(cfg.substeps);
  ws.base_vals.resize(n_sub);
  if (setup.vref_ripple) {
    ws.vref_vals.resize(n_sub);
  } else {
    ws.vref_vals.clear();
  }
  {
    constexpr double kTwoPi = 2.0 * std::numbers::pi;
    const double* frac = ws.substep_frac.data();
    double* bv = ws.base_vals.data();
    double* vv = ws.vref_vals.data();
    std::size_t k = 0;
    for (std::size_t n = 0; n < n_samples; ++n) {
      for (int m = 0; m < cfg.substeps; ++m, ++k) {
        const double t =
            (static_cast<double>(n) + frac[m]) * setup.ts;
        bv[k] = base(t);
        if (setup.vref_ripple) {
          // batchable() guarantees a uniform vrefp whenever ripple is on,
          // so lane 0's reference stands for the whole batch.
          vv[k] = setup.vrefp.front() +
                  setup.ripple_amp *
                      std::sin(kTwoPi * setup.ripple_freq * t);
        }
      }
    }
  }

  pick_kernel(W)(setup, ws);
  return ws.results;
}

}  // namespace vcoadc::msim
