// Internal lane-lockstep kernel of the batched transient engine.
//
// run_lockstep<W>() is a line-for-line transcription of
// VcoDsmModulator::run() with every per-draw scalar replaced by a W-lane
// structure-of-arrays value (util::simd::vec). It is compiled three times —
// batched_tier_{sse2,avx2,avx512}.cpp — with different codegen flags
// and dispatched at runtime (see util/simd.h). The TUs never contract FMA
// (the avx512 TU carries -ffp-contract=off because -mavx512f implies FMA),
// so each lane's IEEE operation sequence is identical across tiers and
// identical to the scalar modulator's; the tier changes only how many lanes
// one instruction retires. The only intrinsics sit in util::simd::lane_bits,
// the ISA-guarded packed test in front of each rare per-lane fixup (phase
// wraps, metastability candidates, ziggurat rejects): it picks whether the
// scalar fixup runs, never what it computes.
//
// Everything allocation- or libm-setup-related (pole factors, noise
// amplitudes, mismatch transposition, result-buffer sizing) happens in
// batched_modulator.cpp (baseline TU) and arrives here precomputed in
// BatchedSetup; the kernel holds only the per-clock hot loop.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "msim/batched_modulator.h"
#include "util/rng.h"
#include "util/simd.h"

namespace vcoadc::msim::lockstep {

/// Flattened, lane-major launch state. Per-lane vectors are indexed [w];
/// per-slice-per-lane vectors are indexed [i * width + w] so the lane loop
/// over one slice touches contiguous memory.
struct BatchedSetup {
  int width = 0;
  int n_slices = 0;
  int substeps = 0;
  std::size_t n_samples = 0;
  double ts = 0.0;
  double dt = 0.0;

  // Shared control-flow flags (identical across lanes by construction —
  // BatchedModulator::create refuses batches whose lanes disagree, because
  // gaussian_lanes advances every lane's stream: a noise source firing in
  // one lane but not another would desynchronize the per-lane draw
  // sequences from the scalar modulator's).
  bool vref_ripple = false;
  double ripple_amp = 0.0;
  double ripple_freq = 0.0;
  bool thermal_noise = false;
  bool white_fm = false;
  bool has_jitter = false;
  bool has_comp_noise = false;
  bool has_meta = false;
  bool has_cm_error = false;
  bool record_bits = false;
  bool static_mapping = false;
  std::uint64_t d_init = 0;  ///< SliceBits::alternating start word

  // Per-lane run constants [w]. Formerly shared scalars; heterogeneous
  // batches (PVT corners, amplitude sweeps) give each lane its own value.
  // Only the *values* may differ lane-to-lane — the flags above must agree.
  // A homogeneous batch loads W identical values, which is the exact same
  // compare/arithmetic the old splat produced, so bits are unchanged.
  std::vector<double> vctrl_mid, f_center, g_input, vrefp;
  std::vector<double> f_floor;  ///< 0.01 * f_center (RingVco's stall clamp)
  std::vector<double> fm_noise_amp;  ///< 2*pi*sqrt(white_fm*dt) per lane
  std::vector<double> jitter_sigma, comp_noise_sigma, comp_meta_window;
  std::vector<double> comp_slew_div;  ///< max(tap_slew, 1.0)
  std::vector<double> comp_buffer_delay, cm_error_prob;

  // Per-lane constants [w].
  std::vector<double> scale, vcm_in, kvco1, kvco2, phase1, phase2;
  std::vector<double> g_total_p, g_total_n, g_fold;
  std::vector<double> pole_a, pole_g_total, node_noise_sigma;
  // Per-slice-per-lane constants [i * width + w].
  std::vector<double> tap_off1, tap_off2, offt1, offt2, g_p, g_n;
  // RNG stream positions to install into the lanes (scalar Rng copies,
  // exactly as the per-lane modulators forked them).
  std::vector<util::Rng> rng_node_p, rng_node_n, rng_vco1, rng_vco2,
      rng_jit;                          // [w]
  std::vector<util::Rng> rng_fe1, rng_fe2;  // [i * width + w]
};

// `static` is load-bearing: as an ordinary header template this would be a
// weak (comdat) symbol, and the linker would merge the three tier TUs'
// instantiations into one — silently running a single tier's codegen under
// every dispatch table entry. Internal linkage keeps one independently
// compiled copy per TU, which is the whole point of the tier scheme.
template <int W>
static void run_lockstep(const BatchedSetup& s, BatchedWorkspace& ws) {
  using V = util::simd::vec<W>;
  using util::simd::vmax;
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kPi = std::numbers::pi;

  const int n_slices = s.n_slices;
  const double dt = s.dt;
  // Input signal / reference pre-evaluated per substep instant by run();
  // the hot loop below is call-free on its common path.
  const double* bv = ws.base_vals.data();
  const double* vv = ws.vref_vals.data();

  // Every run constant is copied to a local: the result buffers are
  // written through ws (heap pointers the compiler cannot prove distinct
  // from the setup struct's storage), so reads of s.* inside the clock loop
  // would otherwise be reloaded — and re-broadcast — on every use. The
  // formerly shared scalars are now per-lane vectors (heterogeneous
  // corner/amplitude batches); a homogeneous batch loads W identical
  // values, making every V⊙V below bit-identical to the old V⊙scalar.
  const int substeps = s.substeps;
  const V vctrl_mid = V::load(s.vctrl_mid.data());
  const V f_center = V::load(s.f_center.data());
  const V f_floor = V::load(s.f_floor.data());
  const V g_input = V::load(s.g_input.data());
  const V vrefp = V::load(s.vrefp.data());
  const bool vref_ripple = s.vref_ripple;
  const bool thermal_noise = s.thermal_noise;
  const bool white_fm = s.white_fm;
  const V fm_noise_amp = V::load(s.fm_noise_amp.data());
  const bool has_jitter = s.has_jitter;
  const V jitter_sigma = V::load(s.jitter_sigma.data());
  const bool has_comp_noise = s.has_comp_noise;
  const V comp_noise_sigma = V::load(s.comp_noise_sigma.data());
  const bool has_meta = s.has_meta;
  // The scalar path computes `window * (1.0 + 1e-9)` once outside the loop;
  // the same per-lane product here keeps the pre-filter bound's association.
  const V meta_margin =
      V::load(s.comp_meta_window.data()) * (1.0 + 1e-9);
  const double* meta_window_data = s.comp_meta_window.data();
  const V comp_slew_div = V::load(s.comp_slew_div.data());
  const V comp_buffer_delay = V::load(s.comp_buffer_delay.data());
  const bool has_cm_error = s.has_cm_error;
  const double* cm_error_data = s.cm_error_prob.data();
  const bool record_bits = s.record_bits;
  const bool static_mapping = s.static_mapping;
  const double* g_p_data = s.g_p.data();
  const double* g_n_data = s.g_n.data();
  const double* tap_off1_data = s.tap_off1.data();
  const double* tap_off2_data = s.tap_off2.data();
  const double* offt1_data = s.offt1.data();
  const double* offt2_data = s.offt2.data();

  // Install the RNG streams (SoA lanes).
  util::LaneRng<W> rng_np, rng_nn, rng_v1, rng_v2, rng_jit;
  std::vector<util::LaneRng<W>> rng_fe1(static_cast<std::size_t>(n_slices));
  std::vector<util::LaneRng<W>> rng_fe2(static_cast<std::size_t>(n_slices));
  for (int w = 0; w < W; ++w) {
    rng_np.set_lane(w, s.rng_node_p[static_cast<std::size_t>(w)]);
    rng_nn.set_lane(w, s.rng_node_n[static_cast<std::size_t>(w)]);
    rng_v1.set_lane(w, s.rng_vco1[static_cast<std::size_t>(w)]);
    rng_v2.set_lane(w, s.rng_vco2[static_cast<std::size_t>(w)]);
    rng_jit.set_lane(w, s.rng_jit[static_cast<std::size_t>(w)]);
    for (int i = 0; i < n_slices; ++i) {
      const std::size_t iw = static_cast<std::size_t>(i * W + w);
      rng_fe1[static_cast<std::size_t>(i)].set_lane(w, s.rng_fe1[iw]);
      rng_fe2[static_cast<std::size_t>(i)].set_lane(w, s.rng_fe2[iw]);
    }
  }

  // Lane state.
  const V scale = V::load(s.scale.data());
  const V vcm_in = V::load(s.vcm_in.data());
  const V kvco1 = V::load(s.kvco1.data());
  const V kvco2 = V::load(s.kvco2.data());
  const V g_total_p = V::load(s.g_total_p.data());
  const V g_total_n = V::load(s.g_total_n.data());
  const V g_fold = V::load(s.g_fold.data());
  const V pole_a = V::load(s.pole_a.data());
  const V pole_g_total = V::load(s.pole_g_total.data());
  const V node_sigma = V::load(s.node_noise_sigma.data());
  V ph1 = V::load(s.phase1.data());
  V ph2 = V::load(s.phase2.data());
  V vp = vctrl_mid;
  V vn = vctrl_mid;
  V acc_vp = V::splat(0.0), acc_vn = V::splat(0.0);
  V acc_f1 = V::splat(0.0), acc_f2 = V::splat(0.0);
  std::uint64_t d[W];
  std::size_t toggles[W];
  for (int w = 0; w < W; ++w) {
    d[w] = s.d_init;
    toggles[w] = 0;
  }

  // Streamed per-group write-out: run() pre-sizes counts/output to
  // n_samples, so the per-clock stores below are branch-free indexed writes
  // through cached data pointers instead of per-lane push_backs (each of
  // which re-checks capacity and re-loads the vector header per value).
  int* counts_ptr[W];
  double* out_ptr[W];
  for (int w = 0; w < W; ++w) {
    counts_ptr[w] = ws.results[static_cast<std::size_t>(w)].counts.data();
    out_ptr[w] = ws.results[static_cast<std::size_t>(w)].output.data();
  }

  // DAC running on-conductance sums for the current bits, rebuilt in slice
  // order per edge exactly like ResistorDacBank::set_levels (the off-slice
  // contributes +0.0, which is bitwise the same as skipping the add for
  // the positive partial sums involved). P sees the complement of d.
  V g_on_p, g_on_n;
  auto sync_dac_levels = [&]() {
    g_on_p = V::splat(0.0);
    g_on_n = V::splat(0.0);
    // Branch-free: the DAC word bits are effectively random, so a per-lane
    // ternary would be an unpredictable branch 2*W*n_slices times per
    // clock. The masked adds accumulate the identical partial sums (+0.0
    // for the off term, exactly as the scalar code's ternary).
    typename util::simd::native_u64vec<W>::type dv;
    for (int w = 0; w < W; ++w) dv[w] = d[w];
    const V zero = V::splat(0.0);
    for (int k = 0; k < n_slices; ++k) {
      const V gp = V::load(&g_p_data[static_cast<std::size_t>(k * W)]);
      const V gn = V::load(&g_n_data[static_cast<std::size_t>(k * W)]);
      const auto on = ((dv >> k) & 1ULL) != 0;
      g_on_p.v += on ? zero.v : gp.v;
      g_on_n.v += on ? gn.v : zero.v;
    }
  };
  sync_dac_levels();

  // Same conditional-subtract wrap as the scalar modulator's wrap_2pi.
  auto wrap_2pi = [](double p) {
    while (p >= kTwoPi) p -= kTwoPi;
    while (p < 0.0) p += kTwoPi;
    return p;
  };

  double lanes_buf[W], lanes_buf2[W];

  std::size_t sub_k = 0;
  for (std::size_t n = 0; n < s.n_samples; ++n) {
    for (int m = 0; m < substeps; ++m, ++sub_k) {
      const double sb = bv[sub_k];
      // With ripple the reference is a shared time series (create() demands
      // a uniform vrefp in that case); otherwise each lane's own reference.
      const V vref = vref_ripple ? V::splat(vv[sub_k]) : vrefp;
      const V vin = scale * sb;
      const V vinp = vcm_in + 0.5 * vin;
      const V vinn = vcm_in - 0.5 * vin;
      const V ip = g_on_p * vref - g_total_p * vp;
      const V in = g_on_n * vref - g_total_n * vn;
      // ControlNode::step, exact expression per lane.
      const V i_fixed_p = g_input * vinp + ip + g_fold * vp;
      const V i_fixed_n = g_input * vinn + in + g_fold * vn;
      const V v_inf_p = i_fixed_p / pole_g_total;
      const V v_inf_n = i_fixed_n / pole_g_total;
      vp = v_inf_p + (vp - v_inf_p) * pole_a;
      vn = v_inf_n + (vn - v_inf_n) * pole_a;
      if (thermal_noise) {
        rng_np.gaussian_lanes(lanes_buf);
        rng_nn.gaussian_lanes(lanes_buf2);
        // Rng::gaussian(mean, sigma) is mean + sigma * g; the vector ops
        // below run that exact expression per lane.
        vp += 0.0 + node_sigma * V::load(lanes_buf);
        vn += 0.0 + node_sigma * V::load(lanes_buf2);
      }
      // RingVco::advance per lane.
      const V f1 = vmax(f_center + kvco1 * (vp - vctrl_mid), f_floor);
      const V f2 = vmax(f_center + kvco2 * (vn - vctrl_mid), f_floor);
      V dphi1 = kTwoPi * f1 * dt;
      V dphi2 = kTwoPi * f2 * dt;
      if (white_fm) {
        rng_v1.gaussian_lanes(lanes_buf);
        rng_v2.gaussian_lanes(lanes_buf2);
        dphi1 += fm_noise_amp * V::load(lanes_buf);
        dphi2 += fm_noise_amp * V::load(lanes_buf2);
      }
      // RingVco's wrap, if-converted so it packs: one conditional subtract
      // (or add) is exact for every phase increment the physics can produce
      // (|dphi| < 2*pi); the fmod fallback of the scalar code survives as a
      // rare scalar fixup, so the transcription is exact for any input.
      const V p1 = ph1 + dphi1;
      const V p2 = ph2 + dphi2;
      ph1 = util::simd::select_lt(p1, 0.0, p1 + kTwoPi,
                                  util::simd::select_ge(p1, kTwoPi,
                                                        p1 - kTwoPi, p1));
      ph2 = util::simd::select_lt(p2, 0.0, p2 + kTwoPi,
                                  util::simd::select_ge(p2, kTwoPi,
                                                        p2 - kTwoPi, p2));
      const int wrap_rare = util::simd::lane_bits<W>(
          (ph1.v >= kTwoPi) | (ph1.v < 0.0) | (ph2.v >= kTwoPi) |
          (ph2.v < 0.0));
      if (wrap_rare != 0) [[unlikely]] {
        for (int w = 0; w < W; ++w) {
          double p = p1.v[w];
          if (p >= kTwoPi) {
            p -= kTwoPi;
            if (p >= kTwoPi) p = std::fmod(p, kTwoPi);
          } else if (p < 0.0) {
            p += kTwoPi;
          }
          ph1.v[w] = p;
          double q = p2.v[w];
          if (q >= kTwoPi) {
            q -= kTwoPi;
            if (q >= kTwoPi) q = std::fmod(q, kTwoPi);
          } else if (q < 0.0) {
            q += kTwoPi;
          }
          ph2.v[w] = q;
        }
      }
      acc_vp += vp;
      acc_vn += vn;
      acc_f1 += f1;
      acc_f2 += f2;
    }

    // Clock edge.
    V jit;
    if (has_jitter) {
      rng_jit.gaussian_lanes(lanes_buf);
      jit = 0.0 + jitter_sigma * V::load(lanes_buf);
    } else {
      jit = V::splat(0.0);
    }
    const V f1e = vmax(f_center + kvco1 * (vp - vctrl_mid), f_floor);
    const V f2e = vmax(f_center + kvco2 * (vn - vctrl_mid), f_floor);
    const V w1 = kTwoPi * f1e;
    const V w2 = kTwoPi * f2e;
    // SamplingFrontEnd::sample for one ring across all lanes of one slice.
    // The common path is if-converted select arithmetic (so it packs); the
    // unbounded while-wrap of the scalar code survives as a rare per-lane
    // fixup, keeping the transcription exact for any argument. The
    // metastability window is resolved per lane because its coin flip is a
    // data-dependent draw on that lane's stream alone.
    // Force-inlined: left to its own devices GCC outlines this lambda and
    // re-loads every by-reference capture through the frame on each of the
    // 2 * n_slices calls per clock, which costs more than the sampling math
    // itself.
    //
    // Packed comparator path: the decision leaves each sample_ring call as
    // a 0/1 lane-mask vector, the two-ring XOR happens packed, and the
    // decision bit is gathered into the per-lane DAC words with one packed
    // shift+or per slice (movemask-style bit gather). The rare-path tests
    // are one lane_bits each, so the only per-lane extraction left on the
    // common path is one transfer of the W finished words per clock.
    using MV = typename util::simd::native_u64vec<W>::type;
    auto sample_ring = [&](const V& ph, const double* tap, const double* offt,
                           const V& omega, const V& fe, util::LaneRng<W>& rng,
                           MV* outm) __attribute__((always_inline)) {
      V t_eff = (V::load(offt) + comp_buffer_delay) + jit;
      if (has_comp_noise) {
        rng.gaussian_lanes(lanes_buf);
        t_eff += (0.0 + comp_noise_sigma * V::load(lanes_buf)) /
                 comp_slew_div;
      }
      const V arg = (ph + V::load(tap)) + omega * t_eff;
      V wr = util::simd::select_ge(arg, kTwoPi, arg - kTwoPi, arg);
      wr = util::simd::select_ge(wr, kTwoPi, wr - kTwoPi, wr);
      wr = util::simd::select_lt(wr, 0.0, wr + kTwoPi, wr);
      if (util::simd::lane_bits<W>((wr.v >= kTwoPi) | (wr.v < 0.0)) != 0)
          [[unlikely]] {
        for (int w = 0; w < W; ++w) wr.v[w] = wrap_2pi(arg.v[w]);
      }
      // The packed compare yields 0/~0 per lane; masking with 1 leaves the
      // scalar decision bit (wr < pi) in every lane at once. (The vector
      // cast reinterprets bits; std::bit_cast would draw -Wpsabi.)
      MV m = (MV)(wr.v < kPi) & 1ULL;
      if (has_meta) {
        // ph < 2*pi and tap < 2*pi, so the scalar `while (p >= pi) p -= pi`
        // runs at most 3 times; three chained conditional subtracts replay
        // it exactly, with a per-lane fallback for anything larger.
        const V p0 = ph + V::load(tap);
        V p = util::simd::select_ge(p0, kPi, p0 - kPi, p0);
        p = util::simd::select_ge(p, kPi, p - kPi, p);
        p = util::simd::select_ge(p, kPi, p - kPi, p);
        if (util::simd::lane_bits<W>(p.v >= kPi) != 0) [[unlikely]] {
          for (int w = 0; w < W; ++w) {
            double pw = p0.v[w];
            while (pw >= kPi) pw -= kPi;
            p.v[w] = pw;
          }
        }
        // The scalar decision is `fl(fl(pi - p) / fl(2*pi*fe)) < window`,
        // one division per lane per decision — the costliest instruction on
        // the edge path, and ~99.9% of the quotients land far from the
        // aperture. Pre-filter with a conservative multiply: any true hit
        // satisfies (pi - p) < window * (2*pi*fe) * (1 + 1e-9), because the
        // divide and multiply round within 2^-52 each, orders of magnitude
        // inside the 1e-9 margin. Only candidate lanes (mostly none) pay
        // the exact division, which then decides, bit-for-bit.
        const V lhs = kPi - p;
        const V bnd = (kTwoPi * fe) * meta_margin;
        const int cand = util::simd::lane_bits<W>(lhs.v < bnd.v);
        if (cand != 0) [[unlikely]] {
          for (int w = 0; w < W; ++w) {
            if (((cand >> w) & 1) == 0) continue;
            const double tte = lhs.v[w] / (kTwoPi * fe.v[w]);
            if (tte < meta_window_data[w]) {
              m[w] = rng.bernoulli_lane(w, 0.5) ? 1ULL : 0ULL;
            }
          }
        }
      }
      if (has_cm_error) {
        rng.uniform_lanes(lanes_buf);
        for (int w = 0; w < W; ++w) {
          if (lanes_buf[w] < cm_error_data[w]) m[w] ^= 1ULL;
        }
      }
      *outm = m;
    };
    MV raw_v = {};
    for (int i = 0; i < n_slices; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      MV m1, m2;
      sample_ring(ph1, &tap_off1_data[static_cast<std::size_t>(i * W)],
                  &offt1_data[static_cast<std::size_t>(i * W)], w1, f1e,
                  rng_fe1[si], &m1);
      sample_ring(ph2, &tap_off2_data[static_cast<std::size_t>(i * W)],
                  &offt2_data[static_cast<std::size_t>(i * W)], w2, f2e,
                  rng_fe2[si], &m2);
      const MV di = m1 ^ m2;
      raw_v |= di << i;
      if (record_bits) {
        for (int w = 0; w < W; ++w) {
          ws.results[static_cast<std::size_t>(w)].slice_bits[si].push_back(
              di[w] != 0);
        }
      }
    }
    std::uint64_t raw[W];
    for (int w = 0; w < W; ++w) raw[w] = raw_v[w];
    for (int w = 0; w < W; ++w) {
      const int count = std::popcount(raw[w]);
      toggles[w] += static_cast<std::size_t>(std::popcount(raw[w] ^ d[w]));
      d[w] = static_mapping
                 ? ((count >= 64) ? ~0ULL : ((1ULL << count) - 1ULL))
                 : raw[w];
      counts_ptr[w][n] = count;
      out_ptr[w][n] = (2.0 * count - n_slices) /
                      static_cast<double>(n_slices);
    }
    sync_dac_levels();
  }

  const double steps = static_cast<double>(s.n_samples) *
                       static_cast<double>(substeps);
  for (int w = 0; w < W; ++w) {
    ModulatorResult& res = ws.results[static_cast<std::size_t>(w)];
    if (steps > 0) {
      res.mean_vctrlp = acc_vp.v[w] / steps;
      res.mean_vctrln = acc_vn.v[w] / steps;
      res.mean_freq1_hz = acc_f1.v[w] / steps;
      res.mean_freq2_hz = acc_f2.v[w] / steps;
    }
    if (s.n_samples > 0) {
      res.bit_toggle_rate = static_cast<double>(toggles[w]) /
                            static_cast<double>(s.n_samples);
    }
  }
}

/// The bitmask of the lanes w with a[w] < b[w], through the same
/// util::simd::lane_bits<W> the kernel's rare-path tests use, compiled under
/// this TU's flags (`static` for the reason given at run_lockstep). Each
/// tier table exports it so a unit test can check every ISA branch of the
/// helper, not only the one the test's own TU compiles.
template <int W>
static int lane_bits_lt(const double* a, const double* b) {
  using V = util::simd::vec<W>;
  return util::simd::lane_bits<W>(V::load(a).v < V::load(b).v);
}

/// Per-tier entry points (one TU per tier; see batched_tier_*.cpp).
using LockstepFn = void (*)(const BatchedSetup&, BatchedWorkspace&);
using LaneBitsFn = int (*)(const double*, const double*);
struct LockstepTable {
  LockstepFn w2 = nullptr;
  LockstepFn w4 = nullptr;
  LockstepFn w8 = nullptr;
  LaneBitsFn lane_bits_w2 = nullptr;  ///< lane_bits_lt<2>, and so on
  LaneBitsFn lane_bits_w4 = nullptr;
  LaneBitsFn lane_bits_w8 = nullptr;
};
namespace tier_sse2 {
const LockstepTable& table();
}
namespace tier_avx2 {
const LockstepTable& table();
}
namespace tier_avx512 {
const LockstepTable& table();
}

}  // namespace vcoadc::msim::lockstep
