#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "dsp/decimator.h"
#include "dsp/fft.h"
#include "dsp/signal_gen.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"
#include "util/rng.h"

namespace vcoadc::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Fft, PowersOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(1000));
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  EXPECT_EQ(next_power_of_two(1), 1u);
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<Complex> x(64, Complex(0, 0));
  x[0] = 1.0;
  fft_in_place(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - Complex(1, 0)), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsOnBin) {
  const std::size_t n = 256;
  std::vector<Complex> x(n);
  const std::size_t k = 17;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2 * kPi * static_cast<double>(k * i) / static_cast<double>(n));
  }
  fft_in_place(x);
  EXPECT_NEAR(std::abs(x[k]), static_cast<double>(n) / 2, 1e-9);
  EXPECT_NEAR(std::abs(x[n - k]), static_cast<double>(n) / 2, 1e-9);
  for (std::size_t i = 1; i < n / 2; ++i) {
    if (i != k) {
      EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, RoundTripInverse) {
  util::Rng rng(5);
  std::vector<Complex> x(512);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  auto y = x;
  fft_in_place(y);
  ifft_in_place(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  util::Rng rng(6);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.gaussian();
  double time_energy = 0;
  for (double v : x) time_energy += v * v;
  const auto spec = fft_real(x);
  double freq_energy = 0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  freq_energy /= static_cast<double>(x.size());
  EXPECT_NEAR(freq_energy / time_energy, 1.0, 1e-10);
}

TEST(Fft, GoertzelMatchesFft) {
  const std::size_t n = 512;
  std::vector<double> x(n);
  util::Rng rng(7);
  for (auto& v : x) v = rng.gaussian();
  const auto spec = fft_real(x);
  for (std::size_t k : {std::size_t{3}, std::size_t{100}, std::size_t{255}}) {
    const Complex g = goertzel(x, k);
    EXPECT_NEAR(std::abs(g - spec[k]), 0.0, 1e-6 * static_cast<double>(n));
  }
}

TEST(Window, KnownEnbw) {
  EXPECT_NEAR(enbw_bins(make_window(WindowKind::kRect, 1024)), 1.0, 1e-12);
  EXPECT_NEAR(enbw_bins(make_window(WindowKind::kHann, 1024)), 1.5, 1e-3);
  EXPECT_NEAR(enbw_bins(make_window(WindowKind::kBlackmanHarris, 1024)), 2.0,
              0.01);
}

TEST(Window, CoherentGain) {
  EXPECT_NEAR(coherent_gain(make_window(WindowKind::kRect, 256)), 1.0, 1e-12);
  EXPECT_NEAR(coherent_gain(make_window(WindowKind::kHann, 4096)), 0.5, 1e-3);
}

TEST(Spectrum, FullScaleToneReadsZeroDbfs) {
  const std::size_t n = 4096;
  const double fs = 1e6;
  const double fin = coherent_freq(10e3, fs, n);
  const auto x = sample(make_sine(1.0, fin), fs, n);
  for (auto wk : {WindowKind::kRect, WindowKind::kHann,
                  WindowKind::kBlackmanHarris}) {
    const Spectrum spec = compute_spectrum(x, fs, 1.0, wk);
    const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
    EXPECT_NEAR(rep.fundamental_dbfs, 0.0, 0.05) << to_string(wk);
    EXPECT_NEAR(rep.fundamental_hz, fin, fs / n + 1.0);
  }
}

TEST(Spectrum, HalfScaleToneReadsMinusSix) {
  const std::size_t n = 4096;
  const double fs = 1e6;
  const double fin = coherent_freq(17e3, fs, n);
  const auto x = sample(make_sine(0.5, fin), fs, n);
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
  const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
  EXPECT_NEAR(rep.fundamental_dbfs, -6.02, 0.05);
}

TEST(Spectrum, SndrOfToneInWhiteNoise) {
  // Tone amplitude 1.0 (power 1.0 after normalization), white gaussian noise
  // sigma chosen for a known SNR over the full Nyquist band.
  const std::size_t n = 1 << 15;
  const double fs = 1e6;
  const double fin = coherent_freq(50e3, fs, n);
  const double sigma = 0.001;  // noise power relative to tone: 2*sigma^2
  util::Rng rng(9);
  auto x = sample(make_sine(1.0, fin), fs, n);
  for (auto& v : x) v += rng.gaussian(0.0, sigma);
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
  const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
  const double expected_snr = 10 * std::log10(0.5 / (sigma * sigma));
  EXPECT_NEAR(rep.sndr_db, expected_snr, 1.0);
  EXPECT_NEAR(rep.snr_db, expected_snr, 1.0);
}

TEST(Spectrum, ThdOfDistortedTone) {
  const std::size_t n = 1 << 14;
  const double fs = 1e6;
  const double fin = coherent_freq(11e3, fs, n);
  // 1% HD3 -> THD = -40 dB, SNDR ~ 40 dB.
  auto x = sample(
      [fin](double t) {
        const double s = std::sin(2 * kPi * fin * t);
        return s + 0.01 * std::sin(3 * 2 * kPi * fin * t);
      },
      fs, n);
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kBlackmanHarris);
  const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
  EXPECT_NEAR(rep.thd_db, -40.0, 0.5);
  EXPECT_NEAR(rep.sndr_db, 40.0, 0.5);
  EXPECT_NEAR(rep.sfdr_db, 40.0, 6.0);  // worst in-band spur is noise-free
}

TEST(Spectrum, NoiseSlopeOfShapedNoise) {
  // Synthesize first-order-shaped noise: e[n] - e[n-1]; its PSD rises at
  // +20 dB/dec well below fs/2.
  const std::size_t n = 1 << 16;
  const double fs = 1e6;
  util::Rng rng(21);
  std::vector<double> x(n);
  double prev = 0;
  for (auto& v : x) {
    const double e = rng.uniform(-0.5, 0.5);
    v = e - prev;
    prev = e;
  }
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
  const SlopeFit fit = fit_noise_slope(spec, fs / 2000, fs / 8);
  EXPECT_NEAR(fit.db_per_decade, 20.0, 3.0);
  EXPECT_GT(fit.r_squared, 0.9);
}

// The bucket scan fit_noise_slope replaced, kept verbatim: 24 passes over
// every bin, one log10 per bin per pass. The library's bucket walk must
// reproduce it bit for bit.
SlopeFit reference_noise_slope(const Spectrum& spec, double f_lo,
                               double f_hi) {
  SlopeFit fit;
  const std::size_t n = spec.power.size();
  if (n < 8) return fit;
  constexpr int kBuckets = 24;
  std::vector<double> xs, ys;
  const double llo = std::log10(std::max(f_lo, spec.bin_hz));
  const double lhi = std::log10(std::max(f_hi, f_lo * 1.01));
  for (int b = 0; b < kBuckets; ++b) {
    const double a = llo + (lhi - llo) * b / kBuckets;
    const double c = llo + (lhi - llo) * (b + 1) / kBuckets;
    std::vector<double> vals;
    for (std::size_t i = 1; i < n; ++i) {
      const double lf = std::log10(spec.freq_hz[i]);
      if (lf >= a && lf < c) vals.push_back(spec.dbfs[i]);
    }
    if (vals.size() < 3) continue;
    std::nth_element(vals.begin(), vals.begin() + vals.size() / 2, vals.end());
    xs.push_back((a + c) / 2);
    ys.push_back(vals[vals.size() / 2]);
  }
  if (xs.size() < 3) return fit;

  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double m = static_cast<double>(xs.size());
  const double denom = m * sxx - sx * sx;
  if (denom == 0) return fit;
  fit.db_per_decade = (m * sxy - sx * sy) / denom;
  const double ss_tot = syy - sy * sy / m;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = (sy - fit.db_per_decade * sx) / m + fit.db_per_decade * xs[i];
    ss_res += (ys[i] - pred) * (ys[i] - pred);
  }
  fit.r_squared = (ss_tot > 0) ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

TEST(Spectrum, NoiseSlopeMatchesFullScanReferenceBitForBit) {
  // Seeded shaped-noise-plus-tone spectra of 2^4..2^16 samples, fitted over
  // in-band, full-range, inverted, sub-bin, negative and unbounded bands.
  util::Rng rng(1517);
  for (int log2n = 4; log2n <= 16; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    for (int draw = 0; draw < 3; ++draw) {
      const double fs = 1e6 * (1 + draw);
      auto x = sample(make_sine(0.4, coherent_freq(fs / 37, fs, n)), fs, n);
      double prev = 0;
      for (auto& v : x) {
        const double e = rng.uniform(-0.5, 0.5);
        v += 0.01 * (e - prev);
        prev = e;
      }
      const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
      const double bin = spec.bin_hz;
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double bands[][2] = {
          {fs / 64, fs / 8},        // in band
          {0.0, fs / 2},            // full range
          {fs / 8, fs / 64},        // inverted
          {bin / 3, bin * 5.5},     // lower edge below one bin
          {-fs / 16, fs / 4},       // negative f_lo
          {-fs / 16, -fs / 32},     // negative f_lo and f_hi
          {fs / 64, kInf},          // unbounded: NaN first bucket edge
      };
      for (const auto& band : bands) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " draw=" << draw
                                          << " band=[" << band[0] << ", "
                                          << band[1] << "]");
        const SlopeFit want = reference_noise_slope(spec, band[0], band[1]);
        const SlopeFit got = fit_noise_slope(spec, band[0], band[1]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.db_per_decade),
                  std::bit_cast<std::uint64_t>(want.db_per_decade));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.r_squared),
                  std::bit_cast<std::uint64_t>(want.r_squared));
      }
    }
  }
}

TEST(Spectrum, IdleToneDetectorFindsPlantedSpur) {
  const std::size_t n = 1 << 14;
  const double fs = 1e6;
  const double fin = coherent_freq(9e3, fs, n);
  const double fspur = coherent_freq(113e3, fs, n);
  util::Rng rng(31);
  auto x = sample(make_sine(0.5, fin), fs, n);
  const auto spur = sample(make_sine(0.02, fspur), fs, n);
  for (std::size_t i = 0; i < n; ++i) x[i] += spur[i] + rng.gaussian(0, 1e-4);
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
  const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
  const auto tones = find_idle_tones(spec, rep, 1e3, fs / 2, 10.0);
  bool found = false;
  for (const auto& t : tones) {
    if (std::fabs(t.freq_hz - fspur) < 5 * spec.bin_hz) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Spectrum, IdleToneDetectorQuietOnCleanSignal) {
  const std::size_t n = 1 << 14;
  const double fs = 1e6;
  const double fin = coherent_freq(9e3, fs, n);
  // The 12 dB prominence threshold sits ~1 dB above the tallest noise bin
  // for this seed; a white-noise realization has a ~10% chance per seed of
  // poking a bin above it, so the seed pins a quiet realization.
  util::Rng rng(35);
  auto x = sample(make_sine(0.5, fin), fs, n);
  for (auto& v : x) v += rng.gaussian(0, 1e-4);
  const Spectrum spec = compute_spectrum(x, fs, 1.0, WindowKind::kHann);
  const SndrReport rep = analyze_sndr(spec, fs / 2, fin);
  const auto tones = find_idle_tones(spec, rep, 1e3, fs / 2, 12.0);
  EXPECT_TRUE(tones.empty());
}

TEST(SignalGen, CoherentCyclesOddAndClose) {
  const std::size_t n = 65536;
  const double fs = 750e6;
  const std::size_t k = coherent_cycles(1e6, fs, n);
  EXPECT_EQ(k % 2, 1u);
  const double fin = coherent_freq(1e6, fs, n);
  EXPECT_NEAR(fin, 1e6, 2 * fs / static_cast<double>(n));
}

TEST(SignalGen, RampEndpoints) {
  auto r = make_ramp(-1.0, 1.0, 1e-3);
  EXPECT_DOUBLE_EQ(r(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(r(0.0), -1.0);
  EXPECT_NEAR(r(0.5e-3), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(r(2e-3), 1.0);
}

TEST(Cic, DcGainIsUnity) {
  CicDecimator cic(3, 16);
  std::vector<double> in(16 * 64, 0.7);
  const auto out = cic.process(in);
  ASSERT_GT(out.size(), 10u);
  EXPECT_NEAR(out.back(), 0.7, 1e-9);
}

TEST(Cic, RateChange) {
  CicDecimator cic(2, 8);
  std::vector<double> in(800, 1.0);
  const auto out = cic.process(in);
  EXPECT_EQ(out.size(), 100u);
}

TEST(Cic, AttenuatesNearNyquistOfOutput) {
  // A tone at the post-decimation image frequency must be strongly
  // attenuated relative to a passband tone.
  const double fs = 1e6;
  const int r = 16;
  const std::size_t n = 1 << 14;
  auto passband = sample(make_sine(1.0, 3e3), fs, n);
  auto image = sample(make_sine(1.0, fs / r - 3e3), fs, n);
  CicDecimator cic_a(3, r), cic_b(3, r);
  const auto out_pass = cic_a.process(passband);
  const auto out_img = cic_b.process(image);
  double p_pass = 0, p_img = 0;
  for (std::size_t i = out_pass.size() / 2; i < out_pass.size(); ++i) {
    p_pass += out_pass[i] * out_pass[i];
  }
  for (std::size_t i = out_img.size() / 2; i < out_img.size(); ++i) {
    p_img += out_img[i] * out_img[i];
  }
  EXPECT_GT(10 * std::log10(p_pass / p_img), 50.0);
}

TEST(Fir, LowpassPassesAndStops) {
  const auto taps = design_lowpass_fir(127, 0.05);
  double dc = 0;
  for (double t : taps) dc += t;
  EXPECT_NEAR(dc, 1.0, 1e-9);
  // Frequency response at passband/stopband probes.
  auto mag_at = [&](double f_norm) {
    double re = 0, im = 0;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      re += taps[k] * std::cos(2 * kPi * f_norm * static_cast<double>(k));
      im -= taps[k] * std::sin(2 * kPi * f_norm * static_cast<double>(k));
    }
    return std::sqrt(re * re + im * im);
  };
  EXPECT_NEAR(mag_at(0.01), 1.0, 0.01);
  EXPECT_LT(mag_at(0.15), 0.01);
}

TEST(DecimateChain, PreservesInBandTone) {
  const double fs = 1e6;
  const std::size_t n = 1 << 15;
  const double fin = coherent_freq(2e3, fs, n);
  const auto x = sample(make_sine(0.8, fin), fs, n);
  const auto out = decimate_chain(x, 3, 8, 4);
  ASSERT_GT(out.size(), 256u);
  // Amplitude of the tone in the decimated stream stays ~0.8.
  double peak = 0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) {
    peak = std::max(peak, std::fabs(out[i]));
  }
  EXPECT_NEAR(peak, 0.8, 0.05);
}

}  // namespace
}  // namespace vcoadc::dsp
