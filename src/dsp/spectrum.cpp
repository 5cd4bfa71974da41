#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dsp/fft.h"
#include "util/units.h"

namespace vcoadc::dsp {
namespace {

// Sums linear power of bins [k - span, k + span] clamped to (0, n-1],
// zeroing a visited mask so a bin is never double counted.
double take_power(const Spectrum& spec, std::vector<char>& taken,
                  std::size_t k, int span) {
  double p = 0;
  const std::size_t n = spec.power.size();
  const std::size_t lo = (k > static_cast<std::size_t>(span))
                             ? k - static_cast<std::size_t>(span)
                             : 1;  // skip DC
  const std::size_t hi = std::min(n - 1, k + static_cast<std::size_t>(span));
  for (std::size_t i = lo; i <= hi; ++i) {
    if (!taken[i]) {
      p += spec.power[i];
      taken[i] = 1;
    }
  }
  return p;
}

// Spectrum analysis runs once per Monte-Carlo draw with a fixed window kind
// and record length, so the window samples (and their energy sum) and the
// windowed-input / FFT-bin scratch buffers are cached per thread. Each worker
// thread gets its own copy; no locking, no per-call allocation once warm.
struct SpectrumScratch {
  WindowKind kind = WindowKind::kHann;
  std::size_t n = 0;
  std::vector<double> window;
  double sum_w2 = 0;
  std::vector<double> xw;         // mean-removed, windowed input
  std::vector<Complex> bins;      // one-sided FFT output (n/2 + 1 bins)

  void prepare(WindowKind k, std::size_t len) {
    if (kind != k || n != len || window.size() != len) {
      kind = k;
      n = len;
      window = make_window(k, len);
      sum_w2 = 0;
      for (double v : window) sum_w2 += v * v;
    }
    xw.resize(len);
    bins.resize(len / 2 + 1);
  }
};

SpectrumScratch& spectrum_scratch() {
  static thread_local SpectrumScratch scratch;
  return scratch;
}

}  // namespace

Spectrum compute_spectrum(const std::vector<double>& x, double fs_hz,
                          double full_scale, WindowKind window) {
  // The FFT plan requires a power-of-two record; the assert that used to
  // guard this is compiled out of release builds, leaving UB. Degrade to
  // an empty spectrum instead (analyze_sndr & friends already reject it).
  if (x.empty() || !is_power_of_two(x.size()) ||
      !(std::isfinite(full_scale) && full_scale > 0)) {
    std::fprintf(stderr,
                 "vcoadc: [error] spectrum: record length %zu / full scale "
                 "%g unusable (need power-of-two samples, positive finite "
                 "full scale)\n",
                 x.size(), full_scale);
    Spectrum empty;
    empty.fs_hz = fs_hz;
    empty.window = window;
    return empty;
  }
  const std::size_t n = x.size();
  SpectrumScratch& sc = spectrum_scratch();
  sc.prepare(window, n);
  const std::vector<double>& w = sc.window;

  // Remove the mean before windowing so DC leakage does not mask the
  // low-frequency noise floor the shaping analysis depends on.
  double mean = 0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);

  // Real-input plan: half-length complex transform + untangle, one-sided
  // output. The spectrum only ever reads bins [0, n/2), so nothing is lost.
  for (std::size_t i = 0; i < n; ++i) sc.xw[i] = (x[i] - mean) * w[i];
  const std::vector<Complex>& data = sc.bins;
  if (n >= 2) {
    RealFftPlan::of(n).forward(sc.xw.data(), sc.bins.data());
  } else if (n == 1) {
    sc.bins[0] = Complex(sc.xw[0], 0.0);
  }

  Spectrum spec;
  spec.fs_hz = fs_hz;
  spec.bin_hz = fs_hz / static_cast<double>(n);
  spec.window = window;
  spec.enbw_bins = enbw_bins(w);
  const std::size_t half = n / 2;
  spec.freq_hz.resize(half);
  spec.power.resize(half);
  spec.dbfs.resize(half);

  // Energy-calibrated scaling: per-bin powers are defined so that SUMMING
  // the bins of a tone's leakage lobe yields the tone power relative to a
  // full-scale sine (Parseval: sum over the one-sided lobe of a coherent
  // tone of amplitude A is N * A^2/4 * sum(w^2)). The same scale makes
  // band-integrated noise read correctly relative to FS tone power.
  const double scale =
      4.0 / (static_cast<double>(n) * sc.sum_w2 * full_scale * full_scale);
  for (std::size_t k = 0; k < half; ++k) {
    spec.freq_hz[k] = spec.bin_hz * static_cast<double>(k);
    spec.power[k] = std::norm(data[k]) * scale;
    spec.dbfs[k] =
        std::max(Spectrum::kFloorDbfs, util::db_power(spec.power[k]));
  }
  // DC bin was mean-removed; report it at the floor.
  if (!spec.power.empty()) {
    spec.power[0] = 0.0;
    spec.dbfs[0] = Spectrum::kFloorDbfs;
  }
  return spec;
}

SndrReport analyze_sndr(const Spectrum& spec, double bw_hz,
                        double expected_tone_hz) {
  SndrReport rep;
  const std::size_t n = spec.power.size();
  if (n < 4 || spec.bin_hz <= 0) return rep;
  const std::size_t bw_bin =
      std::min<std::size_t>(n - 1, static_cast<std::size_t>(bw_hz / spec.bin_hz));
  const int span = leakage_bins(spec.window);

  // Locate the fundamental.
  std::size_t kf = 1;
  if (expected_tone_hz > 0) {
    kf = static_cast<std::size_t>(std::lround(expected_tone_hz / spec.bin_hz));
    kf = std::clamp<std::size_t>(kf, 1, n - 1);
    // Snap to the local maximum within the leakage span.
    std::size_t best = kf;
    const std::size_t lo = (kf > static_cast<std::size_t>(span)) ? kf - span : 1;
    const std::size_t hi = std::min(n - 1, kf + static_cast<std::size_t>(span));
    for (std::size_t i = lo; i <= hi; ++i) {
      if (spec.power[i] > spec.power[best]) best = i;
    }
    kf = best;
  } else {
    for (std::size_t i = 2; i <= bw_bin; ++i) {
      if (spec.power[i] > spec.power[kf]) kf = i;
    }
  }

  std::vector<char> taken(n, 0);
  taken[0] = 1;
  rep.signal_power = take_power(spec, taken, kf, span);
  rep.fundamental_hz = spec.freq_hz[kf];
  rep.fundamental_dbfs = util::db_power(std::max(rep.signal_power, 1e-30));

  // Harmonics H2..H7 folded into the first Nyquist zone. Each in-band
  // harmonic is also an SFDR spur candidate.
  rep.distortion_power = 0;
  double worst_spur = 0;
  for (int h = 2; h <= 7; ++h) {
    long long k = static_cast<long long>(kf) * h;
    const long long nfft = static_cast<long long>(n) * 2;
    k %= nfft;
    // C++ % truncates toward zero, so a negative pre-modulo k (possible
    // when a caller aliases the fundamental below DC) stays negative and
    // the Nyquist fold below would index far out of band. Normalize into
    // [0, nfft) first; a near-DC fundamental then folds its harmonics to
    // the correct low bins instead of being skipped or mis-binned.
    if (k < 0) k += nfft;
    if (k > nfft / 2) k = nfft - k;
    if (k <= 0 || static_cast<std::size_t>(k) >= n) continue;
    const double p = take_power(spec, taken, static_cast<std::size_t>(k), span);
    if (static_cast<std::size_t>(k) <= bw_bin) {
      rep.distortion_power += p;
      worst_spur = std::max(worst_spur, p);
    }
  }

  // Remaining in-band bins are noise; single bins are SFDR spur candidates.
  rep.noise_power = 0;
  for (std::size_t i = 1; i <= bw_bin; ++i) {
    if (taken[i]) continue;
    rep.noise_power += spec.power[i];
    worst_spur = std::max(worst_spur, spec.power[i]);
  }
  rep.nad_power = rep.noise_power + rep.distortion_power;

  const double eps = 1e-30;
  rep.sndr_db = util::db_power(rep.signal_power / std::max(rep.nad_power, eps));
  rep.snr_db = util::db_power(rep.signal_power / std::max(rep.noise_power, eps));
  rep.thd_db =
      util::db_power(std::max(rep.distortion_power, eps) / rep.signal_power);
  rep.sfdr_db = util::db_power(rep.signal_power / std::max(worst_spur, eps));
  rep.enob = util::enob_from_sndr_db(rep.sndr_db);
  return rep;
}

SlopeFit fit_noise_slope(const Spectrum& spec, double f_lo, double f_hi) {
  SlopeFit fit;
  const std::size_t n = spec.power.size();
  if (n < 8) return fit;

  // Median-smooth the dB spectrum in log-spaced buckets, then fit a line
  // (dB vs log10 f). Median per bucket suppresses tones. freq_hz ascends,
  // so bucket [a, c) is one contiguous run of bins: a binary search finds
  // its first bin and the walk stops at the first bin >= c. The run is
  // collected in bin order, the order a full scan would collect it in, so
  // nth_element picks the same median.
  constexpr int kBuckets = 24;
  std::vector<double> log_f(n);  // bin 0 (DC) is never bucketed
  for (std::size_t i = 1; i < n; ++i) log_f[i] = std::log10(spec.freq_hz[i]);
  std::vector<double> xs, ys, vals;
  const double llo = std::log10(std::max(f_lo, spec.bin_hz));
  const double lhi = std::log10(std::max(f_hi, f_lo * 1.01));
  for (int b = 0; b < kBuckets; ++b) {
    const double a = llo + (lhi - llo) * b / kBuckets;
    const double c = llo + (lhi - llo) * (b + 1) / kBuckets;
    // No bin lies in an empty or inverted bucket, nor in one with a NaN
    // edge (an infinite f_hi makes the first lower edge inf * 0).
    if (!(a < c)) continue;
    vals.clear();
    auto i = static_cast<std::size_t>(
        std::lower_bound(log_f.begin() + 1, log_f.end(), a) - log_f.begin());
    for (; i < n && log_f[i] < c; ++i) vals.push_back(spec.dbfs[i]);
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

std::vector<IdleTone> find_idle_tones(const Spectrum& spec,
                                      const SndrReport& report, double f_lo,
                                      double f_hi, double threshold_db) {
  std::vector<IdleTone> tones;
  const std::size_t n = spec.power.size();
  if (n < 16) return tones;
  const int span = leakage_bins(spec.window);

  auto in_harmonic_window = [&](std::size_t i) {
    if (report.fundamental_hz <= 0) return false;
    for (int h = 1; h <= 7; ++h) {
      const double fh = report.fundamental_hz * h;
      if (std::fabs(spec.freq_hz[i] - fh) <= (span + 1) * spec.bin_hz) {
        return true;
      }
    }
    return false;
  };

  // Sliding local median over +/- 32 bins as the floor estimate.
  constexpr int kHalfWin = 32;
  for (std::size_t i = 1; i < n; ++i) {
    if (spec.freq_hz[i] < f_lo || spec.freq_hz[i] > f_hi) continue;
    if (in_harmonic_window(i)) continue;
    const std::size_t lo = (i > kHalfWin) ? i - kHalfWin : 1;
    const std::size_t hi = std::min(n - 1, i + kHalfWin);
    std::vector<double> local;
    local.reserve(hi - lo + 1);
    for (std::size_t k = lo; k <= hi; ++k) {
      if (k != i) local.push_back(spec.dbfs[k]);
    }
    std::nth_element(local.begin(), local.begin() + local.size() / 2,
                     local.end());
    const double floor_db = local[local.size() / 2];
    const double above = spec.dbfs[i] - floor_db;
    if (above > threshold_db) {
      tones.push_back({spec.freq_hz[i], spec.dbfs[i], above});
    }
  }
  return tones;
}

double inband_noise_dbfs(const Spectrum& spec, double bw_hz) {
  double p = 0;
  for (std::size_t i = 1; i < spec.power.size(); ++i) {
    if (spec.freq_hz[i] > bw_hz) break;
    p += spec.power[i];
  }
  return util::db_power(std::max(p, 1e-30));
}

}  // namespace vcoadc::dsp
