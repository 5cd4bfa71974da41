// Deterministic pseudo-random number generation for reproducible
// mixed-signal simulation.
//
// All stochastic elements in the simulator (thermal noise, mismatch draws,
// jitter, metastability resolution) pull from an Rng instance that is seeded
// explicitly, so every experiment in the benchmark harness is bit-for-bit
// repeatable. The generator is xoshiro256++, which is small, fast, and has
// no measurable bias for the statistical depths we use (<= 2^40 draws).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/simd.h"

namespace vcoadc::util {

namespace detail {

/// Ziggurat tables for the standard normal (Marsaglia & Tsang construction,
/// 256 layers, 52-bit mantissa draws). Built at compile time so the fast
/// path is a table lookup, a multiply, and a compare with no static-init
/// guard. kZigR is the base of the tail layer; kZigM scales a 52-bit
/// integer draw to the layer coordinate.
inline constexpr double kZigR = 3.6541528853610088;
inline constexpr double kZigM = 4503599627370496.0;  // 2^52

// Structure-of-arrays layout, one cache-line-aligned array per column: the
// lane-batched fast path (LaneRng::gaussian_lanes) gathers k[idx] and
// w[idx] per lane with the layer indices coming from random bytes, so each
// column is kept dense and 64-byte aligned — every gather touches at most
// one line per column and the two columns never false-share.
struct ZigTables {
  alignas(64) std::array<std::uint64_t, 256> k{};  // layer accept thresholds
  alignas(64) std::array<double, 256> w{};  // draw -> x scale per layer
  alignas(64) std::array<double, 256> f{};  // pdf at each layer base
};

consteval ZigTables make_zig_tables() {
  // Total area of each layer (rectangle, or base strip + tail for layer 0).
  constexpr double v = 4.92867323399e-3;
  ZigTables t;
  double d = kZigR;
  double prev = d;
  const double q = v / std::exp(-0.5 * d * d);
  t.k[0] = static_cast<std::uint64_t>((d / q) * kZigM);
  t.k[1] = 0;
  t.w[0] = q / kZigM;
  t.w[255] = d / kZigM;
  t.f[0] = 1.0;
  t.f[255] = std::exp(-0.5 * d * d);
  for (int i = 254; i >= 1; --i) {
    d = std::sqrt(-2.0 * std::log(v / d + std::exp(-0.5 * d * d)));
    t.k[i + 1] = static_cast<std::uint64_t>((d / prev) * kZigM);
    prev = d;
    t.f[i] = std::exp(-0.5 * d * d);
    t.w[i] = d / kZigM;
  }
  return t;
}

inline constexpr ZigTables kZig = make_zig_tables();

}  // namespace detail

/// xoshiro256++ engine with convenience distributions.
///
/// Not a cryptographic generator; intended for Monte-Carlo style circuit
/// simulation only. Copyable: copies continue the sequence independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that nearby seeds give unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives a child generator whose stream is independent of the parent's
  /// subsequent draws. Used to give each slice / noise source its own stream
  /// so adding a component never perturbs the draws of another.
  Rng fork(std::string_view tag);

  // The draw functions are defined inline: they sit on the modulator's
  // per-substep hot path (thermal noise, white-FM phase noise, comparator
  // noise), where an out-of-line call per draw is measurable.

  /// Raw 64 random bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl_(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via the ziggurat method. One u64 draw, a table
  /// lookup, a multiply and a compare cover ~99% of calls; rejections and
  /// the tail fall through to the out-of-line slow path (the only place
  /// that touches exp/log). Replaces Box-Muller, whose per-draw log +
  /// sincos dominated the modulator's noise-injection cost.
  double gaussian() {
    const std::uint64_t u = next_u64();
    const std::size_t idx = static_cast<std::size_t>(u & 255u);
    const std::uint64_t rabs = u >> 12;  // 52 uniform bits
    if (rabs < detail::kZig.k[idx]) [[likely]] {
      const double x = static_cast<double>(rabs) * detail::kZig.w[idx];
      // Branch-free sign: x >= 0 here, so flipping the sign bit is exactly
      // `(u & 256u) ? -x : x`, without a 50/50 data-dependent branch.
      return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                   ((u & 256u) << 55));
    }
    return gaussian_slow_(u);
  }

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double sigma) {
    return mean + sigma * gaussian();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // UniformRandomBitGenerator interface for <random> interop.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  template <int W>
  friend class LaneRng;

  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Ziggurat rejection path: tail sampling for layer 0, wedge
  /// accept/reject elsewhere, retrying with fresh draws as needed.
  double gaussian_slow_(std::uint64_t u);

  std::array<std::uint64_t, 4> state_{};
};

/// W independent xoshiro256++ streams stored structure-of-arrays, for the
/// batched (lane-lockstep) transient engine. Lane w is seeded from a scalar
/// Rng and from then on produces the exact draw sequence that Rng would
/// have produced on its own: next_lanes() runs the identical state update
/// per lane (one packed instruction per line), and the ziggurat rejection
/// path falls back to the scalar Rng::gaussian_slow_ on the extracted lane
/// state. Lanes are independent streams — a slow-path retry in one lane
/// never advances another — so "lockstep" refers only to the call
/// structure, not to shared state. The lane-batch methods are
/// VCOADC_SIMD_INLINE for the reason util/simd.h gives for vec's.
template <int W>
class LaneRng {
 public:
  LaneRng() = default;

  /// Installs `r`'s current state as lane `w`'s stream position.
  void set_lane(int w, const Rng& r) {
    for (int j = 0; j < 4; ++j) s_[j][w] = r.state_[j];
  }

  /// Advances every lane one step and returns the raw 64-bit draws. The
  /// whole xoshiro update is a handful of packed integer instructions, and
  /// each lane's bits are the ones Rng::next_u64 returns (shifts, xors and
  /// adds have no rounding or ordering freedom).
  VCOADC_SIMD_INLINE void next_lanes(std::uint64_t out[W]) {
    UV r;
    next_v_(&r);
    for (int w = 0; w < W; ++w) out[w] = r[w];
  }

  /// One standard-normal draw per lane; identical per-lane sequence to
  /// Rng::gaussian(). The ~99% ziggurat accept path runs packed across all
  /// W lanes on the SoA tables; only rejected lanes round-trip the scalar
  /// slow path.
  VCOADC_SIMD_INLINE void gaussian_lanes(double out[W]) {
    // Lane-transposed fast path over the SoA ziggurat layout: one packed
    // xoshiro step, per-lane gathers of the layer threshold/scale columns
    // (the layer index is a random byte, so those two loads are the only
    // scalar work left), then a packed convert, scale and branchless sign
    // flip. The accept test is evaluated packed for every lane at once and
    // checked with one lane-mask test (simd::lane_bits), and the packed
    // result is kept for every accepted lane; only rejected lanes (~1.5%
    // each, independent) pay a scalar fixup. An earlier packed
    // attempt measured ~10% slower at W=4 because its combined
    // all-lanes-accept branch re-ran the entire lane loop on any reject —
    // here a reject costs one slow_lane_ call and nothing else.
    //
    // Bit-identity: __builtin_convertvector performs the same u64->double
    // conversion as static_cast, the multiply and the sign-bit XOR are the
    // scalar path's exact per-lane IEEE/bit operations, and the reject
    // predicate (rabs >= k[idx]) is the complement of the scalar accept —
    // the per-lane draw sequence and accept/reject decisions are unchanged.
    UV u;
    next_v_(&u);
    UV kv;
    DV wv;
    for (int w = 0; w < W; ++w) {
      const std::size_t idx = static_cast<std::size_t>(u[w] & 255u);
      kv[w] = detail::kZig.k[idx];
      wv[w] = detail::kZig.w[idx];
    }
    const UV rabs = u >> 12;
    const DV x = __builtin_convertvector(rabs, DV) * wv;
    // GCC vector casts reinterpret bits (they are not value conversions),
    // so this is the scalar path's bit_cast/XOR/bit_cast sign flip — and
    // unlike std::bit_cast it is not a by-value vector call, so it draws
    // no -Wpsabi at instantiation points outside the widest-ISA TUs.
    const DV xs = (DV)((UV)x ^ ((u & 256u) << 55));
    const auto rej = rabs >= kv;  // 0 / ~0 per lane
    for (int w = 0; w < W; ++w) out[w] = xs[w];
    if (simd::lane_bits<W>(rej) != 0) [[unlikely]] {
      for (int w = 0; w < W; ++w) {
        if (rej[w] != 0) out[w] = slow_lane_(w, u[w]);
      }
    }
  }

  /// One uniform [0,1) draw per lane (Rng::uniform's mantissa mapping).
  VCOADC_SIMD_INLINE void uniform_lanes(double out[W]) {
    // Packed throughout: the mantissa shift, the u64->double conversion
    // (identical to static_cast per lane) and the 2^-53 scale have no
    // rejection path, so no scalar tail exists at all.
    UV u;
    next_v_(&u);
    const DV r = __builtin_convertvector(u >> 11, DV) * 0x1.0p-53;
    for (int w = 0; w < W; ++w) out[w] = r[w];
  }

  /// Advances only lane `w` (scalar xoshiro step). Used for the data-
  /// dependent draws (metastability resolution) that fire per lane.
  std::uint64_t next_lane(int w) {
    const std::uint64_t result =
        Rng::rotl_(s_[0][w] + s_[3][w], 23) + s_[0][w];
    const std::uint64_t t = s_[1][w] << 17;
    s_[2][w] ^= s_[0][w];
    s_[3][w] ^= s_[1][w];
    s_[1][w] ^= s_[2][w];
    s_[0][w] ^= s_[3][w];
    s_[2][w] ^= t;
    s_[3][w] = Rng::rotl_(s_[3][w], 45);
    return result;
  }

  double uniform_lane(int w) {
    return static_cast<double>(next_lane(w) >> 11) * 0x1.0p-53;
  }

  /// Rng::bernoulli on lane `w` (consumes a draw only for p in (0,1)).
  bool bernoulli_lane(int w, double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_lane(w) < p;
  }

 private:
  double slow_lane_(int w, std::uint64_t u) {
    Rng r;
    for (int j = 0; j < 4; ++j) r.state_[j] = s_[j][w];
    const double x = r.gaussian_slow_(u);
    for (int j = 0; j < 4; ++j) s_[j][w] = r.state_[j];
    return x;
  }

  using UV = typename simd::native_u64vec<W>::type;
  using DV = typename simd::native_vec<W>::type;

  /// Packed xoshiro256++ step for all lanes; the draw lands in *out. The
  /// rotates are spelled out and the result leaves through a pointer: a
  /// helper returning the vector type by value would draw -Wpsabi at every
  /// instantiation point, pragma regions notwithstanding.
  VCOADC_SIMD_INLINE void next_v_(UV* out) {
    const UV sum = s_[0] + s_[3];
    *out = ((sum << 23) | (sum >> 41)) + s_[0];
    const UV t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = (s_[3] << 45) | (s_[3] >> 19);
  }

  UV s_[4] = {};  // state word j of lane w at s_[j][w]
};

/// 64-bit FNV-1a hash, used to derive fork seeds from tags.
std::uint64_t fnv1a64(std::string_view s);

}  // namespace vcoadc::util
