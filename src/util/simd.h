// SIMD dispatch shim for the batched (structure-of-arrays) transient engine.
//
// The batched modulator compiles one portable lane-lockstep kernel into
// three translation units with different codegen flags — sse2 (baseline
// codegen, the floor on every host), avx2 (-mavx2), avx512
// (-mavx512f/dq/vl/bw) — and picks one at runtime. This header owns the
// tier model:
//
//   * cpu_tier()      - what the executing CPU supports (CPUID probe).
//   * env_cap()       - the VCOADC_SIMD environment variable, so a test run
//                       can force a lower tier on an AVX-512 host without
//                       a rebuild (ctest's fallback variants).
//   * active_tier()   - min of the two, cached; the dispatcher's choice.
//
// Bit-identity contract: no tier TU may contract a*b+c. AVX2 is requested
// without -mfma and baseline x86-64 has no FMA; -mavx512f *implies* 512-bit
// FMA, so the avx512 TU is additionally built with -ffp-contract=off (see
// src/msim/CMakeLists.txt). Every per-lane IEEE operation sequence is
// therefore identical in all three TUs, and which tier runs can never change
// a result bit — only how many lanes retire per cycle.
//
// vec<W> is the fixed-width value type the kernel's straight-line
// arithmetic uses: a GCC vector type, so every elementwise operator and
// select is one packed instruction at the TU's ISA level.
//
// Intrinsics: the tier TUs are portable GNU C++ except for one ISA-guarded
// helper, lane_bits(), which turns a packed compare into a lane bitmask with
// one movemask/test instruction. It only decides whether a rare per-lane
// fixup runs — control flow, never a lane value — so it cannot move a bit.
#pragma once

#include <cstddef>
#include <string>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vcoadc::util::simd {

/// Instruction-set tiers, ordered: a higher tier strictly contains the
/// lower one.
enum class Tier : int { kSse2 = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human name, e.g. for the CLI epilogue and BENCH_JSON.
const char* tier_name(Tier t);

/// Doubles per vector register at this tier (2 / 4 / 8), which is also the
/// Monte-Carlo lane width the tier prefers: avx512's 32 zmm registers hold
/// the kernel's live values at W=8 without the spills W=8 takes on avx2,
/// avx2 holds one ymm per live value at W=4, and sse2 hits register
/// pressure already at 4. Measured, not derived.
constexpr int tier_width(Tier t) {
  return t == Tier::kAvx512 ? 8 : (t == Tier::kAvx2 ? 4 : 2);
}

/// Highest tier the executing CPU supports; sse2 off x86, where every tier
/// TU is portable C++.
Tier cpu_tier();

/// Ceiling from the VCOADC_SIMD environment variable ("sse2" | "avx2" |
/// "avx512"; "auto", empty or unset = no ceiling). Any other value also
/// means no ceiling, with one stderr warning that names it and the
/// accepted spellings. Read once per process.
Tier env_cap();

/// The dispatch decision: min(cpu_tier, env_cap), cached after the first
/// call (the test override below invalidates the cache).
Tier active_tier();

/// Test hook: force active_tier() to `t` regardless of CPU/env; pass a
/// negative value to restore automatic selection. The caller must not
/// force a tier the CPU lacks. Not thread-safe against concurrent
/// active_tier() callers.
void set_tier_override_for_testing(int t);

/// One-line summary for --cache-stats-style epilogues, e.g.
/// "tier avx2 (width 4) | cpu avx2 | env -".
std::string runtime_summary();

// GNU C++ is required (Clang defines __GNUC__ too): vector types keep the
// kernel's codegen independent of the auto-vectorizer's if-conversion
// heuristics (GCC 12 fully unrolls W-sized loops and then refuses to
// if-convert the wrap selects, leaving data-dependent branches on the hot
// path).
#ifndef __GNUC__
#error "vcoadc needs GNU C++ (GCC vector types); Clang defines __GNUC__ too"
#endif

// vec's and LaneRng's lane-batch methods must inline into each kernel
// tier's translation unit so they compile under that TU's -m flags (an
// out-of-line instantiation would be a comdat symbol: one TU's codegen
// would silently serve every tier).
#define VCOADC_SIMD_INLINE inline __attribute__((always_inline))

// vector_size cannot take a template-dependent size in GCC, so the three
// kernel widths are enumerated. native_u64vec is the matching integer-lane
// type (xoshiro state words, DAC bit masks).
template <int W>
struct native_vec;
template <>
struct native_vec<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct native_vec<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct native_vec<8> {
  typedef double type __attribute__((vector_size(64)));
};
template <int W>
struct native_u64vec;
template <>
struct native_u64vec<2> {
  typedef unsigned long long type __attribute__((vector_size(16)));
};
template <>
struct native_u64vec<4> {
  typedef unsigned long long type __attribute__((vector_size(32)));
};
template <>
struct native_u64vec<8> {
  typedef unsigned long long type __attribute__((vector_size(64)));
};

/// Bitmask of the lanes of a packed compare result `m` that are set (bit w
/// = lane w), e.g. lane_bits<W>(a.v < b.v). Lanes must be 0 or ~0, which
/// every native vector compare yields (a NaN compares false, so 0). GCC 12
/// lowers the portable `for (w) bits |= (m[w] != 0) << w` to W scalar
/// extract-and-compare steps; each ISA branch below is one instruction: a
/// mask test at W=8 under AVX-512, movmskpd at W=4 under AVX and at W=2
/// under SSE2 (every x86-64 TU). Any other width and ISA keeps the loop.
/// The preprocessor picks the branch per TU, under that tier's own -m flags
/// (always-inline, like vec). The result only steers control flow into a
/// per-lane fixup.
template <int W, typename M>
VCOADC_SIMD_INLINE int lane_bits(const M& m) {
  static_assert(sizeof(M) == W * sizeof(double), "one 64-bit lane per w");
#if defined(__AVX512F__)
  if constexpr (W == 8) {
    return static_cast<int>(_mm512_test_epi64_mask((__m512i)m, (__m512i)m));
  }
#endif
#if defined(__AVX__)
  if constexpr (W == 4) return _mm256_movemask_pd((__m256d)m);
#endif
#if defined(__SSE2__)
  if constexpr (W == 2) return _mm_movemask_pd((__m128d)m);
#endif
  int bits = 0;
  for (int w = 0; w < W; ++w) bits |= static_cast<int>(m[w] != 0) << w;
  return bits;
}

/// Fixed-width elementwise value type for the lockstep kernels. Each
/// operator performs the identical per-lane IEEE operation the scalar
/// modulator performs (contraction is never enabled — see the FMA note
/// above), so the representation can never change a result bit; it retires
/// tier_width lanes per instruction.
template <int W>
struct vec {
  typename native_vec<W>::type v;

  static VCOADC_SIMD_INLINE vec splat(double x) {
    vec r;
    for (int w = 0; w < W; ++w) r.v[w] = x;
    return r;
  }
  static VCOADC_SIMD_INLINE vec load(const double* p) {
    vec r;
    for (int w = 0; w < W; ++w) r.v[w] = p[w];
    return r;
  }
  VCOADC_SIMD_INLINE void store(double* p) const {
    for (int w = 0; w < W; ++w) p[w] = v[w];
  }
  double operator[](int w) const { return v[w]; }

  friend VCOADC_SIMD_INLINE vec operator+(const vec& a, const vec& b) {
    vec r;
    r.v = a.v + b.v;
    return r;
  }
  friend VCOADC_SIMD_INLINE vec operator-(const vec& a, const vec& b) {
    vec r;
    r.v = a.v - b.v;
    return r;
  }
  friend VCOADC_SIMD_INLINE vec operator*(const vec& a, const vec& b) {
    vec r;
    r.v = a.v * b.v;
    return r;
  }
  friend VCOADC_SIMD_INLINE vec operator/(const vec& a, const vec& b) {
    vec r;
    r.v = a.v / b.v;
    return r;
  }
  friend VCOADC_SIMD_INLINE vec operator+(const vec& a, double b) {
    return a + splat(b);
  }
  friend VCOADC_SIMD_INLINE vec operator-(const vec& a, double b) {
    return a - splat(b);
  }
  friend VCOADC_SIMD_INLINE vec operator*(const vec& a, double b) {
    return a * splat(b);
  }
  friend VCOADC_SIMD_INLINE vec operator/(const vec& a, double b) {
    return a / splat(b);
  }
  friend VCOADC_SIMD_INLINE vec operator+(double a, const vec& b) {
    return splat(a) + b;
  }
  friend VCOADC_SIMD_INLINE vec operator-(double a, const vec& b) {
    return splat(a) - b;
  }
  friend VCOADC_SIMD_INLINE vec operator*(double a, const vec& b) {
    return splat(a) * b;
  }
  VCOADC_SIMD_INLINE vec& operator+=(const vec& b) {
    return *this = *this + b;
  }
};

/// Elementwise `a >= c ? t : f`. A bitwise select (compare + blend, no
/// arithmetic), so it cannot perturb lane values; it exists because GCC 12
/// will not reliably if-convert the equivalent scalar ternary, leaving a
/// data-dependent branch per lane on the wrap hot path. NaN compares false
/// and selects `f`, matching the ternary.
template <int W>
VCOADC_SIMD_INLINE vec<W> select_ge(const vec<W>& a, double c,
                                    const vec<W>& t, const vec<W>& f) {
  vec<W> r;
  r.v = (a.v >= c) ? t.v : f.v;
  return r;
}

/// Elementwise `a < c ? t : f` (same contract as select_ge).
template <int W>
VCOADC_SIMD_INLINE vec<W> select_lt(const vec<W>& a, double c,
                                    const vec<W>& t, const vec<W>& f) {
  vec<W> r;
  r.v = (a.v < c) ? t.v : f.v;
  return r;
}

/// Elementwise max against a scalar floor — same select std::max performs,
/// so it lowers to maxpd without changing the scalar result.
template <int W>
VCOADC_SIMD_INLINE vec<W> vmax(const vec<W>& a, double floor_v) {
  return select_lt(a, floor_v, vec<W>::splat(floor_v), a);
}

// Vector-comparand variants: identical contracts to the scalar-comparand
// forms above, but each lane compares against its own threshold. Used by the
// heterogeneous-lane path (PVT corners / amplitude sweeps batched together),
// where per-lane run constants replace the formerly shared scalars. With
// every lane holding the same value these lower to the exact same compare +
// blend as the scalar-comparand forms — homogeneous batches see identical
// codegen and identical bits.

/// Elementwise `a >= c ? t : f` with a per-lane comparand.
template <int W>
VCOADC_SIMD_INLINE vec<W> select_ge(const vec<W>& a, const vec<W>& c,
                                    const vec<W>& t, const vec<W>& f) {
  vec<W> r;
  r.v = (a.v >= c.v) ? t.v : f.v;
  return r;
}

/// Elementwise `a < c ? t : f` with a per-lane comparand.
template <int W>
VCOADC_SIMD_INLINE vec<W> select_lt(const vec<W>& a, const vec<W>& c,
                                    const vec<W>& t, const vec<W>& f) {
  vec<W> r;
  r.v = (a.v < c.v) ? t.v : f.v;
  return r;
}

/// Elementwise max against a per-lane floor.
template <int W>
VCOADC_SIMD_INLINE vec<W> vmax(const vec<W>& a, const vec<W>& floor_v) {
  return select_lt(a, floor_v, floor_v, a);
}

}  // namespace vcoadc::util::simd
