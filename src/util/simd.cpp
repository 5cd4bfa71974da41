#include "util/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vcoadc::util::simd {

namespace {

Tier clamp_tier(int t) {
  if (t <= 0) return Tier::kSse2;
  if (t == 1) return Tier::kAvx2;
  return Tier::kAvx512;
}

Tier min_tier(Tier a, Tier b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// Parses a VCOADC_SIMD value; unset, empty and "auto" mean "no ceiling".
/// An unknown spelling means no ceiling too, but says so: a stale or
/// mistyped cap must not run silently at the top tier.
Tier parse_tier(const char* s) {
  if (s == nullptr || s[0] == '\0' || std::strcmp(s, "auto") == 0) {
    return Tier::kAvx512;
  }
  if (std::strcmp(s, "sse2") == 0) return Tier::kSse2;
  if (std::strcmp(s, "avx2") == 0) return Tier::kAvx2;
  if (std::strcmp(s, "avx512") == 0) return Tier::kAvx512;
  std::fprintf(stderr,
               "vcoadc: warning: VCOADC_SIMD=%s is not a tier (accepted: "
               "auto, sse2, avx2, avx512); no tier cap applied\n",
               s);
  return Tier::kAvx512;
}

// -1 = no override; otherwise the forced tier (testing hook).
std::atomic<int> g_override{-1};

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kSse2: return "sse2";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "sse2";
}

Tier cpu_tier() {
#if defined(__x86_64__) || defined(__i386__)
  // SSE2 is architectural on x86-64; probe the AVX2 step, then the AVX-512
  // subset the avx512 tier TU is compiled for (foundation + DQ/VL for the
  // 64-bit integer compares and 128/256-bit mixing, BW for byte masks).
  static const Tier t = [] {
    if (!__builtin_cpu_supports("avx2")) return Tier::kSse2;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw")) {
      return Tier::kAvx512;
    }
    return Tier::kAvx2;
  }();
  return t;
#else
  // Unknown ISA: every tier TU is portable C++ compiled without x86 flags,
  // so any tier is safe to run; the floor keeps the dispatch decision
  // honest about vector width.
  return Tier::kSse2;
#endif
}

Tier env_cap() {
  static const Tier t = parse_tier(std::getenv("VCOADC_SIMD"));
  return t;
}

Tier active_tier() {
  const int ov = g_override.load(std::memory_order_relaxed);
  if (ov >= 0) return clamp_tier(ov);
  static const Tier t = min_tier(cpu_tier(), env_cap());
  return t;
}

void set_tier_override_for_testing(int t) {
  g_override.store(t < 0 ? -1 : t, std::memory_order_relaxed);
}

std::string runtime_summary() {
  const Tier t = active_tier();
  const char* env = std::getenv("VCOADC_SIMD");
  std::string s = "tier ";
  s += tier_name(t);
  s += " (width ";
  s += std::to_string(tier_width(t));
  s += ") | cpu ";
  s += tier_name(cpu_tier());
  s += " | env ";
  s += (env != nullptr && env[0] != '\0') ? env : "-";
  return s;
}

}  // namespace vcoadc::util::simd
