// Golden-output regression tests for the modulator fast path.
//
// The PR that introduced the incremental-DAC / packed-bit hot loop changed
// one floating-point evaluation order (the DAC current is now computed as
// g_on*VREFP - g_total*v from running sums; see DESIGN.md "Numerical
// equivalence policy"). These tests pin the exact post-change output of a
// short, fully-featured fixed-seed run so any future change to the hot loop
// that silently perturbs results — RNG draw order, summation order, cached
// constants — fails loudly instead of shifting SNDR statistics.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/signal_gen.h"
#include "msim/batched_lockstep.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "msim/resistor_dac.h"
#include "msim/slice_bits.h"
#include "util/simd.h"

namespace vcoadc {
namespace {

/// A config exercising every per-substep and per-edge noise/mismatch draw
/// (thermal noise, white-FM phase noise, stage/kvco/resistor mismatch,
/// comparator offset+noise, clock jitter) so the golden covers the full RNG
/// consumption pattern of the hot loop.
msim::SimConfig golden_config() {
  msim::SimConfig cfg;
  cfg.num_slices = 8;
  cfg.seed = 42;
  cfg.thermal_noise = true;
  cfg.vco_stage_mismatch_sigma = 0.01;
  cfg.vco_kvco_mismatch_sigma = 0.005;
  cfg.r_dac_mismatch_sigma = 0.001;
  cfg.comparator_offset_sigma_v = 0.002;
  cfg.comparator_noise_sigma_v = 0.0005;
  cfg.clock_jitter_sigma_s = 200e-15;
  cfg.vco_white_fm_hz2_per_hz = 1e3;
  return cfg;
}

constexpr std::size_t kGoldenSamples = 48;

msim::ModulatorResult run_golden(msim::SimWorkspace* ws = nullptr) {
  const msim::SimConfig cfg = golden_config();
  msim::VcoDsmModulator mod(cfg);
  const dsp::SignalFn sine =
      dsp::make_sine(0.45 * mod.full_scale_diff(), cfg.fs_hz / 64.0);
  if (ws != nullptr) return mod.run(sine, kGoldenSamples, *ws);
  return mod.run(sine, kGoldenSamples);
}

TEST(ModulatorGoldenTest, PinnedCountsAndMeans) {
  const msim::ModulatorResult res = run_golden();

  const std::vector<int> expected_counts = {
      4, 4, 5, 4, 5, 5, 5, 5, 6, 5, 6, 5, 6, 5, 6, 6,
      6, 6, 5, 6, 6, 5, 6, 5, 6, 5, 4, 5, 5, 4, 5, 4,
      3, 4, 4, 3, 4, 3, 2, 3, 3, 2, 3, 2, 3, 2, 2, 2};
  ASSERT_EQ(res.counts, expected_counts);
  ASSERT_EQ(res.output.size(), kGoldenSamples);
  for (std::size_t n = 0; n < kGoldenSamples; ++n) {
    EXPECT_DOUBLE_EQ(res.output[n], (2.0 * res.counts[n] - 8) / 8.0);
  }

  EXPECT_DOUBLE_EQ(res.mean_vctrlp, 0.54830643026514958);
  EXPECT_DOUBLE_EQ(res.mean_vctrln, 0.55171783827349186);
  EXPECT_DOUBLE_EQ(res.mean_freq1_hz, 2042240083.1979506);
  EXPECT_DOUBLE_EQ(res.mean_freq2_hz, 2043780337.4088008);
  EXPECT_DOUBLE_EQ(res.bit_toggle_rate, 5.625);
}

TEST(ModulatorGoldenTest, WorkspaceOverloadIsBitIdentical) {
  const msim::ModulatorResult plain = run_golden();
  msim::SimWorkspace ws;
  const msim::ModulatorResult with_ws = run_golden(&ws);
  EXPECT_EQ(plain.counts, with_ws.counts);
  EXPECT_EQ(plain.output, with_ws.output);
  EXPECT_DOUBLE_EQ(plain.mean_vctrlp, with_ws.mean_vctrlp);
  EXPECT_DOUBLE_EQ(plain.mean_vctrln, with_ws.mean_vctrln);
  EXPECT_DOUBLE_EQ(plain.mean_freq1_hz, with_ws.mean_freq1_hz);
  EXPECT_DOUBLE_EQ(plain.mean_freq2_hz, with_ws.mean_freq2_hz);
  EXPECT_DOUBLE_EQ(plain.bit_toggle_rate, with_ws.bit_toggle_rate);
}

TEST(ModulatorGoldenTest, WorkspaceReuseDoesNotPerturbResults) {
  msim::SimWorkspace ws;
  // Warm the workspace with a differently-shaped run (longer, other seed).
  {
    msim::SimConfig other = golden_config();
    other.seed = 7;
    msim::VcoDsmModulator mod(other);
    const dsp::SignalFn sine =
        dsp::make_sine(0.3 * mod.full_scale_diff(), other.fs_hz / 32.0);
    mod.run(sine, 2 * kGoldenSamples, ws);
  }
  const msim::ModulatorResult fresh = run_golden();
  const msim::ModulatorResult reused = run_golden(&ws);
  EXPECT_EQ(fresh.counts, reused.counts);
  EXPECT_EQ(fresh.output, reused.output);
  EXPECT_DOUBLE_EQ(fresh.bit_toggle_rate, reused.bit_toggle_rate);

  // reset() drops the retained buffers; results must still be identical.
  ws.reset();
  EXPECT_TRUE(ws.result.counts.empty());
  const msim::ModulatorResult after_reset = run_golden(&ws);
  EXPECT_EQ(fresh.counts, after_reset.counts);
}

TEST(ModulatorGoldenTest, RecordBitsConsistentWithCounts) {
  const msim::SimConfig cfg = golden_config();
  msim::VcoDsmModulator::Options opts;
  opts.record_bits = true;
  msim::VcoDsmModulator mod(cfg, opts);
  const dsp::SignalFn sine =
      dsp::make_sine(0.45 * mod.full_scale_diff(), cfg.fs_hz / 64.0);
  msim::SimWorkspace ws;
  const msim::ModulatorResult& res = mod.run(sine, kGoldenSamples, ws);
  ASSERT_EQ(res.slice_bits.size(), 8u);
  for (std::size_t n = 0; n < kGoldenSamples; ++n) {
    int sum = 0;
    for (const auto& bits : res.slice_bits) sum += bits[n] ? 1 : 0;
    EXPECT_EQ(sum, res.counts[n]) << "sample " << n;
  }
}

// ---- Batched (SoA) engine: lane-k must equal serial draw-k bit-for-bit ----

/// Scalar reference: a fresh modulator at `seed` driven by the same signal
/// shape the batched run uses (0.45 FS sine at fs/64).
msim::ModulatorResult run_scalar_at_seed(
    std::uint64_t seed,
    const msim::VcoDsmModulator::Options& opts = {},
    msim::SimConfig cfg = golden_config()) {
  cfg.seed = seed;
  msim::VcoDsmModulator mod(cfg, opts);
  const dsp::SignalFn sine =
      dsp::make_sine(0.45 * mod.full_scale_diff(), cfg.fs_hz / 64.0);
  return mod.run(sine, kGoldenSamples);
}

/// Exact equality on every ModulatorResult field (EXPECT_EQ on doubles is
/// bit-compare up to -0.0/NaN, which the equivalence contract forbids).
void expect_bit_identical(const msim::ModulatorResult& got,
                          const msim::ModulatorResult& want) {
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.output, want.output);
  EXPECT_EQ(got.slice_bits, want.slice_bits);
  EXPECT_EQ(got.mean_vctrlp, want.mean_vctrlp);
  EXPECT_EQ(got.mean_vctrln, want.mean_vctrln);
  EXPECT_EQ(got.mean_freq1_hz, want.mean_freq1_hz);
  EXPECT_EQ(got.mean_freq2_hz, want.mean_freq2_hz);
  EXPECT_EQ(got.bit_toggle_rate, want.bit_toggle_rate);
}

/// The kernel widths, each with its own lane_bits body per tier.
constexpr int kWidths[] = {2, 4, 8};

/// The first `width` seeds of one fixed list (the golden seed first).
std::vector<std::uint64_t> seeds_of_width(int width) {
  const std::vector<std::uint64_t> all = {42, 7,  1000, 1001,
                                          5,  6,  99,   123456789};
  return {all.begin(), all.begin() + width};
}

/// Runs a heterogeneous batch (lane k built from cfgs[k]) under the active
/// tier and returns its lanes.
std::vector<msim::ModulatorResult> run_batch(
    const std::vector<msim::SimConfig>& cfgs,
    const msim::VcoDsmModulator::Options& opts = {}) {
  auto batch = msim::BatchedModulator::create(cfgs, opts);
  EXPECT_NE(batch, nullptr) << "width " << cfgs.size();
  if (batch == nullptr) return {};
  const dsp::SignalFn base = dsp::make_sine(1.0, cfgs.front().fs_hz / 64.0);
  std::vector<double> scale(cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    scale[k] = 0.45 * batch->full_scale_diff(static_cast<int>(k));
  }
  msim::BatchedWorkspace ws;
  return batch->run(base, scale, kGoldenSamples, ws);
}

/// Checks lane k of the batch over `cfgs` against the scalar run of
/// cfgs[k].
void check_lanes_vs_serial(const std::vector<msim::SimConfig>& cfgs,
                           const msim::VcoDsmModulator::Options& opts = {}) {
  const std::vector<msim::ModulatorResult> res = run_batch(cfgs, opts);
  ASSERT_EQ(res.size(), cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    SCOPED_TRACE(::testing::Message()
                 << "lane " << k << " of " << cfgs.size() << " seed "
                 << cfgs[k].seed);
    expect_bit_identical(res[k],
                         run_scalar_at_seed(cfgs[k].seed, opts, cfgs[k]));
  }
}

/// Runs a batch over `seeds` and checks lane k against the scalar run at
/// seeds[k].
void check_batch_vs_serial(const std::vector<std::uint64_t>& seeds,
                           const msim::VcoDsmModulator::Options& opts = {},
                           const msim::SimConfig& cfg = golden_config()) {
  std::vector<msim::SimConfig> cfgs(seeds.size(), cfg);
  for (std::size_t k = 0; k < seeds.size(); ++k) cfgs[k].seed = seeds[k];
  check_lanes_vs_serial(cfgs, opts);
}

/// Every tier this CPU can execute, lowest first.
std::vector<int> runnable_tiers() {
  std::vector<int> tiers;
  for (int t = 0; t <= static_cast<int>(util::simd::cpu_tier()); ++t) {
    tiers.push_back(t);
  }
  return tiers;
}

::testing::Message tier_message(int t) {
  return ::testing::Message()
         << "tier " << util::simd::tier_name(static_cast<util::simd::Tier>(t));
}

TEST(BatchedModulatorTest, LanesBitIdenticalToSerialAtEveryWidth) {
  for (const int width : kWidths) check_batch_vs_serial(seeds_of_width(width));
}

TEST(BatchedModulatorTest, LaneZeroMatchesPinnedGolden) {
  // The W=2 batch containing seed 42 must reproduce the pinned scalar
  // golden above, not merely agree with a freshly-run scalar modulator.
  const msim::SimConfig cfg = golden_config();
  auto batch = msim::BatchedModulator::create(cfg, {42, 7});
  ASSERT_NE(batch, nullptr);
  const dsp::SignalFn base = dsp::make_sine(1.0, cfg.fs_hz / 64.0);
  const std::vector<double> scale = {0.45 * batch->full_scale_diff(0),
                                     0.45 * batch->full_scale_diff(1)};
  msim::BatchedWorkspace ws;
  const auto& res = batch->run(base, scale, kGoldenSamples, ws);
  EXPECT_DOUBLE_EQ(res[0].mean_vctrlp, 0.54830643026514958);
  EXPECT_DOUBLE_EQ(res[0].mean_vctrln, 0.55171783827349186);
  EXPECT_DOUBLE_EQ(res[0].mean_freq1_hz, 2042240083.1979506);
  EXPECT_DOUBLE_EQ(res[0].mean_freq2_hz, 2043780337.4088008);
  EXPECT_DOUBLE_EQ(res[0].bit_toggle_rate, 5.625);
}

TEST(BatchedModulatorTest, AllCompiledTiersProduceIdenticalBits) {
  // Which kernel TU runs (sse2 / avx2 / avx512) must never change a result
  // bit — only throughput. Runs the same batch under every tier this CPU
  // can execute, at every width (each has its own lane_bits body), and
  // compares element-wise.
  for (const int width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    std::vector<msim::SimConfig> cfgs(static_cast<std::size_t>(width),
                                      golden_config());
    const std::vector<std::uint64_t> seeds = seeds_of_width(width);
    for (std::size_t k = 0; k < cfgs.size(); ++k) cfgs[k].seed = seeds[k];
    std::vector<msim::ModulatorResult> reference;
    for (const int t : runnable_tiers()) {
      util::simd::set_tier_override_for_testing(t);
      SCOPED_TRACE(tier_message(t));
      const std::vector<msim::ModulatorResult> res = run_batch(cfgs);
      ASSERT_EQ(res.size(), cfgs.size());
      if (t == 0) {
        reference = res;
        continue;
      }
      for (std::size_t k = 0; k < cfgs.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "lane " << k);
        expect_bit_identical(res[k], reference[k]);
      }
    }
  }
  util::simd::set_tier_override_for_testing(-1);
}

/// One heterogeneous batch (per-lane PVT) in which only some lanes take
/// each rare kernel path, so every rare-path lane mask is mixed:
///   * odd lanes run a ring above the substep rate (7 GHz against
///     fs * substeps = 6 GHz), so every substep advances the phase by more
///     than 2*pi and the wrap takes the fmod fallback whenever
///     ph + dphi >= 4*pi; their 300 ps buffer delay also pushes the
///     comparator phase past 6*pi, into the while-wrap fallback;
///   * lanes k % 3 == 0 have a 20 ps metastability aperture (about one
///     decision in twelve of a 2 GHz lane is a candidate, more at 7 GHz),
///     the others a 1e-30 s one that no decision ever reaches (the on/off
///     flag must agree across lanes).
/// Vdd, vrefp and temperature differ per lane as PVT corners would.
std::vector<msim::SimConfig> rare_path_lanes(int width) {
  std::vector<msim::SimConfig> cfgs;
  const std::vector<std::uint64_t> seeds = seeds_of_width(width);
  for (int k = 0; k < width; ++k) {
    msim::SimConfig cfg = golden_config();
    cfg.seed = seeds[static_cast<std::size_t>(k)];
    cfg.vdd = cfg.vrefp = 1.1 + 0.05 * (k % 3 - 1);
    cfg.temperature_k = 250.0 + 25.0 * k;
    if (k % 2 == 1) {
      cfg.vco_center_hz = 7e9;
      cfg.buffer_delay_s = 300e-12;
    }
    cfg.comparator_meta_window_s = k % 3 == 0 ? 20e-12 : 1e-30;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(BatchedModulatorTest, HeterogeneousRarePathsMatchSerial) {
  for (const int width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    const std::vector<msim::SimConfig> cfgs = rare_path_lanes(width);
    for (const msim::SimConfig& cfg : cfgs) {
      // The slowest a 7 GHz ring can run here (kvco * 0.55 V below centre)
      // still steps more than 2*pi per substep.
      if (cfg.vco_center_hz > 2.5e9) {
        EXPECT_GT((cfg.vco_center_hz - cfg.kvco_hz_per_v * 0.55) /
                      (cfg.fs_hz * cfg.substeps),
                  1.0);
      }
      // A metastability draw moves the comparator's stream, so a lane whose
      // aperture some decision falls into differs from the same lane with
      // the aperture off; the 1e-30 s lanes do not.
      msim::SimConfig off = cfg;
      off.comparator_meta_window_s = 0.0;
      const bool meta_fired =
          run_scalar_at_seed(cfg.seed, {}, cfg).counts !=
          run_scalar_at_seed(off.seed, {}, off).counts;
      EXPECT_EQ(meta_fired, cfg.comparator_meta_window_s > 1e-20)
          << "seed " << cfg.seed;
    }
    for (const int t : runnable_tiers()) {
      util::simd::set_tier_override_for_testing(t);
      SCOPED_TRACE(tier_message(t));
      check_lanes_vs_serial(cfgs);
    }
  }
  util::simd::set_tier_override_for_testing(-1);
}

TEST(BatchedModulatorTest, LaneBitsMatchesPerLaneLoopOnEveryTier) {
  // util::simd::lane_bits has one ISA branch per tier and width (movemask
  // or mask test, else the per-lane loop); each tier TU exports its own
  // build of it. Every lane pattern at every width, with the false lanes
  // drawn from +1, 0, +inf and NaN (a NaN compares false) and the true
  // lanes from -1, -inf and the smallest negative subnormal.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double falses[] = {1.0, 0.0, inf, nan};
  const double trues[] = {-1.0, -inf,
                          -std::numeric_limits<double>::denorm_min()};
  for (const int t : runnable_tiers()) {
    SCOPED_TRACE(tier_message(t));
    using util::simd::Tier;
    const Tier tier = static_cast<Tier>(t);
    const msim::lockstep::LockstepTable& table =
        tier == Tier::kAvx512 ? msim::lockstep::tier_avx512::table()
        : tier == Tier::kAvx2 ? msim::lockstep::tier_avx2::table()
                              : msim::lockstep::tier_sse2::table();
    for (const int width : kWidths) {
      const msim::lockstep::LaneBitsFn fn =
          width == 2 ? table.lane_bits_w2
          : width == 4 ? table.lane_bits_w4
                       : table.lane_bits_w8;
      ASSERT_NE(fn, nullptr);
      for (int pattern = 0; pattern < (1 << width); ++pattern) {
        for (int pick = 0; pick < 4; ++pick) {
          alignas(64) double a[8];
          alignas(64) double b[8];
          int want = 0;
          for (int w = 0; w < width; ++w) {
            const bool set = ((pattern >> w) & 1) != 0;
            a[w] = set ? trues[(w + pick) % 3] : falses[(w + pick) % 4];
            // A NaN on the right-hand side compares false too.
            b[w] = !set && (w + pick) % 5 == 0 ? nan : 0.0;
            want |= static_cast<int>(a[w] < b[w]) << w;
          }
          ASSERT_EQ(want, pattern);
          EXPECT_EQ(fn(a, b), want)
              << "width " << width << " pattern " << pattern << " pick "
              << pick;
        }
      }
    }
  }
}

TEST(BatchedModulatorTest, RecordBitsAndStaticMappingMatchSerial) {
  msim::VcoDsmModulator::Options opts;
  opts.record_bits = true;
  opts.mapping = msim::ElementMapping::kStaticThermometer;
  check_batch_vs_serial({42, 7, 1000, 1001}, opts);
}

TEST(BatchedModulatorTest, RippleAndMetastabilityMatchSerial) {
  // Exercises the remaining kernel branches: VREF ripple evaluation, the
  // data-dependent metastability draw, and the common-mode error flip.
  msim::SimConfig cfg = golden_config();
  cfg.vref_ripple_amp_v = 0.01;
  cfg.vref_ripple_freq_hz = 60e6;
  cfg.comparator_meta_window_s = 5e-12;
  for (const int width : kWidths) {
    check_batch_vs_serial(seeds_of_width(width), {}, cfg);
  }
}

TEST(BatchedModulatorTest, CurrentSteeringDacFallsBackToScalar) {
  msim::VcoDsmModulator::Options opts;
  opts.dac = msim::DacKind::kCurrentSteering;
  EXPECT_EQ(msim::BatchedModulator::create(golden_config(), {42, 7}, opts),
            nullptr);
  EXPECT_EQ(msim::BatchedModulator::create(golden_config(), {42, 7, 9}),
            nullptr)
      << "width 3 is not a kernel width";
}

TEST(BatchedModulatorTest, PreferredWidthIsSupported) {
  EXPECT_TRUE(
      msim::BatchedModulator::width_supported(msim::BatchedModulator::preferred_width()));
  EXPECT_GE(msim::BatchedModulator::preferred_width(), 2);
}

TEST(ResistorDacEquivalenceTest, PackedRunningSumMatchesLegacyPath) {
  util::Rng rng(123);
  msim::ResistorDacBank bank(8, 10e3, 1.1, 0.01, util::Rng(9).fork("dac"));
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<bool> levels(8);
    for (std::size_t i = 0; i < levels.size(); ++i) levels[i] = rng.bernoulli(0.5);
    const double v = rng.uniform(0.0, 1.1);
    const double legacy = bank.current_into_node(levels, v);
    bank.set_levels(msim::SliceBits::from_vector(levels));
    // Same slice-order summation in both paths => bit-identical.
    EXPECT_DOUBLE_EQ(bank.current_into_node(v), legacy);
  }
}

TEST(SliceBitsTest, BasicOperations) {
  const msim::SliceBits alt = msim::SliceBits::alternating(8);
  EXPECT_EQ(alt.count(), 4);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(alt.test(i), i % 2 == 0);
  EXPECT_EQ(alt.complement().mask(), 0xAAu);
  EXPECT_EQ(alt.toggles_vs(alt.complement()), 8);

  const msim::SliceBits th = msim::SliceBits::first_k(8, 3);
  EXPECT_EQ(th.mask(), 0x7u);
  EXPECT_EQ(msim::SliceBits::first_k(64, 64).count(), 64);

  msim::SliceBits b(8);
  b.set(2, true);
  b.set(7, true);
  EXPECT_EQ(b.count(), 2);
  b.set(2, false);
  EXPECT_EQ(b.mask(), 0x80u);

  EXPECT_EQ(msim::SliceBits::from_vector({true, false, true}).mask(), 0x5u);
  EXPECT_EQ(msim::SliceBits::full_mask(64), ~0ULL);
}

}  // namespace
}  // namespace vcoadc
