#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/flow.h"
#include "core/migration.h"
#include "core/power_model.h"
#include "netlist/generator.h"
#include "util/units.h"

namespace vcoadc::core {
namespace {

TEST(AdcSpec, PaperOperatingPoints) {
  const AdcSpec s40 = AdcSpec::paper_40nm();
  EXPECT_DOUBLE_EQ(s40.fs_hz, 750e6);
  EXPECT_DOUBLE_EQ(s40.bandwidth_hz, 5e6);
  EXPECT_NEAR(s40.osr(), 75.0, 1e-9);
  const AdcSpec s180 = AdcSpec::paper_180nm();
  EXPECT_DOUBLE_EQ(s180.fs_hz, 250e6);
  EXPECT_DOUBLE_EQ(s180.bandwidth_hz, 1.4e6);
}

TEST(AdcSpec, ValidationAcceptsPaperPointsRejectsNonsense) {
  EXPECT_TRUE(AdcSpec::paper_40nm().validate().empty());
  EXPECT_TRUE(AdcSpec::paper_180nm().validate().empty());

  AdcSpec bad_node = AdcSpec::paper_40nm();
  bad_node.node_nm = 55;
  EXPECT_FALSE(bad_node.validate().empty());

  AdcSpec bad_slices = AdcSpec::paper_40nm();
  bad_slices.num_slices = 1;
  EXPECT_FALSE(bad_slices.validate().empty());

  AdcSpec nyquist = AdcSpec::paper_40nm();
  nyquist.bandwidth_hz = nyquist.fs_hz;  // not oversampled
  EXPECT_FALSE(nyquist.validate().empty());

  AdcSpec low_osr = AdcSpec::paper_40nm();
  low_osr.bandwidth_hz = low_osr.fs_hz / 8;  // OSR 4
  EXPECT_FALSE(low_osr.validate().empty());

  // Ring realizability: 750 MHz clock at 180 nm with 16 stages demands a
  // 2 GHz ring against a ~1.7 GHz limit -> rejected.
  AdcSpec too_fast = AdcSpec::paper_180nm();
  too_fast.fs_hz = 750e6;
  EXPECT_FALSE(too_fast.validate().empty());

  AdcSpec hot_loop = AdcSpec::paper_40nm();
  hot_loop.loop_gain = 10.0;
  EXPECT_FALSE(hot_loop.validate().empty());
}

TEST(AdcSpec, SimConfigDerivation) {
  const msim::SimConfig cfg = AdcSpec::paper_40nm().to_sim_config();
  EXPECT_DOUBLE_EQ(cfg.vdd, 1.1);       // 40 nm supply
  EXPECT_DOUBLE_EQ(cfg.vrefp, 1.1);
  EXPECT_DOUBLE_EQ(cfg.r_dac_ohms, 44000.0);  // four 11k fragments
  EXPECT_NEAR(cfg.r_input_ohms, 44000.0 / 16, 1e-9);
  EXPECT_GT(cfg.kvco_hz_per_v, 1e8);
  EXPECT_LT(cfg.kvco_hz_per_v, 5e9);
  EXPECT_GT(cfg.comparator_offset_sigma_v, 0.0);
}

TEST(AdcSpec, LoopGainLandsAtRequested) {
  for (double g : {0.5, 1.0, 2.0}) {
    AdcSpec spec = AdcSpec::paper_40nm();
    spec.loop_gain = g;
    msim::VcoDsmModulator mod(spec.to_sim_config());
    EXPECT_NEAR(mod.loop_gain_lsb_per_clock(), g, 0.02 * g);
  }
}

TEST(AdcSpec, FullScaleEqualsSupply) {
  // With the input bank mirroring the DAC bank, FS_diff == VREFP == VDD.
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.with_nonidealities = false;  // exact without resistor mismatch draws
  msim::VcoDsmModulator mod(spec.to_sim_config());
  EXPECT_NEAR(mod.full_scale_diff(), 1.1, 1e-9);
}

TEST(AdcDesign, SimulateReachesPaperSndr) {
  // The headline Table 3 number: ~69.5 dB SNDR in 5 MHz at 40 nm. Accept a
  // band around it (the substrate is a behavioral model, not their PDK).
  AdcDesign adc(AdcSpec::paper_40nm());
  SimulationOptions opts;
  opts.n_samples = 1 << 15;  // shorter capture for test speed
  const RunResult res = adc.simulate(opts);
  EXPECT_GT(res.sndr.sndr_db, 64.0);
  EXPECT_LT(res.sndr.sndr_db, 80.0);
  EXPECT_NEAR(res.sndr.fundamental_dbfs, -3.0, 1.0);
}

TEST(AdcDesign, NoiseShapingTwentyDbPerDecade) {
  AdcDesign adc(AdcSpec::paper_40nm());
  SimulationOptions opts;
  opts.n_samples = 1 << 15;
  const RunResult res = adc.simulate(opts);
  EXPECT_NEAR(res.shaping.db_per_decade, 20.0, 6.0);
}

TEST(AdcDesign, BothNodesReachSimilarSndr) {
  // Table 3's central claim: the SAME architecture hits ~the same SNDR at
  // both nodes (69.5 dB in the paper).
  AdcDesign adc40(AdcSpec::paper_40nm());
  AdcDesign adc180(AdcSpec::paper_180nm());
  SimulationOptions o40;
  o40.n_samples = 1 << 15;
  SimulationOptions o180 = o40;
  o180.fin_target_hz = 250e3;  // the paper's 180 nm test tone
  const RunResult r40 = adc40.simulate(o40);
  const RunResult r180 = adc180.simulate(o180);
  EXPECT_GT(r40.sndr.sndr_db, 64.0);
  EXPECT_GT(r180.sndr.sndr_db, 64.0);
  EXPECT_NEAR(r40.sndr.sndr_db, r180.sndr.sndr_db, 6.0);
}

TEST(AdcDesign, PowerAndFomImproveWithScaling) {
  // Table 3 shapes: 40 nm wins power (~4x), FOM (>5x) at equal SNDR.
  AdcDesign adc40(AdcSpec::paper_40nm());
  AdcDesign adc180(AdcSpec::paper_180nm());
  SimulationOptions o40;
  o40.n_samples = 1 << 14;
  SimulationOptions o180 = o40;
  o180.fin_target_hz = 250e3;
  const RunResult r40 = adc40.simulate(o40);
  const RunResult r180 = adc180.simulate(o180);
  EXPECT_LT(r40.power.total_w(), r180.power.total_w() / 2.5);
  EXPECT_LT(r40.fom_fj, r180.fom_fj / 5.0);
  // Absolute ballparks (paper: 1.37 mW / 5.45 mW), generous factor-2 bands.
  EXPECT_GT(r40.power.total_w(), 0.6e-3);
  EXPECT_LT(r40.power.total_w(), 3.0e-3);
  EXPECT_GT(r180.power.total_w(), 2.5e-3);
  EXPECT_LT(r180.power.total_w(), 12e-3);
}

TEST(AdcDesign, PowerBreakdownMatchesFig15Shape) {
  // Fig. 15: digital fraction 73% at 40 nm, 88% at 180 nm - the digital
  // share must be large at both and LARGER at the older node.
  AdcDesign adc40(AdcSpec::paper_40nm());
  AdcDesign adc180(AdcSpec::paper_180nm());
  SimulationOptions o40;
  o40.n_samples = 1 << 14;
  SimulationOptions o180 = o40;
  o180.fin_target_hz = 250e3;
  const RunResult r40 = adc40.simulate(o40);
  const RunResult r180 = adc180.simulate(o180);
  EXPECT_GT(r40.power.digital_fraction(), 0.55);
  EXPECT_LT(r40.power.digital_fraction(), 0.88);
  EXPECT_GT(r180.power.digital_fraction(), 0.78);
  EXPECT_GT(r180.power.digital_fraction(), r40.power.digital_fraction());
}

TEST(AdcDesign, FullReportHasAreaAndCleanDrc) {
  const ExecContext ctx;
  SimulationOptions opts;
  opts.n_samples = 1 << 13;
  const NodeReport report = Flow(ctx).report(AdcSpec::paper_40nm(), opts);
  EXPECT_TRUE(report.synthesis.drc.clean());
  EXPECT_GT(report.area_mm2, 1e-4);
  EXPECT_LT(report.area_mm2, 0.2);
  // Wire load got folded into the power model.
  EXPECT_GT(report.run.power.wire_w, 0.0);
}

TEST(AdcDesign, AreaRatioBetweenNodesInPaperBallpark) {
  // Table 3: 0.151 / 0.012 = 12.6x. Accept 6x..25x from our geometry model.
  const ExecContext ctx;
  const auto r40 = Flow(ctx).synthesis(AdcSpec::paper_40nm());
  const auto r180 = Flow(ctx).synthesis(AdcSpec::paper_180nm());
  const double ratio = r180->stats.die_area_m2 / r40->stats.die_area_m2;
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 25.0);
}

TEST(AdcDesign, LowAmplitudeInputHasNoIdleTones) {
  // Fig. 18: 10 mV input, "no idle tones are observed".
  AdcDesign adc(AdcSpec::paper_40nm());
  SimulationOptions opts;
  opts.n_samples = 1 << 15;
  opts.amplitude_dbfs = util::db_amplitude(0.010 / (1.1 / 2));  // 10 mV amp
  const RunResult res = adc.simulate(opts);
  EXPECT_TRUE(res.idle_tones.empty())
      << "found " << res.idle_tones.size() << " idle tones, first at "
      << (res.idle_tones.empty() ? 0.0 : res.idle_tones[0].freq_hz);
}

TEST(PowerModel, WireCapAddsPower) {
  AdcDesign adc(AdcSpec::paper_40nm());
  SimulationOptions no_wire;
  no_wire.n_samples = 1 << 12;
  SimulationOptions wired = no_wire;
  wired.wire_cap_f = 1e-12;
  const RunResult a = adc.simulate(no_wire);
  const RunResult b = adc.simulate(wired);
  EXPECT_GT(b.power.total_w(), a.power.total_w());
  EXPECT_DOUBLE_EQ(a.power.wire_w, 0.0);
}

TEST(PowerModel, ComponentsAllPositive) {
  AdcDesign adc(AdcSpec::paper_40nm());
  SimulationOptions opts;
  opts.n_samples = 1 << 12;
  const RunResult res = adc.simulate(opts);
  EXPECT_GT(res.power.vco_w, 0.0);
  EXPECT_GT(res.power.sampling_w, 0.0);
  EXPECT_GT(res.power.dac_drive_w, 0.0);
  EXPECT_GT(res.power.buffer_sw_w, 0.0);
  EXPECT_GT(res.power.dac_static_w, 0.0);
  EXPECT_GT(res.power.buffer_bias_w, 0.0);
  EXPECT_GT(res.power.leakage_w, 0.0);
}

// What the analysis step reads off one 2^12-sample run, pinned bit for bit:
// every PowerBreakdown field, the shaping fit, SNDR and the idle-tone count.
struct PinnedAnalysis {
  double vco_w, sampling_w, dac_drive_w, buffer_sw_w;
  double wire_w, leakage_w, dac_static_w, buffer_bias_w;
  double db_per_decade, r_squared, sndr_db;
  std::size_t idle_tones;
};

void expect_pinned(const RunResult& r, const PinnedAnalysis& want,
                   const char* tag) {
  SCOPED_TRACE(tag);
  const auto expect_bits = [](double got, double pinned, const char* field) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(pinned))
        << field << ": got " << std::hexfloat << got << ", pinned " << pinned;
  };
  expect_bits(r.power.vco_w, want.vco_w, "vco_w");
  expect_bits(r.power.sampling_w, want.sampling_w, "sampling_w");
  expect_bits(r.power.dac_drive_w, want.dac_drive_w, "dac_drive_w");
  expect_bits(r.power.buffer_sw_w, want.buffer_sw_w, "buffer_sw_w");
  expect_bits(r.power.wire_w, want.wire_w, "wire_w");
  expect_bits(r.power.leakage_w, want.leakage_w, "leakage_w");
  expect_bits(r.power.dac_static_w, want.dac_static_w, "dac_static_w");
  expect_bits(r.power.buffer_bias_w, want.buffer_bias_w, "buffer_bias_w");
  expect_bits(r.shaping.db_per_decade, want.db_per_decade, "db_per_decade");
  expect_bits(r.shaping.r_squared, want.r_squared, "r_squared");
  expect_bits(r.sndr.sndr_db, want.sndr_db, "sndr_db");
  EXPECT_EQ(r.idle_tones.size(), want.idle_tones);
}

TEST(AdcDesign, AnalysisStepPinnedBitForBit) {
  // Lanes 0 and 7 of a W=8 simulate_batch group (seeds, amplitudes and wire
  // loads differ per lane), then one scalar simulate(), on both paper nodes.
  const PinnedAnalysis pinned[2][3] = {
      {// 40 nm
       {0x1.6655199a904fap-13, 0x1.8aa3f0502dc29p-12, 0x1.7d7bcaeb65021p-16,
        0x1.6655595fcd996p-13, 0x1.4d0dcfcc5b8ddp-14, 0x1.86699b620c314p-20,
        0x1.5a07b352a92d5p-12, 0x1.711947cfa26a3p-13, 0x1.412f312fa541cp+4,
        0x1.de743b2b491b7p-1, 0x1.0e1925e53918ep+6, 0},
       {0x1.6654c292d2b81p-13, 0x1.8aa3f0502dc29p-12, 0x1.35679d3387353p-15,
        0x1.66555319f75ffp-13, 0x1.4d0dcfcc5b8ddp-11, 0x1.86699b620c314p-20,
        0x1.5a07b352acf48p-12, 0x1.711947cfa26a3p-13, 0x1.37689284fdaa9p+4,
        0x1.e1b3d87844e7bp-1, 0x1.99e68ff36176ap+5, 0},
       {0x1.6655f3fdfaedbp-13, 0x1.8aa3f0502dc29p-12, 0x1.0bf42c2ea9831p-15,
        0x1.66556963f75f9p-13, 0x1.4d0dcfcc5b8ddp-12, 0x1.86699b620c314p-20,
        0x1.5a07b352ac94p-12, 0x1.711947cfa26a3p-13, 0x1.445d459cdd3a4p+4,
        0x1.f34696ad3c31ep-1, 0x1.ea6a9cb47dea8p+5, 0}},
      {// 180 nm
       {0x1.67d0363a4376cp-11, 0x1.8c4568d7ea3dap-10, 0x1.7ee61138d9ddep-14,
        0x1.67d06911dcaffp-11, 0x1.294573a797892p-14, 0x1.15a06e7e9c958p-27,
        0x1.cf47aa445aa5p-12, 0x1.2dfd694ccab3fp-12, 0x1.39e4fcf3ba2b7p+4,
        0x1.ea9fa79328f23p-1, 0x1.15ee35b47acd1p+6, 0},
       {0x1.67d0325afa606p-11, 0x1.8c4568d7ea3dap-10, 0x1.36ac2a978d8dfp-13,
        0x1.67d068a312d32p-11, 0x1.294573a797892p-11, 0x1.15a06e7e9c958p-27,
        0x1.cf47aa445ac0ap-12, 0x1.2dfd694ccab3fp-12, 0x1.1b622baef7262p+4,
        0x1.e0922a500d8d6p-1, 0x1.bf0fb51808609p+5, 0},
       {0x1.67d0a63acebffp-11, 0x1.8c4568d7ea3dap-10, 0x1.0cba51c941141p-13,
        0x1.67d0745e55cc1p-11, 0x1.294573a797892p-12, 0x1.15a06e7e9c958p-27,
        0x1.cf47aa445a9d8p-12, 0x1.2dfd694ccab3fp-12, 0x1.2714e057288acp+4,
        0x1.e664334c5e83ap-1, 0x1.01e2ad803b26ap+6, 0}}};
  const AdcSpec specs[2] = {AdcSpec::paper_40nm(), AdcSpec::paper_180nm()};
  for (int node = 0; node < 2; ++node) {
    SCOPED_TRACE(specs[node].node_nm);
    AdcDesign adc(specs[node]);
    std::vector<SimulationOptions> group(8);
    for (std::size_t k = 0; k < group.size(); ++k) {
      group[k].n_samples = 1 << 12;
      group[k].fin_target_hz = node == 0 ? 1e6 : 250e3;
      group[k].seed = 101 + k;
      group[k].wire_cap_f = 0.25e-12 * static_cast<double>(k + 1);
      group[k].amplitude_dbfs = -3.0 - 2.0 * static_cast<double>(k);
    }
    msim::BatchedWorkspace ws;
    const std::vector<RunResult> lanes = adc.simulate_batch(group, ws);
    ASSERT_EQ(lanes.size(), group.size());
    expect_pinned(lanes.front(), pinned[node][0], "batched lane 0");
    expect_pinned(lanes.back(), pinned[node][1], "batched lane 7");
    SimulationOptions one = group[3];
    one.seed = 7;
    expect_pinned(adc.simulate(one), pinned[node][2], "scalar");
  }
}

TEST(AdcDesign, NetlistMatchesSimConfigResistorNetwork) {
  // The behavioral model and the generated netlist must describe the SAME
  // feedback network: R_dac = dac_fragments series RES11K per slice/side,
  // input bank = num_slices parallel chains per side.
  const AdcSpec spec = AdcSpec::paper_40nm();
  AdcDesign adc(spec);
  const auto stats = adc.netlist().stats();
  const int per_chain = spec.dac_fragments;
  const int expected =
      2 * spec.num_slices * per_chain      // DAC resistors (both sides)
      + 2 * spec.num_slices * per_chain;   // input banks (both sides)
  EXPECT_EQ(stats.resistors, expected);
  // And the simulator derives exactly that network.
  const msim::SimConfig cfg = spec.to_sim_config();
  EXPECT_DOUBLE_EQ(cfg.r_dac_ohms, 11000.0 * per_chain);
  EXPECT_DOUBLE_EQ(cfg.r_input_ohms, cfg.r_dac_ohms / spec.num_slices);
}

TEST(Migration, IdentityWhenLibrariesMatch) {
  AdcDesign adc(AdcSpec::paper_40nm());
  const auto& lib180 = netlist::make_standard_library(
      tech::TechDatabase::standard().at(180));
  netlist::CellLibrary target = lib180;
  netlist::add_resistor_cells(target, tech::TechDatabase::standard().at(180));
  const MigrationResult res = migrate_design(adc.netlist(), target);
  EXPECT_TRUE(res.remapped.empty());
  EXPECT_TRUE(res.unmappable.empty());
  EXPECT_GT(res.exact_matches, 0);
  EXPECT_TRUE(res.design.validate().empty());
}

TEST(Migration, NearestSizeMappingIntoSparseLibrary) {
  // Target library missing X4 cells: NOR3X4 must land on NOR3X2.
  AdcDesign adc(AdcSpec::paper_40nm());
  const tech::TechNode node180 = tech::TechDatabase::standard().at(180);
  netlist::CellLibrary sparse("sparse_180");
  const netlist::CellLibrary full180 = netlist::make_standard_library(node180);
  for (const auto& cell : full180.cells()) {
    // Keep the clock buffer (sole drive in its class); drop other X4+ cells.
    if (cell.drive < 4 || cell.function == "clkbuf") sparse.add(cell);
  }
  netlist::add_resistor_cells(sparse, node180);
  const MigrationResult res = migrate_design(adc.netlist(), sparse);
  EXPECT_GT(res.nearest_matches, 0);
  bool found = false;
  for (const auto& rec : res.remapped) {
    if (rec.from_cell == "NOR3X4") {
      EXPECT_EQ(rec.to_cell, "NOR3X2");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(res.design.validate().empty());
}

TEST(Migration, MigratedDesignSynthesizesClean) {
  AdcDesign adc(AdcSpec::paper_40nm());
  const tech::TechNode node180 = tech::TechDatabase::standard().at(180);
  netlist::CellLibrary target =
      netlist::make_standard_library(node180);
  netlist::add_resistor_cells(target, node180);
  const MigrationResult res = migrate_design(adc.netlist(), target);
  const auto synth_result = synth::synthesize(res.design, {});
  EXPECT_TRUE(synth_result.drc.clean());
}

}  // namespace
}  // namespace vcoadc::core
