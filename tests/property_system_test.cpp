// Parameterized property sweeps over the system layers: modulator
// invariants across seeds and slice counts, synthesis invariants across
// nodes and floorplan settings, migration across node pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/migration.h"
#include "core/flow.h"
#include "dsp/signal_gen.h"
#include "msim/modulator.h"
#include "netlist/generator.h"
#include "synth/power_grid.h"
#include "synth/synthesis_flow.h"
#include "tech/tech_node.h"

namespace vcoadc {
namespace {

// ------------------------------------------------ modulator invariants ----
class ModulatorSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModulatorSeeds, OutputsBoundedAndDeterministic) {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.seed = GetParam();
  const msim::SimConfig cfg = spec.to_sim_config();
  msim::VcoDsmModulator a(cfg);
  msim::VcoDsmModulator b(cfg);
  const std::size_t n = 2048;
  const double fin = dsp::coherent_freq(1e6, cfg.fs_hz, n);
  const auto sig = dsp::make_sine(0.5 * a.full_scale_diff(), fin);
  const auto ra = a.run(sig, n);
  const auto rb = b.run(sig, n);
  ASSERT_EQ(ra.output.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(ra.counts[i], 0);
    EXPECT_LE(ra.counts[i], cfg.num_slices);
    EXPECT_GE(ra.output[i], -1.0);
    EXPECT_LE(ra.output[i], 1.0);
    EXPECT_EQ(ra.counts[i], rb.counts[i]) << "non-deterministic at " << i;
  }
  // The control nodes stay in a sane band around the operating point.
  EXPECT_NEAR(ra.mean_vctrlp, cfg.vctrl_mid, 0.2 * cfg.vctrl_mid);
  EXPECT_NEAR(ra.mean_vctrln, cfg.vctrl_mid, 0.2 * cfg.vctrl_mid);
  EXPECT_GT(ra.mean_freq1_hz, 0.0);
  EXPECT_GT(ra.bit_toggle_rate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModulatorSeeds,
                         ::testing::Values(1u, 2u, 42u, 1234u, 99999u));

class ModulatorSlices : public ::testing::TestWithParam<int> {};

TEST_P(ModulatorSlices, LoopGainAndFullScaleFollowTheSpec) {
  const int slices = GetParam();
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = slices;
  spec.with_nonidealities = false;
  msim::VcoDsmModulator mod(spec.to_sim_config());
  EXPECT_NEAR(mod.loop_gain_lsb_per_clock(), spec.loop_gain,
              0.02 * spec.loop_gain)
      << slices;
  // Input bank mirrors the DAC bank: FS == VREFP == node VDD.
  EXPECT_NEAR(mod.full_scale_diff(), spec.tech_node().vdd, 1e-9);
}

TEST_P(ModulatorSlices, QuantizationGrainShrinksWithSlices) {
  const int slices = GetParam();
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = slices;
  spec.with_nonidealities = false;
  msim::VcoDsmModulator mod(spec.to_sim_config());
  const std::size_t n = 4096;
  const auto res = mod.run(dsp::make_dc(0.0), n);
  // Midscale DC: counts hover around slices/2 within a few LSB.
  for (std::size_t i = 64; i < n; ++i) {
    EXPECT_NEAR(res.counts[i], slices / 2.0, slices / 2.0 + 0.5) << i;
  }
  double mean = 0;
  for (std::size_t i = 64; i < n; ++i) mean += res.output[i];
  mean /= static_cast<double>(n - 64);
  EXPECT_NEAR(mean, 0.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Slices, ModulatorSlices,
                         ::testing::Values(4, 6, 8, 12, 16, 24));

// --------------------------------------------------- OSR scaling law ------
class OsrScaling : public ::testing::TestWithParam<double> {};

TEST_P(OsrScaling, InbandNoiseFollowsFirstOrderLaw) {
  // First-order shaping: in-band quantization-noise POWER grows ~BW^3, so
  // measured SNDR drops ~9 dB per bandwidth octave (one shared capture,
  // different measurement bandwidths).
  static const auto shared = [] {
    core::AdcSpec spec = core::AdcSpec::paper_40nm();
    spec.with_nonidealities = false;
    const msim::SimConfig cfg = spec.to_sim_config();
    msim::VcoDsmModulator mod(cfg);
    const std::size_t n = 1 << 15;
    const double fin = dsp::coherent_freq(500e3, cfg.fs_hz, n);
    const auto res =
        mod.run(dsp::make_sine(0.7 * mod.full_scale_diff(), fin), n);
    struct Shared {
      dsp::Spectrum spec;
      double fin;
    };
    return Shared{dsp::compute_spectrum(res.output, cfg.fs_hz, 1.0,
                                        dsp::WindowKind::kHann),
                  fin};
  }();
  const double bw = GetParam();
  const double sndr_here =
      dsp::analyze_sndr(shared.spec, bw, shared.fin).sndr_db;
  const double sndr_double =
      dsp::analyze_sndr(shared.spec, 2 * bw, shared.fin).sndr_db;
  EXPECT_NEAR(sndr_here - sndr_double, 9.0, 3.5) << "at BW " << bw;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, OsrScaling,
                         ::testing::Values(2.5e6, 5e6, 10e6));

// ------------------------------------------------- synthesis invariants ---
class SynthesisNodes : public ::testing::TestWithParam<double> {};

TEST_P(SynthesisNodes, FullFlowCleanAtEveryNode) {
  const double node_nm = GetParam();
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.node_nm = node_nm;
  // Keep the ring realizable at slower nodes: scale the clock (and band)
  // with the node's FO4, as a real port would.
  const auto& db = tech::TechDatabase::standard();
  const double speed = db.at(40).fo4_delay_s / db.at(node_nm).fo4_delay_s;
  spec.fs_hz *= speed;
  spec.bandwidth_hz *= speed;
  ASSERT_TRUE(spec.validate().empty());
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(spec);
  EXPECT_TRUE(res->drc.clean()) << node_nm;
  EXPECT_EQ(res->detailed_routing.failed_nets, 0) << node_nm;
  EXPECT_EQ(res->detailed_routing.overflowed_edges, 0) << node_nm;
  const synth::PowerGrid grid =
      synth::generate_power_grid(res->layout->floorplan());
  const auto pg = synth::check_power_grid(grid, res->layout->flat(),
                                          res->layout->placement(),
                                          res->layout->floorplan());
  EXPECT_TRUE(pg.clean()) << node_nm;
}

INSTANTIATE_TEST_SUITE_P(Nodes, SynthesisNodes,
                         ::testing::Values(40.0, 65.0, 90.0, 130.0, 180.0));

class FloorplanSettings
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(FloorplanSettings, RegionsAlwaysLegal) {
  const auto [util_target, aspect, slices] = GetParam();
  netlist::CellLibrary lib = netlist::make_standard_library(
      tech::TechDatabase::standard().at(40));
  netlist::add_resistor_cells(lib, tech::TechDatabase::standard().at(40));
  netlist::GeneratorConfig gen;
  gen.num_slices = slices;
  const netlist::Design design = netlist::build_adc_design(lib, gen);
  synth::SynthesisOptions opts;
  opts.target_utilization = util_target;
  opts.aspect_ratio = aspect;
  opts.detailed_route = false;
  const auto res = synth::synthesize(design, opts);
  const auto& fp = res.layout->floorplan();
  for (std::size_t i = 0; i < fp.regions.size(); ++i) {
    EXPECT_TRUE(fp.die.contains(fp.regions[i].rect));
    for (std::size_t j = i + 1; j < fp.regions.size(); ++j) {
      EXPECT_FALSE(fp.regions[i].rect.overlaps(fp.regions[j].rect));
    }
    // Even-row alignment (the power-rail invariant).
    const double rows =
        (fp.regions[i].rect.y - fp.die.y) / fp.row_height_m;
    EXPECT_NEAR(std::fmod(rows + 1e-9, 2.0), 0.0, 1e-6)
        << fp.regions[i].spec.name;
  }
  EXPECT_TRUE(res.drc.clean());
  EXPECT_NEAR(fp.region_area_fraction(), 1.0, 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FloorplanSettings,
    ::testing::Combine(::testing::Values(0.05, 0.08, 0.25, 0.5),
                       ::testing::Values(0.75, 1.0, 1.5),
                       ::testing::Values(4, 8, 16)));

// ------------------------------------------------------ migration pairs ---
class MigrationPairs
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MigrationPairs, MigratedDesignValidAndSynthesizable) {
  const auto [from_nm, to_nm] = GetParam();
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.node_nm = from_nm;
  const auto& db = tech::TechDatabase::standard();
  const double speed = db.at(40).fo4_delay_s / db.at(from_nm).fo4_delay_s;
  spec.fs_hz *= speed;
  spec.bandwidth_hz *= speed;
  core::AdcDesign source(spec);
  const tech::TechNode target_node =
      tech::TechDatabase::standard().at(to_nm);
  netlist::CellLibrary target = netlist::make_standard_library(target_node);
  netlist::add_resistor_cells(target, target_node);
  const auto mig = core::migrate_design(source.netlist(), target);
  EXPECT_TRUE(mig.unmappable.empty());
  EXPECT_TRUE(mig.design.validate().empty());
  synth::SynthesisOptions opts;
  opts.detailed_route = false;
  const auto res = synth::synthesize(mig.design, opts);
  EXPECT_TRUE(res.drc.clean());
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MigrationPairs,
    ::testing::Values(std::make_tuple(40.0, 180.0),
                      std::make_tuple(180.0, 40.0),
                      std::make_tuple(40.0, 90.0),
                      std::make_tuple(90.0, 65.0)));

}  // namespace
}  // namespace vcoadc
