#include <gtest/gtest.h>

#include <cmath>

#include "core/linearity.h"
#include "synth/floorplan.h"
#include "synth/synthesis_flow.h"
#include "core/adc.h"
#include "core/flow.h"

namespace vcoadc::core {
namespace {

TEST(Linearity, AnalyzerRecoversSyntheticLine) {
  TransferCurve c;
  for (int i = 0; i <= 20; ++i) {
    const double x = -1.0 + 0.1 * i;
    c.input_v.push_back(x);
    c.output.push_back(0.05 + 0.9 * x);  // perfect line
  }
  const auto rep = analyze_linearity(c, 0.125);
  EXPECT_NEAR(rep.gain, 0.9, 1e-9);
  EXPECT_NEAR(rep.offset, 0.05, 1e-9);
  EXPECT_NEAR(rep.max_inl_lsb, 0.0, 1e-9);
  EXPECT_NEAR(rep.max_dnl_lsb, 0.0, 1e-9);
}

TEST(Linearity, AnalyzerSeesInjectedBow) {
  TransferCurve c;
  for (int i = 0; i <= 20; ++i) {
    const double x = -1.0 + 0.1 * i;
    c.input_v.push_back(x);
    c.output.push_back(x + 0.05 * (1.0 - x * x));  // parabola bow
  }
  const auto rep = analyze_linearity(c, 0.125);
  // Bow magnitude ~0.033 after line fit -> ~0.27 LSB of 0.125.
  EXPECT_GT(rep.max_inl_lsb, 0.15);
}

TEST(Linearity, IdealAdcTransferIsStraight) {
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.with_nonidealities = false;
  TransferOptions opts;
  opts.points = 17;
  opts.samples_per_point = 3072;
  const TransferCurve c = measure_transfer(spec, opts);
  const double lsb = 2.0 / spec.num_slices;
  const auto rep = analyze_linearity(c, lsb);
  // Averaged delta-sigma transfer: residuals far below one raw LSB.
  EXPECT_LT(rep.max_inl_lsb, 0.15);
  // Inverting feedback: gain ~ -1/FS.
  EXPECT_NEAR(std::fabs(rep.gain) * 1.1, 1.0, 0.1);
}

TEST(Linearity, StaticMappingBendsTransferUnderMismatch) {
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.with_nonidealities = false;
  // Inject element mismatch only.
  TransferOptions rot;
  rot.points = 17;
  rot.samples_per_point = 2048;
  TransferOptions stat = rot;
  stat.mapping = msim::ElementMapping::kStaticThermometer;

  auto inl_with = [&](const TransferOptions& o) {
    AdcSpec s = spec;
    s.with_nonidealities = true;  // enables the mismatch draws
    // Strip the noise sources, keep only the DAC mismatch, by zeroing the
    // other magnitudes through a custom config via seed-stable spec knobs:
    // simplest faithful proxy is to compare both mappings under the SAME
    // nonidealities - rotation must stay straighter.
    const TransferCurve c = measure_transfer(s, o);
    return analyze_linearity(c, 2.0 / s.num_slices).max_inl_lsb;
  };
  const double inl_rot = inl_with(rot);
  const double inl_stat = inl_with(stat);
  EXPECT_LT(inl_rot, inl_stat);
}

TEST(FloorplanSpec, RoundTripGeometry) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(AdcSpec::paper_40nm());
  const std::string spec_text = res->floorplan_spec;
  const auto parsed = synth::parse_floorplan_spec(spec_text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& orig = res->layout->floorplan();
  EXPECT_NEAR(parsed.floorplan.die.w, orig.die.w, 1e-9);
  EXPECT_NEAR(parsed.floorplan.die.h, orig.die.h, 1e-9);
  EXPECT_NEAR(parsed.floorplan.row_height_m, orig.row_height_m, 1e-12);
  ASSERT_EQ(parsed.floorplan.regions.size(), orig.regions.size());
  for (std::size_t i = 0; i < orig.regions.size(); ++i) {
    const auto* r = parsed.floorplan.find(orig.regions[i].spec.name);
    ASSERT_NE(r, nullptr) << orig.regions[i].spec.name;
    EXPECT_NEAR(r->rect.x, orig.regions[i].rect.x, 1e-9);
    EXPECT_NEAR(r->rect.w, orig.regions[i].rect.w, 1e-9);
    EXPECT_EQ(r->spec.is_group, orig.regions[i].spec.is_group);
  }
}

TEST(FloorplanSpec, ParserRejectsBadInput) {
  EXPECT_FALSE(synth::parse_floorplan_spec("").ok);
  EXPECT_FALSE(synth::parse_floorplan_spec("DIE 0 0\n").ok);
  EXPECT_FALSE(synth::parse_floorplan_spec("BOGUS x\n").ok);
  const auto res =
      synth::parse_floorplan_spec("DIE 0 0 10 10\nPOWER_DOMAIN P 0 0 5 5 x\n");
  EXPECT_TRUE(res.ok);
}

}  // namespace
}  // namespace vcoadc::core
