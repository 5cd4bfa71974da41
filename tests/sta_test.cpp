#include <gtest/gtest.h>

#include "core/adc_spec.h"
#include "core/adc.h"
#include "core/flow.h"
#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "netlist/liberty.h"
#include "synth/sta.h"
#include "tech/tech_node.h"

namespace vcoadc::synth {
namespace {

const tech::TechNode& node40() {
  static const tech::TechNode n = tech::TechDatabase::standard().at(40);
  return n;
}

struct ChainFixture {
  netlist::CellLibrary lib;
  netlist::Design design;
  int length;

  explicit ChainFixture(int n)
      : lib(netlist::make_standard_library(node40())),
        design(&lib),
        length(n) {
    netlist::Module& m = design.add_module("chain");
    m.add_port("IN", netlist::PortDir::kInput);
    m.add_port("OUT", netlist::PortDir::kOutput);
    m.add_port("VDD", netlist::PortDir::kInout);
    m.add_port("VSS", netlist::PortDir::kInout);
    std::string prev = "IN";
    for (int i = 0; i < n; ++i) {
      const std::string out =
          (i == n - 1) ? "OUT" : "w" + std::to_string(i);
      if (i != n - 1) m.add_net(out);
      netlist::Instance inst;
      inst.name = "u" + std::to_string(i);
      inst.master = "INVX1";
      inst.conn = {{"A", prev}, {"Y", out}, {"VDD", "VDD"}, {"VSS", "VSS"}};
      m.add_instance(inst);
      prev = out;
    }
    design.set_top("chain");
  }
};

TEST(Sta, ChainDelayIsSumOfStages) {
  ChainFixture f(10);
  TimingOptions opts;
  const TimingReport rep = analyze_timing(f.design, node40(), opts);
  EXPECT_EQ(rep.loops_cut, 0);
  EXPECT_EQ(rep.num_gates, 10);
  ASSERT_EQ(rep.critical_path.size(), 10u);
  // Inner stages drive one INVX1 input (load = C/4 of the FO4 reference),
  // the last stage drives nothing: delay in (0.5, 1.0) x intrinsic each.
  const double intrinsic =
      netlist::cell_intrinsic_delay(f.lib.at("INVX1"), node40());
  EXPECT_GT(rep.critical_delay_s, 10 * intrinsic * 0.45);
  EXPECT_LT(rep.critical_delay_s, 10 * intrinsic * 1.05);
}

TEST(Sta, LongerChainLongerDelay) {
  ChainFixture f5(5), f20(20);
  TimingOptions opts;
  const auto r5 = analyze_timing(f5.design, node40(), opts);
  const auto r20 = analyze_timing(f20.design, node40(), opts);
  EXPECT_NEAR(r20.critical_delay_s / r5.critical_delay_s, 4.0, 0.3);
}

TEST(Sta, SlackAndMaxClockConsistent) {
  ChainFixture f(8);
  TimingOptions opts;
  opts.clock_period_s = 1e-9;
  const auto rep = analyze_timing(f.design, node40(), opts);
  EXPECT_NEAR(rep.slack_s, opts.clock_period_s - rep.critical_delay_s, 1e-18);
  EXPECT_NEAR(rep.max_clock_hz * rep.critical_delay_s, 1.0, 1e-9);
}

TEST(Sta, AdcNetlistLoopsAreCut) {
  core::AdcDesign adc(core::AdcSpec::paper_40nm());
  TimingOptions opts;
  opts.clock_period_s = 1.0 / 750e6;
  const auto rep = analyze_timing(adc.netlist(), node40(), opts);
  // The design contains intentional loops: 2 distributed rings, the
  // cross-coupled NOR3 pair + SR latch per comparator (2 per slice), ...
  EXPECT_GE(rep.loops_cut, 2);
  // And the remaining DAG has real paths (XOR -> DB inverter -> DAC).
  EXPECT_GT(rep.critical_delay_s, 0.0);
  EXPECT_FALSE(rep.critical_path.empty());
}

TEST(Sta, AdcMeetsPaperClockAtFortyNm) {
  // The combinational feedback path must settle within 1/750 MHz at 40 nm.
  core::AdcDesign adc(core::AdcSpec::paper_40nm());
  TimingOptions opts;
  opts.clock_period_s = 1.0 / 750e6;
  const auto rep = analyze_timing(adc.netlist(), node40(), opts);
  EXPECT_GT(rep.slack_s, 0.0);
}

TEST(Sta, MaxClockScalesWithFo4) {
  // The timing face of scaling compatibility: the same netlist's maximum
  // clock improves ~ FO4(180)/FO4(40) when ported to the newer node.
  core::AdcDesign adc40(core::AdcSpec::paper_40nm());
  core::AdcDesign adc180(core::AdcSpec::paper_180nm());
  const auto& db = tech::TechDatabase::standard();
  TimingOptions opts;
  const auto r40 = analyze_timing(adc40.netlist(), db.at(40), opts);
  const auto r180 = analyze_timing(adc180.netlist(), db.at(180), opts);
  const double speedup = r40.max_clock_hz / r180.max_clock_hz;
  const double fo4_ratio = db.at(180).fo4_delay_s / db.at(40).fo4_delay_s;
  EXPECT_NEAR(speedup, fo4_ratio, fo4_ratio * 0.25);
  // Both nodes comfortably meet their paper clocks on the cut DAG (the
  // loop-internal comparator regeneration is the real analog limiter and
  // lives in msim, not in STA).
  EXPECT_GT(r180.max_clock_hz, 250e6);
  EXPECT_GT(r40.max_clock_hz, 750e6);
}

TEST(Sta, PlacementWireLoadSlowsPaths) {
  const core::ExecContext ctx;
  const core::AdcDesign adc(core::AdcSpec::paper_40nm(), ctx);
  const auto synth_res = core::Flow(ctx).synthesis(adc.spec());
  TimingOptions no_wire;
  TimingOptions wired;
  wired.placement = &synth_res->layout->placement();
  const auto fast = analyze_timing(adc.netlist(), node40(), no_wire);
  const auto slow = analyze_timing(adc.netlist(), node40(), wired);
  EXPECT_GT(slow.critical_delay_s, fast.critical_delay_s);
}

}  // namespace
}  // namespace vcoadc::synth
