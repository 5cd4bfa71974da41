// Ablation: timing signoff across nodes (the "within the ADC performance
// boundary in a given process" clause of Sec. 2.2, quantified by STA).
// The netlist's combinational feedback path bounds the usable clock; the
// bound improves with the node's FO4 - the timing face of the paper's
// scaling-compatibility claim.
#include "bench/bench_common.h"
#include "synth/sta.h"
#include "tech/tech_node.h"

using namespace vcoadc;

int main() {
  bench::header("Ablation - STA across nodes",
                "Sec. 2.2 clock-frequency boundary, via static timing");

  util::Table t("critical combinational path of the generated netlist");
  t.set_header({"node", "critical delay [ps]", "max clock [GHz]",
                "slack @ paper fs [ps]", "loops cut"});
  std::vector<double> max_clk;
  const auto& db = tech::TechDatabase::standard();
  for (double node_nm : {180.0, 130.0, 90.0, 65.0, 40.0}) {
    core::AdcSpec spec = core::AdcSpec::paper_40nm();
    spec.node_nm = node_nm;
    // Keep the spec realizable at slow nodes (the netlist under timing
    // analysis is identical either way).
    const double speed =
        db.at(40).fo4_delay_s / db.at(node_nm).fo4_delay_s;
    spec.fs_hz *= speed;
    spec.bandwidth_hz *= speed;
    const core::ExecContext ctx;
    const core::AdcDesign adc(spec, ctx);
    const auto synth_res = core::Flow(ctx).synthesis(spec);
    synth::TimingOptions opts;
    opts.clock_period_s = (node_nm >= 130) ? 1.0 / 250e6 : 1.0 / 750e6;
    opts.placement = &synth_res->layout->placement();
    const auto rep =
        synth::analyze_timing(adc.netlist(), db.at(node_nm), opts);
    max_clk.push_back(rep.max_clock_hz);
    t.add_row({db.at(node_nm).name,
               bench::fmt("%.1f", rep.critical_delay_s * 1e12),
               bench::fmt("%.2f", rep.max_clock_hz / 1e9),
               bench::fmt("%.0f", rep.slack_s * 1e12),
               std::to_string(rep.loops_cut)});
  }
  t.add_footnote("max clock = 1 / critical combinational delay (XOR -> DB "
                 "inverter -> DAC driver chain); rings/latches are cut loops");
  t.print(std::cout);

  // Critical path detail at 40 nm.
  core::AdcDesign adc(core::AdcSpec::paper_40nm());
  synth::TimingOptions opts;
  opts.clock_period_s = 1.0 / 750e6;
  const auto rep = synth::analyze_timing(adc.netlist(), db.at(40), opts);
  std::printf("\n40 nm critical path:\n");
  for (const auto& step : rep.critical_path) {
    std::printf("  %-28s -> %-24s %+6.1f ps (at %6.1f ps)\n",
                step.through_gate.c_str(), step.to_net.c_str(),
                step.arc_delay_s * 1e12, step.arrival_s * 1e12);
  }

  bench::shape_check("max clock improves monotonically with scaling",
                     std::is_sorted(max_clk.begin(), max_clk.end()));
  bench::shape_check("40 nm meets 750 MHz with positive slack",
                     rep.slack_s > 0);
  bench::shape_check(
      "max-clock gain 180 nm -> 40 nm tracks the FO4 ratio (~5.8x)",
      max_clk.back() / max_clk.front() > 3.5 &&
          max_clk.back() / max_clk.front() < 9.0);
  return 0;
}
