// Fig. 13 / Fig. 14 reproduction: automatically synthesized layouts in
// 40 nm and 180 nm with power domains and component groups indicated, plus
// the Sec. 3.3 motivation experiment (the naive PD-oblivious flow shorts
// power rails; the proposed flow is DRC clean).
#include "bench/bench_common.h"
#include "core/adc_spec.h"
#include "netlist/generator.h"
#include "netlist/verilog_writer.h"
#include "synth/power_grid.h"
#include "synth/synthesis_flow.h"

using namespace vcoadc;

namespace {

void synthesize_node(const core::AdcSpec& spec) {
  const core::ExecContext ctx;
  const core::AdcDesign adc(spec, ctx);
  const auto res = core::Flow(ctx).synthesis(spec);

  std::printf("\n--- %s ---\n", spec.describe().c_str());
  std::printf("gate-level netlist: %d digital gates + %d resistor cells\n",
              adc.netlist().stats().digital_gates,
              adc.netlist().stats().resistors);
  std::printf("floorplan spec (Fig. 9 input):\n%s",
              res->floorplan_spec.c_str());
  std::printf("\nlayout (Fig. 14 analog - power domains/groups indicated):\n%s",
              res->layout->render_ascii(96).c_str());
  std::printf("die area: %.4f mm^2, utilization %.2f, %d rows, HPWL %.1f um, "
              "max congestion %.1f\n",
              res->stats.die_area_m2 * 1e6, res->stats.utilization,
              res->stats.num_rows, res->routing.total_hpwl_m * 1e6,
              res->routing.congestion.max_demand);
  std::printf("detailed routing: %.1f um wire, %d vias, %d failed nets, "
              "%d overflowed edges (grid %dx%d)\n",
              res->detailed_routing.total_wirelength_m * 1e6,
              res->detailed_routing.total_vias,
              res->detailed_routing.failed_nets,
              res->detailed_routing.overflowed_edges,
              res->detailed_routing.grid_x, res->detailed_routing.grid_y);
  const synth::PowerGrid grid =
      synth::generate_power_grid(res->layout->floorplan());
  const auto pg = synth::check_power_grid(grid, res->layout->flat(),
                                          res->layout->placement(),
                                          res->layout->floorplan());
  std::printf("power grid: %zu rails, %s, max IR drop %.2f mV (%s)\n",
              grid.rails.size(), pg.clean() ? "fully connected" : "BROKEN",
              pg.max_ir_drop_v * 1e3, pg.worst_rail.c_str());
  std::printf("DRC: %zu violations\n", res->drc.violations.size());
}

}  // namespace

int main() {
  bench::header("Fig. 13/14 - automatically synthesized layouts",
                "Fig. 13a (40 nm), Fig. 13b (180 nm), Fig. 14 (PD/group map)");

  const auto spec40 = core::AdcSpec::paper_40nm();
  const auto spec180 = core::AdcSpec::paper_180nm();
  synthesize_node(spec40);
  synthesize_node(spec180);

  // Area contrast + DRC shape checks.
  const core::ExecContext ctx;
  const auto r40 = core::Flow(ctx).synthesis(spec40);
  const auto r180 = core::Flow(ctx).synthesis(spec180);
  const double ratio = r180->stats.die_area_m2 / r40->stats.die_area_m2;
  std::printf("\narea(180 nm) / area(40 nm) = %.1fx (paper: 0.151/0.012 = 12.6x)\n",
              ratio);

  // Sec. 3.3: the prior oversimplified flow on this circuit.
  synth::SynthesisOptions naive;
  naive.respect_power_domains = false;
  const auto rnaive = core::Flow(ctx).synthesis(spec40, naive);
  std::printf(
      "\nnaive PD-oblivious APR (prior works' flow) on the same netlist:\n"
      "  power-rail-short violations: %d (proposed flow: %d)\n",
      rnaive->drc.count(synth::DrcKind::kPowerRailShort),
      r40->drc.count(synth::DrcKind::kPowerRailShort));

  bench::shape_check("proposed flow is DRC clean at both nodes",
                     r40->drc.clean() && r180->drc.clean());
  bench::shape_check("naive flow shorts P/G rails (motivates Sec. 3.3)",
                     rnaive->drc.count(synth::DrcKind::kPowerRailShort) > 0);
  bench::shape_check("180 nm layout is much larger (paper: 12.6x)",
                     ratio > 6.0 && ratio < 25.0);
  bench::shape_check("all 6 power domains + 4 groups present in floorplan",
                     r40->stats.num_regions == 10);
  return 0;
}
