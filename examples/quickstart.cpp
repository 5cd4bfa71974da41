// Quickstart: specify an ADC, simulate it, and read the headline metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/adc.h"
#include "core/flow.h"
#include "util/units.h"

int main() {
  using namespace vcoadc;

  // 1. Pick a design point. paper_40nm() is Table 3's first row; every knob
  //    can be overridden (node, slices, clock, bandwidth, loop gain).
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  std::printf("design: %s\n", spec.describe().c_str());

  // 2. Instantiate. This derives the behavioral model AND the gate-level
  //    netlist (Tables 1/2 of the paper) from the same spec. The execution
  //    context holds the artifact cache every stage shares.
  const core::ExecContext ctx;
  const core::AdcDesign adc(spec, ctx);
  std::printf("netlist: %d digital gates, %d resistor cells\n",
              adc.netlist().stats().digital_gates,
              adc.netlist().stats().resistors);

  // 3. Simulate a -3 dBFS, ~1 MHz tone and analyze the spectrum.
  core::SimulationOptions opts;
  opts.n_samples = 1 << 15;
  opts.fin_target_hz = 1e6;
  const core::RunResult res = adc.simulate(opts);

  std::printf("\nresults:\n");
  std::printf("  input tone     %s at %.1f dBFS\n",
              util::si_format(res.fin_hz, "Hz").c_str(),
              res.sndr.fundamental_dbfs);
  std::printf("  SNDR           %.1f dB in %s\n", res.sndr.sndr_db,
              util::si_format(spec.bandwidth_hz, "Hz").c_str());
  std::printf("  ENOB           %.2f bits\n", res.sndr.enob);
  std::printf("  noise shaping  %.1f dB/dec\n", res.shaping.db_per_decade);
  std::printf("  power          %s (digital %.0f%%)\n",
              util::si_format(res.power.total_w(), "W").c_str(),
              res.power.digital_fraction() * 100);
  std::printf("  Walden FOM     %.0f fJ/conv-step\n", res.fom_fj);

  // 4. Synthesize the layout (Fig. 9 flow: floorplan, place, route) as a
  //    stage of the flow graph, and check it is DRC clean.
  const auto layout = core::Flow(ctx).synthesis(spec);
  std::printf("\nlayout: %.4f mm^2, %zu DRC violations\n",
              layout->stats.die_area_m2 * 1e6, layout->drc.violations.size());
  return 0;
}
