// Ports the same ADC design across technology nodes - the Sec. 4 migration
// experiment generalized. The HDL stays fixed; cells remap to their
// closest-size counterparts in each target library, the layout re-
// synthesizes, and the behavioral model re-evaluates. This is the paper's
// "describing AMS circuit in HDL greatly enhances circuit portability".
#include <cstdio>
#include <iostream>

#include "core/adc.h"
#include "core/flow.h"
#include "core/migration.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace vcoadc;

  // The source design: the 40 nm Table 3 part.
  const core::AdcSpec src_spec = core::AdcSpec::paper_40nm();
  const core::ExecContext ctx;
  core::Flow flow(ctx);
  std::printf("source: %s\n\n", src_spec.describe().c_str());

  util::Table t("one design, four nodes");
  t.set_header({"node", "remapped cells", "area [mm^2]", "SNDR [dB]",
                "power [mW]", "FOM [fJ/conv]"});

  for (double node : {180.0, 90.0, 65.0, 40.0}) {
    // 1. Netlist migration onto the target node's (cache-shared) library.
    const tech::TechNode tn = tech::TechDatabase::standard().at(node);
    const core::MigratedDesign mig = flow.migrate(src_spec, node);

    // 2. Layout re-synthesis on the migrated netlist.
    const auto layout = synth::synthesize(mig.result.design, {});

    // 3. Behavioral re-evaluation at the ported operating point (clock
    //    scaled with the node's FO4 so the ring has the same relative
    //    headroom everywhere).
    core::AdcSpec spec = src_spec;
    spec.node_nm = node;
    const double speed = tech::TechDatabase::standard().at(40).fo4_delay_s /
                         tn.fo4_delay_s;
    spec.fs_hz = 750e6 * speed;
    spec.bandwidth_hz = 5e6 * speed;
    core::SimulationOptions opts;
    opts.n_samples = 1 << 14;
    opts.fin_target_hz = spec.bandwidth_hz / 5.0;
    const core::RunResult run = *flow.sim_run(spec, opts);

    t.add_row({tn.name, std::to_string(mig.result.remapped.size()),
               util::fixed_format(layout.stats.die_area_m2 * 1e6, 4),
               util::fixed_format(run.sndr.sndr_db, 1),
               util::fixed_format(run.power.total_w() * 1e3, 2),
               util::fixed_format(run.fom_fj, 0)});
  }
  t.add_footnote("fs scales with 1/FO4: same circuit, faster and cheaper "
                 "every node - the scaling-compatibility claim");
  t.print(std::cout);
  return 0;
}
