// Ablation: placement engine comparison. The paper's reference [13] is the
// authors' own analytical-placement work for analog circuits; this bench
// compares the serpentine connectivity packer against the quadratic
// analytical placer on the generated ADC, at both nodes, under identical
// region constraints - wirelength, routed length, vias, and DRC.
#include "bench/bench_common.h"
#include "synth/power_grid.h"
#include "synth/synthesis_flow.h"

using namespace vcoadc;

int main() {
  bench::header("Ablation - placement engine (serpentine vs quadratic)",
                "region-constrained placement quality; cf. the authors' "
                "analytical placement line of work [13]");

  util::Table t("placement comparison (identical floorplans & constraints)");
  t.set_header({"node", "placer", "HPWL [um]", "routed [um]", "vias",
                "overflow", "DRC"});
  double hpwl[2][2] = {{0, 0}, {0, 0}};
  bool all_clean = true;
  int row = 0;
  for (double node : {40.0, 180.0}) {
    core::AdcSpec spec =
        (node == 40) ? core::AdcSpec::paper_40nm() : core::AdcSpec::paper_180nm();
    const core::ExecContext ctx;
    int col = 0;
    for (auto placer :
         {synth::PlacerKind::kSerpentine, synth::PlacerKind::kQuadratic}) {
      synth::SynthesisOptions opts;
      opts.placer = placer;
      const auto res = core::Flow(ctx).synthesis(spec, opts);
      hpwl[row][col] = res->routing.total_hpwl_m * 1e6;
      all_clean &= res->drc.clean() &&
                   res->detailed_routing.overflowed_edges == 0;
      t.add_row({(node == 40) ? "40 nm" : "180 nm",
                 placer == synth::PlacerKind::kSerpentine ? "serpentine"
                                                          : "quadratic",
                 bench::fmt("%.0f", res->routing.total_hpwl_m * 1e6),
                 bench::fmt("%.0f",
                            res->detailed_routing.total_wirelength_m * 1e6),
                 std::to_string(res->detailed_routing.total_vias),
                 std::to_string(res->detailed_routing.overflowed_edges),
                 res->drc.clean() ? "clean" : "FAIL"});
      ++col;
    }
    ++row;
  }
  t.print(std::cout);

  std::printf("\nHPWL ratio (quadratic/serpentine): 40 nm %.2f, 180 nm %.2f\n",
              hpwl[0][1] / hpwl[0][0], hpwl[1][1] / hpwl[1][0]);

  bench::shape_check("both engines produce legal, routable, DRC-clean "
                     "layouts at both nodes", all_clean);
  bench::shape_check("engines land within 35% of each other",
                     hpwl[0][1] / hpwl[0][0] < 1.35 &&
                         hpwl[0][0] / hpwl[0][1] < 1.35 &&
                         hpwl[1][1] / hpwl[1][0] < 1.35 &&
                         hpwl[1][0] / hpwl[1][1] < 1.35);
  return 0;
}
