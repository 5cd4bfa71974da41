#include <gtest/gtest.h>

#include "core/adc_spec.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "synth/placer_quadratic.h"
#include "synth/power_grid.h"
#include "synth/synthesis_flow.h"

namespace vcoadc::synth {
namespace {

/// The paper's 40 nm layout with `placer`, through `cache` (null builds
/// every stage afresh).
std::shared_ptr<const SynthesisResult> synth_with(
    PlacerKind placer,
    core::ArtifactCache* cache = &core::default_artifact_cache()) {
  core::ExecContext ctx;
  ctx.cache = cache;
  SynthesisOptions opts;
  opts.placer = placer;
  return core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm(), opts);
}

TEST(QuadraticPlacer, LegalAndDrcClean) {
  const auto res = synth_with(PlacerKind::kQuadratic);
  EXPECT_FALSE(res->layout->placement().overflow);
  EXPECT_TRUE(res->drc.clean());
  for (const auto& v : res->drc.violations) {
    ADD_FAILURE() << to_string(v.kind) << ": " << v.detail;
  }
}

TEST(QuadraticPlacer, CellsStayInTheirRegions) {
  const auto res = synth_with(PlacerKind::kQuadratic);
  const auto& flat = res->layout->flat();
  const auto& pl = res->layout->placement();
  const auto& fp = res->layout->floorplan();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const std::string want =
        flat[i].cell->is_resistor ? flat[i].group : flat[i].power_domain;
    const PlacedRegion* r = fp.find(want);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->rect.contains(pl.cells[i].rect)) << flat[i].path;
  }
}

TEST(QuadraticPlacer, CompetitiveHpwl) {
  const auto serp = synth_with(PlacerKind::kSerpentine);
  const auto quad = synth_with(PlacerKind::kQuadratic);
  // The analytical placer must land within 35% of the serpentine packer
  // (they trade wins depending on netlist shape; neither may blow up).
  EXPECT_LT(quad->routing.total_hpwl_m, serp->routing.total_hpwl_m * 1.35);
  EXPECT_GT(quad->routing.total_hpwl_m, serp->routing.total_hpwl_m * 0.4);
}

TEST(QuadraticPlacer, RoutesAndPowersCleanly) {
  const auto res = synth_with(PlacerKind::kQuadratic);
  EXPECT_EQ(res->detailed_routing.failed_nets, 0);
  EXPECT_EQ(res->detailed_routing.overflowed_edges, 0);
  const PowerGrid grid = generate_power_grid(res->layout->floorplan());
  const auto check =
      check_power_grid(grid, res->layout->flat(), res->layout->placement(),
                       res->layout->floorplan());
  EXPECT_TRUE(check.clean());
}

TEST(QuadraticPlacer, Deterministic) {
  // Two uncached builds: two placements, not one cached one twice.
  const auto a = synth_with(PlacerKind::kQuadratic, nullptr);
  const auto b = synth_with(PlacerKind::kQuadratic, nullptr);
  ASSERT_EQ(a->layout->placement().cells.size(),
            b->layout->placement().cells.size());
  for (std::size_t i = 0; i < a->layout->placement().cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->layout->placement().cells[i].rect.x,
                     b->layout->placement().cells[i].rect.x);
  }
}

}  // namespace
}  // namespace vcoadc::synth
