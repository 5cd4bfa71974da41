#include <gtest/gtest.h>
#include <cmath>

#include "core/adc_spec.h"
#include "core/adc.h"
#include "core/flow.h"
#include "netlist/generator.h"
#include "synth/power_grid.h"
#include "synth/synthesis_flow.h"

namespace vcoadc::synth {
namespace {

TEST(PowerGrid, DomainToNetMapping) {
  EXPECT_EQ(power_net_of_domain(netlist::kPdVdd), "VDD");
  EXPECT_EQ(power_net_of_domain(netlist::kPdVctrlp), "VCTRLP");
  EXPECT_EQ(power_net_of_domain(netlist::kPdVctrln), "VCTRLN");
  EXPECT_EQ(power_net_of_domain(netlist::kPdVrefp), "VREFP");
  EXPECT_EQ(power_net_of_domain(netlist::kPdVbuf1), "VBUF");
  EXPECT_EQ(power_net_of_domain(netlist::kPdVbuf2), "VBUF");
}

TEST(PowerGrid, RailsOnlyInPowerDomains) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const PowerGrid grid = generate_power_grid(res->layout->floorplan());
  EXPECT_FALSE(grid.rails.empty());
  for (const RailSegment& r : grid.rails) {
    EXPECT_EQ(r.region.find("GRP_"), std::string::npos)
        << "rail in component group " << r.region;
  }
  // Both rail polarities exist in every domain region.
  for (const PlacedRegion& region : res->layout->floorplan().regions) {
    if (region.spec.is_group) continue;
    bool vss = false, pwr = false;
    for (const RailSegment& r : grid.rails) {
      if (r.region != region.spec.name) continue;
      if (r.net == "VSS") vss = true;
      else pwr = true;
    }
    EXPECT_TRUE(vss) << region.spec.name;
    EXPECT_TRUE(pwr) << region.spec.name;
  }
}

TEST(PowerGrid, RailsAlternateOnRowGrid) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const auto& fp = res->layout->floorplan();
  const PowerGrid grid = generate_power_grid(fp);
  for (const RailSegment& r : grid.rails) {
    const double yc = r.rect.y + r.rect.h / 2;
    const double line = (yc - fp.die.y) / fp.row_height_m;
    EXPECT_NEAR(line, std::round(line), 1e-6);
    const bool even = (std::lround(line) % 2) == 0;
    if (even) {
      EXPECT_EQ(r.net, "VSS");
    } else {
      EXPECT_NE(r.net, "VSS");
    }
  }
}

TEST(PowerGrid, ProposedFlowIsFullyConnected) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const PowerGrid grid = generate_power_grid(res->layout->floorplan());
  const PowerGridCheck check =
      check_power_grid(grid, res->layout->flat(), res->layout->placement(),
                       res->layout->floorplan());
  EXPECT_TRUE(check.clean());
  for (const auto& p : check.problems) ADD_FAILURE() << p;
  EXPECT_GT(check.cells_checked, 400);  // 16 slices of gates
}

TEST(PowerGrid, NaiveFlowFailsConnectivity) {
  // PD-oblivious placement scatters cells across foreign regions: their
  // supply pins land on wrong rails - the physical Sec. 3.3 failure.
  const core::ExecContext ctx;
  SynthesisOptions naive;
  naive.respect_power_domains = false;
  naive.detailed_route = false;
  const auto res =
      core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm(), naive);
  const PowerGrid grid = generate_power_grid(res->layout->floorplan());
  const PowerGridCheck check =
      check_power_grid(grid, res->layout->flat(), res->layout->placement(),
                       res->layout->floorplan());
  EXPECT_FALSE(check.clean());
  EXPECT_GT(check.wrong_rail_cells + check.unconnected_cells, 50);
}

TEST(PowerGrid, IrDropSmallAndScalesWithCurrent) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const PowerGrid grid = generate_power_grid(res->layout->floorplan());
  const auto low = check_power_grid(grid, res->layout->flat(),
                                    res->layout->placement(),
                                    res->layout->floorplan(), 1e-6);
  const auto high = check_power_grid(grid, res->layout->flat(),
                                     res->layout->placement(),
                                     res->layout->floorplan(), 1e-4);
  EXPECT_GT(low.max_ir_drop_v, 0.0);
  EXPECT_NEAR(high.max_ir_drop_v / low.max_ir_drop_v, 100.0, 1.0);
  // At realistic per-gate currents the drop is far below 1% of VDD.
  EXPECT_LT(low.max_ir_drop_v, 0.011);
  EXPECT_FALSE(low.worst_rail.empty());
}

}  // namespace
}  // namespace vcoadc::synth
