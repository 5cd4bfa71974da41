#include <gtest/gtest.h>

#include "core/adc_spec.h"
#include "core/adc.h"
#include "core/flow.h"
#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "synth/maze_router.h"
#include "synth/synthesis_flow.h"
#include "tech/tech_node.h"

namespace vcoadc::synth {
namespace {

/// Tiny hand-built placement: a few inverters in a row sharing nets.
struct TinyFixture {
  netlist::CellLibrary lib;
  netlist::Design design;
  netlist::FlatNetlist flat;
  Placement pl;
  Rect die{0, 0, 20e-6, 20e-6};

  TinyFixture()
      : lib(netlist::make_standard_library(
            tech::TechDatabase::standard().at(40))),
        design(&lib) {
    netlist::Module& m = design.add_module("tiny");
    m.add_port("A", netlist::PortDir::kInput);
    m.add_port("Y", netlist::PortDir::kOutput);
    m.add_port("VDD", netlist::PortDir::kInout);
    m.add_port("VSS", netlist::PortDir::kInout);
    m.add_net("n1");
    m.add_net("n2");
    auto inv = [&](const char* name, const char* a, const char* y) {
      netlist::Instance i;
      i.name = name;
      i.master = "INVX1";
      i.conn = {{"A", a}, {"Y", y}, {"VDD", "VDD"}, {"VSS", "VSS"}};
      m.add_instance(i);
    };
    inv("u0", "A", "n1");
    inv("u1", "n1", "n2");
    inv("u2", "n2", "Y");
    design.set_top("tiny");
    flat = design.flatten();
    pl.cells.resize(flat.size());
    const double h = lib.row_height_m();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      pl.cells[i].flat_index = static_cast<int>(i);
      // Spread the cells across the die so routes have real length.
      pl.cells[i].rect = {2e-6 + 6e-6 * static_cast<double>(i),
                          2e-6 + 5e-6 * static_cast<double>(i),
                          flat[i].cell->width_m, h};
    }
  }
};

TEST(MazeRouter, RoutesTinyDesignCompletely) {
  TinyFixture f;
  const MazeRouteResult res = maze_route(f.flat, f.pl, f.die, {});
  EXPECT_EQ(res.failed_nets, 0);
  EXPECT_EQ(res.overflowed_edges, 0);
  // Two 2-pin nets (n1, n2); A and Y are single-pin at top level.
  ASSERT_EQ(res.nets.size(), 2u);
  for (const auto& net : res.nets) {
    EXPECT_TRUE(net.routed) << net.name;
    EXPECT_GT(net.wirelength_m, 0.0) << net.name;
  }
  EXPECT_GT(res.total_wirelength_m, 0.0);
}

TEST(MazeRouter, PathsAreContiguousGridWalks) {
  TinyFixture f;
  const MazeRouteResult res = maze_route(f.flat, f.pl, f.die, {});
  for (const auto& net : res.nets) {
    for (const auto& path : net.paths) {
      ASSERT_GE(path.size(), 2u);
      for (std::size_t i = 1; i < path.size(); ++i) {
        const GridPoint& a = path[i - 1];
        const GridPoint& b = path[i];
        const int manhattan =
            std::abs(a.x - b.x) + std::abs(a.y - b.y) +
            std::abs(a.layer - b.layer);
        EXPECT_EQ(manhattan, 1) << "non-adjacent step in " << net.name;
        // Direction legality: layer 0 horizontal, layer 1 vertical.
        if (a.layer == b.layer) {
          if (a.layer == 0) {
            EXPECT_EQ(a.y, b.y);
          } else {
            EXPECT_EQ(a.x, b.x);
          }
        }
      }
    }
  }
}

TEST(MazeRouter, WirelengthAtLeastManhattanBound) {
  TinyFixture f;
  const MazeRouteResult res = maze_route(f.flat, f.pl, f.die, {});
  // For a 2-pin net, routed length >= manhattan distance of the snapped
  // pins (in grid steps * pitch).
  for (const auto& net : res.nets) {
    ASSERT_EQ(net.paths.size(), 1u);
    const auto& path = net.paths[0];
    const GridPoint& s = path.front();
    const GridPoint& t = path.back();
    const int manhattan = std::abs(s.x - t.x) + std::abs(s.y - t.y);
    const double pitch =
        f.lib.row_height_m();  // default grid pitch = row height
    EXPECT_GE(net.wirelength_m + 1e-12, manhattan * pitch);
  }
}

TEST(MazeRouter, CapacityForcesDetours) {
  // Many parallel nets through a 1-track channel must spread out or fail;
  // with ripup enabled they spread (no overflow).
  netlist::CellLibrary lib =
      netlist::make_standard_library(tech::TechDatabase::standard().at(40));
  netlist::Design design(&lib);
  netlist::Module& m = design.add_module("bus");
  netlist::FlatNetlist flat;
  Placement pl;
  const double h = lib.row_height_m();
  const int kNets = 6;
  for (int i = 0; i < kNets; ++i) {
    m.add_net("n" + std::to_string(i));
  }
  // Drivers on the left, loads on the right, all in the SAME row at
  // distinct columns: the middle horizontal edges of that row are
  // contested (capacity 1), so routes must detour through other rows.
  for (int i = 0; i < kNets; ++i) {
    netlist::Instance d;
    d.name = "L" + std::to_string(i);
    d.master = "INVX1";
    d.conn = {{"Y", "n" + std::to_string(i)}};
    m.add_instance(d);
    netlist::Instance r;
    r.name = "R" + std::to_string(i);
    r.master = "INVX1";
    r.conn = {{"A", "n" + std::to_string(i)}};
    m.add_instance(r);
  }
  design.set_top("bus");
  flat = design.flatten();
  pl.cells.resize(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    pl.cells[i].flat_index = static_cast<int>(i);
    const bool left = flat[i].path[0] == 'L';
    const int k = flat[i].path[1] - '0';
    pl.cells[i].rect = {(left ? 0.5e-6 : 12.0e-6) + 1.3e-6 * k,
                        8e-6,  // same row
                        flat[i].cell->width_m, h};
  }
  MazeRouterOptions opts;
  opts.edge_capacity = 1;
  opts.max_iterations = 4;
  const MazeRouteResult res =
      maze_route(flat, pl, Rect{0, 0, 20e-6, 20e-6}, opts);
  EXPECT_EQ(res.failed_nets, 0);
  EXPECT_EQ(res.overflowed_edges, 0);
}

TEST(MazeRouter, FullAdcRoutesWithoutOverflow) {
  const core::ExecContext ctx;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  EXPECT_EQ(res->detailed_routing.failed_nets, 0);
  EXPECT_EQ(res->detailed_routing.overflowed_edges, 0);
  EXPECT_GT(res->detailed_routing.nets.size(), 100u);
  // Routed length upper-bounds the HPWL estimate but stays within ~3x.
  EXPECT_GE(res->detailed_routing.total_wirelength_m,
            res->routing.total_hpwl_m * 0.5);
  EXPECT_LE(res->detailed_routing.total_wirelength_m,
            res->routing.total_hpwl_m * 3.0);
  EXPECT_GT(res->detailed_routing.total_vias, 0);
}

TEST(MazeRouter, DisableFlagSkipsRouting) {
  const core::ExecContext ctx;
  SynthesisOptions opts;
  opts.detailed_route = false;
  const auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm(), opts);
  EXPECT_TRUE(res->detailed_routing.nets.empty());
}

}  // namespace
}  // namespace vcoadc::synth
