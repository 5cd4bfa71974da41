#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "netlist/logic_sim.h"
#include "tech/tech_node.h"
#include "util/rng.h"

namespace vcoadc::netlist {
namespace {

const tech::TechNode& node40() {
  static const tech::TechNode n = tech::TechDatabase::standard().at(40);
  return n;
}

struct MiniFixture {
  CellLibrary lib;
  Design design;
  MiniFixture() : lib(make_standard_library(node40())), design(&lib) {}
};

TEST(LogicValues, NotTable) {
  EXPECT_EQ(logic_not(Logic::k0), Logic::k1);
  EXPECT_EQ(logic_not(Logic::k1), Logic::k0);
  EXPECT_EQ(logic_not(Logic::kX), Logic::kX);
  EXPECT_EQ(to_char(Logic::k0), '0');
  EXPECT_EQ(to_char(Logic::kX), 'X');
}

TEST(LogicSim, InverterChainPropagatesWithDelay) {
  MiniFixture f;
  Module& m = f.design.add_module("chain");
  m.add_port("IN", PortDir::kInput);
  m.add_port("OUT", PortDir::kOutput);
  m.add_net("n1");
  m.add_net("n2");
  auto inv = [&](const char* name, const char* a, const char* y) {
    Instance i;
    i.name = name;
    i.master = "INVX1";
    i.conn = {{"A", a}, {"Y", y}, {"VDD", "IN"}, {"VSS", "IN"}};
    // supply pins wired arbitrarily; they are ignored by the simulator
    m.add_instance(i);
  };
  inv("u0", "IN", "n1");
  inv("u1", "n1", "n2");
  inv("u2", "n2", "OUT");
  f.design.set_top("chain");

  LogicSim sim(f.design, node40());
  sim.set("IN", Logic::k0);
  ASSERT_TRUE(sim.settle(1e-9));
  EXPECT_EQ(sim.get("OUT"), Logic::k1);  // three inversions of 0

  double t_change = -1;
  sim.on_change("OUT", [&](double t, Logic) { t_change = t; });
  const double t0 = sim.now();
  sim.set("IN", Logic::k1);
  ASSERT_TRUE(sim.settle(t0 + 1e-9));
  EXPECT_EQ(sim.get("OUT"), Logic::k0);
  // Three INVX1 delays of FO4/4 each.
  const double expected = 3.0 * node40().fo4_delay_s / 4.0;
  EXPECT_NEAR(t_change - t0, expected, expected * 0.01);
}

TEST(LogicSim, Nor3TruthTable) {
  MiniFixture f;
  Module& m = f.design.add_module("t");
  for (const char* p : {"A", "B", "C"}) m.add_port(p, PortDir::kInput);
  m.add_port("Y", PortDir::kOutput);
  Instance i;
  i.name = "u0";
  i.master = "NOR3X1";
  i.conn = {{"A", "A"}, {"B", "B"}, {"C", "C"}, {"Y", "Y"},
            {"VDD", "A"}, {"VSS", "A"}};
  m.add_instance(i);
  f.design.set_top("t");

  LogicSim sim(f.design, node40());
  auto l = [](int v) { return v ? Logic::k1 : Logic::k0; };
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        sim.set("A", l(a));
        sim.set("B", l(b));
        sim.set("C", l(c));
        ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
        EXPECT_EQ(sim.get("Y"), l(!(a || b || c)))
            << a << b << c;
      }
    }
  }
}

TEST(LogicSim, XUnknownsPropagateConservatively) {
  MiniFixture f;
  Module& m = f.design.add_module("t");
  m.add_port("A", PortDir::kInput);
  m.add_port("B", PortDir::kInput);
  m.add_port("Y", PortDir::kOutput);
  Instance i;
  i.name = "u0";
  i.master = "NOR2X1";
  i.conn = {{"A", "A"}, {"B", "B"}, {"Y", "Y"}, {"VDD", "A"}, {"VSS", "A"}};
  m.add_instance(i);
  f.design.set_top("t");

  LogicSim sim(f.design, node40());
  // B unknown: a 1 on A still forces the NOR low (controlling value).
  sim.set("A", Logic::k1);
  ASSERT_TRUE(sim.settle(1e-9));
  EXPECT_EQ(sim.get("Y"), Logic::k0);
  // A low with B unknown stays unknown.
  sim.set("A", Logic::k0);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("Y"), Logic::kX);
}

TEST(LogicSim, DLatchTransparencyAndHold) {
  MiniFixture f;
  Module& m = f.design.add_module("t");
  m.add_port("D", PortDir::kInput);
  m.add_port("G", PortDir::kInput);
  m.add_port("Q", PortDir::kOutput);
  Instance i;
  i.name = "u0";
  i.master = "DLATX1";
  i.conn = {{"D", "D"}, {"G", "G"}, {"Q", "Q"}, {"VDD", "D"}, {"VSS", "D"}};
  m.add_instance(i);
  f.design.set_top("t");

  LogicSim sim(f.design, node40());
  sim.set("G", Logic::k1);
  sim.set("D", Logic::k1);
  ASSERT_TRUE(sim.settle(1e-9));
  EXPECT_EQ(sim.get("Q"), Logic::k1);  // transparent
  sim.set("G", Logic::k0);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  sim.set("D", Logic::k0);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("Q"), Logic::k1);  // held
  sim.set("G", Logic::k1);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("Q"), Logic::k0);  // transparent again
}

// A modelled function whose input pin is tied to a supply-class net (which
// evaluation ignores) or left unconnected has nothing to evaluate: the gate
// drives X instead of reading past its input list.
TEST(LogicSim, GateShortOfAnInputDrivesX) {
  MiniFixture f;
  Module& m = f.design.add_module("t");
  m.add_port("A", PortDir::kInput);
  m.add_port("Y", PortDir::kOutput);
  m.add_port("Z", PortDir::kOutput);
  Instance tied;
  tied.name = "u0";
  tied.master = "NAND2X1";
  tied.conn = {{"A", "A"}, {"B", "VDD"}, {"Y", "Y"}};
  m.add_instance(tied);
  Instance open;
  open.name = "u1";
  open.master = "DLATX1";
  open.conn = {{"D", "A"}, {"Q", "Z"}};
  m.add_instance(open);
  f.design.set_top("t");

  LogicSim sim(f.design, node40());
  sim.set("A", Logic::k0);
  ASSERT_TRUE(sim.settle(1e-9));
  EXPECT_EQ(sim.get("Y"), Logic::kX);
  EXPECT_EQ(sim.get("Z"), Logic::kX);
  EXPECT_FALSE(sim.has_net("VDD"));
}

// Ids are dense over the flattened nets, and -1 marks a name the design
// lacks; the name overloads keep their old behaviour for such a name.
TEST(LogicSim, NetIdsAreDenseAndMissingNamesResolveToMinusOne) {
  CellLibrary lib = make_standard_library(node40());
  add_resistor_cells(lib, node40());
  Design design = build_adc_design(lib, {});
  design.set_top("ADC_slice");
  LogicSim sim(design, node40());

  const std::vector<std::string> names = sim.net_names();
  ASSERT_FALSE(names.empty());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(sim.net(names[i]), static_cast<int>(i)) << names[i];
    EXPECT_TRUE(sim.has_net(names[i]));
  }
  EXPECT_EQ(sim.net("NO_SUCH_NET"), -1);
  EXPECT_FALSE(sim.has_net("NO_SUCH_NET"));
  EXPECT_EQ(sim.get("NO_SUCH_NET"), Logic::kX);
  // set() by name still drives an absent name as a new floating net.
  sim.set("NO_SUCH_NET", Logic::k1);
  EXPECT_EQ(sim.net("NO_SUCH_NET"), static_cast<int>(names.size()));
  EXPECT_EQ(sim.get("NO_SUCH_NET"), Logic::k1);
}

// The generated slice under a seeded random stimulus (0/1/X on every input,
// random step lengths, including steps shorter than a gate delay so pending
// events are superseded), driven through the name API on one simulator and
// the id API on another: every net's value after every step, the committed
// transition count and the watched-net edge times must agree exactly.
TEST(LogicSim, IdAndNameApisDriveTheSliceIdentically) {
  CellLibrary lib = make_standard_library(node40());
  add_resistor_cells(lib, node40());
  Design design = build_adc_design(lib, {});
  design.set_top("ADC_slice");
  LogicSim by_name(design, node40());
  LogicSim by_id(design, node40());

  const char* inputs[] = {"IP", "IN", "IP2", "IN2", "CLK"};
  int ids[5];
  for (int k = 0; k < 5; ++k) {
    ids[k] = by_id.net(inputs[k]);
    ASSERT_GE(ids[k], 0) << inputs[k];
  }
  const int dout = by_id.net("DOUT");
  ASSERT_GE(dout, 0);
  std::vector<double> name_edges, id_edges;
  by_name.on_change("DOUT", [&](double t, Logic) { name_edges.push_back(t); });
  by_id.on_change("DOUT", [&](double t, Logic) { id_edges.push_back(t); });

  const std::vector<std::string> names = by_name.net_names();
  ASSERT_EQ(names, by_id.net_names());
  const double gate_delay = node40().fo4_delay_s / 4.0;
  util::Rng rng(2017);
  int dout_known = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto k = static_cast<std::size_t>(rng.below(5));
    const auto v = static_cast<Logic>(rng.below(3));
    by_name.set(inputs[k], v);
    by_id.set(ids[k], v);
    const double t_end = by_name.now() + rng.uniform(0.0, 8.0 * gate_delay);
    by_name.run_until(t_end);
    by_id.run_until(t_end);
    ASSERT_EQ(by_name.now(), by_id.now()) << "step " << step;
    for (std::size_t n = 0; n < names.size(); ++n) {
      ASSERT_EQ(by_name.get(names[n]), by_id.get(static_cast<int>(n)))
          << names[n] << " at step " << step;
    }
    dout_known += by_id.get(dout) != Logic::kX ? 1 : 0;
  }
  EXPECT_EQ(by_name.transition_count(), by_id.transition_count());
  EXPECT_EQ(name_edges, id_edges);
  // The stimulus exercised the datapath, not only the X state.
  EXPECT_GT(by_id.transition_count(), 3000u);
  EXPECT_GT(dout_known, 100);
  EXPECT_GT(id_edges.size(), 10u);
}

// Executes the PAPER's comparator netlist (Table 1): reset on CLK high,
// regenerate the input decision on CLK low, hold it in the SR latch
// through the next reset.
TEST(LogicSim, Table1ComparatorDecidesAndLatches) {
  CellLibrary lib = make_standard_library(node40());
  add_resistor_cells(lib, node40());
  Design design = build_adc_design(lib, {});
  design.set_top("comparator");

  LogicSim sim(design, node40());
  // Reset phase: CLK high forces both NOR3 outputs low.
  sim.set("CLK", Logic::k1);
  sim.set("INP", Logic::k0);
  sim.set("INM", Logic::k1);
  ASSERT_TRUE(sim.settle(1e-9));
  EXPECT_EQ(sim.get("OUTP"), Logic::k0);
  EXPECT_EQ(sim.get("OUTM"), Logic::k0);

  // Decision: CLK low with INM high -> OUTM stays low, OUTP goes high,
  // the SR latch captures Q = 0.
  sim.set("CLK", Logic::k0);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("OUTP"), Logic::k1);
  EXPECT_EQ(sim.get("Q"), Logic::k0);
  EXPECT_EQ(sim.get("QB"), Logic::k1);

  // Back to reset: the SR latch must HOLD the decision.
  sim.set("CLK", Logic::k1);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("Q"), Logic::k0);
  EXPECT_EQ(sim.get("QB"), Logic::k1);

  // Opposite decision next cycle.
  sim.set("INP", Logic::k1);
  sim.set("INM", Logic::k0);
  sim.set("CLK", Logic::k0);
  ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
  EXPECT_EQ(sim.get("Q"), Logic::k1);
  EXPECT_EQ(sim.get("QB"), Logic::k0);
}

// The Fig. 5 ring, as generated: once kicked out of X, the distributed
// differential ring oscillates with a period of ~2 * N * stage delay.
TEST(LogicSim, GeneratedRingOscillates) {
  CellLibrary lib = make_standard_library(node40());
  add_resistor_cells(lib, node40());
  GeneratorConfig cfg;
  cfg.num_slices = 4;
  Design design = build_adc_design(lib, cfg);

  LogicSim sim(design, node40());
  // Kick ring 1 out of the all-X state with a consistent differential seed.
  for (int i = 0; i < cfg.num_slices; ++i) {
    sim.set("R1P_" + std::to_string(i), Logic::k0);
    sim.set("R1N_" + std::to_string(i), Logic::k1);
  }
  std::vector<double> edges;
  sim.on_change("R1P_0", [&](double t, Logic) { edges.push_back(t); });
  sim.run_until(2e-10);  // 200 ps

  ASSERT_GT(edges.size(), 8u) << "ring did not oscillate";
  // Average period from rising-to-rising (every second edge).
  std::vector<double> periods;
  for (std::size_t i = 2; i < edges.size(); i += 2) {
    periods.push_back(edges[i] - edges[i - 2]);
  }
  double mean = 0;
  for (double p : periods) mean += p;
  mean /= static_cast<double>(periods.size());
  // Stage delay ~ forward INVX2 delay = (FO4/4) / sqrt(2).
  const double stage = node40().fo4_delay_s / 4.0 / std::sqrt(2.0);
  const double expected = 2.0 * cfg.num_slices * stage;
  EXPECT_NEAR(mean, expected, expected * 0.5);
}

// Full ADC netlist under a toggling clock with oscillating rings. In the
// pure-digital abstraction both rings run at exactly the same rate (no
// analog detuning), so the XOR outputs settle to a *constant, valid*
// pattern - the check is that every slice decision resolves out of X and
// the comparators keep resetting/regenerating each cycle (activity).
TEST(LogicSim, AdcTopProducesSliceActivity) {
  CellLibrary lib = make_standard_library(node40());
  add_resistor_cells(lib, node40());
  GeneratorConfig cfg;
  cfg.num_slices = 4;
  Design design = build_adc_design(lib, cfg);

  LogicSim sim(design, node40());
  for (int i = 0; i < cfg.num_slices; ++i) {
    sim.set("R1P_" + std::to_string(i), Logic::k0);
    sim.set("R1N_" + std::to_string(i), Logic::k1);
    sim.set("R2P_" + std::to_string(i), Logic::k1);
    sim.set("R2N_" + std::to_string(i), Logic::k0);
  }
  int d_transitions = 0;
  for (int i = 0; i < cfg.num_slices; ++i) {
    sim.on_change("D" + std::to_string(i),
                  [&](double, Logic) { ++d_transitions; });
  }
  // 100 clock cycles, period incommensurate with the ring period so the
  // sampled ring phase sweeps instead of orbit-locking.
  const double half = 0.317e-9;
  Logic clk = Logic::k0;
  for (int c = 0; c < 200; ++c) {
    sim.set("CLK", clk);
    sim.run_until(sim.now() + half);
    clk = logic_not(clk);
  }
  // Every slice bit resolved (X -> 0/1 at least once each).
  EXPECT_GE(d_transitions, cfg.num_slices);
  for (int i = 0; i < cfg.num_slices; ++i) {
    EXPECT_NE(sim.get("D" + std::to_string(i)), Logic::kX) << i;
  }
  // Rings + per-cycle comparator reset/regeneration keep the net busy.
  EXPECT_GT(sim.transition_count(), 5000u);
}

}  // namespace
}  // namespace vcoadc::netlist
