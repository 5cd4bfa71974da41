#include <gtest/gtest.h>

#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "netlist/netlist.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "tech/tech_node.h"

namespace vcoadc::netlist {
namespace {

CellLibrary lib40() {
  CellLibrary lib = make_standard_library(tech::TechDatabase::standard().at(40));
  add_resistor_cells(lib, tech::TechDatabase::standard().at(40));
  return lib;
}

TEST(CellLibrary, ContainsExpectedMasters) {
  const CellLibrary lib = lib40();
  // The paper's Table 1/2 masters must exist.
  for (const char* name :
       {"NOR3X4", "NOR2X1", "INVX1", "INVX2", "XOR2X1", "CLKBUFX8", "RES11K",
        "RES1K"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
  }
  EXPECT_FALSE(lib.contains("OPAMP"));  // the whole point of the paper
}

TEST(CellLibrary, DriveStrengthsSorted) {
  const CellLibrary lib = lib40();
  const auto drives = lib.drive_strengths("inv");
  ASSERT_EQ(drives.size(), 4u);
  EXPECT_EQ(drives.front(), 1);
  EXPECT_EQ(drives.back(), 8);
  EXPECT_EQ(lib.cell_for("inv", 4).value(), "INVX4");
  EXPECT_FALSE(lib.cell_for("inv", 16).has_value());
}

TEST(CellLibrary, GeometryScalesWithDrive) {
  const CellLibrary lib = lib40();
  EXPECT_GT(lib.at("INVX4").width_m, lib.at("INVX1").width_m);
  EXPECT_DOUBLE_EQ(lib.at("INVX4").height_m, lib.at("INVX1").height_m);
  EXPECT_GT(lib.at("INVX4").input_cap_f, lib.at("INVX1").input_cap_f);
}

TEST(CellLibrary, ResistorCellsMatchFig11) {
  const CellLibrary lib = lib40();
  const StdCell& r1k = lib.at("RES1K");
  const StdCell& r11k = lib.at("RES11K");
  EXPECT_TRUE(r1k.is_resistor);
  EXPECT_DOUBLE_EQ(r1k.resistance_ohms, 1000.0);
  EXPECT_DOUBLE_EQ(r11k.resistance_ohms, 11000.0);
  // "The actual heights of both resistors standard cells should be similar
  //  to the digital standard cell height."
  EXPECT_DOUBLE_EQ(r1k.height_m, lib.at("INVX1").height_m);
  EXPECT_DOUBLE_EQ(r11k.height_m, lib.at("INVX1").height_m);
  // Resistors have terminals, not supplies.
  EXPECT_TRUE(r1k.has_pin("T1"));
  EXPECT_TRUE(r1k.has_pin("T2"));
  EXPECT_TRUE(r1k.power_pin.empty());
}

TEST(CellLibrary, CellsShrinkWithNode) {
  const auto& db = tech::TechDatabase::standard();
  CellLibrary l40 = make_standard_library(db.at(40));
  CellLibrary l180 = make_standard_library(db.at(180));
  EXPECT_LT(l40.at("INVX1").area_m2(), l180.at("INVX1").area_m2() / 5.0);
  EXPECT_LT(l40.at("INVX1").input_cap_f, l180.at("INVX1").input_cap_f);
}

TEST(Module, PortNetBookkeeping) {
  Module m("t");
  m.add_port("A", PortDir::kInput);
  m.add_net("w1");
  m.add_net("w1");  // duplicate ignored
  m.add_net("A");   // port name not duplicated as a net
  EXPECT_TRUE(m.has_port("A"));
  EXPECT_TRUE(m.has_net("w1"));
  EXPECT_EQ(m.nets().size(), 1u);
}

TEST(Design, ValidateCatchesUnknownMaster) {
  const CellLibrary lib = lib40();
  Design d(&lib);
  Module& m = d.add_module("top");
  m.add_port("X", PortDir::kInput);
  Instance inst;
  inst.name = "u0";
  inst.master = "MISSING";
  m.add_instance(inst);
  d.set_top("top");
  const auto problems = d.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unknown master"), std::string::npos);
}

TEST(Design, ValidateCatchesBadPinAndNet) {
  const CellLibrary lib = lib40();
  Design d(&lib);
  Module& m = d.add_module("top");
  m.add_net("n1");
  Instance inst;
  inst.name = "u0";
  inst.master = "INVX1";
  inst.conn["A"] = "n1";
  inst.conn["Z"] = "n1";        // INVX1 has Y, not Z
  inst.conn["Y"] = "ghost_net"; // undeclared net
  m.add_instance(inst);
  d.set_top("top");
  const auto problems = d.validate();
  bool bad_pin = false, bad_net = false;
  for (const auto& p : problems) {
    if (p.find("no pin 'Z'") != std::string::npos) bad_pin = true;
    if (p.find("'ghost_net'") != std::string::npos) bad_net = true;
  }
  EXPECT_TRUE(bad_pin);
  EXPECT_TRUE(bad_net);
}

TEST(Design, ValidateCatchesFloatingInput) {
  const CellLibrary lib = lib40();
  Design d(&lib);
  Module& m = d.add_module("top");
  m.add_net("n1");
  Instance inst;
  inst.name = "u0";
  inst.master = "INVX1";
  inst.conn["Y"] = "n1";  // input A left floating
  m.add_instance(inst);
  d.set_top("top");
  const auto problems = d.validate();
  bool floating = false;
  for (const auto& p : problems) {
    if (p.find("input pin 'A' unconnected") != std::string::npos) {
      floating = true;
    }
  }
  EXPECT_TRUE(floating);
}

TEST(Generator, AdcDesignValidates) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const auto problems = d.validate();
  EXPECT_TRUE(problems.empty());
  for (const auto& p : problems) ADD_FAILURE() << p;
}

TEST(Generator, ComparatorMatchesTable1) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const Module& cmp = d.at("comparator");
  // Table 1: two NOR3X4 and two NOR2X1.
  int nor3 = 0, nor2 = 0;
  for (const auto& inst : cmp.instances()) {
    if (inst.master == "NOR3X4") ++nor3;
    if (inst.master == "NOR2X1") ++nor2;
  }
  EXPECT_EQ(nor3, 2);
  EXPECT_EQ(nor2, 2);
  EXPECT_EQ(cmp.instances().size(), 4u);
  // Cross-coupling: I0.A ties to OUTM, I1.A ties to OUTP.
  EXPECT_EQ(cmp.instances()[0].conn.at("A"), "OUTM");
  EXPECT_EQ(cmp.instances()[1].conn.at("A"), "OUTP");
}

TEST(Generator, VcoCellIsFourInverters) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const Module& vco = d.at("VCO_cell");
  EXPECT_EQ(vco.instances().size(), 4u);
  for (const auto& inst : vco.instances()) {
    EXPECT_EQ(lib.at(inst.master).function, "inv");
    // The supply pin of every inverter ties to the control node.
    EXPECT_EQ(inst.conn.at("VDD"), "VCTRL");
  }
}

TEST(Generator, SliceMatchesTable2Structure) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const Module& slice = d.at("ADC_slice");
  int bufs = 0, vcos = 0, res = 0, pd_vdd = 0, pd_vrefp = 0;
  for (const auto& inst : slice.instances()) {
    if (inst.master == "buf_cell") ++bufs;
    if (inst.master == "VCO_cell") ++vcos;
    if (inst.master == "RES11K") ++res;
    if (inst.master == "pd_VDD") ++pd_vdd;
    if (inst.master == "pd_VREFP") ++pd_vrefp;
  }
  EXPECT_EQ(bufs, 2);
  EXPECT_EQ(vcos, 2);
  EXPECT_EQ(res, 2);
  EXPECT_EQ(pd_vdd, 1);
  EXPECT_EQ(pd_vrefp, 1);
}

TEST(Generator, FlattenedPowerDomainsMatchFig12) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const auto flat = d.flatten();
  std::map<std::string, int> pd_count;
  for (const auto& fi : flat) {
    pd_count[fi.cell->is_resistor ? fi.group : fi.power_domain]++;
  }
  // All six power domains and all four groups of Fig. 14 are populated.
  for (const char* pd : {kPdVdd, kPdVrefp, kPdVctrlp, kPdVctrln, kPdVbuf1,
                         kPdVbuf2, kGrpDacRes1, kGrpDacRes2, kGrpInRes1,
                         kGrpInRes2}) {
    EXPECT_GT(pd_count[pd], 0) << pd;
  }
  // Ring inverters: 8 slices * 4 inverters per VCO_cell.
  EXPECT_EQ(pd_count[kPdVctrlp], 32);
  EXPECT_EQ(pd_count[kPdVctrln], 32);
}

TEST(Generator, StatsScaleWithSlices) {
  const CellLibrary lib = lib40();
  GeneratorConfig cfg4;
  cfg4.num_slices = 4;
  GeneratorConfig cfg8;
  cfg8.num_slices = 8;
  const auto s4 = build_adc_design(lib, cfg4).stats();
  const auto s8 = build_adc_design(lib, cfg8).stats();
  EXPECT_GT(s8.digital_gates, s4.digital_gates);
  EXPECT_EQ(s8.resistors, 2 * 8 + 2 * 8);  // DAC pair + input bank per side
  EXPECT_EQ(s4.resistors, 2 * 4 + 2 * 4);
  EXPECT_GT(s8.total_cell_area_m2, s4.total_cell_area_m2);
}

TEST(Generator, RingClosesAcrossSlices) {
  // Slice i's ring-1 input must be slice i-1's output, with exactly one
  // polarity twist at the wrap so the differential ring oscillates.
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const Module& top = d.at("adc_top");
  int twists = 0;
  for (const auto& inst : top.instances()) {
    if (inst.master != "ADC_slice") continue;
    const std::string& ip = inst.conn.at("IP");
    // A twist is when IP connects to an N-polarity tap.
    if (ip.find("R1N") != std::string::npos) ++twists;
  }
  EXPECT_EQ(twists, 1);
}

TEST(Verilog, WriterEmitsTable1Shape) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const std::string v = write_module_verilog(d, d.at("comparator"));
  EXPECT_NE(v.find("module comparator(Q, QB, VDD, VSS, CLK, INM, INP);"),
            std::string::npos);
  EXPECT_NE(v.find("NOR3X4 I0"), std::string::npos);
  EXPECT_NE(v.find(".Y(OUTP)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, RoundTripPreservesStructure) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const std::string text = write_verilog(d);

  Design d2(&lib);
  const ParseResult res = parse_verilog(text, d2);
  ASSERT_TRUE(res.ok) << res.error << " at line " << res.line;
  d2.set_top(d.top());
  EXPECT_TRUE(d2.validate().empty());

  // Same flattened gate population.
  const auto s1 = d.stats();
  const auto s2 = d2.stats();
  EXPECT_EQ(s1.total_instances, s2.total_instances);
  EXPECT_EQ(s1.digital_gates, s2.digital_gates);
  EXPECT_EQ(s1.resistors, s2.resistors);
  EXPECT_EQ(s1.by_function, s2.by_function);
  EXPECT_EQ(s1.by_power_domain, s2.by_power_domain);
}

TEST(Verilog, ParserReportsErrors) {
  const CellLibrary lib = lib40();
  Design d(&lib);
  const ParseResult res = parse_verilog("module m(;", d);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Verilog, ParserHandlesCommentsAndAttributes) {
  const CellLibrary lib = lib40();
  Design d(&lib);
  const std::string src = R"(
    // line comment
    module m(A, Y, VDD, VSS);
      input A; output Y; inout VDD, VSS;
      /* block
         comment */
      (* power_domain = "PD_VCTRLP" *)
      INVX1 u0 (.A(A), .Y(Y), .VDD(VDD), .VSS(VSS));
    endmodule
  )";
  const ParseResult res = parse_verilog(src, d);
  ASSERT_TRUE(res.ok) << res.error;
  const Module& m = d.at("m");
  ASSERT_EQ(m.instances().size(), 1u);
  EXPECT_EQ(m.instances()[0].power_domain, "PD_VCTRLP");
  EXPECT_EQ(d.top(), "m");
}

TEST(Design, FlattenNetNamesAreHierarchical) {
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  const auto flat = d.flatten();
  bool found_local = false, found_global = false;
  for (const std::string& net : flat.nets()) {
    if (net == "VDD") found_global = true;
    if (net.find("slice0/") == 0) found_local = true;
  }
  EXPECT_TRUE(found_global);  // top-level supply visible everywhere
  EXPECT_TRUE(found_local);   // slice-internal nets got prefixed
}

TEST(Design, FlattenCountMatchesHandCount) {
  // Per slice: 2 buf_cells (4 inv) + pd_VDD (2 comparators of 4 gates +
  // XOR + INV = 10) + pd_VREFP (2 inv) + 2 VCO_cells (4 inv) + 2 resistors
  // = 8 + 10 + 2 + 8 + 2 = 30. Top: 8 slices * 30 + 1 clkbuf + 16 input
  // resistors = 240 + 17 = 257.
  const CellLibrary lib = lib40();
  const Design d = build_adc_design(lib, {});
  EXPECT_EQ(d.flatten().size(), 257u);
}

}  // namespace
}  // namespace vcoadc::netlist
