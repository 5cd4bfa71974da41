#include <gtest/gtest.h>

#include "core/adc_spec.h"
#include "core/adc.h"
#include "core/flow.h"
#include "netlist/cell_library.h"
#include "netlist/lef.h"
#include "netlist/liberty.h"
#include "synth/gdsii.h"
#include "tech/tech_node.h"

namespace vcoadc {
namespace {

const tech::TechNode& node40() {
  static const tech::TechNode n = tech::TechDatabase::standard().at(40);
  return n;
}

netlist::CellLibrary full_lib() {
  netlist::CellLibrary lib = netlist::make_standard_library(node40());
  netlist::add_resistor_cells(lib, node40());
  return lib;
}

TEST(Lef, WriterEmitsExpectedSections) {
  const auto lib = full_lib();
  const std::string lef = netlist::write_lef(lib);
  EXPECT_NE(lef.find("VERSION 5.8 ;"), std::string::npos);
  EXPECT_NE(lef.find("MACRO INVX1"), std::string::npos);
  EXPECT_NE(lef.find("MACRO RES11K"), std::string::npos);
  EXPECT_NE(lef.find("DIRECTION INPUT ;"), std::string::npos);
  EXPECT_NE(lef.find("USE POWER ;"), std::string::npos);
  EXPECT_NE(lef.find("PROPERTY resistance_ohms 11000.0 ;"),
            std::string::npos);
  EXPECT_NE(lef.find("END LIBRARY"), std::string::npos);
}

TEST(Lef, RoundTripIsLossless) {
  const auto lib = full_lib();
  const std::string lef = netlist::write_lef(lib);
  netlist::CellLibrary parsed("parsed");
  const auto res = netlist::parse_lef(lef, parsed);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(parsed.cells().size(), lib.cells().size());
  for (const auto& orig : lib.cells()) {
    const netlist::StdCell* back = parsed.find(orig.name);
    ASSERT_NE(back, nullptr) << orig.name;
    EXPECT_EQ(back->function, orig.function);
    EXPECT_EQ(back->drive, orig.drive);
    EXPECT_NEAR(back->width_m, orig.width_m, 1e-10);
    EXPECT_NEAR(back->height_m, orig.height_m, 1e-10);
    EXPECT_NEAR(back->input_cap_f, orig.input_cap_f, 1e-21);
    EXPECT_NEAR(back->leakage_w, orig.leakage_w, 1e-15);
    EXPECT_EQ(back->is_resistor, orig.is_resistor);
    EXPECT_EQ(back->pins.size(), orig.pins.size());
    EXPECT_EQ(back->power_pin, orig.power_pin);
    EXPECT_EQ(back->ground_pin, orig.ground_pin);
    if (orig.is_resistor) {
      EXPECT_DOUBLE_EQ(back->resistance_ohms, orig.resistance_ohms);
    }
  }
}

TEST(Lef, ParserRejectsTruncatedMacro) {
  netlist::CellLibrary lib("x");
  const auto res = netlist::parse_lef("MACRO FOO\n  CLASS CORE ;\n", lib);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unterminated"), std::string::npos);
}

TEST(Liberty, WriterEmitsTimingAndPower) {
  const auto lib = full_lib();
  const std::string lib_text = netlist::write_liberty(lib, node40());
  EXPECT_NE(lib_text.find("library (stdlib_40nm)"), std::string::npos);
  EXPECT_NE(lib_text.find("cell (NOR3X4)"), std::string::npos);
  EXPECT_NE(lib_text.find("intrinsic_rise"), std::string::npos);
  EXPECT_NE(lib_text.find("capacitance"), std::string::npos);
  EXPECT_NE(lib_text.find("cell_leakage_power"), std::string::npos);
}

TEST(Liberty, RoundTripPreservesElectricals) {
  const auto lib = full_lib();
  const std::string text = netlist::write_liberty(lib, node40());
  netlist::CellLibrary parsed("parsed");
  const auto res = netlist::parse_liberty(text, parsed);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(parsed.cells().size(), lib.cells().size());
  for (const auto& orig : lib.cells()) {
    const netlist::StdCell* back = parsed.find(orig.name);
    ASSERT_NE(back, nullptr) << orig.name;
    EXPECT_EQ(back->function, orig.function);
    EXPECT_EQ(back->drive, orig.drive);
    EXPECT_NEAR(back->width_m, orig.width_m, 1e-10);
    EXPECT_NEAR(back->leakage_w, orig.leakage_w, 1e-15);
    EXPECT_EQ(back->pins.size(), orig.pins.size());
  }
}

TEST(Liberty, DelayModelMatchesDriveScaling) {
  const auto lib = full_lib();
  const double d1 = netlist::cell_intrinsic_delay(lib.at("INVX1"), node40());
  const double d4 = netlist::cell_intrinsic_delay(lib.at("INVX4"), node40());
  EXPECT_GT(d1, d4);  // stronger drive = faster
  EXPECT_NEAR(d1 / d4, 2.0, 1e-9);  // sqrt(4)
  EXPECT_DOUBLE_EQ(
      netlist::cell_intrinsic_delay(lib.at("RES11K"), node40()), 0.0);
}

TEST(Gdsii, WriteProducesValidHeaderAndTrailer) {
  const core::ExecContext ctx;
  const auto synth_res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const auto bytes = synth::write_gdsii(*synth_res->layout, "vcoadc");
  ASSERT_GT(bytes.size(), 64u);
  // HEADER record: len=6, type 0x0002, version 600.
  EXPECT_EQ(bytes[0], 0x00);
  EXPECT_EQ(bytes[1], 0x06);
  EXPECT_EQ(bytes[2], 0x00);
  EXPECT_EQ(bytes[3], 0x02);
  // ENDLIB at the very end: len=4, type 0x0400.
  EXPECT_EQ(bytes[bytes.size() - 2], 0x04);
  EXPECT_EQ(bytes[bytes.size() - 1], 0x00);
}

TEST(Gdsii, RoundTripStructureAndPlacement) {
  const core::ExecContext ctx;
  const auto synth_res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const auto bytes = synth::write_gdsii(*synth_res->layout, "vcoadc");
  const auto parsed = synth::read_gdsii(bytes);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.library.name, "vcoadc");
  EXPECT_NEAR(parsed.library.meters_per_db, 1e-9, 1e-15);

  const synth::GdsStructure* top = parsed.library.find("TOP");
  ASSERT_NE(top, nullptr);
  // Every placed cell appears as an SREF at its placement position.
  EXPECT_EQ(top->srefs.size(), synth_res->layout->flat().size());
  for (std::size_t i = 0; i < top->srefs.size(); ++i) {
    const auto& sref = top->srefs[i];
    const auto& pc = synth_res->layout->placement().cells[i];
    EXPECT_EQ(sref.structure, synth_res->layout->flat()[i].cell->name);
    EXPECT_NEAR(sref.x * parsed.library.meters_per_db, pc.rect.x, 1e-9);
    EXPECT_NEAR(sref.y * parsed.library.meters_per_db, pc.rect.y, 1e-9);
  }
  // Die + 10 regions as boundaries.
  EXPECT_EQ(top->boundaries.size(),
            1 + synth_res->layout->floorplan().regions.size());
  // Each referenced master exists as a structure with its outline box.
  const synth::GdsStructure* inv = parsed.library.find("INVX1");
  ASSERT_NE(inv, nullptr);
  ASSERT_EQ(inv->boundaries.size(), 1u);
  EXPECT_EQ(inv->boundaries[0].xy.size(), 5u);  // closed rectangle
}

TEST(Gdsii, Real8EncodingSurvivesUnitsRoundTrip) {
  // UNITS carries two excess-64 reals; the values must survive exactly
  // enough to recover nanometre DB units.
  const core::ExecContext ctx;
  const auto synth_res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  const auto bytes = synth::write_gdsii(*synth_res->layout, "u");
  const auto parsed = synth::read_gdsii(bytes);
  ASSERT_TRUE(parsed.ok);
  EXPECT_NEAR(parsed.library.user_unit, 1e-3, 1e-9);
  EXPECT_NEAR(parsed.library.meters_per_db / 1e-9, 1.0, 1e-6);
}

TEST(Gdsii, ReaderRejectsTruncatedStream) {
  const core::ExecContext ctx;
  const auto synth_res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
  auto bytes = synth::write_gdsii(*synth_res->layout, "u");
  bytes.resize(bytes.size() - 8);  // drop ENDLIB (and more)
  const auto parsed = synth::read_gdsii(bytes);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("ENDLIB"), std::string::npos);
}

TEST(Gdsii, ReaderRejectsGarbage) {
  const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
  const auto parsed = synth::read_gdsii(junk);
  EXPECT_FALSE(parsed.ok);
}

}  // namespace
}  // namespace vcoadc
