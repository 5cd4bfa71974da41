// Gate-level execution of the generated netlist and the emitted-HDL
// backend seam (DESIGN.md §3j): the Table-1 comparator truth table in the
// event simulator, the ring-period check against the stage-delay
// prediction, the VCD/SPICE export paths, writer→parser round-trip
// equivalence at both paper nodes, and the hdl_emit/gate_sim flow stages
// cross-checked against the behavioral engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <set>

#include "core/artifact_cache.h"
#include "core/backend.h"
#include "core/flow.h"
#include "netlist/cell_library.h"
#include "netlist/equivalence.h"
#include "netlist/generator.h"
#include "netlist/logic_sim.h"
#include "netlist/spice.h"
#include "netlist/vcd.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "tech/tech_node.h"

namespace {

using namespace vcoadc;
using core::AdcSpec;

AdcSpec small_spec() {
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.num_slices = 4;
  return spec;
}

core::GateSimOptions small_gate_opts() {
  core::GateSimOptions opts;
  opts.sim.n_samples = 256;
  return opts;
}

netlist::Design small_design(const netlist::CellLibrary& lib, int slices) {
  netlist::GeneratorConfig cfg;
  cfg.num_slices = slices;
  return netlist::build_adc_design(lib, cfg);
}

// ---------------------------------------------------------------------------
// Table 1 comparator: decide/latch truth table

TEST(GateLevel, ComparatorFollowsTable1TruthTable) {
  const tech::TechNode node = tech::TechDatabase::standard().at(40);
  netlist::CellLibrary lib = netlist::make_standard_library(node);
  netlist::add_resistor_cells(lib, node);
  netlist::Design cmp = small_design(lib, 4);
  cmp.set_top("comparator");
  netlist::LogicSim sim(cmp, node);

  auto cycle = [&](netlist::Logic inp, netlist::Logic inm) {
    sim.set("INP", inp);
    sim.set("INM", inm);
    sim.set("CLK", netlist::Logic::k1);  // reset phase
    sim.settle(sim.now() + 1e-9);
    sim.set("CLK", netlist::Logic::k0);  // decide phase
    sim.settle(sim.now() + 1e-9);
  };

  // INP > INM decides Q=1, the mirror image decides Q=0, and flipping back
  // proves the latch regenerates rather than sticking.
  cycle(netlist::Logic::k1, netlist::Logic::k0);
  EXPECT_EQ(sim.get("Q"), netlist::Logic::k1);
  EXPECT_EQ(sim.get("QB"), netlist::Logic::k0);
  cycle(netlist::Logic::k0, netlist::Logic::k1);
  EXPECT_EQ(sim.get("Q"), netlist::Logic::k0);
  EXPECT_EQ(sim.get("QB"), netlist::Logic::k1);
  cycle(netlist::Logic::k1, netlist::Logic::k0);
  EXPECT_EQ(sim.get("Q"), netlist::Logic::k1);
  EXPECT_EQ(sim.get("QB"), netlist::Logic::k0);
  EXPECT_GT(sim.transition_count(), 0u);
}

// ---------------------------------------------------------------------------
// Fig. 5 distributed ring: oscillation at the predicted period

TEST(GateLevel, RingOscillatesAtStageDelayPrediction) {
  const tech::TechNode node = tech::TechDatabase::standard().at(40);
  netlist::CellLibrary lib = netlist::make_standard_library(node);
  netlist::add_resistor_cells(lib, node);
  const int slices = 4;
  netlist::Design design = small_design(lib, slices);
  netlist::LogicSim sim(design, node);

  for (int i = 0; i < slices; ++i) {
    sim.set("R1P_" + std::to_string(i), netlist::Logic::k0);
    sim.set("R1N_" + std::to_string(i), netlist::Logic::k1);
  }
  std::vector<double> edges;
  sim.on_change("R1P_0",
                [&](double t, netlist::Logic) { edges.push_back(t); });
  const double pred = core::predicted_ring_period_s(node, slices);
  sim.run_until(std::max(3e-10, 8.0 * pred));

  ASSERT_GT(edges.size(), 4u) << "ring failed to oscillate";
  const double period = (edges.back() - edges[edges.size() - 5]) / 2.0;
  EXPECT_GT(pred, 0.0);
  EXPECT_LE(std::abs(period - pred), 0.25 * pred)
      << "measured " << period << " s vs predicted " << pred << " s";
}

// ---------------------------------------------------------------------------
// Export paths: VCD trace and SPICE deck are non-empty and well-formed

TEST(GateLevel, VcdAndSpiceExportsAreNonEmpty) {
  const tech::TechNode node = tech::TechDatabase::standard().at(40);
  netlist::CellLibrary lib = netlist::make_standard_library(node);
  netlist::add_resistor_cells(lib, node);
  netlist::Design cmp = small_design(lib, 4);
  cmp.set_top("comparator");
  netlist::LogicSim sim(cmp, node);
  netlist::VcdWriter vcd;
  vcd.watch_all(sim, {"CLK", "INP", "INM", "OUTP", "OUTM", "Q", "QB"});

  sim.set("INP", netlist::Logic::k1);
  sim.set("INM", netlist::Logic::k0);
  sim.set("CLK", netlist::Logic::k1);
  sim.settle(sim.now() + 1e-9);
  sim.set("CLK", netlist::Logic::k0);
  sim.settle(sim.now() + 1e-9);

  EXPECT_GT(vcd.num_signals(), 0);
  EXPECT_GT(vcd.num_changes(), 0u);
  const std::string trace = vcd.render("comparator");
  EXPECT_NE(trace.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(trace.find("comparator"), std::string::npos);

  netlist::Design design = small_design(lib, 4);
  const std::string deck = netlist::write_spice(design, node);
  EXPECT_FALSE(deck.empty());
  int fets = 0;
  for (const auto& mod : design.modules()) {
    for (const auto& inst : mod.instances()) {
      if (const auto* cell = lib.find(inst.master)) {
        fets += netlist::spice_transistor_count(*cell);
      }
    }
  }
  EXPECT_GT(fets, 0);
}

// ---------------------------------------------------------------------------
// Writer -> parser round trip: structural equivalence at both paper nodes

void expect_roundtrip_equivalent(double node_nm) {
  SCOPED_TRACE(node_nm);
  const tech::TechNode node =
      tech::TechDatabase::standard().at(static_cast<int>(node_nm));
  netlist::CellLibrary lib = netlist::make_standard_library(node);
  netlist::add_resistor_cells(lib, node);  // resistor-cell extension incl.
  netlist::Design design = small_design(lib, 4);

  const std::string text = netlist::write_verilog(design);
  ASSERT_FALSE(text.empty());

  netlist::Design reparsed(&lib);
  const netlist::ParseResult pr = netlist::parse_verilog(text, reparsed);
  ASSERT_TRUE(pr.ok) << pr.error;
  reparsed.set_top(design.top());

  netlist::EquivalenceOptions eopts;
  eopts.match_drive = true;  // parse-back: bit-equal, not just same function
  const netlist::EquivalenceResult eq =
      netlist::check_equivalence(design, reparsed, eopts);
  EXPECT_TRUE(eq.equivalent)
      << (eq.mismatches.empty() ? "" : eq.mismatches.front());
  EXPECT_GT(eq.instances_compared, 0);

  // Idempotent emission: re-emitting the re-parsed design reproduces the
  // text byte for byte, so the stored artifact is a fixed point.
  EXPECT_EQ(netlist::write_verilog(reparsed), text);
}

TEST(GateLevel, VerilogRoundTripEquivalentAt40nm) {
  expect_roundtrip_equivalent(40);
}

TEST(GateLevel, VerilogRoundTripEquivalentAt180nm) {
  expect_roundtrip_equivalent(180);
}

// ---------------------------------------------------------------------------
// The hdl_emit flow stage

TEST(GateLevel, HdlEmitStageEmitsVerifiedTextAndCaches) {
  const AdcSpec spec = small_spec();
  core::ArtifactCache cache(64);
  util::DiagSink sink;
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.diag = &sink;
  core::Flow flow(ctx);

  const auto cold = flow.hdl_emit(spec);
  ASSERT_NE(cold, nullptr) << sink.render();
  EXPECT_FALSE(cold->verilog.empty());
  EXPECT_FALSE(cold->top.empty());
  ASSERT_NE(cold->parsed, nullptr);
  EXPECT_EQ(cold->parsed->top(), cold->top);
  EXPECT_GT(cold->instances_compared, 0);
  EXPECT_NE(cold->verilog.find("module"), std::string::npos);

  // Warm call returns the identical object (cache hit, not a rebuild).
  const auto warm = flow.hdl_emit(spec);
  EXPECT_EQ(warm.get(), cold.get());
  EXPECT_FALSE(sink.has_errors()) << sink.render();
}

// ---------------------------------------------------------------------------
// The gate_sim flow stage: sign-off + bit-identity with the behavioral path

TEST(GateLevel, GateSimMatchesBehavioralBitForBit) {
  const AdcSpec spec = small_spec();
  core::ArtifactCache cache(64);
  util::DiagSink sink;
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.diag = &sink;
  core::Flow flow(ctx);

  const core::GateSimOptions gopts = small_gate_opts();
  const auto gate = flow.gate_sim(spec, gopts);
  ASSERT_NE(gate, nullptr) << sink.render();
  EXPECT_TRUE(gate->comparator_ok);
  EXPECT_TRUE(gate->ring_ok);
  EXPECT_GT(gate->ring_period_s, 0.0);
  EXPECT_GT(gate->ring_period_pred_s, 0.0);
  EXPECT_EQ(gate->n_samples, gopts.sim.n_samples);
  EXPECT_EQ(gate->num_slices, spec.num_slices);
  EXPECT_TRUE(gate->matches_behavioral);
  EXPECT_GT(gate->transitions, 0u);

  // The stage's claim, re-proved here: the gate-level decoded stream and
  // its decimation equal the behavioral modulator's, sample for sample.
  core::SimulationOptions sim = gopts.sim;
  sim.record_bits = true;
  const auto behavioral = flow.sim_run(spec, sim);
  ASSERT_NE(behavioral, nullptr);
  ASSERT_EQ(gate->decoded.size(), behavioral->mod.output.size());
  for (std::size_t i = 0; i < gate->decoded.size(); ++i) {
    ASSERT_EQ(gate->decoded[i], behavioral->mod.output[i]) << "sample " << i;
  }
  core::DigitalBackend backend(spec);
  const std::vector<double> ref = backend.process(behavioral->mod.output);
  ASSERT_EQ(gate->decimated.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(gate->decimated[i], ref[i]) << "decimated sample " << i;
  }
}

TEST(GateLevel, DecodedStreamAgreesAcrossBackends) {
  const AdcSpec spec = small_spec();
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.cache = &cache;
  core::Flow flow(ctx);

  core::SimulationOptions sim;
  sim.n_samples = 256;
  const std::vector<double> behavioral =
      flow.decoded_stream(spec, sim, core::SimBackend::kBehavioral);
  const std::vector<double> gate =
      flow.decoded_stream(spec, sim, core::SimBackend::kGateLevel);
  ASSERT_FALSE(behavioral.empty());
  ASSERT_EQ(gate.size(), behavioral.size());
  for (std::size_t i = 0; i < gate.size(); ++i) {
    ASSERT_EQ(gate[i], behavioral[i]) << "sample " << i;
  }
}

TEST(GateLevel, UnresolvableTopFailsCleanlyThenRecovers) {
  const AdcSpec spec = small_spec();
  core::ArtifactCache cache(64);
  util::DiagSink sink;
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.diag = &sink;
  core::Flow flow(ctx);

  core::GateSimOptions bad = small_gate_opts();
  bad.top = "no_such_module";
  EXPECT_EQ(flow.gate_sim(spec, bad), nullptr);
  EXPECT_TRUE(sink.has_errors());
  bool named = false;
  for (const auto& d : sink.all()) {
    if (d.item == "no_such_module") named = true;
  }
  EXPECT_TRUE(named) << sink.render();

  // The refusal never reached the cache: the same context immediately
  // serves a clean run with the default top.
  sink.clear();
  EXPECT_NE(flow.gate_sim(spec, small_gate_opts()), nullptr)
      << sink.render();
  EXPECT_FALSE(sink.has_errors()) << sink.render();
}

// A net the sign-off drives or probes that the emitted text lacks is refused
// with a diagnostic naming it. Driving the absent name would create a
// floating net and probing it read X, which would surface only as "slice 0
// sample 0 did not resolve (X)".
TEST(GateLevel, MissingSliceNetIsRefusedByName) {
  const AdcSpec spec = small_spec();
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.cache = &cache;
  core::Flow flow(ctx);
  const auto hdl = flow.hdl_emit(spec);
  ASSERT_NE(hdl, nullptr);
  core::GateSimOptions opts = small_gate_opts();
  opts.sim.record_bits = true;
  opts.top = hdl->top;
  const auto ref = flow.sim_run(spec, opts.sim);
  ASSERT_NE(ref, nullptr);

  std::string text = hdl->verilog;
  std::size_t renamed_count = 0;
  for (std::size_t at = text.find("DOUT"); at != std::string::npos;
       at = text.find("DOUT", at + 1)) {
    text.replace(at, 4, "DRENAMED");
    ++renamed_count;
  }
  ASSERT_GT(renamed_count, 0u);
  netlist::Design renamed(hdl->lib.get());
  const netlist::ParseResult pr = netlist::parse_verilog(text, renamed);
  ASSERT_TRUE(pr.ok) << pr.error;
  renamed.set_top(hdl->top);

  std::vector<util::Diagnostic> diags;
  EXPECT_EQ(core::run_gate_level_signoff(renamed, spec, *ref, opts, &diags),
            nullptr);
  bool named = false;
  for (const util::Diagnostic& d : diags) {
    EXPECT_EQ(d.reason.find("did not resolve"), std::string::npos)
        << d.reason;
    if (d.item == "ADC_slice" && d.reason.find("DOUT") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);

  // The untouched text signs off over the same reference.
  diags.clear();
  EXPECT_NE(core::run_gate_level_signoff(*hdl->parsed, spec, *ref, opts,
                                         &diags),
            nullptr);
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// Golden pin of the gate-level sign-off

/// FNV-1a-64 over the IEEE-754 bit patterns of `v`, little-endian bytes in
/// sample order, so any changed sample (or length) changes the hash.
std::uint64_t stream_fnv(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (b >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Every GateSimResult field the gate_sim stage serves, pinned bit for bit:
// the measured ring period (exact edge times of the event queue), the
// committed event count of all three checks (the inertial rule and commit
// order), and the decoded and decimated streams. The decode is also
// cross-checked against the behavioral engine inside the stage, but only
// this test fails when the simulator's event order moves.
TEST(GateSimGolden, SignOffPinnedOnPaperAnd22nmSpecs) {
  struct Case {
    const char* name;
    AdcSpec spec;
    double ring_period_s;
    std::uint64_t transitions;
    std::uint64_t decoded_fnv;
    std::uint64_t decimated_fnv;
  };
  AdcSpec n22;
  n22.node_nm = 22;
  n22.num_slices = 6;
  n22.fs_hz = 2e9;
  n22.bandwidth_hz = 10e6;
  n22.dac_fragments = 2;
  const Case cases[] = {
      {"paper 40 nm", AdcSpec::paper_40nm(), 0x1.d8b3fb55cd6p-35, 687923,
       0x43dfcbd1c055759fULL, 0x573249c38c33dfcbULL},
      {"paper 180 nm", AdcSpec::paper_180nm(), 0x1.561675e3258p-32, 687351,
       0xb42bdf10e688dc9bULL, 0x2ef4b18d38dda103ULL},
      {"22 nm, 6 slices", n22, 0x1.bfd2ee1b644p-37, 239323,
       0xaf69f4b1e15d709aULL, 0xc39251ff565cc84dULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    util::DiagSink sink;
    core::ExecContext ctx;
    ctx.cache = nullptr;  // every case simulates, never a cache hit
    ctx.diag = &sink;
    core::Flow flow(ctx);
    core::GateSimOptions opts;
    opts.sim.n_samples = 1 << 11;
    const auto gate = flow.gate_sim(c.spec, opts);
    ASSERT_NE(gate, nullptr) << sink.render();
    EXPECT_TRUE(gate->matches_behavioral);
    EXPECT_EQ(gate->n_samples, opts.sim.n_samples);
    EXPECT_EQ(gate->num_slices, c.spec.num_slices);
    EXPECT_EQ(gate->ring_period_s, c.ring_period_s)
        << std::hexfloat << gate->ring_period_s;
    EXPECT_EQ(gate->transitions, c.transitions);
    EXPECT_EQ(stream_fnv(gate->decoded), c.decoded_fnv)
        << "0x" << std::hex << stream_fnv(gate->decoded);
    EXPECT_EQ(stream_fnv(gate->decimated), c.decimated_fnv)
        << "0x" << std::hex << stream_fnv(gate->decimated);
  }
}

}  // namespace
