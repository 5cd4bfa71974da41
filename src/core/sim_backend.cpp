#include "core/sim_backend.h"

#include <cmath>
#include <initializer_list>
#include <utility>

#include "core/backend.h"
#include "netlist/logic_sim.h"
#include "util/strings.h"

namespace vcoadc::core {

namespace {

using netlist::Logic;
using util::Diagnostic;
using util::Severity;

Diagnostic gate_error(std::string item, std::string reason) {
  return Diagnostic{Severity::kError, "gate_sim", std::move(item),
                    std::move(reason)};
}

/// Resolves each (name, id) pair's net in `sim`. False, with a diagnostic
/// naming every net the emitted `module` lacks: set() on an absent name
/// would drive a new floating net and get() read X, so a renamed port would
/// otherwise fail later as an unresolved decision.
bool resolve_nets(
    const netlist::LogicSim& sim, const char* module,
    std::initializer_list<std::pair<const char*, int*>> nets,
    std::vector<Diagnostic>* diags) {
  bool ok = true;
  for (const auto& [name, id] : nets) {
    *id = sim.net(name);
    if (*id < 0) {
      diags->push_back(gate_error(
          module, util::format("emitted %s has no net %s", module, name)));
      ok = false;
    }
  }
  return ok;
}

/// One comparator clock cycle on net `clk`: reset (CLK high forces both
/// NOR3 outputs low), then decide (CLK low lets the INP/INM side
/// regenerate and the NOR2 latch capture). It is the Table-1 stimulus
/// tests/gate_level_test.cpp drives, and each replayed sample's clock.
void clock_cycle(netlist::LogicSim& sim, int clk) {
  sim.set(clk, Logic::k1);
  sim.settle(sim.now() + 1e-9);
  sim.set(clk, Logic::k0);
  sim.settle(sim.now() + 1e-9);
}

/// Table-1 decide/latch truth table: Q must follow INP through a 1/0/1
/// sequence (the middle step proves decide overrides the latched state,
/// the last that the latch was not stuck).
bool check_comparator(const netlist::Design& parsed,
                      const tech::TechNode& node,
                      std::vector<Diagnostic>* diags,
                      std::uint64_t* transitions) {
  netlist::Design cmp = parsed;
  cmp.set_top("comparator");
  if (cmp.find_module("comparator") == nullptr) {
    diags->push_back(gate_error(
        "comparator", "emitted design has no comparator module"));
    return false;
  }
  netlist::LogicSim sim(cmp, node);
  int inp_net = -1, inm_net = -1, clk = -1, q_net = -1, qb_net = -1;
  if (!resolve_nets(sim, "comparator",
                    {{"INP", &inp_net},
                     {"INM", &inm_net},
                     {"CLK", &clk},
                     {"Q", &q_net},
                     {"QB", &qb_net}},
                    diags)) {
    return false;
  }
  bool ok = true;
  const Logic want[3] = {Logic::k1, Logic::k0, Logic::k1};
  for (int step = 0; step < 3; ++step) {
    const Logic inp = want[step];
    sim.set(inp_net, inp);
    sim.set(inm_net, netlist::logic_not(inp));
    clock_cycle(sim, clk);
    const Logic q = sim.get(q_net);
    const Logic qb = sim.get(qb_net);
    if (q != inp || qb != netlist::logic_not(inp)) {
      diags->push_back(gate_error(
          "comparator",
          util::format("decide step %d: INP=%c gave Q=%c QB=%c", step,
                       to_char(inp), to_char(q), to_char(qb))));
      ok = false;
    }
  }
  *transitions += sim.transition_count();
  return ok;
}

/// Kicks ring 1 into its oscillating state and measures the period on the
/// first tap, exactly as the print-only demo did: the half-period is the
/// spacing of consecutive edges, averaged over the last two full cycles.
bool check_ring(const netlist::Design& parsed, const AdcSpec& spec,
                const std::string& top, const tech::TechNode& node,
                double tol, GateSimResult* out,
                std::vector<Diagnostic>* diags) {
  netlist::Design ring = parsed;
  ring.set_top(top);
  netlist::LogicSim sim(ring, node);
  for (int i = 0; i < spec.num_slices; ++i) {
    const std::string p = "R1P_" + std::to_string(i);
    const std::string n = "R1N_" + std::to_string(i);
    const int p_net = sim.net(p);
    const int n_net = sim.net(n);
    if (p_net < 0 || n_net < 0) {
      diags->push_back(gate_error(
          top, util::format("no ring tap nets %s/%s under this top",
                            p.c_str(), n.c_str())));
      return false;
    }
    sim.set(p_net, Logic::k0);
    sim.set(n_net, Logic::k1);
  }
  std::vector<double> edges;
  sim.on_change("R1P_0", [&](double t, Logic) { edges.push_back(t); });
  const double pred = predicted_ring_period_s(node, spec.num_slices);
  // Enough window for several cycles at any slice count (the demo's fixed
  // 300 ps only covers small rings).
  sim.run_until(std::max(3e-10, 8.0 * pred));
  out->transitions += sim.transition_count();
  out->ring_period_pred_s = pred;
  if (edges.size() <= 4) {
    diags->push_back(gate_error(
        top, util::format("ring did not oscillate (%zu edges observed)",
                          edges.size())));
    return false;
  }
  out->ring_period_s = (edges.back() - edges[edges.size() - 5]) / 2.0;
  if (!(std::abs(out->ring_period_s - pred) <= tol * pred)) {
    diags->push_back(gate_error(
        top, util::format("ring period %.3g s is outside %.0f%% of the "
                          "stage-delay prediction %.3g s",
                          out->ring_period_s, tol * 100.0, pred)));
    return false;
  }
  return true;
}

/// Replays the behavioral per-slice bitstreams through the gate-level
/// slice: for each (sample, slice) the ring-tap inputs are driven so the
/// two retimed comparator decisions XOR to the recorded bit iff the
/// emitted slice datapath (VCO stage -> buffer -> comparators -> XOR) is
/// structurally and functionally intact. BOP settles to IP (two
/// inversions) and BOP2 to IP2, so driving IP = bit XOR phase, IP2 = phase
/// makes DOUT = bit for a correct netlist — while a swapped gate, dropped
/// inversion or miswired pin shows up as a decode mismatch.
bool replay_slices(const netlist::Design& parsed, const AdcSpec& spec,
                   const RunResult& behavioral, const tech::TechNode& node,
                   GateSimResult* out, std::vector<Diagnostic>* diags) {
  netlist::Design slice = parsed;
  slice.set_top("ADC_slice");
  if (slice.find_module("ADC_slice") == nullptr) {
    diags->push_back(
        gate_error("ADC_slice", "emitted design has no ADC_slice module"));
    return false;
  }
  const int n_slices = spec.num_slices;
  const std::size_t n_samples = behavioral.mod.output.size();
  if (behavioral.mod.slice_bits.size() != static_cast<std::size_t>(n_slices)) {
    diags->push_back(gate_error(
        "slice_bits",
        util::format("behavioral reference recorded %zu slice streams, "
                     "spec has %d slices",
                     behavioral.mod.slice_bits.size(), n_slices)));
    return false;
  }
  for (const auto& bits : behavioral.mod.slice_bits) {
    if (bits.size() != n_samples) {
      diags->push_back(gate_error(
          "slice_bits", "behavioral slice streams are shorter than the "
                        "output stream"));
      return false;
    }
  }

  netlist::LogicSim sim(slice, node);
  int ip = -1, in = -1, ip2 = -1, in2 = -1, clk = -1, dout_net = -1;
  if (!resolve_nets(sim, "ADC_slice",
                    {{"IP", &ip},
                     {"IN", &in},
                     {"IP2", &ip2},
                     {"IN2", &in2},
                     {"CLK", &clk},
                     {"DOUT", &dout_net}},
                    diags)) {
    return false;
  }
  const auto drive = [&](int p, int n, bool level) {
    sim.set(p, level ? Logic::k1 : Logic::k0);
    sim.set(n, level ? Logic::k0 : Logic::k1);
  };
  out->decoded.reserve(n_samples);
  for (std::size_t n = 0; n < n_samples; ++n) {
    int count = 0;
    for (int i = 0; i < n_slices; ++i) {
      const bool d = behavioral.mod.slice_bits[i][n];
      const bool phase = ((n + static_cast<std::size_t>(i)) & 1) != 0;
      drive(ip, in, d != phase);
      drive(ip2, in2, phase);
      clock_cycle(sim, clk);
      const Logic dout = sim.get(dout_net);
      if (dout == Logic::kX) {
        diags->push_back(gate_error(
            "DOUT", util::format("slice %d sample %zu did not resolve (X)",
                                 i, n)));
        return false;
      }
      const bool gate_bit = dout == Logic::k1;
      if (gate_bit != d) {
        diags->push_back(gate_error(
            "DOUT",
            util::format("slice %d sample %zu decoded %d, behavioral bit "
                         "is %d",
                         i, n, gate_bit ? 1 : 0, d ? 1 : 0)));
        return false;
      }
      count += gate_bit ? 1 : 0;
    }
    // The modulator's exact decoder arithmetic (msim/modulator.cpp), so a
    // bit-identical stream stays bit-identical after normalization.
    out->decoded.push_back((2.0 * count - n_slices) /
                           static_cast<double>(n_slices));
  }
  out->transitions += sim.transition_count();
  out->n_samples = n_samples;
  out->num_slices = n_slices;
  return true;
}

}  // namespace

const char* sim_backend_name(SimBackend b) {
  switch (b) {
    case SimBackend::kBehavioral:
      return "behavioral";
    case SimBackend::kGateLevel:
      return "gate_level";
  }
  return "?";
}

bool sim_backend_from_name(std::string_view name, SimBackend* out) {
  for (SimBackend b : {SimBackend::kBehavioral, SimBackend::kGateLevel}) {
    if (name == sim_backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

double predicted_ring_period_s(const tech::TechNode& node, int num_slices) {
  return 2.0 * num_slices * (node.fo4_delay_s / 4.0 / std::sqrt(2.0));
}

std::shared_ptr<const GateSimResult> run_gate_level_signoff(
    const netlist::Design& parsed, const AdcSpec& spec,
    const RunResult& behavioral, const GateSimOptions& opts,
    std::vector<Diagnostic>* diags) {
  const tech::TechNode node = spec.tech_node();
  const std::string top = opts.top.empty() ? parsed.top() : opts.top;
  auto res = std::make_shared<GateSimResult>();

  res->comparator_ok =
      check_comparator(parsed, node, diags, &res->transitions);
  const bool ring_ok = check_ring(parsed, spec, top, node,
                                  opts.ring_period_tol, res.get(), diags);
  res->ring_ok = ring_ok;
  if (!res->comparator_ok || !ring_ok) return nullptr;
  if (!replay_slices(parsed, spec, behavioral, node, res.get(), diags)) {
    return nullptr;
  }

  // Cross-check: the gate-level decode must be bit-identical to the
  // behavioral modulator, before and after the shared digital back end.
  bool identical = res->decoded.size() == behavioral.mod.output.size();
  for (std::size_t i = 0; identical && i < res->decoded.size(); ++i) {
    identical = res->decoded[i] == behavioral.mod.output[i];
  }
  const DigitalBackend backend(spec);
  res->decimated = backend.process(res->decoded);
  const std::vector<double> ref = backend.process(behavioral.mod.output);
  identical = identical && res->decimated.size() == ref.size();
  for (std::size_t i = 0; identical && i < ref.size(); ++i) {
    identical = res->decimated[i] == ref[i];
  }
  res->matches_behavioral = identical;
  if (!identical) {
    diags->push_back(gate_error(
        "decode", "gate-level decoded/decimated stream diverged from the "
                  "behavioral path"));
    return nullptr;
  }
  return res;
}

}  // namespace vcoadc::core
