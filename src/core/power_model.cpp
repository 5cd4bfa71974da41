#include "core/power_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "netlist/generator.h"
#include "util/strings.h"

namespace vcoadc::core {
namespace {

/// Signal activity (average output transitions per clock of the relevant
/// rate) by logic function, for the VDD sampling domain.
double vdd_domain_activity(const std::string& function) {
  if (function == "nor3") return 2.0;  // comparator nodes reset every cycle
  if (function == "nor2") return 0.5;  // SR latch flips on data changes
  if (function == "xor2") return 0.5;
  if (function == "inv") return 0.5;
  if (function == "clkbuf") return 2.0;  // two edges per clock
  if (function == "buf") return 0.5;
  if (function == "dlat") return 0.5;
  return 0.5;
}

}  // namespace

PowerLoad power_load(const netlist::Design& design) {
  using Domain = PowerLoad::Domain;
  PowerLoad load;
  const netlist::FlatNetlist flat = design.flatten();
  load.leaves.reserve(flat.size());
  for (const netlist::FlatInstance& fi : flat) {
    const netlist::StdCell& cell = *fi.cell;
    const std::string& pd = fi.power_domain;
    PowerLoad::Leaf leaf;
    if (pd == netlist::kPdVctrlp || pd == netlist::kPdVctrln) {
      leaf.domain = Domain::kVctrl;
    } else if (pd == netlist::kPdVbuf1 || pd == netlist::kPdVbuf2) {
      leaf.domain = Domain::kVbuf;
    } else if (pd == netlist::kPdVrefp) {
      leaf.domain = Domain::kVrefp;
    } else {
      leaf.domain = Domain::kVdd;
    }
    leaf.is_resistor = cell.is_resistor;
    leaf.is_inv = cell.function == "inv";
    leaf.input_cap_f = cell.input_cap_f;
    leaf.leakage_w = cell.leakage_w;
    leaf.vdd_activity = vdd_domain_activity(cell.function);
    load.leaves.push_back(leaf);
  }
  return load;
}

PowerBreakdown estimate_power(const AdcSpec& spec, const PowerLoad& load,
                              const msim::ModulatorResult& activity,
                              const PowerModelOptions& opts) {
  using Domain = PowerLoad::Domain;
  const tech::TechNode node = spec.tech_node();
  PowerBreakdown pb;

  const double f_vco = 0.5 * (activity.mean_freq1_hz + activity.mean_freq2_hz);
  const double v_ctrl = 0.5 * (activity.mean_vctrlp + activity.mean_vctrln);
  const double v_buf = 0.5 * node.vdd;  // buffer stage bias point
  const double k = opts.switching_overhead;
  // DAC drivers toggle when the slice bit toggles.
  const double toggles_per_s = activity.bit_toggle_rate /
                               std::max(1, spec.num_slices) * spec.fs_hz;

  // Flatten order, one leaf at a time: the sums accumulate in the order a
  // walk of the netlist visits its instances.
  int buf_cells = 0;
  for (const PowerLoad::Leaf& leaf : load.leaves) {
    pb.leakage_w += leaf.leakage_w;
    if (leaf.is_resistor) continue;
    const double c = leaf.input_cap_f * k;
    switch (leaf.domain) {
      case Domain::kVctrl:
        // Ring inverters: every output completes one full cycle per VCO
        // period -> switched energy C * Vctrl^2 per period.
        pb.vco_w += c * v_ctrl * v_ctrl * f_vco;
        break;
      case Domain::kVbuf:
        // Buffer inverters switch at the ring rate from the VBUF supply;
        // their switching is digital, only the bias tail below is analog.
        pb.buffer_sw_w += c * v_buf * v_buf * f_vco;
        if (leaf.is_inv) {
          buf_cells++;  // counted per inverter; bias applied per buf_cell (4)
        }
        break;
      case Domain::kVrefp:
        pb.dac_drive_w += 0.5 * c * node.vdd * node.vdd * toggles_per_s;
        break;
      case Domain::kVdd:
        // VDD sampling domain.
        pb.sampling_w += 0.5 * c * node.vdd * node.vdd * leaf.vdd_activity *
                         spec.fs_hz;
        break;
    }
  }
  // Fixed bias tail of each buf_cell (4 inverters per cell).
  pb.buffer_bias_w +=
      (buf_cells / 4.0) * opts.buffer_bias_per_cell_a * node.vdd;

  // Signal-wire switching: average net activity ~0.35 transitions per clock
  // (ring tap wires toggle faster but are short and local; the sampled DAC
  // bits toggle well below once per clock). No gate-internal overhead
  // applies to extracted wire capacitance.
  pb.wire_w += 0.35 * opts.wire_cap_f * node.vdd * node.vdd * spec.fs_hz;

  // Resistor DAC static power: per slice and side, the resistor either
  // sources (VREFP - Vctrl across R, drawn from VREFP) or sinks
  // (Vctrl across R to ground); duty is ~50% at midscale.
  const double r_dac = 11000.0 * spec.dac_fragments;
  const double vrefp = node.vdd;
  const double p_per_res = 0.5 * vrefp * (vrefp - v_ctrl) / r_dac +
                           0.5 * v_ctrl * v_ctrl / r_dac;
  pb.dac_static_w += 2.0 * spec.num_slices * p_per_res;

  return pb;
}

}  // namespace vcoadc::core
