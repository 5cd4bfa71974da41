// Activity-based power model (the Fig. 15 / Table 3 power numbers).
//
// Digital power is CV^2*f over the synthesized netlist: every flat instance
// switches at a rate set by its power domain (ring inverters at the VCO
// rate, VDD-domain sampling logic at fs, DAC drivers at the measured bit
// toggle rate), at the voltage of its domain. A single documented
// `switching_overhead` constant covers short-circuit current, internal
// nodes, self-load and realistic (non-minimum) sizing - the usual gap
// between C_in V^2 f and measured gate power.
//
// Analog power is the static dissipation of the feedback network (resistor
// DAC) plus the replica-buffer bias. The input resistor network is driven
// by the external source and is excluded, per ADC-survey convention.
#pragma once

#include <vector>

#include "core/adc_spec.h"
#include "msim/modulator.h"
#include "netlist/netlist.h"

namespace vcoadc::core {

struct PowerBreakdown {
  // digital (inverter/gate switching, wherever the gates' supply pins go)
  double vco_w = 0;        ///< ring inverters (PD_VCTRLP/N)
  double sampling_w = 0;   ///< comparators, XOR, latches, clock (PD_VDD)
  double dac_drive_w = 0;  ///< DAC inverters (PD_VREFP)
  double buffer_sw_w = 0;  ///< buffer inverter switching (PD_VBUF*)
  double wire_w = 0;       ///< routed signal-wire switching
  double leakage_w = 0;
  // analog (static dissipation)
  double dac_static_w = 0;   ///< resistor DAC static dissipation
  double buffer_bias_w = 0;  ///< replica-buffer bias tail

  double digital_w() const {
    return vco_w + sampling_w + dac_drive_w + buffer_sw_w + wire_w +
           leakage_w;
  }
  double analog_w() const { return dac_static_w + buffer_bias_w; }
  double total_w() const { return digital_w() + analog_w(); }
  double digital_fraction() const {
    const double t = total_w();
    return (t > 0) ? digital_w() / t : 0;
  }
};

struct PowerModelOptions {
  /// Multiplier on gate CV^2f covering crowbar current, internal nodes and
  /// realistic sizing. Calibrated once against the paper's Table 3 totals;
  /// applies to gates only, not to the extracted wire capacitance.
  double switching_overhead = 3.0;
  /// Bias current per buf_cell [A].
  double buffer_bias_per_cell_a = 5e-6;
  /// Estimated total switched signal-wire capacitance [F] (from the
  /// routing estimate); 0 if no layout is available.
  double wire_cap_f = 0.0;
};

/// The netlist half of the power model: what estimate_power reads of each
/// flat leaf instance, in Design::flatten() order. Building it walks the
/// netlist once; every run simulated on that netlist can then share it.
struct PowerLoad {
  enum class Domain : unsigned char { kVctrl, kVbuf, kVrefp, kVdd };
  struct Leaf {
    Domain domain = Domain::kVdd;
    bool is_resistor = false;
    bool is_inv = false;  ///< an inverter (counted toward buf_cells)
    double input_cap_f = 0;
    double leakage_w = 0;
    double vdd_activity = 0;  ///< transitions per clock (VDD domain only)
  };
  std::vector<Leaf> leaves;
};

/// One flatten() of `design` into the table estimate_power loops over.
PowerLoad power_load(const netlist::Design& design);

/// Computes the breakdown for a simulated operating point. `activity` must
/// come from a run of the behavioral modulator at this spec (it supplies the
/// mean ring rates, control voltages and DAC toggle rate), and `load` from
/// power_load() of the spec's netlist.
PowerBreakdown estimate_power(const AdcSpec& spec, const PowerLoad& load,
                              const msim::ModulatorResult& activity,
                              const PowerModelOptions& opts = {});

}  // namespace vcoadc::core
