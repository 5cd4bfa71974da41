// The pluggable simulation-backend seam (DESIGN.md §3j).
//
// The flow can answer "what bitstream does this spec produce?" through two
// engines: the behavioral msim modulator (fast, analog-aware) and the
// event-driven gate-level LogicSim over the *emitted* Verilog (slow,
// structure-exact). SimBackend selects between them at the driver level;
// the artifacts both paths produce feed the same core::DigitalBackend, so
// a gate-level run is cross-checked bit-for-bit against the behavioral one
// before anything downstream trusts it.
//
// Two stage artifacts implement the gate-level path:
//   * HdlEmitResult — the hdl_emit stage's output. The emitted Verilog
//     *text* is the artifact of record: it is what a foundry flow would
//     consume, so the stage re-parses its own emission and proves
//     structural equivalence against the generated design before the text
//     is accepted (or cached). The re-parsed design ships alongside the
//     text purely as a convenience view; the codec reconstructs it from
//     the text on load.
//   * GateSimResult — the gate_sim stage's output: the Table-1 comparator
//     truth-table check, the ring-period check against the stage-delay
//     prediction, and the slice-replay decode whose output must match the
//     behavioral modulator bit-for-bit (then CIC+FIR decimated through the
//     shared DigitalBackend).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "netlist/cell_library.h"
#include "netlist/netlist.h"
#include "util/diag.h"

namespace vcoadc::core {

/// Which engine produces the decoded bitstream a driver consumes.
enum class SimBackend {
  kBehavioral,  ///< msim transient modulator (the default)
  kGateLevel,   ///< event-driven LogicSim over the emitted Verilog
};

/// Wire name of a backend ("behavioral", "gate_level").
const char* sim_backend_name(SimBackend b);

/// Inverse of sim_backend_name; false when `name` matches no backend.
bool sim_backend_from_name(std::string_view name, SimBackend* out);

/// hdl_emit stage artifact. `verilog` is the canonical product; `parsed`
/// is the design re-parsed from that exact text over `lib` (the two share
/// lifetime: Module instances point at nothing, but validate() resolves
/// masters through the library).
struct HdlEmitResult {
  std::string verilog;  ///< emitted text — the artifact of record
  std::string top;      ///< top module name of the emitted design
  std::shared_ptr<const netlist::CellLibrary> lib;
  std::shared_ptr<const netlist::Design> parsed;  ///< re-parsed from text
  int instances_compared = 0;  ///< flattened pairs the LEC step matched
};

/// gate_sim stage knobs. `sim` configures the behavioral reference run the
/// gate-level replay is cross-checked against (record_bits is forced on —
/// the replay consumes the per-slice bitstreams). The sign-off costs about
/// 4–7× a behavioral run of the same length (16–26 slices at 2^11 samples,
/// Release build: 16–30 ms against 3–6 ms), so the default capture is
/// short; the cross-check is bit-exact at any length.
struct GateSimOptions {
  SimulationOptions sim;
  /// Relative tolerance on |measured − predicted| ring period.
  double ring_period_tol = 0.25;
  /// Top module to simulate; empty = the emitted design's top.
  std::string top;

  GateSimOptions() { sim.n_samples = 1 << 12; }
};

/// gate_sim stage artifact: the three sign-off checks plus the decoded
/// stream, CIC+FIR-decimated through the same DigitalBackend as the
/// behavioral path.
struct GateSimResult {
  bool comparator_ok = false;  ///< Table-1 decide/latch truth table
  double ring_period_s = 0;    ///< measured on R1P_0 after a kick
  double ring_period_pred_s = 0;  ///< 2·N·t_stage stage-delay prediction
  bool ring_ok = false;        ///< |measured − predicted| within tolerance
  std::size_t n_samples = 0;   ///< replayed samples per slice
  int num_slices = 0;
  std::vector<double> decoded;    ///< gate-level decoder output per sample
  std::vector<double> decimated;  ///< DigitalBackend(decoded)
  bool matches_behavioral = false;  ///< decoded+decimated bit-identical
  std::uint64_t transitions = 0;  ///< committed gate events, all phases
};

/// Stage-delay prediction of the distributed ring's period: 2·N stage
/// traversals per cycle at the LogicSim inverter delay (FO4/4, ×1/√2 for
/// the 2x drive of the forward pair).
double predicted_ring_period_s(const tech::TechNode& node, int num_slices);

/// The gate-level sign-off engine: runs the comparator truth table, the
/// ring-period check and the slice replay on `parsed` (the re-parsed
/// emitted design; `opts.top` must name a module in it) and cross-checks
/// the decoded stream against `behavioral`. Null on any failed check,
/// with the reasons appended to `diags` — a failed sign-off is never a
/// cacheable artifact.
std::shared_ptr<const GateSimResult> run_gate_level_signoff(
    const netlist::Design& parsed, const AdcSpec& spec,
    const RunResult& behavioral, const GateSimOptions& opts,
    std::vector<util::Diagnostic>* diags);

}  // namespace vcoadc::core
