// AdcDesign: one AdcSpec built into two of the three views the paper
// works with:
//   * a behavioral simulation model (msim) -> waveforms, spectra, SNDR
//   * a gate-level netlist (netlist)       -> Verilog, gate counts, power
// plus the combined metrics of Table 3 (power breakdown, Walden FOM). The
// third view, the synthesized layout (floorplan, area, DRC), is the Route
// stage of core::Flow (core/flow.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/adc_spec.h"
#include "core/exec_context.h"
#include "core/power_model.h"
#include "dsp/spectrum.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "netlist/cell_library.h"
#include "netlist/netlist.h"
#include "synth/synthesis_flow.h"

namespace vcoadc::core {

struct SimulationOptions {
  std::size_t n_samples = 1 << 16;
  /// Input tone amplitude in dB below full scale. -3 dBFS keeps clear of
  /// the first-order overload boundary (-20*log10(1 - 2/N) below FS).
  double amplitude_dbfs = -3.0;
  double fin_target_hz = 1e6;    ///< snapped to a coherent odd-cycle bin
  msim::ComparatorKind comparator = msim::ComparatorKind::kNor3;
  msim::DacKind dac = msim::DacKind::kResistor;
  bool record_bits = false;
  /// Wire capacitance fed to the power model (from a synthesis run); 0 ok.
  double wire_cap_f = 0.0;
  /// When nonzero, overrides AdcSpec::seed for this run. Mismatch, noise and
  /// jitter draws only affect the behavioral model, so one AdcDesign (cell
  /// library + netlist, which are seed-independent) can be re-simulated with
  /// fresh draws — this is the Monte-Carlo hot path.
  std::uint64_t seed = 0;
  /// When set, overrides AdcSpec::pvt for this run. The netlist is
  /// corner-independent, so PVT sweeps also share one AdcDesign.
  std::optional<PvtCorner> pvt;
};

struct RunResult {
  double fin_hz = 0;
  double amplitude_v = 0;       ///< differential input amplitude
  double full_scale_v = 0;
  msim::ModulatorResult mod;
  dsp::Spectrum spectrum;
  dsp::SndrReport sndr;
  dsp::SlopeFit shaping;        ///< fitted noise slope above the band edge
  std::vector<dsp::IdleTone> idle_tones;  ///< in-band spur scan
  PowerBreakdown power;
  double fom_fj = 0;            ///< Walden FOM [fJ/conv-step]
};

/// Everything Table 3 needs for one node: simulation + layout.
struct NodeReport {
  RunResult run;
  synth::SynthesisResult synthesis;
  double area_mm2 = 0;
  /// True when every stage completed; false means a stage rejected its
  /// input (diagnostics were reported through the ExecContext) and the
  /// other fields are default-constructed.
  bool complete = false;
};

/// The built-design handle: construction pulls the TechLibrary and Netlist
/// stage artifacts from the ExecContext's shared cache (so two designs of
/// the same spec share one library + netlist), and simulate()/
/// simulate_batch() are the raw, uncached simulation kernels the SimRun
/// stage runs. Every other stage (layout, report, migration) is reached
/// through core::Flow (core/flow.h).
class AdcDesign {
 public:
  explicit AdcDesign(const AdcSpec& spec);
  /// As above with an explicit execution context: the artifact cache the
  /// library + netlist come from, and the sink simulate() reports into.
  /// A spec the validators reject does NOT abort: the failure is reported
  /// through the context (ExecContext::diag, stderr when unset) and the
  /// design is left unbuilt — check ok() before simulating.
  AdcDesign(const AdcSpec& spec, const ExecContext& ctx);

  /// True when the spec validated and the library + netlist were built.
  /// When false, simulate()/simulate_batch() return empty results (and
  /// report a diagnostic) instead of crashing, and library()/netlist()
  /// must not be called.
  bool ok() const { return lib_ != nullptr && design_ != nullptr; }

  /// Runs the behavioral model and the full spectrum analysis.
  RunResult simulate(const SimulationOptions& opts = {}) const;

  /// Same, but the modulator's output/scratch buffers come from `ws` and are
  /// reused across calls. Batch drivers hand each worker thread one
  /// workspace so repeated draws do not allocate in the sim hot loop; see
  /// msim::SimWorkspace for the (single-thread) ownership contract. Results
  /// are bit-identical to the workspace-free overload.
  RunResult simulate(const SimulationOptions& opts,
                     msim::SimWorkspace& ws) const;

  /// Simulates one lane group: result k is bit-identical to
  /// simulate(opts_list[k]). When the batched SoA engine takes the group,
  /// all lanes run in SIMD lockstep through one msim::BatchedModulator —
  /// its per-lane IEEE operation sequence matches the scalar modulator's
  /// (see util/simd.h), and the analysis stack is shared. Lanes may differ
  /// in seed, PVT corner, amplitude and wire load (PVT moves supply/VCO/
  /// noise *values* but not the clock structure, so corner sweeps batch
  /// cleanly); they must agree on n_samples, fin_target_hz, comparator,
  /// dac and record_bits — the lanes share one input-sample schedule and
  /// one netlist. Option lists the batched engine cannot take (disagreeing
  /// options, a width other than 2/4/8, current-steering DAC, or a PVT
  /// split that flips a noise-source on/off flag across lanes) run through
  /// the scalar path instead.
  std::vector<RunResult> simulate_batch(
      const std::vector<SimulationOptions>& opts_list,
      msim::BatchedWorkspace& ws) const;

  const AdcSpec& spec() const { return spec_; }
  const netlist::CellLibrary& library() const { return *lib_; }
  const netlist::Design& netlist() const { return *design_; }

 private:
  AdcSpec spec_;
  ExecContext ctx_;
  // Cache-shared stage artifacts; the design holds a raw pointer into the
  // library, so both are kept alive together.
  std::shared_ptr<const netlist::CellLibrary> lib_;
  std::shared_ptr<const netlist::Design> design_;
};

}  // namespace vcoadc::core
