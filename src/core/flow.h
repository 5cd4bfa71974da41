// The explicit stage graph of the end-to-end pipeline (the paper's Fig. 9
// flow, made a first-class object):
//
//   TechLibrary --> Netlist --> Floorplan --> Placement --> Route
//         \                                                  |
//          \--------------------> SimRun <-- (wire load) ----/
//                                    \--> Report
//
// Each stage's inputs are content-hashed (see artifact_cache.h) into a key
// for the shared ArtifactCache, so a Monte-Carlo batch, a corner sweep and
// a datasheet run over the same spec build the library/netlist/layout
// exactly once; a cached artifact *is* the object a fresh build produces,
// so cached re-runs are bit-identical to fresh ones. Stage boundaries emit
// util::Trace spans (stage name, wall time, cache hit/miss, artifact
// size) when the ExecContext carries a trace sink.
//
// Key policy (what invalidates what):
//   TechLibrary  <- node_nm
//   Netlist      <- TechLibrary + num_slices + dac_fragments
//   Floorplan    <- Netlist + target_utilization + aspect_ratio
//   Placement    <- Floorplan + placer + respect_power_domains +
//                   barycenter/refine passes + seed
//   Route        <- Placement + detailed_route
//   SimRun       <- full spec (with the per-run seed/pvt overrides
//                   canonicalized in) + n_samples + amplitude + fin +
//                   comparator + dac + record_bits + wire_cap_f
//   HdlEmit      <- Netlist (the emitted text is a pure function of the
//                   generated design; the stage re-parses its own emission
//                   and proves structural equivalence before caching)
//   GateSim      <- HdlEmit + SimRun (the behavioral reference, with
//                   record_bits canonicalized on) + ring tolerance + top
//   Report       <- assembled from cached Route + SimRun; not memoized
//                   itself (assembly is a clone + a struct fill).
// ExecContext fields (threads, trace, cache) are never hashed: they must
// not change result bytes.
#pragma once

#include <functional>
#include <memory>

#include "core/adc.h"
#include "core/adc_spec.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/exec_context.h"
#include "core/migration.h"
#include "core/sim_backend.h"
#include "synth/synthesis_flow.h"

namespace vcoadc::core {

/// The typed stages of the flow graph.
enum class Stage {
  kTechLibrary,
  kNetlist,
  kFloorplan,
  kPlacement,
  kRoute,
  kSimRun,
  kHdlEmit,
  kGateSim,
  kReport,
};

const char* stage_name(Stage s);

// --- Stage-boundary validators -------------------------------------------
// Every public stage of the Flow validates its inputs with these before it
// builds (or serves) an artifact; a failed validation produces structured
// diagnostics through the ExecContext and a null artifact — never an
// abort. They are public so drivers and tests can pre-check inputs.

/// Spec ranges, node validity, ring realizability, numeric sanity.
std::vector<util::Diagnostic> validate_spec(const AdcSpec& spec);

/// Capture-length (power of two, bounded), amplitude/frequency/wire-cap
/// numeric sanity.
std::vector<util::Diagnostic> validate_sim_options(
    const SimulationOptions& opts);

/// Structural netlist checks: Design::validate() (unknown masters, missing
/// pins/nets, unconnected inputs) plus duplicate instance names, empty
/// top/module detection and dangling-net warnings.
std::vector<util::Diagnostic> validate_netlist(const netlist::Design& design);

/// Floorplan/placement knobs: utilization in (0,1), aspect ratio, passes.
std::vector<util::Diagnostic> validate_synthesis_options(
    const synth::SynthesisOptions& opts);

/// True if any entry is Severity::kError.
bool has_errors(const std::vector<util::Diagnostic>& diags);

// Content-hash key builders, exposed for the determinism tests: the same
// spec + options always produce the same key (across threads, processes
// and machines of equal endianness); any result-affecting field change
// produces a different key.
CacheKey tech_library_key(const AdcSpec& spec);
CacheKey netlist_key(const AdcSpec& spec);
CacheKey floorplan_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts);
CacheKey placement_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts);
CacheKey synthesis_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts);
CacheKey sim_run_key(const AdcSpec& spec, const SimulationOptions& opts);
CacheKey hdl_emit_key(const AdcSpec& spec);
/// Canonicalizes `opts` the way Flow::gate_sim does (record_bits forced on
/// in the embedded reference-run options) before hashing.
CacheKey gate_sim_key(const AdcSpec& spec, const GateSimOptions& opts);

/// Netlist-stage artifact: the cell library plus the gate-level design
/// referencing it (the design holds a raw pointer into the library, so the
/// two share lifetime here).
struct DesignBundle {
  std::shared_ptr<const netlist::CellLibrary> lib;
  std::shared_ptr<const netlist::Design> design;
};

/// Result of Flow::migrate: the migrated design plus the target library it
/// references (cache-shared; keep it alive as long as the design).
struct MigratedDesign {
  std::shared_ptr<const netlist::CellLibrary> target_lib;
  MigrationResult result;
};

/// Handle on the stage graph: runs stages on demand, memoizing through the
/// ExecContext's cache and tracing through its sink. Cheap to construct;
/// copies the context.
///
/// Failure policy (DESIGN.md §3f): every stage validates its inputs at the
/// boundary. A stage given malformed input reports structured diagnostics
/// through the context (ExecContext::diag, stderr when unset) and returns
/// a null artifact; downstream stages propagate the null. Failed builds
/// are never cached. When the context carries a util::FaultPlan, a stage
/// armed in it refuses at entry with an "injected fault" diagnostic,
/// before its cache or store lookup — one hook in the memoizing stage
/// runner, so batched and scalar paths fault identically.
class Flow {
 public:
  Flow() = default;
  explicit Flow(const ExecContext& ctx) : ctx_(ctx) {}

  const ExecContext& ctx() const { return ctx_; }

  /// TechLibrary stage: standard cells + resistor cells for spec's node.
  std::shared_ptr<const netlist::CellLibrary> tech_library(
      const AdcSpec& spec);

  /// Netlist stage: the generated gate-level ADC over the tech library.
  DesignBundle netlist(const AdcSpec& spec);

  /// Floorplan stage: flattened leaves + regioned die.
  std::shared_ptr<const synth::FloorplanStageResult> floorplan(
      const AdcSpec& spec, const synth::SynthesisOptions& opts = {});

  /// Placement stage.
  std::shared_ptr<const synth::Placement> placement(
      const AdcSpec& spec, const synth::SynthesisOptions& opts = {});

  /// Route stage: routing estimate + detailed route + DRC, the full
  /// SynthesisResult.
  std::shared_ptr<const synth::SynthesisResult> synthesis(
      const AdcSpec& spec, const synth::SynthesisOptions& opts = {});

  /// SimRun stage for a spec (pulls the Netlist stage first).
  std::shared_ptr<const RunResult> sim_run(const AdcSpec& spec,
                                           const SimulationOptions& opts = {});

  /// SimRun stage over an already-built design (the caller's design shares
  /// the cached netlist artifact): a lane group of one.
  std::shared_ptr<const RunResult> sim_run(const AdcDesign& design,
                                           const SimulationOptions& opts = {});

  /// Options of entry i of a sim_run_lanes() call. Both callbacks run on
  /// the fan-out's workers, concurrently across groups.
  using LaneOptionsFn = std::function<SimulationOptions(std::size_t)>;
  /// Receives entry i's run once, or null when its stage refused
  /// (diagnostics already reported).
  using LaneResultFn = std::function<void(std::size_t, const RunResult*)>;

  /// The one lane-batch path (Monte-Carlo draws, PVT corners, datasheet
  /// amplitude sweeps): entry i is the SimRun stage for opts_of(i). Entries
  /// are cut into lane groups, each the widest supported width that fits
  /// both `batch_width` and the entries left (0 = host-preferred width,
  /// 1 = one scalar stage per entry; 7 entries at width 4 are 4 + 2 + 1),
  /// and the groups fan out across the context's threads. Every entry
  /// keeps its scalar sim_run() key, so warm entries never construct a
  /// modulator, and a group's first cold entry simulates all its lanes in
  /// SIMD lockstep (AdcDesign::simulate_batch, bit-identical per lane to
  /// the scalar path). Returns the fan-out's stats with per-entry wall
  /// times (a group's time split evenly over its lanes).
  BatchStats sim_run_lanes(const AdcDesign& design, std::size_t n,
                           int batch_width, const LaneOptionsFn& opts_of,
                           const LaneResultFn& on_result);

  /// HdlEmit stage: renders the Netlist artifact to structural Verilog,
  /// re-parses the emission and proves structural equivalence against the
  /// generated design — the emitted *text* becomes the artifact of record
  /// (the store codec reconstructs the parsed view from the text). Null
  /// with diagnostics when the round trip is not bit-equal.
  std::shared_ptr<const HdlEmitResult> hdl_emit(const AdcSpec& spec);

  /// GateSim stage: event-driven sign-off of the emitted HDL (pulls
  /// HdlEmit and the behavioral SimRun reference first). Runs the Table-1
  /// comparator truth table, the ring-period check and the slice replay,
  /// and cross-checks the decoded + CIC-decimated stream bit-for-bit
  /// against the behavioral path. Null with diagnostics on any failed
  /// check; failed sign-offs are never cached.
  std::shared_ptr<const GateSimResult> gate_sim(
      const AdcSpec& spec, const GateSimOptions& opts = {});

  /// The backend seam: the decoded + decimated output stream for a spec,
  /// produced by the selected engine. Both backends feed the same
  /// DigitalBackend, and gate_sim proves bit-identity before handing its
  /// stream out, so callers see one contract regardless of backend. Empty
  /// on failure (diagnostics through the context).
  std::vector<double> decoded_stream(
      const AdcSpec& spec, const SimulationOptions& sim = {},
      SimBackend backend = SimBackend::kBehavioral);

  /// Report stage: synthesis + simulation with the layout's wire load
  /// folded into the power model. Assembled from the cached Route and
  /// SimRun artifacts.
  NodeReport report(const AdcSpec& spec, const SimulationOptions& sim = {},
                    const synth::SynthesisOptions& synth_opts = {});

  /// Migrates the spec's netlist onto another node's (cached) library.
  MigratedDesign migrate(const AdcSpec& src_spec, double target_node_nm);

 private:
  /// Applies ExecContext knobs (route threads, trace) to synthesis options
  /// without touching key-relevant fields.
  synth::SynthesisOptions exec_opts(const synth::SynthesisOptions& opts) const;

  /// One lane group: entry k is the SimRun stage for sims[k], cold entries
  /// built together on the first miss.
  std::vector<std::shared_ptr<const RunResult>> sim_run_group(
      const AdcDesign& design, const std::vector<SimulationOptions>& sims);

  ExecContext ctx_;
};

}  // namespace vcoadc::core
