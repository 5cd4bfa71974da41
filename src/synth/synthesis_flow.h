// The end-to-end layout-synthesis flow of Fig. 9, as explicit stages:
//
//   HDL generation          -> done upstream (netlist::build_adc_design or
//                              the Verilog parser)
//   std-cell lib modification -> done upstream (add_resistor_cells)
//   floorplan generation    -> run_floorplan_stage (flatten + partition +
//                              make_floorplan)
//   automatic place & route -> run_placement_stage + run_route_stage
//   resulting layout        -> SynthesisResult (Layout + DRC signoff)
//
// The three stage functions are public so the core stage graph
// (core/flow.h) can content-hash and cache each artifact independently —
// e.g. one cached placement feeds both a routed run and a route-less
// estimate. synthesize() sequences all three; it is the single-call form
// the examples and benches use.
//
// Failure handling: a design that fails structural validation no longer
// aborts the process — the result carries structured FlowDiagnostics
// (stage, offending cell/net, reason) and a null layout, and ok() is
// false. Generator output always validates; the diagnostics path exists
// for parsed/hand-edited netlists.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/drc.h"
#include "synth/layout.h"
#include "synth/maze_router.h"
#include "synth/router.h"

namespace vcoadc::util {
class Trace;
}

namespace vcoadc::synth {

/// Placement engine selection.
enum class PlacerKind {
  kSerpentine,  ///< connectivity-ordered row packing (placer.cpp)
  kQuadratic,   ///< analytical quadratic placement (placer_quadratic.cpp)
};

struct SynthesisOptions {
  PlacerKind placer = PlacerKind::kSerpentine;
  /// Mixed-signal placement density. AMS layouts place far sparser than
  /// digital blocks (supply straps, decap fill, isolation spacing); the
  /// paper floorplans "such that the placement density is similar in both
  /// technology nodes", which is this knob.
  double target_utilization = 0.08;
  double aspect_ratio = 1.0;
  bool respect_power_domains = true;  ///< false = the naive prior flow
  int barycenter_passes = 6;
  int refine_passes = 3;
  /// Run the maze router after placement (per-net detailed routes, vias,
  /// overflow check) in addition to the HPWL/congestion estimate.
  bool detailed_route = true;
  /// Threads routing one of the router's rip-up batches, the calling
  /// thread included; 0 and 1 run inline. The stage graph overwrites this
  /// with core::ExecContext::threads resolved (0 there becomes one per
  /// hardware thread) — set it only when calling synth::synthesize()
  /// directly. Any value yields bit-identical routing (see route_grid.h).
  int threads = 0;
  std::uint64_t seed = 1;
  /// Per-stage event sink (floorplan/placement/route/drc spans); null =
  /// no tracing. Never part of a cache key — tracing must not change
  /// results.
  util::Trace* trace = nullptr;
};

/// One structured failure from a flow stage: which stage rejected the
/// design, the offending cell/net/instance (when attributable) and why.
struct FlowDiagnostic {
  std::string stage;   ///< e.g. "validate", "floorplan", "route"
  std::string item;    ///< offending cell/net/instance path; may be empty
  std::string reason;
};

struct SynthesisResult {
  std::string floorplan_spec;     ///< the .fp-style text (Fig. 9 input)
  std::unique_ptr<Layout> layout; ///< placed design; null when !ok()
  RoutingEstimate routing;
  MazeRouteResult detailed_routing;  ///< empty when detailed_route is off
  DrcReport drc;
  LayoutStats stats;
  /// Structured stage failures; empty on a clean run.
  std::vector<FlowDiagnostic> diagnostics;
  /// Keeps whatever owns the StdCells that the layout's flat instances
  /// point into alive (propagated from FloorplanStageResult::owner). The
  /// stage graph caches and evicts stage artifacts independently, so this
  /// result must not rely on the upstream netlist artifact's residency.
  std::shared_ptr<const void> owner;

  bool ok() const { return diagnostics.empty(); }

  /// Copy with an owned layout (the layout is cloned; its immutable
  /// netlist and placement stay shared). Lets callers that hold a shared
  /// cached result hand out an owned copy.
  SynthesisResult clone() const;
};

/// Floorplan-stage artifact: the flattened netlist plus the regioned die
/// it floorplans into. `flat` cell order is the order every downstream
/// stage (placement, routing, DRC) refers to. The netlist is shared, not
/// copied, by the route stage's Layout; null when validation failed.
struct FloorplanStageResult {
  std::shared_ptr<const netlist::FlatNetlist> flat;
  Floorplan fp;
  std::string floorplan_spec;
  /// Shared ownership of the library (and design) the `flat` entries'
  /// StdCell pointers reference. run_floorplan_stage leaves it null (the
  /// caller's design outlives the call); the stage graph fills it so a
  /// cached artifact stays valid after the upstream netlist artifact is
  /// evicted or the building Flow returns.
  std::shared_ptr<const void> owner;
};

/// Validates + flattens + partitions + floorplans. On validation failure
/// appends diagnostics and returns an empty artifact (flat null).
FloorplanStageResult run_floorplan_stage(const netlist::Design& design,
                                         const SynthesisOptions& opts,
                                         std::vector<FlowDiagnostic>& diags);

/// Places the floorplanned design (serpentine or quadratic per options).
Placement run_placement_stage(const FloorplanStageResult& art,
                              const SynthesisOptions& opts, const NetDb& db);

/// Receives a route stage's routing estimate before its maze route starts.
using RoutingEstimateFn = std::function<void(const RoutingEstimate&)>;

/// Routing estimate + optional detailed maze route + DRC, assembled into
/// the final result, whose Layout shares the floorplan artifact's netlist
/// and the placement (it copies only the small Floorplan). `on_estimate`,
/// when set, is called once with the estimate (the value the result's
/// `routing` holds), right after estimate_routing and before maze_route,
/// so work that needs only the estimated wire load can run beside the
/// router.
SynthesisResult run_route_stage(const FloorplanStageResult& art,
                                std::shared_ptr<const Placement> pl,
                                const SynthesisOptions& opts,
                                const NetDb& db,
                                const RoutingEstimateFn& on_estimate = {});

/// Runs floorplan + placement + routing + DRC. A design that fails
/// validation yields a result with diagnostics and a null layout instead
/// of aborting; check ok() when the input is not generator-produced.
SynthesisResult synthesize(const netlist::Design& design,
                           const SynthesisOptions& opts);

}  // namespace vcoadc::synth
