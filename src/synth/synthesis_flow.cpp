#include "synth/synthesis_flow.h"

#include <algorithm>
#include <utility>

#include "synth/placer_quadratic.h"
#include "util/trace.h"

namespace vcoadc::synth {

namespace {

/// Splits a Design::validate() message ("module/inst: reason") into the
/// offending item and the reason.
FlowDiagnostic validate_diagnostic(const std::string& msg) {
  FlowDiagnostic d;
  d.stage = "validate";
  const auto colon = msg.find(": ");
  if (colon != std::string::npos) {
    d.item = msg.substr(0, colon);
    d.reason = msg.substr(colon + 2);
  } else {
    d.reason = msg;
  }
  return d;
}

}  // namespace

SynthesisResult SynthesisResult::clone() const {
  SynthesisResult copy;
  copy.floorplan_spec = floorplan_spec;
  if (layout) copy.layout = std::make_unique<Layout>(*layout);
  copy.routing = routing;
  copy.detailed_routing = detailed_routing;
  copy.drc = drc;
  copy.stats = stats;
  copy.diagnostics = diagnostics;
  copy.owner = owner;
  return copy;
}

FloorplanStageResult run_floorplan_stage(const netlist::Design& design,
                                         const SynthesisOptions& opts,
                                         std::vector<FlowDiagnostic>& diags) {
  util::TraceSpan span(opts.trace, "floorplan");
  FloorplanStageResult art;

  const auto problems = design.validate();
  if (!problems.empty()) {
    for (const auto& p : problems) diags.push_back(validate_diagnostic(p));
    span.note("validate failed: " + std::to_string(problems.size()) +
              " problem(s)");
    return art;
  }

  art.flat = std::make_shared<const netlist::FlatNetlist>(design.flatten());
  const auto regions = partition_into_regions(*art.flat);

  FloorplanOptions fopts;
  fopts.target_utilization = opts.target_utilization;
  fopts.aspect_ratio = opts.aspect_ratio;
  fopts.row_height_m = design.library().row_height_m();
  // Site width: reconstruct the M1 pitch from the smallest inverter (3
  // sites wide by construction in make_standard_library).
  double min_width = 1e9;
  for (const auto& c : design.library().cells()) {
    if (c.function == "inv") min_width = std::min(min_width, c.width_m);
  }
  fopts.site_width_m = (min_width < 1e9)
                           ? min_width / 3.0
                           : design.library().row_height_m() / 9.0;

  art.fp = make_floorplan(regions, fopts);
  art.floorplan_spec = write_floorplan_spec(art.fp);
  span.note(std::to_string(art.flat->size()) + " cells, " +
            std::to_string(art.fp.regions.size()) + " regions");
  return art;
}

Placement run_placement_stage(const FloorplanStageResult& art,
                              const SynthesisOptions& opts, const NetDb& db) {
  util::TraceSpan span(opts.trace, "placement");
  Placement pl;
  if (opts.placer == PlacerKind::kQuadratic && opts.respect_power_domains) {
    QuadraticPlacerOptions qopts;
    qopts.refine_passes = opts.refine_passes;
    qopts.seed = opts.seed;
    pl = place_quadratic(*art.flat, art.fp, qopts, db);
  } else {
    PlacementOptions popts;
    popts.respect_regions = opts.respect_power_domains;
    popts.barycenter_passes = opts.barycenter_passes;
    popts.refine_passes = opts.refine_passes;
    popts.seed = opts.seed;
    pl = place(*art.flat, art.fp, popts, db);
  }
  span.note(opts.placer == PlacerKind::kQuadratic ? "quadratic"
                                                  : "serpentine");
  return pl;
}

SynthesisResult run_route_stage(const FloorplanStageResult& art,
                                std::shared_ptr<const Placement> placement,
                                const SynthesisOptions& opts,
                                const NetDb& db,
                                const RoutingEstimateFn& on_estimate) {
  const netlist::FlatNetlist& flat = *art.flat;
  const Placement& pl = *placement;
  SynthesisResult result;
  result.floorplan_spec = art.floorplan_spec;
  result.owner = art.owner;
  {
    util::TraceSpan span(opts.trace, "route");
    RouterOptions ropts;
    result.routing = estimate_routing(flat, pl, art.fp.die, ropts, db);
    if (on_estimate) on_estimate(result.routing);
    if (opts.detailed_route) {
      MazeRouterOptions mopts;
      mopts.threads = opts.threads;
      result.detailed_routing =
          maze_route(flat, pl, art.fp.die, mopts, db);
      span.note(std::to_string(result.detailed_routing.nets.size()) +
                " nets, " +
                std::to_string(result.detailed_routing.overflowed_edges) +
                " overflow");
    }
  }
  {
    util::TraceSpan span(opts.trace, "drc");
    // DRC violations are signoff findings, not flow failures: they are
    // reported through the DrcReport, never as diagnostics.
    result.drc = run_drc(flat, pl, art.fp);
    span.note(std::to_string(result.drc.violations.size()) + " violations");
  }
  result.layout =
      std::make_unique<Layout>(art.flat, art.fp, std::move(placement));
  result.stats = result.layout->stats();
  return result;
}

SynthesisResult synthesize(const netlist::Design& design,
                           const SynthesisOptions& opts) {
  util::TraceSpan span(opts.trace, "synthesis");
  std::vector<FlowDiagnostic> diags;
  FloorplanStageResult art = run_floorplan_stage(design, opts, diags);
  if (!diags.empty()) {
    SynthesisResult result;
    result.diagnostics = std::move(diags);
    span.note("failed in " + result.diagnostics.front().stage);
    return result;
  }
  // One interned net database feeds every downstream stage (placement,
  // routing estimate, detailed routing) instead of each stage rebuilding
  // its own string-keyed net maps.
  const NetDb netdb(*art.flat);
  auto pl = std::make_shared<const Placement>(
      run_placement_stage(art, opts, netdb));
  return run_route_stage(art, std::move(pl), opts, netdb);
}

}  // namespace vcoadc::synth
