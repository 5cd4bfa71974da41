#include "core/flow.h"

#include <cmath>
#include <set>
#include <utility>
#include <variant>

#include "core/artifact_serde.h"
#include "core/artifact_store.h"
#include "core/serde.h"
#include "core/backend.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "netlist/equivalence.h"
#include "netlist/generator.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "synth/net_db.h"
#include "util/strings.h"
#include "util/trace.h"

namespace vcoadc::core {

namespace {

using util::Diagnostic;
using util::Severity;

Diagnostic error_diag(const char* stage, std::string item,
                      std::string reason) {
  return Diagnostic{Severity::kError, stage, std::move(item),
                    std::move(reason)};
}

/// Splits a Design::validate() message ("module/inst: reason") into item
/// and reason, mirroring synth::FlowDiagnostic's convention.
Diagnostic netlist_problem_diag(const std::string& msg) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.stage = "netlist";
  const auto colon = msg.find(": ");
  if (colon != std::string::npos) {
    d.item = msg.substr(0, colon);
    d.reason = msg.substr(colon + 2);
  } else {
    d.reason = msg;
  }
  return d;
}

void hash_pvt(KeyHasher& h, const PvtCorner& pvt) {
  h.f64(pvt.process);
  h.f64(pvt.voltage);
  h.f64(pvt.temperature_k);
}

/// Spec fields that shape the library + netlist (structure only).
void hash_spec_structure(KeyHasher& h, const AdcSpec& spec) {
  h.tag("node_nm");
  h.f64(spec.node_nm);
  h.tag("num_slices");
  h.i64(spec.num_slices);
  h.tag("dac_fragments");
  h.i64(spec.dac_fragments);
}

/// Every result-affecting spec field (the SimRun key's basis).
void hash_spec_full(KeyHasher& h, const AdcSpec& spec) {
  hash_spec_structure(h, spec);
  h.tag("fs_hz");
  h.f64(spec.fs_hz);
  h.tag("bandwidth_hz");
  h.f64(spec.bandwidth_hz);
  h.tag("loop_gain");
  h.f64(spec.loop_gain);
  h.tag("vco_center_over_fs");
  h.f64(spec.vco_center_over_fs);
  h.tag("with_nonidealities");
  h.boolean(spec.with_nonidealities);
  h.tag("pvt");
  hash_pvt(h, spec.pvt);
  h.tag("seed");
  h.u64(spec.seed);
}

void hash_floorplan_opts(KeyHasher& h, const synth::SynthesisOptions& o) {
  h.tag("target_utilization");
  h.f64(o.target_utilization);
  h.tag("aspect_ratio");
  h.f64(o.aspect_ratio);
}

void hash_placement_opts(KeyHasher& h, const synth::SynthesisOptions& o) {
  h.tag("placer");
  h.i64(static_cast<int>(o.placer));
  h.tag("respect_power_domains");
  h.boolean(o.respect_power_domains);
  h.tag("barycenter_passes");
  h.i64(o.barycenter_passes);
  h.tag("refine_passes");
  h.i64(o.refine_passes);
  h.tag("seed");
  h.u64(o.seed);
}

/// The STA options of the Timing stage, minus the placement (the Route
/// artifact's, identified by the upstream key).
synth::TimingOptions timing_options(const AdcSpec& spec) {
  synth::TimingOptions o;
  o.clock_period_s = 1.0 / spec.fs_hz;
  return o;
}

/// The PowerGrid stage's rail options and per-cell supply current.
constexpr synth::PowerGridOptions kPowerGridOptions{};
constexpr double kCellCurrentA = 10e-6;

/// Reports boundary diagnostics through the context: errors always land
/// (sink or stderr), warnings only when a sink is attached — a warning on
/// a healthy run must not spam stderr.
void report_diags(const ExecContext& ctx,
                  const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) {
      emit_diag(ctx, d);
    } else if (ctx.diag != nullptr) {
      ctx.diag->add(d);
    }
  }
}

/// The fault-injection hook (test-only): true, with an error diagnostic
/// reported, when the context's fault plan fires for `stage`. Consulted
/// once per stage execution, at entry, before any cache or store lookup.
bool fault_injected(const ExecContext& ctx, const char* stage) {
  if (ctx.faults == nullptr || !ctx.faults->consume(stage)) return false;
  emit_diag(ctx, error_diag(stage, "", "injected fault"));
  return true;
}

/// Runs one memoized stage: wraps the lookup/build in a trace span and
/// falls back to a direct build when the context has no cache. When the
/// context carries an ArtifactStore, a cache miss first tries the disk
/// tier (decode failures demote to a rebuild with a warning), and a real
/// build persists its canonical bytes — both happen inside the cache's
/// single-flight, so one process writes each record once and waiters
/// share the in-memory artifact. An artifact is sized once, by its codec
/// payload: the bytes a load decoded or a build encoded. A build encodes
/// only for the store, or for the size when a cache or trace reports it.
/// A stage its fault plan fires for returns null here, so a faulted run
/// neither reads nor populates the cache or store.
template <typename T, typename BuildFn>
std::shared_ptr<const T> run_stage(const ExecContext& ctx, Stage stage,
                                   const CacheKey& key,
                                   const ArtifactCodec<T>& codec,
                                   BuildFn&& build) {
  if (fault_injected(ctx, stage_name(stage))) return nullptr;
  util::TraceSpan span(ctx.trace, stage_name(stage));
  bool from_store = false;
  std::size_t payload_bytes = 0;
  auto build_or_load = [&]() -> std::shared_ptr<const T> {
    if (ctx.store != nullptr) {
      std::vector<std::uint8_t> payload;
      std::uint64_t record_bytes = 0;
      if (ctx.store->load(key, codec.type_tag, codec.type_version, &payload,
                          ctx.diag, &record_bytes)) {
        serde::Reader r(payload);
        if (std::shared_ptr<const T> loaded = codec.decode(r)) {
          from_store = true;
          payload_bytes = payload.size();
          return loaded;
        }
        ctx.store->note_decode_failure(key, codec.type_tag, ctx.diag,
                                       record_bytes);
      }
    }
    std::shared_ptr<const T> built = build();
    if (built != nullptr &&
        (ctx.store != nullptr || ctx.cache != nullptr ||
         ctx.trace != nullptr)) {
      serde::Writer w;
      codec.encode(*built, w);
      payload_bytes = w.bytes().size();
      if (ctx.store != nullptr) {
        ctx.store->save(key, codec.type_tag, codec.type_version, w.bytes(),
                        ctx.diag);
      }
    }
    return built;
  };
  std::shared_ptr<const T> value;
  bool hit = false;
  std::size_t bytes = 0;
  if (ctx.cache) {
    // A hit reports the size the entry was stored with; nothing is
    // re-measured per lookup.
    value = ctx.cache->get_or_build<T>(
        key, build_or_load,
        [&payload_bytes](const T&) { return payload_bytes; }, &hit, &bytes);
  } else {
    value = build_or_load();
    bytes = payload_bytes;
  }
  if (value) span.cache(hit, bytes);
  span.note("key=" + key.hex() + (from_store ? " src=store" : ""));
  return value;
}

/// The HdlEmit stage's gate: parses the emitted text back over the
/// bundle's library, validates the structure and proves structural
/// equivalence against the generated design — the gate the emitted text
/// must clear before it becomes the artifact of record. Null with
/// diagnostics (stage "hdl_emit") when any step fails.
std::shared_ptr<const HdlEmitResult> check_emitted_hdl(
    const ExecContext& ctx, const DesignBundle& bundle, std::string text) {
  netlist::Design parsed(bundle.lib.get());
  const netlist::ParseResult pr = netlist::parse_verilog(text, parsed);
  if (!pr.ok) {
    report_diags(ctx, {error_diag(
                          "hdl_emit", "line " + std::to_string(pr.line),
                          "emitted Verilog failed to re-parse: " + pr.error)});
    return nullptr;
  }
  parsed.set_top(bundle.design->top());
  std::vector<Diagnostic> diags;
  for (Diagnostic& d : validate_netlist(parsed)) {
    d.stage = "hdl_emit";  // the structure under test came from the text
    diags.push_back(std::move(d));
  }
  netlist::EquivalenceOptions eopts;
  eopts.match_drive = true;  // parse-back must be exact, not just functional
  const netlist::EquivalenceResult eq =
      netlist::check_equivalence(*bundle.design, parsed, eopts);
  if (!eq.equivalent) {
    for (const std::string& m : eq.mismatches) {
      diags.push_back(error_diag("hdl_emit", "", m));
    }
    if (eq.mismatches.empty()) {
      diags.push_back(error_diag(
          "hdl_emit", "",
          "emitted HDL is not equivalent to the generated design"));
    }
  }
  report_diags(ctx, diags);
  if (has_errors(diags) || !eq.equivalent) return nullptr;
  auto art = std::make_shared<HdlEmitResult>();
  art->verilog = std::move(text);
  art->top = bundle.design->top();
  art->lib = bundle.lib;
  art->parsed = std::make_shared<const netlist::Design>(std::move(parsed));
  art->instances_compared = eq.instances_compared;
  return art;
}

/// An empty migration (Design is not default-constructible, so it is
/// built over nothing).
MigratedDesign no_migration() {
  MigrationResult empty{netlist::Design(nullptr), {}, 0, 0, {}};
  return MigratedDesign{nullptr, std::move(empty)};
}

}  // namespace

bool has_errors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::vector<Diagnostic> validate_spec(const AdcSpec& spec) {
  std::vector<Diagnostic> out;
  for (const std::string& p : spec.validate()) {
    out.push_back(error_diag("spec", "", p));
  }
  return out;
}

std::vector<Diagnostic> validate_sim_options(const SimulationOptions& opts) {
  std::vector<Diagnostic> out;
  const std::size_t n = opts.n_samples;
  if (n < 16 || (n & (n - 1)) != 0) {
    out.push_back(error_diag(
        "sim_run", "n_samples",
        util::format("capture length %zu must be a power of two >= 16 "
                     "(the spectrum FFT requires it)",
                     n)));
  } else if (n > (std::size_t{1} << 26)) {
    out.push_back(error_diag(
        "sim_run", "n_samples",
        util::format("capture length %zu exceeds the 2^26 sample cap", n)));
  }
  if (!std::isfinite(opts.amplitude_dbfs)) {
    out.push_back(
        error_diag("sim_run", "amplitude_dbfs", "must be finite"));
  }
  if (!std::isfinite(opts.fin_target_hz) || opts.fin_target_hz < 0) {
    out.push_back(error_diag("sim_run", "fin_target_hz",
                             "must be finite and non-negative"));
  }
  if (!std::isfinite(opts.wire_cap_f) || opts.wire_cap_f < 0) {
    out.push_back(error_diag("sim_run", "wire_cap_f",
                             "must be finite and non-negative"));
  }
  return out;
}

std::vector<Diagnostic> validate_netlist(const netlist::Design& design) {
  std::vector<Diagnostic> out;
  if (design.modules().empty()) {
    out.push_back(error_diag("netlist", "", "design has no modules"));
    return out;
  }
  for (const std::string& p : design.validate()) {
    out.push_back(netlist_problem_diag(p));
  }
  const netlist::Module* top = design.find_module(design.top());
  if (top != nullptr && top->instances().empty()) {
    out.push_back(error_diag("netlist", design.top(),
                             "top module has no instances"));
  }
  for (const netlist::Module& mod : design.modules()) {
    // Duplicate instance names make flat paths ambiguous downstream.
    std::set<std::string> seen;
    std::set<std::string> used_nets;
    for (const netlist::Instance& inst : mod.instances()) {
      if (!seen.insert(inst.name).second) {
        out.push_back(error_diag("netlist", mod.name() + "/" + inst.name,
                                 "duplicate instance name"));
      }
      for (const auto& [pin, net] : inst.conn) used_nets.insert(net);
    }
    // Dangling nets are legal but suspicious — the usual symptom of a
    // generator emitting a group it never populated.
    for (const std::string& net : mod.nets()) {
      if (used_nets.count(net) == 0 && !netlist::is_supply_net(net)) {
        out.push_back(Diagnostic{Severity::kWarning, "netlist",
                                 mod.name() + "/" + net,
                                 "dangling net (declared but unconnected)"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> validate_synthesis_options(
    const synth::SynthesisOptions& opts) {
  std::vector<Diagnostic> out;
  if (!std::isfinite(opts.target_utilization) ||
      opts.target_utilization <= 0 || opts.target_utilization >= 1.0) {
    out.push_back(error_diag(
        "floorplan", "target_utilization",
        util::format("%g outside the open interval (0, 1)",
                     opts.target_utilization)));
  }
  if (!std::isfinite(opts.aspect_ratio) || opts.aspect_ratio <= 0) {
    out.push_back(error_diag("floorplan", "aspect_ratio",
                             "must be finite and positive"));
  }
  if (opts.barycenter_passes < 0 || opts.refine_passes < 0) {
    out.push_back(error_diag("placement", "passes",
                             "pass counts must be non-negative"));
  }
  return out;
}

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kTechLibrary:
      return "tech_library";
    case Stage::kNetlist:
      return "netlist";
    case Stage::kFloorplan:
      return "floorplan";
    case Stage::kPlacement:
      return "placement";
    case Stage::kRoute:
      return "route";
    case Stage::kSimRun:
      return "sim_run";
    case Stage::kHdlEmit:
      return "hdl_emit";
    case Stage::kGateSim:
      return "gate_sim";
    case Stage::kTiming:
      return "timing";
    case Stage::kPowerGrid:
      return "power_grid";
    case Stage::kReport:
      return "report";
  }
  return "?";
}

CacheKey tech_library_key(const AdcSpec& spec) {
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:tech_library");
  h.tag("node_nm");
  h.f64(spec.node_nm);
  return h.digest();
}

CacheKey netlist_key(const AdcSpec& spec) {
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:netlist");
  hash_spec_structure(h, spec);
  return h.digest();
}

CacheKey floorplan_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts) {
  const CacheKey up = netlist_key(spec);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:floorplan");
  h.u64(up.lo);
  h.u64(up.hi);
  hash_floorplan_opts(h, opts);
  return h.digest();
}

CacheKey placement_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts) {
  const CacheKey up = floorplan_key(spec, opts);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:placement");
  h.u64(up.lo);
  h.u64(up.hi);
  hash_placement_opts(h, opts);
  return h.digest();
}

CacheKey synthesis_key(const AdcSpec& spec,
                       const synth::SynthesisOptions& opts) {
  const CacheKey up = placement_key(spec, opts);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:route");
  h.u64(up.lo);
  h.u64(up.hi);
  h.tag("detailed_route");
  h.boolean(opts.detailed_route);
  return h.digest();
}

CacheKey sim_run_key(const AdcSpec& spec, const SimulationOptions& opts) {
  // Canonicalize the per-run overrides into the spec: simulate() applies
  // them exactly this way, so (spec, seed-override) and (spec-with-seed,
  // no override) are the same run and must share one key.
  AdcSpec sp = spec;
  if (opts.seed != 0) sp.seed = opts.seed;
  if (opts.pvt.has_value()) sp.pvt = *opts.pvt;
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:sim_run");
  hash_spec_full(h, sp);
  h.tag("n_samples");
  h.u64(opts.n_samples);
  h.tag("amplitude_dbfs");
  h.f64(opts.amplitude_dbfs);
  h.tag("fin_target_hz");
  h.f64(opts.fin_target_hz);
  h.tag("comparator");
  h.i64(static_cast<int>(opts.comparator));
  h.tag("dac");
  h.i64(static_cast<int>(opts.dac));
  h.tag("record_bits");
  h.boolean(opts.record_bits);
  h.tag("wire_cap_f");
  h.f64(opts.wire_cap_f);
  return h.digest();
}

CacheKey hdl_emit_key(const AdcSpec& spec) {
  const CacheKey up = netlist_key(spec);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:hdl_emit");
  h.u64(up.lo);
  h.u64(up.hi);
  return h.digest();
}

CacheKey gate_sim_key(const AdcSpec& spec, const GateSimOptions& opts) {
  // Canonicalize exactly as Flow::gate_sim runs it: the slice replay needs
  // the behavioral reference's per-slice bitstreams, so record_bits is
  // always on — (opts, record_bits=false) and (opts, record_bits=true) are
  // the same stage run and must share a key.
  SimulationOptions sim = opts.sim;
  sim.record_bits = true;
  const CacheKey hdl = hdl_emit_key(spec);
  const CacheKey ref = sim_run_key(spec, sim);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:gate_sim");
  h.u64(hdl.lo);
  h.u64(hdl.hi);
  h.u64(ref.lo);
  h.u64(ref.hi);
  h.tag("ring_period_tol");
  h.f64(opts.ring_period_tol);
  h.tag("top");
  h.str(opts.top);
  return h.digest();
}

CacheKey timing_key(const AdcSpec& spec,
                    const synth::SynthesisOptions& opts) {
  const CacheKey up = synthesis_key(spec, opts);
  const synth::TimingOptions t = timing_options(spec);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:timing");
  h.u64(up.lo);
  h.u64(up.hi);
  h.tag("clock_period_s");
  h.f64(t.clock_period_s);
  h.tag("cap_per_m");
  h.f64(t.cap_per_m);
  return h.digest();
}

CacheKey power_grid_key(const AdcSpec& spec,
                        const synth::SynthesisOptions& opts) {
  const CacheKey up = synthesis_key(spec, opts);
  KeyHasher h;
  h.u64(kKeyFormatVersion);
  h.tag("stage:power_grid");
  h.u64(up.lo);
  h.u64(up.hi);
  h.tag("rail_width_m");
  h.f64(kPowerGridOptions.rail_width_m);
  h.tag("rail_sheet_ohms");
  h.f64(kPowerGridOptions.rail_sheet_ohms);
  h.tag("current_per_cell_a");
  h.f64(kCellCurrentA);
  return h.digest();
}

synth::SynthesisOptions Flow::exec_opts(
    const synth::SynthesisOptions& opts) const {
  synth::SynthesisOptions o = opts;
  // ExecContext knobs only — neither may appear in a cache key. The
  // router reads threads 0 as "inline"; the context means one per hardware
  // thread.
  o.threads = BatchRunner::resolve_threads(ctx_.threads);
  // Flow spans cover the stage boundaries; the synth-internal spans are
  // for direct synth::synthesize() callers.
  o.trace = nullptr;
  return o;
}

std::shared_ptr<const netlist::CellLibrary> Flow::tech_library(
    const AdcSpec& spec) {
  const auto diags = validate_spec(spec);
  report_diags(ctx_, diags);
  if (has_errors(diags)) return nullptr;
  return run_stage<netlist::CellLibrary>(
      ctx_, Stage::kTechLibrary, tech_library_key(spec), cell_library_codec(),
      [&spec]() {
        const tech::TechNode node = spec.tech_node();
        auto lib = std::make_shared<netlist::CellLibrary>(
            netlist::make_standard_library(node));
        netlist::add_resistor_cells(*lib, node);
        return std::shared_ptr<const netlist::CellLibrary>(std::move(lib));
      });
}

DesignBundle Flow::netlist(const AdcSpec& spec) {
  const auto spec_diags = validate_spec(spec);
  report_diags(ctx_, spec_diags);
  if (has_errors(spec_diags)) return {};
  auto bundle = run_stage<DesignBundle>(
      ctx_, Stage::kNetlist, netlist_key(spec), design_bundle_codec(),
      [this, &spec]() -> std::shared_ptr<const DesignBundle> {
        DesignBundle b;
        b.lib = tech_library(spec);
        if (b.lib == nullptr) return nullptr;
        netlist::GeneratorConfig gen;
        gen.num_slices = spec.num_slices;
        gen.dac_fragments = spec.dac_fragments;
        b.design = std::make_shared<const netlist::Design>(
            netlist::build_adc_design(*b.lib, gen));
        const auto diags = validate_netlist(*b.design);
        report_diags(ctx_, diags);
        if (has_errors(diags)) return nullptr;  // never cached
        return std::make_shared<const DesignBundle>(std::move(b));
      });
  return bundle ? *bundle : DesignBundle{};
}

std::shared_ptr<const synth::FloorplanStageResult> Flow::floorplan(
    const AdcSpec& spec, const synth::SynthesisOptions& opts) {
  const auto opt_diags = validate_synthesis_options(opts);
  report_diags(ctx_, opt_diags);
  if (has_errors(opt_diags)) return nullptr;
  const synth::SynthesisOptions o = exec_opts(opts);
  auto art = run_stage<synth::FloorplanStageResult>(
      ctx_, Stage::kFloorplan, floorplan_key(spec, opts), floorplan_codec(),
      [this, &spec,
       &o]() -> std::shared_ptr<const synth::FloorplanStageResult> {
        const DesignBundle bundle = netlist(spec);
        if (bundle.design == nullptr) return nullptr;
        auto art = std::make_shared<synth::FloorplanStageResult>();
        std::vector<synth::FlowDiagnostic> diags;
        *art = synth::run_floorplan_stage(*bundle.design, o, diags);
        if (!diags.empty()) {
          std::vector<Diagnostic> out;
          for (const auto& fd : diags) {
            out.push_back(error_diag("floorplan", fd.item,
                                     fd.stage + ": " + fd.reason));
          }
          report_diags(ctx_, out);
          return nullptr;  // never cached
        }
        art->flat.shrink_to_fit();
        // The flat instances point into the bundle's StdCells; pin the
        // bundle so the artifact survives netlist-artifact eviction (and
        // cache-less flows, where the bundle would otherwise die here).
        art->owner = std::make_shared<const DesignBundle>(bundle);
        return std::shared_ptr<const synth::FloorplanStageResult>(
            std::move(art));
      });
  // Post-conditions: a floorplan that cannot host placement is a failure
  // here, not a crash two stages later.
  if (art != nullptr) {
    std::vector<Diagnostic> post;
    if (art->flat.empty()) {
      post.push_back(error_diag("floorplan", "", "no leaf instances"));
    }
    if (art->fp.regions.empty()) {
      post.push_back(error_diag("floorplan", "", "no placement regions"));
    }
    if (!(std::isfinite(art->fp.die.w) && std::isfinite(art->fp.die.h) &&
          art->fp.die.w > 0 && art->fp.die.h > 0)) {
      post.push_back(error_diag("floorplan", "die",
                                "degenerate die dimensions"));
    }
    if (!post.empty()) {
      report_diags(ctx_, post);
      return nullptr;
    }
  }
  return art;
}

std::shared_ptr<const synth::Placement> Flow::placement(
    const AdcSpec& spec, const synth::SynthesisOptions& opts) {
  const synth::SynthesisOptions o = exec_opts(opts);
  return run_stage<synth::Placement>(
      ctx_, Stage::kPlacement, placement_key(spec, opts), placement_codec(),
      [this, &spec, &opts, &o]() -> std::shared_ptr<const synth::Placement> {
        auto art = floorplan(spec, opts);
        if (art == nullptr) return nullptr;  // upstream already reported
        // The NetDb borrows pin-name storage from `flat`, so it is rebuilt
        // over the cached artifact rather than cached itself.
        const synth::NetDb db(art->flat);
        auto pl = std::make_shared<synth::Placement>(
            synth::run_placement_stage(*art, o, db));
        // Post-conditions: one placed cell per flat instance, finite
        // coordinates — anything else poisons routing and DRC downstream.
        // Checked on build; a cache hit was validated when it was built.
        std::vector<Diagnostic> post;
        if (pl->cells.size() != art->flat.size()) {
          post.push_back(error_diag(
              "placement", "",
              util::format("placed %zu of %zu instances", pl->cells.size(),
                           art->flat.size())));
        }
        for (const synth::PlacedCell& c : pl->cells) {
          if (!(std::isfinite(c.rect.x) && std::isfinite(c.rect.y))) {
            const bool known =
                c.flat_index >= 0 &&
                static_cast<std::size_t>(c.flat_index) < art->flat.size();
            post.push_back(
                error_diag("placement",
                           known ? art->flat[c.flat_index].path : "?",
                           "non-finite placement coordinates"));
            break;
          }
        }
        if (!post.empty()) {
          report_diags(ctx_, post);
          return nullptr;  // never cached
        }
        return pl;
      });
}

std::shared_ptr<const synth::SynthesisResult> Flow::synthesis(
    const AdcSpec& spec, const synth::SynthesisOptions& opts,
    const synth::RoutingEstimateFn& on_estimate) {
  const synth::SynthesisOptions o = exec_opts(opts);
  return run_stage<synth::SynthesisResult>(
      ctx_, Stage::kRoute, synthesis_key(spec, opts), synthesis_codec(),
      [this, &spec, &opts, &o,
       &on_estimate]() -> std::shared_ptr<const synth::SynthesisResult> {
        auto art = floorplan(spec, opts);
        if (art == nullptr) return nullptr;  // upstream already reported
        auto pl = placement(spec, opts);
        if (pl == nullptr) return nullptr;
        if (pl->cells.size() != art->flat.size()) {
          report_diags(
              ctx_, {error_diag("route", "",
                                util::format(
                                    "placement covers %zu of %zu instances",
                                    pl->cells.size(), art->flat.size()))});
          return nullptr;
        }
        const synth::NetDb db(art->flat);
        return std::make_shared<const synth::SynthesisResult>(
            synth::run_route_stage(*art, *pl, o, db, on_estimate));
      });
}

std::shared_ptr<const synth::TimingReport> Flow::timing(
    const AdcSpec& spec, const synth::SynthesisOptions& opts) {
  return run_stage<synth::TimingReport>(
      ctx_, Stage::kTiming, timing_key(spec, opts), timing_codec(),
      [this, &spec, &opts]() -> std::shared_ptr<const synth::TimingReport> {
        const auto syn = synthesis(spec, opts);
        if (syn == nullptr) return nullptr;  // upstream already reported
        const DesignBundle bundle = netlist(spec);
        if (bundle.design == nullptr) return nullptr;
        synth::TimingOptions topts = timing_options(spec);
        topts.placement = &syn->layout->placement();
        return std::make_shared<const synth::TimingReport>(
            synth::analyze_timing(*bundle.design, spec.tech_node(), topts));
      });
}

std::shared_ptr<const synth::PowerGridCheck> Flow::power_grid(
    const AdcSpec& spec, const synth::SynthesisOptions& opts) {
  return run_stage<synth::PowerGridCheck>(
      ctx_, Stage::kPowerGrid, power_grid_key(spec, opts), power_grid_codec(),
      [this, &spec,
       &opts]() -> std::shared_ptr<const synth::PowerGridCheck> {
        const auto syn = synthesis(spec, opts);
        if (syn == nullptr) return nullptr;  // upstream already reported
        const synth::Layout& lay = *syn->layout;
        const synth::PowerGrid grid =
            synth::generate_power_grid(lay.floorplan(), kPowerGridOptions);
        return std::make_shared<const synth::PowerGridCheck>(
            synth::check_power_grid(grid, lay.flat(), lay.placement(),
                                    lay.floorplan(), kCellCurrentA));
      });
}

std::shared_ptr<const RunResult> Flow::sim_run(const AdcSpec& spec,
                                               const SimulationOptions& opts) {
  auto diags = validate_spec(spec);
  for (Diagnostic& d : validate_sim_options(opts)) {
    diags.push_back(std::move(d));
  }
  report_diags(ctx_, diags);
  if (has_errors(diags)) return nullptr;
  return run_stage<RunResult>(
      ctx_, Stage::kSimRun, sim_run_key(spec, opts), run_result_codec(),
      [this, &spec, &opts]() -> std::shared_ptr<const RunResult> {
        const AdcDesign design(spec, ctx_);
        if (!design.ok()) return nullptr;  // ctor already reported
        static thread_local msim::SimWorkspace ws;
        return std::make_shared<const RunResult>(design.simulate(opts, ws));
      });
}

std::shared_ptr<const RunResult> Flow::sim_run(const AdcDesign& design,
                                               const SimulationOptions& opts) {
  return sim_run_group(design, {opts}).front();
}

std::vector<std::shared_ptr<const RunResult>> Flow::sim_run_group(
    const AdcDesign& design, const std::vector<SimulationOptions>& sims) {
  std::vector<std::shared_ptr<const RunResult>> out(sims.size());
  if (!design.ok()) {
    report_diags(ctx_, {error_diag("sim_run", "",
                                   "design was not built (invalid spec)")});
    return out;
  }
  for (const SimulationOptions& o : sims) {
    const auto diags = validate_sim_options(o);
    report_diags(ctx_, diags);
    if (has_errors(diags)) return out;
  }
  // Lazy group build: each entry is its own stage under its scalar key, so
  // warm entries never reach the builder, and the first cold one simulates
  // every lane at once. Lanes move out one at a time (each entry builds at
  // most once); a lane whose stage refused is simulated but never kept.
  std::vector<RunResult> lanes;
  for (std::size_t k = 0; k < sims.size(); ++k) {
    out[k] = run_stage<RunResult>(
        ctx_, Stage::kSimRun, sim_run_key(design.spec(), sims[k]),
        run_result_codec(), [&design, &sims, &lanes, k]() {
          if (lanes.empty()) {
            static thread_local msim::BatchedWorkspace ws;
            lanes = design.simulate_batch(sims, ws);
          }
          return std::make_shared<const RunResult>(std::move(lanes[k]));
        });
  }
  return out;
}

bool batch_width_valid(int batch_width) {
  return batch_width == 0 || batch_width == 1 ||
         msim::BatchedModulator::width_supported(batch_width);
}

BatchStats Flow::sim_run_lanes(const AdcDesign& design, std::size_t n,
                               int batch_width, const LaneOptionsFn& opts_of,
                               const LaneResultFn& on_result) {
  if (!batch_width_valid(batch_width)) {
    report_diags(ctx_, {error_diag("sim_run", "batch_width",
                                   util::format("must be 0, 1, 2, 4 or 8 "
                                                "(got %d); nothing simulated",
                                                batch_width))});
    for (std::size_t i = 0; i < n; ++i) on_result(i, nullptr);
    return {};
  }
  const int width = batch_width == 0
                        ? msim::BatchedModulator::preferred_width()
                        : batch_width;
  struct Group {
    std::size_t start;
    std::size_t len;
  };
  std::vector<Group> groups;
  for (std::size_t at = 0; at < n;) {
    std::size_t len = 1;
    for (int w : {8, 4, 2}) {
      const std::size_t sw = static_cast<std::size_t>(w);
      if (w <= width && sw <= n - at) {
        len = sw;
        break;
      }
    }
    groups.push_back({at, len});
    at += len;
  }

  BatchRunner runner(ctx_);
  runner.map(groups.size(), [&](std::size_t g, std::uint64_t) {
    const Group& grp = groups[g];
    std::vector<SimulationOptions> sims;
    sims.reserve(grp.len);
    for (std::size_t k = 0; k < grp.len; ++k) {
      sims.push_back(opts_of(grp.start + k));
    }
    const auto runs = sim_run_group(design, sims);
    for (std::size_t k = 0; k < grp.len; ++k) {
      on_result(grp.start + k, runs[k].get());
    }
    return std::monostate{};  // the runs went to on_result
  });

  BatchStats stats = runner.last_stats();
  std::vector<double> per_entry;
  per_entry.reserve(n);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 0; k < groups[g].len; ++k) {
      per_entry.push_back(stats.task_wall_s[g] /
                          static_cast<double>(groups[g].len));
    }
  }
  stats.task_wall_s = std::move(per_entry);
  return stats;
}

std::shared_ptr<const HdlEmitResult> Flow::hdl_emit(const AdcSpec& spec) {
  const auto spec_diags = validate_spec(spec);
  report_diags(ctx_, spec_diags);
  if (has_errors(spec_diags)) return nullptr;
  return run_stage<HdlEmitResult>(
      ctx_, Stage::kHdlEmit, hdl_emit_key(spec), hdl_emit_codec(),
      [this, &spec]() -> std::shared_ptr<const HdlEmitResult> {
        const DesignBundle bundle = netlist(spec);
        if (bundle.design == nullptr) return nullptr;  // already reported
        return check_emitted_hdl(ctx_, bundle,
                                 netlist::write_verilog(*bundle.design));
      });
}

std::shared_ptr<const GateSimResult> Flow::gate_sim(
    const AdcSpec& spec, const GateSimOptions& opts) {
  GateSimOptions o = opts;
  o.sim.record_bits = true;  // the slice replay consumes the bitstreams
  auto diags = validate_spec(spec);
  for (Diagnostic& d : validate_sim_options(o.sim)) {
    diags.push_back(std::move(d));
  }
  if (!std::isfinite(o.ring_period_tol) || o.ring_period_tol <= 0) {
    diags.push_back(error_diag("gate_sim", "ring_period_tol",
                               "must be finite and positive"));
  }
  report_diags(ctx_, diags);
  if (has_errors(diags)) return nullptr;
  auto hdl = hdl_emit(spec);
  if (hdl == nullptr) return nullptr;  // upstream already reported
  if (o.top.empty()) o.top = hdl->parsed->top();
  if (hdl->parsed->find_module(o.top) == nullptr) {
    report_diags(ctx_,
                 {error_diag("gate_sim", o.top,
                             "unresolvable top module in the emitted design")});
    return nullptr;  // before the cache lookup: a bad top never probes it
  }
  return run_stage<GateSimResult>(
      ctx_, Stage::kGateSim, gate_sim_key(spec, o), gate_sim_codec(),
      [this, &spec, &o, &hdl]() -> std::shared_ptr<const GateSimResult> {
        auto behavioral = sim_run(spec, o.sim);
        if (behavioral == nullptr) return nullptr;
        std::vector<Diagnostic> gdiags;
        auto res = run_gate_level_signoff(*hdl->parsed, spec, *behavioral,
                                          o, &gdiags);
        report_diags(ctx_, gdiags);
        return res;  // null on a failed sign-off — never cached
      });
}

std::vector<double> Flow::decoded_stream(const AdcSpec& spec,
                                         const SimulationOptions& sim,
                                         SimBackend backend) {
  if (backend == SimBackend::kGateLevel) {
    GateSimOptions o;
    o.sim = sim;
    auto gate = gate_sim(spec, o);
    return gate != nullptr ? gate->decimated : std::vector<double>{};
  }
  auto run = sim_run(spec, sim);
  if (run == nullptr) return {};
  return DigitalBackend(spec).process(run->mod.output);
}

NodeReport Flow::report(const AdcSpec& spec, const SimulationOptions& sim,
                        const synth::SynthesisOptions& synth_opts) {
  util::TraceSpan span(ctx_.trace, stage_name(Stage::kReport));
  NodeReport rep;
  // Not memoized, so the fault hook is consulted here rather than in
  // run_stage.
  if (fault_injected(ctx_, stage_name(Stage::kReport))) return rep;
  auto syn = synthesis(spec, synth_opts);
  if (syn == nullptr) return rep;  // diagnostics already reported;
                                   // rep.complete stays false
  rep.synthesis = syn->clone();
  SimulationOptions with_wire = sim;
  with_wire.wire_cap_f = syn->routing.wire_cap_f;
  auto run = sim_run(spec, with_wire);
  if (run == nullptr) return NodeReport{};
  rep.run = *run;
  rep.area_mm2 = syn->stats.die_area_m2 * 1e6;
  rep.complete = true;
  return rep;
}

MigratedDesign Flow::migrate(const AdcSpec& src_spec, double target_node_nm) {
  util::TraceSpan span(ctx_.trace, "migrate");
  AdcSpec target = src_spec;
  target.node_nm = target_node_nm;
  // Not memoized, so the fault hook is consulted here rather than in
  // run_stage.
  if (fault_injected(ctx_, "migrate")) return no_migration();
  auto target_lib = tech_library(target);
  const DesignBundle src = netlist(src_spec);
  // Upstream stages already reported why.
  if (target_lib == nullptr || src.design == nullptr) return no_migration();
  MigrationResult result = migrate_design(*src.design, *target_lib);
  span.note(std::to_string(result.exact_matches) + " exact, " +
            std::to_string(result.nearest_matches) + " nearest");
  return MigratedDesign{std::move(target_lib), std::move(result)};
}

}  // namespace vcoadc::core
