#include "core/eval.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "core/driver_impl.h"
#include "util/strings.h"

namespace vcoadc::core {

namespace json = util::json;

const char* eval_kind_name(EvalKind kind) {
  switch (kind) {
    case EvalKind::kDatasheet:
      return "datasheet";
    case EvalKind::kMonteCarlo:
      return "monte_carlo";
    case EvalKind::kCornerSweep:
      return "corner_sweep";
    case EvalKind::kSynthesize:
      return "synthesize";
    case EvalKind::kMigrate:
      return "migrate";
    case EvalKind::kOptimize:
      return "optimize";
    case EvalKind::kHdlEmit:
      return "hdl_emit";
    case EvalKind::kGateSim:
      return "gate_sim";
  }
  return "?";
}

bool eval_kind_from_name(std::string_view name, EvalKind* out) {
  for (EvalKind k :
       {EvalKind::kDatasheet, EvalKind::kMonteCarlo, EvalKind::kCornerSweep,
        EvalKind::kSynthesize, EvalKind::kMigrate, EvalKind::kOptimize,
        EvalKind::kHdlEmit, EvalKind::kGateSim}) {
    if (name == eval_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

EvalResponse evaluate(const EvalRequest& req, const ExecContext& ctx) {
  EvalResponse resp;
  resp.kind = req.kind;
  resp.id = req.id;

  // Every stage of this request reports into a request-local sink, so the
  // response carries its own complete diagnostic record even when the
  // caller's context has a sink of its own (the serve loop depends on
  // per-request isolation).
  util::DiagSink local;
  ExecContext sub = ctx;
  sub.diag = &local;

  // Gate-level backend selector: before a spec-driven driver runs, the
  // emitted-HDL sign-off (hdl_emit + gate_sim) must pass for the request's
  // spec. The stages cache like any other, so a warm context pays this
  // once per spec; a failed sign-off refuses the request outright rather
  // than reporting behavioral numbers the gate-level path contradicts.
  bool signoff_ok = true;
  if (req.backend == SimBackend::kGateLevel &&
      req.kind != EvalKind::kOptimize && req.kind != EvalKind::kHdlEmit &&
      req.kind != EvalKind::kGateSim) {
    Flow flow(sub);
    if (flow.gate_sim(req.spec, req.gate_sim) == nullptr) {
      signoff_ok = false;
      resp.ok = false;
    }
  }

  if (signoff_ok) switch (req.kind) {
    case EvalKind::kDatasheet: {
      resp.datasheet = detail::datasheet_impl(sub, req.spec, req.datasheet);
      resp.ok = resp.datasheet.complete;
      break;
    }
    case EvalKind::kMonteCarlo: {
      const AdcDesign design(req.spec, sub);
      resp.monte_carlo =
          detail::monte_carlo_impl(sub, design, req.monte_carlo);
      resp.ok = design.ok() && !local.has_errors();
      break;
    }
    case EvalKind::kCornerSweep: {
      const AdcDesign design(req.spec, sub);
      resp.corners = detail::corner_sweep_impl(
          sub, design, req.corners.n_samples, req.corners.batch_width);
      resp.ok = design.ok() && !local.has_errors();
      break;
    }
    case EvalKind::kSynthesize: {
      Flow flow(sub);
      resp.synthesis = flow.synthesis(req.spec, req.synthesis);
      resp.ok = resp.synthesis != nullptr && resp.synthesis->layout != nullptr;
      break;
    }
    case EvalKind::kMigrate: {
      Flow flow(sub);
      MigratedDesign m = flow.migrate(req.spec, req.migrate_target_node_nm);
      resp.ok = m.target_lib != nullptr;
      resp.migrated = std::make_shared<const MigratedDesign>(std::move(m));
      break;
    }
    case EvalKind::kOptimize: {
      resp.optimize =
          detail::optimize_impl(sub, req.optimize_target, req.optimize);
      resp.ok = !local.has_errors();
      break;
    }
    case EvalKind::kHdlEmit: {
      Flow flow(sub);
      resp.hdl = flow.hdl_emit(req.spec);
      resp.ok = resp.hdl != nullptr;
      break;
    }
    case EvalKind::kGateSim: {
      Flow flow(sub);
      resp.gate = flow.gate_sim(req.spec, req.gate_sim);
      resp.ok = resp.gate != nullptr;
      break;
    }
  }

  resp.diagnostics = local.all();
  // Re-emit through the caller's context: everything into its sink when it
  // has one; otherwise only errors to stderr — a refused request is never
  // silent, but a healthy serve loop's stderr stays quiet.
  if (ctx.diag != nullptr) {
    ctx.diag->add_all(resp.diagnostics);
  } else {
    for (const util::Diagnostic& d : resp.diagnostics) {
      if (d.severity == util::Severity::kError) {
        std::fprintf(stderr, "vcoadc: %s\n", d.to_string().c_str());
      }
    }
  }
  return resp;
}

// --- JSON bridging --------------------------------------------------------

namespace {

/// The one reader of a wire field: `obj[key]`, when present, must have
/// the field's JSON type (a boolean, a string or a number), and a number
/// read into an integer field must also be finite, integral and within
/// [0, the field type's maximum]; anything else fails the parse with an
/// error naming `section.key`. An absent object or key keeps *out.
template <typename T>
bool read_field(const json::Value* obj, const char* section, const char* key,
                T* out, std::string* error) {
  const json::Value* x = obj != nullptr ? obj->find(key) : nullptr;
  if (x == nullptr) return true;
  std::string want;
  if constexpr (std::is_same_v<T, bool>) {
    if (x->is_bool()) {
      *out = x->boolean;
      return true;
    }
    want = "a boolean";
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (x->is_string()) {
      *out = x->string;
      return true;
    }
    want = "a string";
  } else if constexpr (std::is_floating_point_v<T>) {
    if (x->is_number()) {
      *out = x->number;
      return true;
    }
    want = "a number";
  } else {
    // 2^digits is exact in a double and one past the type's maximum; NaN,
    // the infinities and non-numbers fail the range test.
    const double v = x->is_number() ? x->number : std::nan("");
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (v >= 0 && v < limit && std::trunc(v) == v) {
      *out = static_cast<T>(v);
      return true;
    }
    want = "an integer in [0, " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  *error = util::format("\"%s.%s\" must be %s (got %s)", section, key,
                        want.c_str(), json::dump(*x).c_str());
  return false;
}

bool spec_from_json(const json::Value& v, AdcSpec* spec, std::string* error) {
  const json::Value* pvt = v.find("pvt");
  if (pvt != nullptr && !pvt->is_object()) {
    *error = "\"spec.pvt\" must be an object";
    return false;
  }
  const auto field = [&](const char* key, auto* out) {
    return read_field(&v, "spec", key, out, error);
  };
  const auto pvt_field = [&](const char* key, double* out) {
    return read_field(pvt, "spec.pvt", key, out, error);
  };
  return field("slices", &spec->num_slices) &&
         field("dac_fragments", &spec->dac_fragments) &&
         field("seed", &spec->seed) && field("node", &spec->node_nm) &&
         field("fs", &spec->fs_hz) && field("bw", &spec->bandwidth_hz) &&
         field("loop_gain", &spec->loop_gain) &&
         field("vco_center_over_fs", &spec->vco_center_over_fs) &&
         field("with_nonidealities", &spec->with_nonidealities) &&
         pvt_field("process", &spec->pvt.process) &&
         pvt_field("voltage", &spec->pvt.voltage) &&
         pvt_field("temperature_k", &spec->pvt.temperature_k);
}

json::Value spec_to_json(const AdcSpec& spec) {
  json::Value v = json::Value::make_object();
  v.set("node", json::Value::make_number(spec.node_nm));
  v.set("slices", json::Value::make_number(spec.num_slices));
  v.set("fs", json::Value::make_number(spec.fs_hz));
  v.set("bw", json::Value::make_number(spec.bandwidth_hz));
  return v;
}

json::Value mc_to_json(const MonteCarloResult& mc) {
  json::Value v = json::Value::make_object();
  v.set("runs",
        json::Value::make_number(static_cast<double>(mc.sndr_db.size())));
  v.set("mean_db", json::Value::make_number(mc.mean_db));
  v.set("stddev_db", json::Value::make_number(mc.stddev_db));
  v.set("min_db", json::Value::make_number(mc.min_db));
  v.set("max_db", json::Value::make_number(mc.max_db));
  json::Value runs = json::Value::make_array();
  for (const double s : mc.sndr_db) runs.push(json::Value::make_number(s));
  v.set("sndr_db", std::move(runs));
  return v;
}

}  // namespace

bool eval_request_from_json(const json::Value& v, EvalRequest* out,
                            std::string* error) {
  if (!v.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  const json::Value* cmd = v.find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    *error = "request is missing a string \"cmd\"";
    return false;
  }
  EvalRequest req;
  if (!eval_kind_from_name(cmd->string, &req.kind)) {
    *error = "unknown cmd \"" + cmd->string +
             "\" (want datasheet|monte_carlo|corner_sweep|synthesize|"
             "migrate|optimize|hdl_emit|gate_sim)";
    return false;
  }
  if (const json::Value* b = v.find("backend")) {
    if (!b->is_string() ||
        !sim_backend_from_name(b->string, &req.backend)) {
      *error = "\"backend\" must be \"behavioral\" or \"gate_level\"";
      return false;
    }
  }
  if (const json::Value* id = v.find("id")) {
    req.id = id->is_string() ? id->string : json::dump(*id);
  }
  if (const json::Value* spec = v.find("spec")) {
    if (!spec->is_object()) {
      *error = "\"spec\" must be an object";
      return false;
    }
    if (!spec_from_json(*spec, &req.spec, error)) return false;
  }
  const json::Value* o = v.find("options");
  if (o != nullptr && !o->is_object()) {
    *error = "\"options\" must be an object";
    return false;
  }
  // Every option goes through read_field; `ok` stays false from the first
  // field it refuses (which then holds the error).
  bool ok = true;
  const auto field = [&](const char* key, auto* out) {
    ok = ok && read_field(o, "options", key, out, error);
  };
  // A lane width sim_run_lanes() does not take is refused here, naming the
  // field, before the request does any work.
  const auto width_field = [&](int* out) {
    field("batch_width", out);
    if (ok && !batch_width_valid(*out)) {
      *error = util::format(
          "\"options.batch_width\" must be 0, 1, 2, 4 or 8 (got %d)", *out);
      ok = false;
    }
  };
  switch (req.kind) {
    case EvalKind::kDatasheet:
      field("n_samples", &req.datasheet.n_samples);
      field("mc_runs", &req.datasheet.mc_runs);
      field("amp_sweep_points", &req.datasheet.amp_sweep_points);
      width_field(&req.datasheet.batch_width);
      break;
    case EvalKind::kMonteCarlo:
      field("runs", &req.monte_carlo.runs);
      field("n_samples", &req.monte_carlo.sim.n_samples);
      field("fin", &req.monte_carlo.sim.fin_target_hz);
      field("amplitude_dbfs", &req.monte_carlo.sim.amplitude_dbfs);
      field("seed0", &req.monte_carlo.seed0);
      width_field(&req.monte_carlo.batch_width);
      break;
    case EvalKind::kCornerSweep:
      field("n_samples", &req.corners.n_samples);
      width_field(&req.corners.batch_width);
      break;
    case EvalKind::kSynthesize:
      field("target_utilization", &req.synthesis.target_utilization);
      field("aspect_ratio", &req.synthesis.aspect_ratio);
      field("seed", &req.synthesis.seed);
      field("detailed_route", &req.synthesis.detailed_route);
      break;
    case EvalKind::kMigrate:
      field("target_node", &req.migrate_target_node_nm);
      break;
    case EvalKind::kOptimize:
      field("node", &req.optimize_target.node_nm);
      field("min_sndr_db", &req.optimize_target.min_sndr_db);
      field("bandwidth_hz", &req.optimize_target.bandwidth_hz);
      field("margin_db", &req.optimize_target.margin_db);
      field("n_samples", &req.optimize.n_samples);
      field("seed", &req.optimize.seed);
      break;
    case EvalKind::kHdlEmit:
      break;  // the stage has no options: the spec is the whole input
    case EvalKind::kGateSim:
      break;  // gate_sim options parse below for every kind
  }
  // Gate-sim options apply both to the kGateSim kind and to any request
  // running under the gate-level backend, so they parse unconditionally.
  field("n_samples", &req.gate_sim.sim.n_samples);
  field("ring_period_tol", &req.gate_sim.ring_period_tol);
  field("top", &req.gate_sim.top);
  if (!ok) return false;
  *out = std::move(req);
  return true;
}

json::Value diagnostics_to_json(const std::vector<util::Diagnostic>& diags) {
  json::Value arr = json::Value::make_array();
  for (const util::Diagnostic& d : diags) {
    json::Value v = json::Value::make_object();
    v.set("severity",
          json::Value::make_string(util::severity_name(d.severity)));
    v.set("stage", json::Value::make_string(d.stage));
    v.set("item", json::Value::make_string(d.item));
    v.set("reason", json::Value::make_string(d.reason));
    arr.push(std::move(v));
  }
  return arr;
}

json::Value eval_result_to_json(const EvalResponse& resp) {
  json::Value v = json::Value::make_object();
  switch (resp.kind) {
    case EvalKind::kDatasheet: {
      const Datasheet& ds = resp.datasheet;
      v.set("complete", json::Value::make_bool(ds.complete));
      v.set("sndr_db", json::Value::make_number(ds.nominal.sndr.sndr_db));
      v.set("snr_db", json::Value::make_number(ds.nominal.sndr.snr_db));
      v.set("sfdr_db", json::Value::make_number(ds.nominal.sndr.sfdr_db));
      v.set("enob", json::Value::make_number(ds.nominal.sndr.enob));
      v.set("shaping_db_per_dec",
            json::Value::make_number(ds.nominal.shaping.db_per_decade));
      v.set("power_w", json::Value::make_number(ds.nominal.power.total_w()));
      v.set("fom_fj", json::Value::make_number(ds.nominal.fom_fj));
      v.set("area_mm2", json::Value::make_number(ds.area_mm2));
      v.set("cells", json::Value::make_number(ds.layout.num_cells));
      v.set("drc_violations", json::Value::make_number(
                                  static_cast<double>(ds.drc.violations.size())));
      v.set("slack_ps", json::Value::make_number(ds.timing.slack_s * 1e12));
      v.set("power_grid_clean",
            json::Value::make_bool(ds.power_grid.clean()));
      if (!ds.mc.sndr_db.empty()) v.set("mc", mc_to_json(ds.mc));
      if (!ds.amp_sweep.empty()) {
        json::Value arr = json::Value::make_array();
        for (const AmplitudePoint& pt : ds.amp_sweep) {
          json::Value pv = json::Value::make_object();
          pv.set("amplitude_dbfs",
                 json::Value::make_number(pt.amplitude_dbfs));
          pv.set("sndr_db", json::Value::make_number(pt.sndr_db));
          pv.set("enob", json::Value::make_number(pt.enob));
          arr.push(std::move(pv));
        }
        v.set("amp_sweep", std::move(arr));
      }
      break;
    }
    case EvalKind::kMonteCarlo:
      v = mc_to_json(resp.monte_carlo);
      break;
    case EvalKind::kCornerSweep: {
      json::Value arr = json::Value::make_array();
      for (const CornerResult& c : resp.corners) {
        json::Value cv = json::Value::make_object();
        cv.set("name", json::Value::make_string(c.name));
        cv.set("process", json::Value::make_number(c.pvt.process));
        cv.set("voltage", json::Value::make_number(c.pvt.voltage));
        cv.set("temperature_k",
               json::Value::make_number(c.pvt.temperature_k));
        cv.set("sndr_db", json::Value::make_number(c.sndr_db));
        cv.set("power_w", json::Value::make_number(c.power_w));
        arr.push(std::move(cv));
      }
      v.set("corners", std::move(arr));
      break;
    }
    case EvalKind::kSynthesize: {
      if (resp.synthesis == nullptr) break;
      const synth::SynthesisResult& s = *resp.synthesis;
      v.set("cells", json::Value::make_number(s.stats.num_cells));
      v.set("regions", json::Value::make_number(s.stats.num_regions));
      v.set("die_area_mm2",
            json::Value::make_number(s.stats.die_area_m2 * 1e6));
      v.set("utilization", json::Value::make_number(s.stats.utilization));
      v.set("wirelength_um", json::Value::make_number(
                                 s.detailed_routing.total_wirelength_m * 1e6));
      v.set("vias", json::Value::make_number(s.detailed_routing.total_vias));
      v.set("failed_nets",
            json::Value::make_number(s.detailed_routing.failed_nets));
      v.set("overflowed_edges",
            json::Value::make_number(s.detailed_routing.overflowed_edges));
      v.set("drc_violations", json::Value::make_number(
                                  static_cast<double>(s.drc.violations.size())));
      v.set("wire_cap_f", json::Value::make_number(s.routing.wire_cap_f));
      break;
    }
    case EvalKind::kMigrate: {
      if (resp.migrated == nullptr) break;
      const MigratedDesign& m = *resp.migrated;
      v.set("exact_matches",
            json::Value::make_number(m.result.exact_matches));
      v.set("nearest_matches",
            json::Value::make_number(m.result.nearest_matches));
      v.set("remapped", json::Value::make_number(
                            static_cast<double>(m.result.remapped.size())));
      json::Value un = json::Value::make_array();
      for (const std::string& fn : m.result.unmappable) {
        un.push(json::Value::make_string(fn));
      }
      v.set("unmappable", std::move(un));
      break;
    }
    case EvalKind::kOptimize: {
      const OptimizeResult& r = resp.optimize;
      v.set("found", json::Value::make_bool(r.best.has_value()));
      if (r.best.has_value()) v.set("best", spec_to_json(*r.best));
      v.set("best_power_w", json::Value::make_number(r.best_power_w));
      v.set("best_sndr_db", json::Value::make_number(r.best_sndr_db));
      v.set("evaluated", json::Value::make_number(
                             static_cast<double>(r.evaluated.size())));
      break;
    }
    case EvalKind::kHdlEmit: {
      if (resp.hdl == nullptr) break;
      const HdlEmitResult& h = *resp.hdl;
      v.set("top", json::Value::make_string(h.top));
      v.set("verilog_bytes", json::Value::make_number(
                                 static_cast<double>(h.verilog.size())));
      v.set("modules",
            json::Value::make_number(static_cast<double>(
                h.parsed != nullptr ? h.parsed->modules().size() : 0)));
      v.set("instances_compared",
            json::Value::make_number(h.instances_compared));
      break;
    }
    case EvalKind::kGateSim: {
      if (resp.gate == nullptr) break;
      const GateSimResult& g = *resp.gate;
      v.set("comparator_ok", json::Value::make_bool(g.comparator_ok));
      v.set("ring_ok", json::Value::make_bool(g.ring_ok));
      v.set("ring_period_ps",
            json::Value::make_number(g.ring_period_s * 1e12));
      v.set("ring_period_pred_ps",
            json::Value::make_number(g.ring_period_pred_s * 1e12));
      v.set("n_samples", json::Value::make_number(
                             static_cast<double>(g.n_samples)));
      v.set("decoded_samples", json::Value::make_number(
                                   static_cast<double>(g.decoded.size())));
      v.set("decimated_samples",
            json::Value::make_number(static_cast<double>(g.decimated.size())));
      v.set("matches_behavioral",
            json::Value::make_bool(g.matches_behavioral));
      v.set("transitions", json::Value::make_number(
                               static_cast<double>(g.transitions)));
      break;
    }
  }
  return v;
}

std::string eval_result_fingerprint(const json::Value& result) {
  KeyHasher h;
  h.tag("eval_result");
  h.str(json::dump(result));
  return h.digest().hex();
}

}  // namespace vcoadc::core
