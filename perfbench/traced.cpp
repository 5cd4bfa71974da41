// The traced run. Each request line goes through the serve handler's three
// steps (core/serve_handler.cpp), each timed from outside:
//   serve.parse     json::parse + eval_request_from_json
//   serve.evaluate  core::evaluate with a util::Trace attached. The program
//                   records its own spans there: every Flow stage, STA
//                   ("timing"), the power-grid check, the amplitude sweep
//                   and migration. evaluate's wall minus the union of its
//                   root spans is its own dispatch self time.
//   serve.render    eval_result_to_json, the fingerprint and json::dump
// Batch envelopes fan their sub-requests across a core::BatchRunner, as the
// handler does. The handler is not called here: parse and render happen
// inside it, and its response drops MonteCarloResult::batch.
#include <algorithm>

#include "bench.h"
#include "core/eval.h"
#include "util/json.h"
#include "util/trace.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;
using vcoadc::util::TraceEvent;

namespace {

/// Length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double covered = 0, reach = -1e300;
  for (const auto& [a, b] : iv) {
    const double lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return covered;
}

/// True when the request's lane batching is on: Monte-Carlo draws,
/// corners and amplitude-sweep points run as lane groups unless the
/// request sets batch_width 1.
bool lane_batched(const core::EvalRequest& req) {
  switch (req.kind) {
    case core::EvalKind::kMonteCarlo:
      return req.monte_carlo.batch_width != 1;
    case core::EvalKind::kCornerSweep:
      return req.corners.batch_width != 1;
    default:
      return false;
  }
}

/// Layer metric name of one of core's span names.
std::string layer_of(const std::vector<TraceEvent>& ev, const TraceEvent& e,
                     const core::EvalRequest& req) {
  if (e.name == "timing") return "synth.sta";
  if (e.name == "power_grid") return "synth.power_grid";
  if (e.name == "amp_sweep") return "core.amp_sweep";
  if (e.name == "sim_run") {
    const bool in_sweep =
        e.parent >= 0 &&
        ev[static_cast<std::size_t>(e.parent)].name == "amp_sweep";
    const bool batched = in_sweep ? req.datasheet.batch_width != 1
                                  : lane_batched(req);
    return batched ? "flow.sim_run_batch" : "flow.sim_run";
  }
  return "flow." + e.name;
}

struct Evaluated {
  core::EvalResponse resp;
  std::vector<TraceEvent> events;
  double evaluate_s = 0;
};

Evaluated evaluate_traced(const core::EvalRequest& req,
                          const core::ExecContext& base) {
  Evaluated out;
  vcoadc::util::DiagSink sink;
  vcoadc::util::Trace trace;
  core::ExecContext ctx = base;
  ctx.diag = &sink;
  ctx.trace = &trace;
  const auto t0 = Clock::now();
  out.resp = core::evaluate(req, ctx);
  out.evaluate_s = seconds_between(t0, Clock::now());
  out.events = trace.events();
  return out;
}

/// Adds the self time of every span (duration minus the union of its
/// children's intervals) and evaluate's residual to `layers`.
void add_self_times(const Evaluated& x, const core::EvalRequest& req,
                    LayerMap* layers) {
  const std::vector<TraceEvent>& ev = x.events;
  std::vector<std::vector<std::pair<double, double>>> children(ev.size());
  std::vector<std::pair<double, double>> roots;
  for (const TraceEvent& e : ev) {
    const std::pair<double, double> iv{e.start_s, e.start_s + e.dur_s};
    if (e.parent >= 0) {
      children[static_cast<std::size_t>(e.parent)].push_back(iv);
    } else {
      roots.push_back(iv);  // worker-thread spans are roots too
    }
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    LayerTotals& t = (*layers)[layer_of(ev, ev[i], req)];
    ++t.calls;
    t.self_s += ev[i].dur_s - union_length(children[i]);
  }
  LayerTotals& dispatch = (*layers)["serve.evaluate"];
  ++dispatch.calls;
  dispatch.self_s += std::max(0.0, x.evaluate_s - union_length(roots));
}

template <typename Fn>
auto timed(const char* layer, LayerMap* layers, double* total, Fn&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  const double s = seconds_between(t0, Clock::now());
  LayerTotals& t = (*layers)[layer];
  ++t.calls;
  t.self_s += s;
  *total += s;
  return result;
}

}  // namespace

TracedReply run_traced(const std::string& line, const Session& session,
                       LayerMap* layers) {
  TracedReply out;
  std::vector<core::EvalRequest> reqs;
  bool batch = false;
  const bool parsed = timed("serve.parse", layers, &out.timed_s, [&] {
    json::ParseResult pr = json::parse(line);
    if (!pr.ok) return false;
    const json::Value* cmd = pr.value.find("cmd");
    batch = cmd != nullptr && cmd->is_string() && cmd->string == "batch";
    std::vector<const json::Value*> items;
    if (batch) {
      const json::Value* subs = pr.value.find("requests");
      if (subs == nullptr || !subs->is_array()) return false;
      for (const json::Value& s : subs->array) items.push_back(&s);
    } else {
      items.push_back(&pr.value);
    }
    for (const json::Value* v : items) {
      core::EvalRequest req;
      std::string err;
      if (!core::eval_request_from_json(*v, &req, &err)) return false;
      reqs.push_back(std::move(req));
    }
    return true;
  });
  if (!parsed) return out;

  // The evaluate step's wall is timed whole; its layers come from the spans.
  std::vector<Evaluated> done;
  const auto t0 = Clock::now();
  if (batch) {
    core::BatchRunner runner(session.ctx.threads);
    done = runner.map(reqs.size(), [&](std::size_t i, std::uint64_t) {
      return evaluate_traced(reqs[i], session.ctx);
    });
  } else {
    done.push_back(evaluate_traced(reqs.front(), session.ctx));
  }
  out.timed_s += seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < done.size(); ++i) {
    add_self_times(done[i], reqs[i], layers);
    if (reqs[i].kind == core::EvalKind::kMonteCarlo) {
      out.batches.push_back(done[i].resp.monte_carlo.batch);
    }
  }

  // As handle_eval / handle_batch render: result object, fingerprint,
  // response object, one dump per line.
  out.ok = true;
  timed("serve.render", layers, &out.timed_s, [&] {
    json::Value results = json::Value::make_array();
    for (const Evaluated& x : done) {
      const core::EvalResponse& resp = x.resp;
      json::Value o = json::Value::make_object();
      o.set("id", json::Value::make_string(resp.id));
      o.set("cmd", json::Value::make_string(core::eval_kind_name(resp.kind)));
      o.set("ok", json::Value::make_bool(resp.ok));
      json::Value result = core::eval_result_to_json(resp);
      const std::string fp = core::eval_result_fingerprint(result);
      o.set("result_fp", json::Value::make_string(fp));
      o.set("result", std::move(result));
      o.set("diagnostics", core::diagnostics_to_json(resp.diagnostics));
      out.fp += (out.fp.empty() ? "" : ",") + fp;
      out.ok = out.ok && resp.ok;
      results.push(std::move(o));
    }
    if (!batch) return json::dump(results.array.front()).size();
    json::Value env = json::Value::make_object();
    env.set("cmd", json::Value::make_string("batch"));
    env.set("ok", json::Value::make_bool(out.ok));
    env.set("results", std::move(results));
    return json::dump(env).size();
  });
  return out;
}

}  // namespace perfbench
