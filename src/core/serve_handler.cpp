// Dispatch half of the evaluation service: the NDJSON request handler
// shared by the stdio and socket transports (extracted from the CLI's
// original stdin loop, so the two transports cannot drift). The transport
// loops themselves live in serve_loop.cpp.
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/eval.h"
#include "core/serve_loop.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/trace.h"

namespace vcoadc::core {

namespace json = util::json;

namespace {

/// Renders a per-request trace as a JSON array (one object per span, the
/// same records as --trace=json's JSONL, parsed back so the response
/// stays one well-formed document).
json::Value trace_to_json(const util::Trace& trace) {
  json::Value arr = json::Value::make_array();
  const std::string jsonl = trace.render_jsonl();
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    const std::string_view line(jsonl.data() + pos, nl - pos);
    if (!line.empty()) {
      json::ParseResult pr = json::parse(line);
      arr.push(pr.ok ? std::move(pr.value)
                     : json::Value::make_string(std::string(line)));
    }
    pos = nl + 1;
  }
  return arr;
}

/// Per-request cache/store counter deltas. `cold_builds` is the number of
/// stages this request had to build from scratch: store misses when a
/// persistent store backs the run (a memory-cache miss that loads from
/// disk is warm), plain cache misses otherwise.
json::Value cache_delta_json(const ArtifactCacheStats& c0,
                             const ArtifactCacheStats& c1,
                             const ArtifactStore* store,
                             const ArtifactStoreStats& s0) {
  json::Value o = json::Value::make_object();
  const auto num = [](std::uint64_t v) {
    return json::Value::make_number(static_cast<double>(v));
  };
  o.set("hits", num(c1.hits - c0.hits));
  o.set("misses", num(c1.misses - c0.misses));
  std::uint64_t cold = c1.misses - c0.misses;
  if (store != nullptr) {
    const ArtifactStoreStats s1 = store->stats();
    o.set("store_hits", num(s1.hits - s0.hits));
    o.set("store_misses", num(s1.misses - s0.misses));
    o.set("store_writes", num(s1.writes - s0.writes));
    // Lifecycle counters: nonzero only on requests whose writes pushed
    // the store over its --store-max-bytes bound (or whose GC swept
    // orphaned tmp files). Campaign drivers watch these to see eviction
    // pressure.
    o.set("store_evictions", num(s1.evictions - s0.evictions));
    o.set("store_gc_bytes_reclaimed",
          num(s1.gc_bytes_reclaimed - s0.gc_bytes_reclaimed));
    o.set("store_tmp_swept", num(s1.tmp_swept - s0.tmp_swept));
    cold = s1.misses - s0.misses;
  }
  o.set("cold_builds", num(cold));
  // Active SIMD dispatch of the batched transient engine: clients
  // asserting result_fp across hosts read this to know which tier
  // produced the (bit-identical) result, and perf dashboards bucket
  // timings by it.
  const util::simd::Tier tier = util::simd::active_tier();
  o.set("simd_tier", json::Value::make_string(util::simd::tier_name(tier)));
  o.set("simd_width",
        num(static_cast<std::uint64_t>(util::simd::tier_width(tier))));
  return o;
}

/// Echoes the request's "id" (as-is) into a response object, if present.
void echo_id(const json::Value& req, json::Value* resp) {
  if (const json::Value* id = req.find("id")) resp->set("id", *id);
}

json::Value error_response(const json::Value& req, const std::string& what) {
  json::Value resp = json::Value::make_object();
  echo_id(req, &resp);
  resp.set("ok", json::Value::make_bool(false));
  resp.set("error", json::Value::make_string(what));
  return resp;
}

/// One evaluation request -> one response object. Diagnostics are
/// request-local (fresh sink per request); the cache/store in `base` are
/// shared across the whole serve session — that is the point of serving.
json::Value handle_eval(const json::Value& reqv, const ExecContext& base,
                        bool want_trace) {
  EvalRequest req;
  std::string err;
  if (!eval_request_from_json(reqv, &req, &err)) {
    return error_response(reqv, err);
  }
  util::DiagSink sink;
  util::Trace trace;
  ExecContext ctx = base;
  ctx.diag = &sink;
  ctx.trace = want_trace ? &trace : nullptr;
  const EvalResponse resp = evaluate(req, ctx);

  json::Value out = json::Value::make_object();
  out.set("id", json::Value::make_string(resp.id));
  out.set("cmd", json::Value::make_string(eval_kind_name(resp.kind)));
  out.set("ok", json::Value::make_bool(resp.ok));
  json::Value result = eval_result_to_json(resp);
  out.set("result_fp",
          json::Value::make_string(eval_result_fingerprint(result)));
  out.set("result", std::move(result));
  out.set("diagnostics", diagnostics_to_json(resp.diagnostics));
  if (want_trace) out.set("trace", trace_to_json(trace));
  return out;
}

/// {"cmd":"batch","requests":[...]} fans the sub-requests across a
/// BatchRunner; sub-responses come back in request order and the outer ok
/// is the conjunction. The shared cache/store make overlapping
/// sub-requests (e.g. same spec, different analyses) converge on one
/// stage build.
json::Value handle_batch(const json::Value& reqv, const ExecContext& base,
                         bool want_trace) {
  const json::Value* reqs = reqv.find("requests");
  if (reqs == nullptr || !reqs->is_array()) {
    return error_response(reqv, "batch request needs a \"requests\" array");
  }
  BatchOptions bopts;
  bopts.threads = base.threads;
  BatchRunner runner(bopts);
  std::vector<json::Value> results =
      runner.map(reqs->array.size(), [&](std::size_t i, std::uint64_t) {
        return handle_eval(reqs->array[i], base, want_trace);
      });

  json::Value out = json::Value::make_object();
  echo_id(reqv, &out);
  out.set("cmd", json::Value::make_string("batch"));
  bool all_ok = true;
  json::Value arr = json::Value::make_array();
  for (json::Value& r : results) {
    const json::Value* ok = r.find("ok");
    all_ok = all_ok && ok != nullptr && ok->bool_or(false);
    arr.push(std::move(r));
  }
  out.set("ok", json::Value::make_bool(all_ok));
  out.set("results", std::move(arr));
  return out;
}

}  // namespace

ServeHandler make_eval_handler(const ExecContext& ctx,
                               const EvalServeOptions& opts) {
  struct State {
    ExecContext base;
    EvalServeOptions opts;
    /// Serializes GC runs: concurrent requests that both crossed the
    /// bound should not stack directory scans (the loser just skips —
    /// the winner's pass already enforced the bound).
    std::mutex gc_mutex;
  };
  auto st = std::make_shared<State>();
  st->base = ctx;
  st->base.diag = nullptr;   // per-request sinks, nothing global
  st->base.trace = nullptr;  // per-request traces when opts.trace
  st->opts = opts;

  return [st](const std::string& line) -> std::string {
    json::Value out;
    json::ParseResult pr = json::parse(line);
    if (!pr.ok) {
      out = error_response(json::Value::make_null(),
                           "request parse error: " + pr.error);
      return json::dump(out);
    }
    ArtifactCache* cache = st->base.cache;
    ArtifactStore* store = st->base.store;
    const ArtifactCacheStats c0 =
        cache != nullptr ? cache->stats() : ArtifactCacheStats{};
    const ArtifactStoreStats s0 =
        store != nullptr ? store->stats() : ArtifactStoreStats{};
    const json::Value* cmd = pr.value.find("cmd");
    if (cmd != nullptr && cmd->is_string() && cmd->string == "batch") {
      out = handle_batch(pr.value, st->base, st->opts.trace);
    } else {
      out = handle_eval(pr.value, st->base, st->opts.trace);
    }
    // Store lifecycle: any request that persisted new records may have
    // pushed the directory over the bound — GC before reporting the
    // deltas, so the response's counters include this request's
    // evictions.
    if (store != nullptr && st->opts.store_max_bytes > 0 &&
        store->stats().writes > s0.writes) {
      std::unique_lock<std::mutex> lock(st->gc_mutex, std::try_to_lock);
      if (lock.owns_lock()) store->gc(st->opts.store_max_bytes);
    }
    if (st->opts.cache_stats && cache != nullptr) {
      out.set("cache", cache_delta_json(c0, cache->stats(), store, s0));
    }
    return json::dump(out);
  };
}

}  // namespace vcoadc::core
