// The unified evaluation service: core::evaluate(EvalRequest, ExecContext)
// is the one driver entry point, and core::Flow (core/flow.h) the one
// handle on individual stages.
//
// evaluate() owns the semantics every request kind shares: validation
// order, diagnostic routing, cache/store use and ok-ness. It is also the
// seam the CLI's server mode speaks NDJSON through, so the CLI, the serve
// protocol, the benches and the tests all reach a driver the same way.
// The ExecContext passed in is the only source of execution knobs
// (threads, trace, cache, store, diagnostics, fault plan); the per-kind
// options structs carry result-affecting knobs only, so a server can run
// every request on one shared warm context.
//
// EvalRequest is a tagged union over the request kinds, embedding the
// per-driver options structs; `kind` selects which members are read.
//
// Diagnostics: evaluate() collects every stage diagnostic of the request
// into EvalResponse::diagnostics (for the structured response), then
// re-emits them through the caller's context — all of them into ctx.diag
// when a sink is attached, otherwise only errors to stderr (the repo-wide
// never-silent policy; warnings without a sink would be noise in a serve
// loop's stderr).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "core/optimizer.h"
#include "util/json.h"

namespace vcoadc::core {

enum class EvalKind {
  kDatasheet,
  kMonteCarlo,
  kCornerSweep,
  kSynthesize,
  kMigrate,
  kOptimize,
  kHdlEmit,
  kGateSim,
};

/// Wire name of a kind ("datasheet", "monte_carlo", "corner_sweep",
/// "synthesize", "migrate", "optimize", "hdl_emit", "gate_sim").
const char* eval_kind_name(EvalKind kind);

/// Inverse of eval_kind_name; false when `name` matches no kind.
bool eval_kind_from_name(std::string_view name, EvalKind* out);

/// Options of a corner sweep, so every request kind is (spec, options)-
/// shaped.
struct CornerSweepOptions {
  std::size_t n_samples = 1 << 13;
  /// SIMD lane width for the batched transient engine, the
  /// MonteCarloOptions convention: 0 = host-preferred, 1 = scalar
  /// per-corner stages, 2/4/8 = forced width. Corners batch as
  /// heterogeneous lanes (per-lane PVT); results are bit-identical at
  /// every setting.
  int batch_width = 0;
};

/// One driver request. `kind` selects which option members are read;
/// unused members stay default-constructed and are never touched.
struct EvalRequest {
  EvalKind kind = EvalKind::kDatasheet;
  /// Caller correlation tag, echoed verbatim into the response (the serve
  /// loop uses it to match NDJSON responses to requests).
  std::string id;
  AdcSpec spec;
  /// Simulation-backend selector (wire key "backend"). kGateLevel makes
  /// every spec-driven kind run the gate-level sign-off (hdl_emit +
  /// gate_sim, warm-cache cheap) before its driver, refusing the request
  /// when the emitted HDL fails sign-off — the gate-level path's
  /// cross-check becomes a precondition of the result. Ignored by
  /// kOptimize (its spec member is unused) and redundant for
  /// kHdlEmit/kGateSim (they are the stages themselves).
  SimBackend backend = SimBackend::kBehavioral;

  DatasheetOptions datasheet;         // kDatasheet
  MonteCarloOptions monte_carlo;      // kMonteCarlo
  CornerSweepOptions corners;         // kCornerSweep
  synth::SynthesisOptions synthesis;  // kSynthesize
  double migrate_target_node_nm = 180;  // kMigrate
  OptimizeTarget optimize_target;     // kOptimize (spec is unused)
  OptimizeOptions optimize;           // kOptimize
  GateSimOptions gate_sim;            // kGateSim + gate-level backend runs
};

/// The matching response. Exactly the member selected by `kind` is
/// populated; `ok` means the driver ran to completion on valid input
/// (datasheet complete, design built, layout produced, target library
/// resolved).
struct EvalResponse {
  EvalKind kind = EvalKind::kDatasheet;
  std::string id;
  bool ok = false;
  /// Every diagnostic any stage of this request reported, in order.
  std::vector<util::Diagnostic> diagnostics;

  Datasheet datasheet;                // kDatasheet
  MonteCarloResult monte_carlo;       // kMonteCarlo
  std::vector<CornerResult> corners;  // kCornerSweep
  std::shared_ptr<const synth::SynthesisResult> synthesis;  // kSynthesize
  std::shared_ptr<const MigratedDesign> migrated;           // kMigrate
  OptimizeResult optimize;            // kOptimize
  std::shared_ptr<const HdlEmitResult> hdl;   // kHdlEmit
  std::shared_ptr<const GateSimResult> gate;  // kGateSim
};

/// Runs one request on `ctx`. Never throws; invalid input yields
/// ok == false plus diagnostics (in the response and via ctx).
EvalResponse evaluate(const EvalRequest& req, const ExecContext& ctx);

// --- JSON bridging (the serve protocol's vocabulary) ----------------------

/// Parses a request object: {"cmd": <kind name>, "id": ..., "spec":
/// {node,slices,fs,bw,...}, "options": {...}}. Unknown keys are ignored
/// (forward compatibility) and absent ones keep their defaults; a
/// missing/unknown "cmd", a non-object, or a known key of the wrong JSON
/// type or out of its integer range is an error naming `<section>.<key>`.
/// False on error with a human-readable reason in `*error`.
bool eval_request_from_json(const util::json::Value& v, EvalRequest* out,
                            std::string* error);

/// Renders the kind-selected result as a JSON object (summary numbers, not
/// full waveforms: spectra and per-run outputs stay process-side).
util::json::Value eval_result_to_json(const EvalResponse& resp);

util::json::Value diagnostics_to_json(
    const std::vector<util::Diagnostic>& diags);

/// Stable 128-bit hex fingerprint of a rendered result — what the serve
/// protocol reports as "result_fp" so two processes can assert
/// bit-identical results without shipping the full artifacts.
std::string eval_result_fingerprint(const util::json::Value& result);

}  // namespace vcoadc::core
