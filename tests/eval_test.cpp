// core::evaluate(): the one request/response driver entry point. The
// contract under test: every request kind dispatches through it with an
// explicit ExecContext; diagnostics are request-local (collected into the
// response, then re-emitted into the caller's sink, never leaked between
// requests); the gate-level backend gates spec-driven kinds; and the JSON
// bridging parses the serve protocol's vocabulary and fingerprints
// results stably.
#include "core/eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/artifact_cache.h"
#include "util/json.h"
#include "util/trace.h"

using namespace vcoadc;
namespace json = util::json;

namespace {

core::AdcSpec small_spec() {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = 6;
  spec.fs_hz = 400e6;
  spec.bandwidth_hz = 2e6;
  return spec;
}

TEST(EvalKindTest, NamesRoundTrip) {
  const core::EvalKind kinds[] = {
      core::EvalKind::kDatasheet,  core::EvalKind::kMonteCarlo,
      core::EvalKind::kCornerSweep, core::EvalKind::kSynthesize,
      core::EvalKind::kMigrate,    core::EvalKind::kOptimize,
      core::EvalKind::kHdlEmit,    core::EvalKind::kGateSim,
  };
  for (core::EvalKind k : kinds) {
    core::EvalKind back{};
    ASSERT_TRUE(core::eval_kind_from_name(core::eval_kind_name(k), &back))
        << core::eval_kind_name(k);
    EXPECT_EQ(back, k);
  }
  core::EvalKind dummy{};
  EXPECT_FALSE(core::eval_kind_from_name("frobnicate", &dummy));
  EXPECT_FALSE(core::eval_kind_from_name("", &dummy));
}

TEST(EvalRequestJsonTest, ParsesSpecAndOptions) {
  const char* text =
      "{\"id\": 42, \"cmd\": \"monte_carlo\","
      " \"spec\": {\"slices\": 6, \"fs\": 4e8, \"bw\": 2e6, \"seed\": 9},"
      " \"options\": {\"runs\": 3, \"n_samples\": 2048}}";
  json::ParseResult pr = json::parse(text);
  ASSERT_TRUE(pr.ok) << pr.error;

  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kMonteCarlo);
  EXPECT_EQ(req.id, "42");
  EXPECT_EQ(req.spec.num_slices, 6);
  EXPECT_EQ(req.spec.fs_hz, 4e8);
  EXPECT_EQ(req.spec.bandwidth_hz, 2e6);
  EXPECT_EQ(req.spec.seed, 9u);
  EXPECT_EQ(req.monte_carlo.runs, 3);
  EXPECT_EQ(req.monte_carlo.sim.n_samples, 2048u);
}

TEST(EvalRequestJsonTest, RejectsMissingOrUnknownCmd) {
  core::EvalRequest req;
  std::string err;
  json::ParseResult pr = json::parse("{\"spec\": {}}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
  EXPECT_FALSE(err.empty());

  pr = json::parse("{\"cmd\": \"launch_rocket\"}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));

  pr = json::parse("[1, 2, 3]");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
}

TEST(EvalRequestJsonTest, UnknownKeysAreIgnoredForForwardCompat) {
  json::ParseResult pr = json::parse(
      "{\"cmd\": \"synthesize\", \"spec\": {\"slices\": 8},"
      " \"options\": {\"target_utilization\": 0.5},"
      " \"future_field\": {\"nested\": true}}");
  ASSERT_TRUE(pr.ok);
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kSynthesize);
  EXPECT_EQ(req.spec.num_slices, 8);
  EXPECT_EQ(req.synthesis.target_utilization, 0.5);
}

TEST(EvalRequestJsonTest, ParsesBackendAndGateSimOptions) {
  json::ParseResult pr = json::parse(
      "{\"cmd\": \"gate_sim\", \"backend\": \"gate_level\","
      " \"spec\": {\"slices\": 4},"
      " \"options\": {\"n_samples\": 256, \"ring_period_tol\": 0.5,"
      " \"top\": \"ADC_slice\"}}");
  ASSERT_TRUE(pr.ok) << pr.error;
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kGateSim);
  EXPECT_EQ(req.backend, core::SimBackend::kGateLevel);
  EXPECT_EQ(req.gate_sim.sim.n_samples, 256u);
  EXPECT_EQ(req.gate_sim.ring_period_tol, 0.5);
  EXPECT_EQ(req.gate_sim.top, "ADC_slice");

  // Default backend is behavioral; a malformed selector is refused.
  pr = json::parse("{\"cmd\": \"hdl_emit\"}");
  ASSERT_TRUE(pr.ok);
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.backend, core::SimBackend::kBehavioral);
  pr = json::parse("{\"cmd\": \"hdl_emit\", \"backend\": \"spice\"}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
  EXPECT_NE(err.find("backend"), std::string::npos);
}

/// Parses `line` as a request; on refusal returns the parse error, on
/// success the empty string.
std::string request_error(const char* line) {
  json::ParseResult pr = json::parse(line);
  EXPECT_TRUE(pr.ok) << pr.error;
  core::EvalRequest req;
  std::string err;
  if (core::eval_request_from_json(pr.value, &req, &err)) return "";
  EXPECT_FALSE(err.empty());
  return err;
}

// Integer wire numbers go through one checked conversion: a negative,
// fractional, non-finite or out-of-range value refuses the request with
// an error naming the field, where a bare cast ran 0 runs or was undefined.

TEST(EvalRequestJsonTest, NegativeRunsAreRefused) {
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo","options":{"runs":-5}})")
                .find("\"options.runs\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, RunsBeyondIntAreRefused) {
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo","options":{"runs":1e12}})")
                .find("\"options.runs\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, FractionalRunsAreRefused) {
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo","options":{"runs":2.7}})")
                .find("\"options.runs\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, SlicesBeyondIntAreRefused) {
  EXPECT_NE(request_error(R"({"cmd":"datasheet","spec":{"slices":1e300}})")
                .find("\"spec.slices\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, WireCountsKeepEveryInRangeInteger) {
  // The bounds are the field types': int tops out at 2^31 - 1, the 64-bit
  // counts and seeds take every double below 2^64.
  json::ParseResult pr = json::parse(
      R"({"cmd":"monte_carlo","spec":{"seed":9007199254740992},)"
      R"("options":{"runs":2147483647,"seed0":9223372036854775808}})");
  ASSERT_TRUE(pr.ok) << pr.error;
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.monte_carlo.runs, 2147483647);
  EXPECT_EQ(req.monte_carlo.seed0, std::uint64_t{1} << 63);
  EXPECT_EQ(req.spec.seed, std::uint64_t{1} << 53);
  EXPECT_NE(request_error(
                R"({"cmd":"monte_carlo","options":{"runs":2147483648}})")
                .find("\"options.runs\""),
            std::string::npos);
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo",)"
                          R"("options":{"seed0":18446744073709551616}})")
                .find("\"options.seed0\""),
            std::string::npos);
  EXPECT_NE(request_error(R"({"cmd":"datasheet","options":{"batch_width":-1}})")
                .find("\"options.batch_width\""),
            std::string::npos);
}

// A lane width the batched engine does not take used to run the scalar
// path silently (width 3 ran every draw scalar, with ok:true).
TEST(EvalRequestJsonTest, UnsupportedBatchWidthIsRefused) {
  for (const char* cmd : {"datasheet", "monte_carlo", "corner_sweep"}) {
    SCOPED_TRACE(cmd);
    for (int width : {3, 5, 16}) {
      const std::string line = std::string(R"({"cmd":")") + cmd +
                               R"(","options":{"batch_width":)" +
                               std::to_string(width) + "}}";
      EXPECT_NE(request_error(line.c_str()).find("\"options.batch_width\""),
                std::string::npos)
          << line;
    }
    for (int width : {0, 1, 2, 4, 8}) {
      const std::string line = std::string(R"({"cmd":")") + cmd +
                               R"(","options":{"batch_width":)" +
                               std::to_string(width) + "}}";
      EXPECT_EQ(request_error(line.c_str()), "") << line;
    }
  }
}

// A known key of the wrong JSON type refuses the request with an error
// naming it: keeping the default would silently run a different request
// than the one sent (`"runs":"5"` would run the default run count).

TEST(EvalRequestJsonTest, NonNumberCountIsRefused) {
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo","options":{"runs":"5"}})")
                .find("\"options.runs\""),
            std::string::npos);
  EXPECT_NE(request_error(R"({"cmd":"datasheet","spec":{"slices":true}})")
                .find("\"spec.slices\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, NonNumberRealIsRefused) {
  EXPECT_NE(request_error(R"({"cmd":"datasheet","spec":{"fs":"4e8"}})")
                .find("\"spec.fs\""),
            std::string::npos);
  EXPECT_NE(request_error(R"({"cmd":"monte_carlo","options":{"fin":null}})")
                .find("\"options.fin\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, NonBooleanFlagIsRefused) {
  EXPECT_NE(request_error(
                R"({"cmd":"datasheet","spec":{"with_nonidealities":0}})")
                .find("\"spec.with_nonidealities\""),
            std::string::npos);
  EXPECT_NE(request_error(
                R"({"cmd":"synthesize","options":{"detailed_route":"no"}})")
                .find("\"options.detailed_route\""),
            std::string::npos);
  json::ParseResult pr = json::parse(
      R"({"cmd":"synthesize","spec":{"with_nonidealities":false},)"
      R"("options":{"detailed_route":false}})");
  ASSERT_TRUE(pr.ok) << pr.error;
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_FALSE(req.spec.with_nonidealities);
  EXPECT_FALSE(req.synthesis.detailed_route);
}

TEST(EvalRequestJsonTest, NonStringTopIsRefused) {
  EXPECT_NE(request_error(R"({"cmd":"gate_sim","options":{"top":7}})")
                .find("\"options.top\""),
            std::string::npos);
}

TEST(EvalRequestJsonTest, NonObjectPvtIsRefused) {
  EXPECT_NE(request_error(R"({"cmd":"datasheet","spec":{"pvt":[1.1]}})")
                .find("\"spec.pvt\""),
            std::string::npos);
  EXPECT_NE(request_error(
                R"({"cmd":"datasheet","spec":{"pvt":{"voltage":"1.1"}}})")
                .find("\"spec.pvt.voltage\""),
            std::string::npos);
}

TEST(EvalTest, HdlEmitAndGateSimKindsRoundTripThroughEvaluate) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;

  core::EvalRequest hdl;
  hdl.kind = core::EvalKind::kHdlEmit;
  hdl.spec = spec;
  const core::EvalResponse hresp = core::evaluate(hdl, ctx);
  ASSERT_TRUE(hresp.ok);
  ASSERT_NE(hresp.hdl, nullptr);
  const json::Value hj = core::eval_result_to_json(hresp);
  EXPECT_NE(hj.find("top"), nullptr);
  EXPECT_GT(hj.find("verilog_bytes")->number_or(0), 0.0);
  EXPECT_GT(hj.find("instances_compared")->number_or(0), 0.0);

  core::EvalRequest gate;
  gate.kind = core::EvalKind::kGateSim;
  gate.spec = spec;
  gate.gate_sim.sim.n_samples = 64;
  const core::EvalResponse gresp = core::evaluate(gate, ctx);
  ASSERT_TRUE(gresp.ok);
  ASSERT_NE(gresp.gate, nullptr);
  EXPECT_TRUE(gresp.gate->matches_behavioral);
  const json::Value gj = core::eval_result_to_json(gresp);
  EXPECT_TRUE(gj.find("comparator_ok")->bool_or(false));
  EXPECT_TRUE(gj.find("ring_ok")->bool_or(false));
  EXPECT_TRUE(gj.find("matches_behavioral")->bool_or(false));
  EXPECT_EQ(gj.find("n_samples")->number_or(0), 64.0);
}

TEST(EvalTest, GateLevelBackendGatesSpecDrivenKinds) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ArtifactCache cache(128);
  core::ExecContext ctx;
  ctx.cache = &cache;

  // A passing sign-off lets the driver run as usual.
  core::EvalRequest req;
  req.kind = core::EvalKind::kSynthesize;
  req.spec = spec;
  req.backend = core::SimBackend::kGateLevel;
  req.gate_sim.sim.n_samples = 64;
  const core::EvalResponse ok_resp = core::evaluate(req, ctx);
  ASSERT_TRUE(ok_resp.ok);
  ASSERT_NE(ok_resp.synthesis, nullptr);

  // A failing sign-off (unresolvable top) refuses the request before the
  // driver, with the refusal in the response diagnostics.
  core::EvalRequest bad = req;
  bad.gate_sim.top = "no_such_module";
  const core::EvalResponse bad_resp = core::evaluate(bad, ctx);
  EXPECT_FALSE(bad_resp.ok);
  EXPECT_EQ(bad_resp.synthesis, nullptr);
  bool named = false;
  for (const auto& d : bad_resp.diagnostics) {
    if (d.item == "no_such_module") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(EvalTest, InvalidSpecFailsWithRequestLocalDiagnostics) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.spec.num_slices = 1;  // rejected: pseudo-differential ring needs >= 2
  req.datasheet.n_samples = 1 << 12;

  core::ExecContext ctx;  // deliberately no sink: nothing to leak into
  const core::EvalResponse resp = core::evaluate(req, ctx);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.diagnostics.empty());

  bool found_error = false;
  for (const auto& d : resp.diagnostics) {
    if (d.severity == util::Severity::kError) found_error = true;
  }
  EXPECT_TRUE(found_error);
}

// The C++ API refuses a lane width Flow::sim_run_lanes() does not take, as
// the request parser refuses it on the wire: such a batch used to run at
// width 1 and answer ok.
TEST(EvalTest, UnsupportedBatchWidthFailsWithoutSimulating) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kMonteCarlo;
  req.spec = small_spec();
  req.spec.num_slices = 4;
  req.monte_carlo.sim.n_samples = 256;
  req.monte_carlo.runs = 3;
  req.monte_carlo.batch_width = 3;

  util::Trace trace;
  core::ExecContext ctx;
  ctx.trace = &trace;
  const core::EvalResponse resp = core::evaluate(req, ctx);
  EXPECT_FALSE(resp.ok);
  bool named = false;
  for (const auto& d : resp.diagnostics) {
    if (d.severity == util::Severity::kError && d.stage == "sim_run" &&
        d.item == "batch_width") {
      named = true;
    }
  }
  EXPECT_TRUE(named);
  // Every draw came back refused, and no run was simulated.
  ASSERT_EQ(resp.monte_carlo.sndr_db.size(), 3u);
  for (double s : resp.monte_carlo.sndr_db) EXPECT_TRUE(std::isnan(s));
  for (const auto& e : trace.events()) EXPECT_NE(e.name, "sim_run");
}

// A datasheet whose amplitude sweep is refused is incomplete: the response
// is not ok, and the one error names the refused width.
TEST(EvalTest, DatasheetWithRefusedSweepIsNotOk) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.spec.num_slices = 4;
  req.datasheet.n_samples = 1 << 10;
  req.datasheet.amp_sweep_points = 3;
  req.datasheet.batch_width = 3;

  core::ExecContext ctx;
  ctx.threads = 1;
  const core::EvalResponse resp = core::evaluate(req, ctx);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.datasheet.complete);
  int errors = 0;
  for (const auto& d : resp.diagnostics) {
    if (d.severity != util::Severity::kError) continue;
    ++errors;
    EXPECT_EQ(d.stage, "sim_run");
    EXPECT_EQ(d.item, "batch_width");
  }
  EXPECT_EQ(errors, 1);
}

TEST(EvalTest, DiagnosticsAreReEmittedIntoTheContextSink) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kMigrate;
  req.spec = small_spec();
  req.migrate_target_node_nm = 180;

  util::DiagSink sink;
  core::ExecContext ctx;
  ctx.diag = &sink;
  const core::EvalResponse resp = core::evaluate(req, ctx);
  ASSERT_TRUE(resp.ok);
  ASSERT_NE(resp.migrated, nullptr);
  EXPECT_NE(resp.migrated->target_lib, nullptr);
  // Everything in the response's diagnostics also reached the caller's
  // sink (the response is authoritative; the sink is a convenience).
  EXPECT_EQ(sink.size(), resp.diagnostics.size());
}

TEST(EvalTest, ResultJsonAndFingerprintAreStable) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kCornerSweep;
  req.spec = small_spec();
  req.corners.n_samples = 1 << 11;
  core::ExecContext ctx;

  const core::EvalResponse r1 = core::evaluate(req, ctx);
  const core::EvalResponse r2 = core::evaluate(req, ctx);
  ASSERT_TRUE(r1.ok);
  const json::Value j1 = core::eval_result_to_json(r1);
  const json::Value j2 = core::eval_result_to_json(r2);
  EXPECT_EQ(json::dump(j1), json::dump(j2));
  EXPECT_EQ(core::eval_result_fingerprint(j1),
            core::eval_result_fingerprint(j2));
  EXPECT_EQ(core::eval_result_fingerprint(j1).size(), 32u);  // 128-bit hex

  // A different result must fingerprint differently.
  core::EvalRequest other = req;
  other.spec.num_slices = 8;
  const core::EvalResponse r3 = core::evaluate(other, ctx);
  ASSERT_TRUE(r3.ok);
  EXPECT_NE(core::eval_result_fingerprint(core::eval_result_to_json(r3)),
            core::eval_result_fingerprint(j1));
}

}  // namespace
