// vcoadc_cli: command-line front end of the generator.
//
//   vcoadc_cli <command> [options]
//
//   commands:
//     simulate     behavioral run: SNDR/ENOB/power/FOM for a spec
//     synthesize   layout synthesis: area/DRC/routing, writes artifacts
//     datasheet    full-flow datasheet (--amp-sweep adds the SNDR-vs-level
//                  curve, batched through the SIMD engine)
//     montecarlo   mismatch Monte Carlo: SNDR distribution over --runs draws
//     corners      PVT corner sweep: SNDR/power at the canonical six corners
//     export       write verilog/spice/lef/liberty/gds/fp artifacts
//     emit-verilog emitted-HDL flow stage: render the netlist to Verilog,
//                  re-parse it, assert structural equivalence, write the
//                  sign-off text (the artifact of record) to --out
//     gatesim      gate-level sign-off: event-driven simulation of the
//                  re-parsed emitted HDL (comparator truth table, ring
//                  period, slice replay) cross-checked bit-for-bit against
//                  the behavioral engine through the shared digital backend
//     serve        long-running evaluation service: newline-delimited JSON
//                  requests on stdin, one JSON response per line on stdout
//                  (spec flags are ignored; each request carries its own);
//                  with --listen it serves many concurrent socket clients
//                  from the same warm context instead of stdin
//     client       connects to a serving process (--connect=<endpoint>),
//                  forwards NDJSON requests from stdin and prints the
//                  responses — the scriptable counterpart of --listen
//
//   options (all commands):
//     --node=40         technology node [nm]
//     --slices=16       number of slices
//     --fs=750e6        modulator clock [Hz]
//     --bw=5e6          signal bandwidth [Hz]
//     --samples=16384   capture length for simulate/datasheet/montecarlo/
//                       corners
//     --runs=20         Monte-Carlo draw count (montecarlo)
//     --seed0=1000      seed of draw 0; draw i uses seed0 + i (montecarlo)
//     --batch-width=0   SIMD lane width for the batched transient engine
//                       (montecarlo/corners/datasheet): 0 = host-preferred,
//                       1 = scalar, 2/4/8 = forced width, anything else is
//                       refused; results are bit-identical at every setting
//     --amp-sweep=0     SNDR-vs-amplitude sweep points (datasheet); 0 = off
//     --top=<name>      top module for gatesim (default: the emitted top)
//     --ring-tol=0.25   relative ring-period tolerance vs the stage-delay
//                       prediction (gatesim)
//     --out=.           artifact output directory
//     --threads=0       threads per fan-out, this one included (0 =
//                       hardware concurrency; never more than that; a
//                       negative value is refused)
//     --store=<dir>     persistent artifact store: stages load cached
//                       artifacts written by earlier processes and save
//                       their own (serve shares one store across requests)
//     --store-max-bytes=<n>  size bound for --store: LRU garbage
//                       collection over record mtimes keeps the directory
//                       at or below n bytes (one-shot commands gc after
//                       the run; serve gc's after any request that wrote)
//     --listen=<ep>     serve transport: tcp:<port> (loopback) or a unix
//                       socket path; many concurrent clients multiplex
//                       onto the one warm context. SIGINT/SIGTERM drain
//                       in-flight requests and shut down cleanly
//     --connect=<ep>    client: endpoint of a serving process
//     --trace[=json]    print per-stage timing after the run (tree or JSONL;
//                       serve embeds a "trace" array per response, json only)
//     --cache-stats     print artifact-cache counters after the run (serve
//                       embeds a per-request "cache" delta object)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "core/adc.h"
#include "core/artifact_store.h"
#include "core/eval.h"
#include "core/flow.h"
#include "core/serve_loop.h"
#include "netlist/lef.h"
#include "netlist/liberty.h"
#include "netlist/spice.h"
#include "netlist/verilog_writer.h"
#include "synth/gdsii.h"
#include "util/cli.h"
#include "util/net.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/units.h"

using namespace vcoadc;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <simulate|synthesize|datasheet|montecarlo|corners|"
               "export|emit-verilog|gatesim|serve|client> "
               "[--node=40] [--slices=16] [--fs=750e6] [--bw=5e6] "
               "[--samples=16384] [--runs=20] [--seed0=1000] "
               "[--batch-width=0] [--amp-sweep=0] [--top=<module>] "
               "[--ring-tol=0.25] [--out=.] [--threads=0] "
               "[--store=<dir>] [--store-max-bytes=<n>] "
               "[--listen=<tcp:port|unix-path>] [--connect=<endpoint>] "
               "[--trace[=json]] [--cache-stats]\n",
               prog);
  return 2;
}

/// Structured-diagnostics epilogue: renders everything the flow collected
/// ("[severity] stage item: reason" per line) and returns the exit code.
int fail_with_diags(const util::DiagSink& sink) {
  std::fprintf(stderr, "error: flow rejected the input\n%s",
               sink.render().c_str());
  return 1;
}

/// Writes one output file; false, with an error naming the path, when it
/// cannot be created or fully written. Every file a command writes goes
/// through here, so a command that could not write exits 1.
bool write_output(const std::string& path, std::string_view bytes) {
  std::ofstream f(path, std::ios::binary);
  if (f) f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  if (!f) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return static_cast<bool>(f);
}

/// --trace / --cache-stats epilogue, shared by every command. `store` is
/// null when --store was not given.
void print_flow_stats(const util::ArgParser& args, const util::Trace& trace,
                      const core::ArtifactCache& cache,
                      const core::ArtifactStore* store) {
  if (args.has("trace")) {
    if (args.get("trace") == "json") {
      std::printf("%s", trace.render_jsonl().c_str());
    } else {
      std::printf("-- stage trace --\n%s", trace.render_tree().c_str());
    }
  }
  if (args.has("cache-stats")) {
    std::printf("-- simd --\n  %s\n",
                util::simd::runtime_summary().c_str());
    const core::ArtifactCacheStats st = cache.stats();
    std::printf(
        "-- artifact cache --\n"
        "  hits %llu | misses %llu | hit rate %.1f%% | evictions %llu\n"
        "  resident %zu entries, %.1f KiB of codec payload\n",
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses), st.hit_rate() * 100.0,
        static_cast<unsigned long long>(st.evictions), st.entries,
        static_cast<double>(st.bytes) / 1024.0);
    if (store != nullptr) {
      const core::ArtifactStoreStats ss = store->stats();
      std::printf(
          "-- artifact store --\n"
          "  hits %llu | misses %llu (absent %llu, corrupt %llu, "
          "version skew %llu)\n"
          "  writes %llu (%llu failed) | read %.1f KiB | wrote %.1f KiB\n"
          "  gc: evictions %llu | reclaimed %.1f KiB | tmp swept %llu\n",
          static_cast<unsigned long long>(ss.hits),
          static_cast<unsigned long long>(ss.misses),
          static_cast<unsigned long long>(ss.absent),
          static_cast<unsigned long long>(ss.corrupt),
          static_cast<unsigned long long>(ss.version_skew),
          static_cast<unsigned long long>(ss.writes),
          static_cast<unsigned long long>(ss.write_failures),
          static_cast<double>(ss.bytes_read) / 1024.0,
          static_cast<double>(ss.bytes_written) / 1024.0,
          static_cast<unsigned long long>(ss.evictions),
          static_cast<double>(ss.gc_bytes_reclaimed) / 1024.0,
          static_cast<unsigned long long>(ss.tmp_swept));
    }
  }
}

/// The evaluation service: NDJSON requests in, one response line each out
/// (nothing else is ever written to the response stream — it stays
/// machine-parseable). One warm ExecContext is shared by every request, so
/// repeated specs hit the in-process cache; with --store the stage
/// artifacts also persist across serve processes. Transports (see
/// core/serve_loop.h for the shared dispatch path):
///   default   — stdin/stdout, one client (the original mode);
///   --listen  — tcp:<port> or a unix socket path, many concurrent
///               clients, per-connection request ordering preserved,
///               SIGINT/SIGTERM drain in-flight requests and exit.
int run_serve(const util::ArgParser& args, core::ExecContext ctx,
              std::uint64_t store_max_bytes) {
  util::net::ignore_sigpipe();  // a dead client must fail a write, not us
  core::ArtifactCache cache(512);
  ctx.cache = &cache;
  core::EvalServeOptions eopts;
  eopts.cache_stats = args.has("cache-stats");
  eopts.trace = args.has("trace") && args.get("trace") == "json";
  eopts.store_max_bytes = store_max_bytes;
  const core::ServeHandler handler = core::make_eval_handler(ctx, eopts);

  if (args.has("listen")) {
    const util::net::Endpoint ep = util::net::parse_endpoint(
        args.get("listen"));
    std::string err;
    util::net::Listener listener = util::net::Listener::listen(ep, &err);
    if (!listener.valid()) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                   args.get("listen").c_str(), err.c_str());
      return 1;
    }
    core::SocketServeOptions sopts;
    sopts.stop = core::install_shutdown_signal_handlers();
    std::fprintf(stderr, "serving on %s\n",
                 ep.is_tcp ? util::format("tcp:127.0.0.1:%d",
                                          listener.port()).c_str()
                           : ep.unix_path.c_str());
    const core::ServeResult res = core::serve_socket(listener, handler,
                                                     sopts);
    std::fprintf(stderr,
                 "served %llu requests over %llu connections "
                 "(%llu dropped)\n",
                 static_cast<unsigned long long>(res.stats.requests),
                 static_cast<unsigned long long>(
                     res.stats.connections_accepted),
                 static_cast<unsigned long long>(
                     res.stats.connections_dropped));
    if (!res.clean) {
      std::fprintf(stderr, "error: %s\n", res.error.c_str());
      return 1;
    }
    return 0;
  }

  const core::ServeResult res = core::serve_stdio(stdin, stdout, handler);
  if (!res.clean) {
    // The reader of our stdout went away (closed pipe): responses can no
    // longer be delivered, so exit cleanly with a diagnostic instead of
    // evaluating into the void or dying on SIGPIPE.
    std::fprintf(stderr, "error: serve stopped: %s\n", res.error.c_str());
    return 1;
  }
  return 0;
}

/// Scriptable socket client: forwards NDJSON request lines from stdin to
/// a serving process and prints each response line to stdout. One request
/// in flight at a time, so responses print in request order.
int run_client(const util::ArgParser& args) {
  util::net::ignore_sigpipe();
  const util::net::Endpoint ep = util::net::parse_endpoint(
      args.get("connect"));
  std::string err;
  util::net::Connection conn = util::net::dial(ep, &err);
  if (!conn.valid()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!conn.write_line(line)) {
      std::fprintf(stderr, "error: request write failed (server gone?)\n");
      return 1;
    }
    std::string resp;
    if (conn.read_line(&resp) != util::net::Connection::ReadStatus::kLine) {
      std::fprintf(stderr, "error: connection closed before a response\n");
      return 1;
    }
    std::printf("%s\n", resp.c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// The whole command; main() turns a malformed numeric flag (ArgError)
/// into exit 2.
int run(const util::ArgParser& args) {
  const auto unknown = args.unknown_flags({"node", "slices", "fs", "bw",
                                           "samples", "runs", "seed0",
                                           "batch-width", "amp-sweep", "top",
                                           "ring-tol", "out", "threads",
                                           "store", "store-max-bytes",
                                           "listen", "connect", "trace",
                                           "cache-stats"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: %s\n", unknown[0].c_str());
    return usage(args.program().c_str());
  }
  if (args.positional().size() != 1) return usage(args.program().c_str());
  const std::string cmd = args.positional()[0];

  // client is pure transport — no spec, no flow, no store of its own.
  if (cmd == "client") return run_client(args);

  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.node_nm = args.get_double("node", 40);
  spec.num_slices = args.get_int("slices", 16);
  spec.fs_hz = args.get_double("fs", 750e6);
  spec.bandwidth_hz = args.get_double("bw", 5e6);
  const long long samples_arg = args.get_int("samples", 16384);
  const auto n_samples = samples_arg > 0
                             ? static_cast<std::size_t>(samples_arg)
                             : std::size_t{0};
  // Every other number is read here too, before any work starts.
  const int runs = args.get_int("runs", 20);
  const std::uint64_t seed0 = args.get_u64("seed0", 1000);
  const int batch_width = args.get_int("batch-width", 0);
  if (!core::batch_width_valid(batch_width)) {
    throw util::ArgError("--batch-width=" + args.get("batch-width", "") +
                         " is not 0, 1, 2, 4 or 8");
  }
  const int threads = args.get_int("threads", 0);
  if (threads < 0) {
    throw util::ArgError("--threads=" + args.get("threads", "") +
                         " is negative (0 = one per hardware thread)");
  }
  const int amp_sweep = args.get_int("amp-sweep", 0);
  const double ring_tol = args.get_double("ring-tol", 0.25);
  const std::uint64_t store_max_bytes = args.get_u64("store-max-bytes", 0);
  const std::string out_dir = args.get("out", ".");

  util::Trace trace;
  util::DiagSink diags;
  core::ExecContext ctx;
  ctx.threads = threads;
  ctx.diag = &diags;
  if (args.has("trace")) ctx.trace = &trace;
  std::optional<core::ArtifactStore> store;
  // Scope-exit GC: with --store-max-bytes, one-shot commands bound the
  // store directory after their run (serve additionally gc's inline after
  // any request that wrote, so a long-lived server never drifts over).
  struct StoreGcGuard {
    core::ArtifactStore* store = nullptr;
    std::uint64_t max_bytes = 0;
    ~StoreGcGuard() {
      if (store != nullptr && max_bytes > 0) store->gc(max_bytes);
    }
  } gc_guard;
  gc_guard.max_bytes = store_max_bytes;
  if (args.has("store")) {
    store.emplace(args.get("store", "."));
    if (!store->ok()) {
      std::fprintf(stderr, "error: cannot open artifact store at %s\n",
                   store->dir().c_str());
      return 1;
    }
    ctx.store = &*store;
    gc_guard.store = &*store;
  }

  // serve ignores the spec flags (each request carries its own spec), so it
  // dispatches before spec validation and before anything prints to stdout.
  if (cmd == "serve") return run_serve(args, ctx, store_max_bytes);

  core::Flow flow(ctx);

  // Boundary validation up front, rendered as structured diagnostics:
  //   $ vcoadc_cli simulate --node=40 --slices=1 --fs=0
  //   error: flow rejected the input
  //   [error] spec: num_slices must be >= 2 (pseudo-differential ring)
  //   [error] spec: fs must be positive
  {
    const auto spec_diags = core::validate_spec(spec);
    core::SimulationOptions probe;
    probe.n_samples = n_samples;
    auto opt_diags = core::validate_sim_options(probe);
    diags.add_all(spec_diags);
    for (const auto& d : opt_diags) {
      if (d.item == "n_samples") diags.add(d);  // the only CLI-settable knob
    }
    if (diags.has_errors()) return fail_with_diags(diags);
  }
  std::printf("spec: %s\n", spec.describe().c_str());

  if (cmd == "simulate") {
    core::SimulationOptions opts;
    opts.n_samples = n_samples;
    opts.fin_target_hz = spec.bandwidth_hz / 5.0;
    const auto res = flow.sim_run(spec, opts);
    if (res == nullptr) return fail_with_diags(diags);
    std::printf("SNDR %.1f dB | ENOB %.2f | power %s | FOM %.0f fJ/conv\n",
                res->sndr.sndr_db, res->sndr.enob,
                util::si_format(res->power.total_w(), "W").c_str(),
                res->fom_fj);
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "synthesize") {
    const auto res = flow.synthesis(spec);
    if (res == nullptr || res->layout == nullptr) {
      return fail_with_diags(diags);
    }
    std::printf("area %.4f mm^2 | DRC %zu | routed %.0f um, %d vias, "
                "%d overflow | HPWL %.0f um\n",
                res->stats.die_area_m2 * 1e6, res->drc.violations.size(),
                res->detailed_routing.total_wirelength_m * 1e6,
                res->detailed_routing.total_vias,
                res->detailed_routing.overflowed_edges,
                res->routing.total_hpwl_m * 1e6);
    if (!write_output(out_dir + "/adc.fp", res->floorplan_spec) ||
        !write_output(out_dir + "/adc_layout.txt",
                      res->layout->render_ascii(100))) {
      return 1;
    }
    std::printf("wrote %s/adc.fp, %s/adc_layout.txt\n", out_dir.c_str(),
                out_dir.c_str());
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "datasheet") {
    core::EvalRequest req;
    req.kind = core::EvalKind::kDatasheet;
    req.spec = spec;
    req.datasheet.n_samples = n_samples;
    req.datasheet.amp_sweep_points = amp_sweep;
    req.datasheet.batch_width = batch_width;
    const core::EvalResponse resp = core::evaluate(req, ctx);
    if (!resp.ok) return fail_with_diags(diags);
    std::printf("%s", resp.datasheet.render().c_str());
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "montecarlo") {
    // evaluate(kMonteCarlo) is the entry point serve requests take, so
    // the CLI and the wire protocol cannot drift.
    core::EvalRequest req;
    req.kind = core::EvalKind::kMonteCarlo;
    req.spec = spec;
    req.monte_carlo.runs = runs;
    req.monte_carlo.sim.n_samples = n_samples;
    req.monte_carlo.sim.fin_target_hz = spec.bandwidth_hz / 5.0;
    req.monte_carlo.seed0 = seed0;
    req.monte_carlo.batch_width = batch_width;
    const core::MonteCarloResult mc = core::evaluate(req, ctx).monte_carlo;
    if (mc.sndr_db.empty() || diags.has_errors()) {
      return fail_with_diags(diags);
    }
    std::printf("MC SNDR over %zu draws: mean %.1f dB | sigma %.2f | "
                "min %.1f | max %.1f\n",
                mc.sndr_db.size(), mc.mean_db, mc.stddev_db, mc.min_db,
                mc.max_db);
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "corners") {
    core::EvalRequest req;
    req.kind = core::EvalKind::kCornerSweep;
    req.spec = spec;
    req.corners.n_samples = n_samples;
    req.corners.batch_width = batch_width;
    const core::EvalResponse resp = core::evaluate(req, ctx);
    if (!resp.ok) return fail_with_diags(diags);
    for (const core::CornerResult& c : resp.corners) {
      std::printf("%-18s SNDR %.1f dB | power %s\n", c.name.c_str(),
                  c.sndr_db, util::si_format(c.power_w, "W").c_str());
    }
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "emit-verilog") {
    const auto hdl = flow.hdl_emit(spec);
    if (hdl == nullptr) return fail_with_diags(diags);
    if (!write_output(out_dir + "/adc_top.v", hdl->verilog)) return 1;
    std::printf("emitted %s: %zu bytes, %zu modules, %d instances verified "
                "equivalent to the generated netlist\n",
                hdl->top.c_str(), hdl->verilog.size(),
                hdl->parsed != nullptr ? hdl->parsed->modules().size()
                                       : std::size_t{0},
                hdl->instances_compared);
    std::printf("wrote %s/adc_top.v (sign-off text, the artifact of "
                "record)\n", out_dir.c_str());
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "gatesim") {
    core::GateSimOptions gopts;
    if (args.has("samples")) gopts.sim.n_samples = n_samples;
    gopts.sim.fin_target_hz = spec.bandwidth_hz / 5.0;
    gopts.ring_period_tol = ring_tol;
    gopts.top = args.get("top", "");
    const auto gate = flow.gate_sim(spec, gopts);
    if (gate == nullptr) return fail_with_diags(diags);
    std::printf("comparator truth table: %s | ring period %.1f ps "
                "(predicted %.1f ps): %s\n",
                gate->comparator_ok ? "pass" : "FAIL",
                gate->ring_period_s * 1e12, gate->ring_period_pred_s * 1e12,
                gate->ring_ok ? "pass" : "FAIL");
    std::printf("replayed %zu samples x %d slices (%llu gate events) | "
                "decoded+decimated vs behavioral: %s\n",
                gate->n_samples, gate->num_slices,
                static_cast<unsigned long long>(gate->transitions),
                gate->matches_behavioral ? "bit-identical" : "DIVERGED");
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  if (cmd == "export") {
    core::AdcDesign adc(spec, ctx);
    if (!adc.ok()) return fail_with_diags(diags);
    const tech::TechNode node = spec.tech_node();
    if (!write_output(out_dir + "/adc_top.v",
                      netlist::write_verilog(adc.netlist())) ||
        !write_output(out_dir + "/adc_top.sp",
                      netlist::write_spice(adc.netlist(), node)) ||
        !write_output(out_dir + "/stdcells.lef",
                      netlist::write_lef(adc.library())) ||
        !write_output(out_dir + "/stdcells.lib",
                      netlist::write_liberty(adc.library(), node))) {
      return 1;
    }
    const auto synth_res = flow.synthesis(spec);
    if (synth_res == nullptr || synth_res->layout == nullptr) {
      return fail_with_diags(diags);
    }
    const auto gds = synth::write_gdsii(*synth_res->layout, "vcoadc");
    if (!write_output(out_dir + "/adc.fp", synth_res->floorplan_spec) ||
        !write_output(out_dir + "/adc_top.gds",
                      std::string_view(
                          reinterpret_cast<const char*>(gds.data()),
                          gds.size()))) {
      return 1;
    }
    std::printf("wrote adc_top.v adc_top.sp stdcells.lef stdcells.lib "
                "adc.fp adc_top.gds under %s\n", out_dir.c_str());
    print_flow_stats(args, trace, *ctx.cache, ctx.store);
    return 0;
  }
  return usage(args.program().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::ArgParser(argc, argv));
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
