// serve_bench: the serve-path benchmark binary (see README.md).
//
//   serve_bench --workload <design_sweep|mc_yield|store_restart>
//               --seed N --seconds S --trace 0|1
//               [--git-sha SHA] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up 5 times (median), then
// a closed loop of one client through core::make_eval_handler for S
// seconds (longer if one tail window has not completed by then). --trace 1
// measures the per-layer metrics: S/2 seconds untraced (exact cache/store
// counters, and the baseline for the tracing overhead), S/2 seconds traced
// (traced.cpp), then direct-call kernel rates. Every response is checked;
// the last stdout line is the result object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
  std::string work_dir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v);
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--work-dir") a->work_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

constexpr int kSetups = 5;

/// ExecContext::threads for every workload, clamped to the host's hardware
/// threads. On a 4-thread host shared with other load, mc_yield read +-20%
/// run to run at 4 workers and about 4% at 2 (see README.md).
constexpr int kThreads = 2;

/// Requests per tail window, rounded up to whole blocks of the workload.
/// mc_yield, the slowest workload, completes one such window in about 12 s.
constexpr std::size_t kTailRequests = 88;

/// Cache/store counters summed over every session a phase ran on.
struct Counters {
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t store_hits = 0, store_misses = 0;
  std::uint64_t bytes_read = 0, bytes_written = 0;
};

struct Snapshot {
  core::ArtifactCacheStats cache;
  core::ArtifactStoreStats store;
};

Snapshot snapshot(const Session& s) {
  Snapshot x;
  x.cache = s.cache->stats();
  if (s.store != nullptr) x.store = s.store->stats();
  return x;
}

void accumulate(const Snapshot& a, const Snapshot& b, Counters* c) {
  c->cache_hits += b.cache.hits - a.cache.hits;
  c->cache_misses += b.cache.misses - a.cache.misses;
  c->cache_evictions += b.cache.evictions - a.cache.evictions;
  c->store_hits += b.store.hits - a.store.hits;
  c->store_misses += b.store.misses - a.store.misses;
  c->bytes_read += b.store.bytes_read - a.store.bytes_read;
  c->bytes_written += b.store.bytes_written - a.store.bytes_written;
}

struct Phase {
  // Per request, in order: sequence index, latency, answered correctly,
  // draws answered.
  std::vector<std::size_t> index;
  std::vector<double> lat_s, good, draws_of;
  double wall_s = 0;
  std::size_t attempted = 0, ok = 0, failed = 0;
  Counters counters;
  std::vector<std::string> fps;  ///< the first kKeptFps fingerprints
  std::string first_failure;
  // Traced phases only: layer self times, the request wall no layer
  // accounts for, and MonteCarloResult::batch of every Monte-Carlo request.
  LayerMap layers;
  double glue_s = 0;
  std::vector<core::BatchStats> batches;
};

constexpr std::size_t kKeptFps = 16;

/// Closed loop, one client: the next request goes out when the previous
/// one has answered. Stops once `seconds` have passed and at least
/// `min_requests` have answered, or when the workload runs out of distinct
/// inputs. `traced` false = through the serve handler; true = run_traced.
/// A restart (a new serve process) is timed as part of the request it
/// precedes.
Phase run_phase(Workload& w, Session& s, std::size_t* next, double seconds,
                std::size_t min_requests, bool traced) {
  Phase p;
  Snapshot base = snapshot(s);
  const auto start = Clock::now();
  do {
    const std::size_t i = *next;
    const std::string line = w.line(i);
    if (line.empty()) break;
    const bool restart = w.restarts_before(i);
    if (restart) accumulate(base, snapshot(s), &p.counters);
    std::string response;
    TracedReply tr;
    const auto t0 = Clock::now();
    double open_s = 0;
    if (restart) {
      w.restart(s);
      open_s = seconds_between(t0, Clock::now());
      base = snapshot(s);
    }
    if (!traced) {
      response = s.handler(line);
    } else {
      tr = run_traced(line, s, &p.layers);
    }
    p.lat_s.push_back(seconds_between(t0, Clock::now()));
    p.index.push_back(i);
    ++*next;

    // Checking is the benchmark's work: it runs outside every timed
    // interval, and only fingerprints are kept.
    Reply r;
    if (!traced) {
      r = read_reply(response);
    } else {
      r.ok = tr.ok;
      r.fp = tr.fp;
      if (restart) {
        LayerTotals& t = p.layers["serve.open"];
        ++t.calls;
        t.self_s += open_s;
      }
      p.glue_s += p.lat_s.back() - open_s - tr.timed_s;
      p.batches.insert(p.batches.end(), tr.batches.begin(), tr.batches.end());
    }
    const std::string want = w.expected_fp(i);
    const bool good = r.ok && (want.empty() || r.fp == want);
    ++(good ? p.ok : p.failed);
    p.good.push_back(good ? 1 : 0);
    p.draws_of.push_back(good ? static_cast<double>(r.draws) : 0);
    if (!good && p.first_failure.empty()) {
      p.first_failure = line + " -> " + response;
    }
    if (p.fps.size() < kKeptFps) p.fps.push_back(r.fp);
  } while (seconds_between(start, Clock::now()) < seconds ||
           p.lat_s.size() < min_requests);
  p.wall_s = seconds_between(start, Clock::now());
  accumulate(base, snapshot(s), &p.counters);
  p.attempted = p.lat_s.size();
  return p;
}

/// Positions (into the phase's vectors) of every complete window of `len`
/// consecutive requests whose first sequence index is a multiple of `len`.
/// With `len` a multiple of the workload's block, every window holds the
/// same mix of work. Statistics are medians over windows, so a burst of
/// host noise moves one window, not the run.
std::vector<std::pair<std::size_t, std::size_t>> windows(const Phase& p,
                                                         std::size_t len) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t k = 0; k + len <= p.index.size(); ++k) {
    if (p.index[k] % len == 0) out.emplace_back(k, k + len);
  }
  return out;
}

/// Rate of `count` per second of request wall time (the client is closed
/// loop, so that is the service's wall time), per window of one block.
double block_rate(const Phase& p, const std::vector<double>& count,
                  std::size_t block) {
  std::vector<double> rates;
  for (const auto& [a, b] : windows(p, block)) {
    double n = 0, secs = 0;
    for (std::size_t j = a; j < b; ++j) {
      n += count[j];
      secs += p.lat_s[j];
    }
    rates.push_back(n / secs);
  }
  return median(rates);
}

/// Fresh ≡ served: re-evaluates the first requests of the timed sequence
/// on a fresh cache, no store, one thread. Returns the mismatches.
std::size_t recheck(Workload& w, const Phase& p, std::string* why) {
  const std::size_t n = std::min(w.recheck_count(), p.fps.size());
  if (n == 0) return 0;
  Session fresh = open_session(1, "");
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Reply r = read_reply(fresh.handler(w.line(i)));
    if (!r.ok || r.fp != p.fps[i]) {
      ++bad;
      if (why->empty()) *why = "fresh re-run differs: " + w.line(i);
    }
  }
  return bad;
}

std::size_t tail_window(const Workload& w) {
  return w.block() * ((kTailRequests + w.block() - 1) / w.block());
}

/// The tail: the highest percentile with at least ten samples beyond it
/// (the 11th-largest latency) of a fixed-length window of requests, median
/// over the complete windows. The window length is fixed per workload, so
/// the percentile does not move with throughput.
struct Tail {
  double value_s = 0;
  double percentile = 0;
  std::size_t samples = 0;  ///< per window
  std::size_t windows = 0;
};

Tail tail_of(const Phase& p, std::size_t len) {
  Tail t;
  t.samples = len;
  t.percentile = 100.0 * static_cast<double>(len - 10) /
                 static_cast<double>(len);
  std::vector<double> values;
  for (const auto& [a, b] : windows(p, len)) {
    std::vector<double> v(p.lat_s.begin() + static_cast<std::ptrdiff_t>(a),
                          p.lat_s.begin() + static_cast<std::ptrdiff_t>(b));
    std::sort(v.begin(), v.end());
    values.push_back(v[v.size() - 11]);
    ++t.windows;
  }
  t.value_s = median(values);
  return t;
}

std::string digest(const std::vector<std::string>& fps) {
  core::KeyHasher h;
  h.tag("perfbench_result_digest");
  for (std::size_t i = 0; i < std::min<std::size_t>(fps.size(), 16); ++i) {
    h.str(fps[i]);
  }
  return h.digest().hex();
}

double dir_mb(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return static_cast<double>(bytes) / 1e6;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metric vocabulary (--trace 1). Span-derived <layer>_ms metrics
// are self time per traced request; 0 when the workload never calls the
// layer.
constexpr const char* kSpanMetrics[] = {
    "serve.parse",    "serve.evaluate",     "serve.render",
    "flow.tech_library", "flow.netlist",    "flow.floorplan",
    "flow.placement", "flow.route",         "flow.sim_run",
    "flow.sim_run_batch", "flow.hdl_emit",  "flow.gate_sim",
    "flow.migrate",   "synth.sta",          "synth.power_grid",
};

constexpr Metric kLayerMetrics[] = {
    {"serve.trace_overhead_pct", "%"},
    {"trace.layer_share_pct", "%"},
    {"trace.requests", "count"},
    {"msim.scalar_clocks_per_s", "1/s"},
    {"msim.batched_lane_clocks_per_s", "1/s"},
    {"msim.batched_lane_clocks_per_s.w2", "1/s"},
    {"msim.batched_lane_clocks_per_s.w4", "1/s"},
    {"msim.batched_lane_clocks_per_s.w8", "1/s"},
    {"msim.batched_width", "count"},
    {"msim.batched_speedup", "ratio"},
    {"dsp.spectrum_ms", "ms"},
    {"dsp.fft_msamples_per_s", "Msamples/s"},
    {"netlist.gate_events_per_s", "1/s"},
    {"batch.utilization", "ratio"},
    {"batch.effective_parallelism", "workers"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.resident_mb", "MB"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.bytes_read_mb", "MB"},
    {"store.bytes_written_mb", "MB"},
    {"store.size_mb", "MB"},
    {"store.load_ms", "ms"},
    {"store.decode_ms", "ms"},
    {"store.encode_ms", "ms"},
    {"store.save_ms", "ms"},
    {"store.record_set_kb", "kB"},
};

struct Output {
  json::Value metrics = json::Value::make_object();
  void add(const std::string& name, double value, const char* unit) {
    json::Value m = json::Value::make_object();
    m.set("value", json::Value::make_number(value));
    m.set("unit", json::Value::make_string(unit));
    metrics.set(name, std::move(m));
    std::printf("  %-36s %.6g %s\n", name.c_str(), value, unit);
  }
};

/// Counts a store miss after priming as a failure on workloads that must
/// answer from the store.
void check_store(const Workload& w, const Phase& p, std::size_t* failed,
                 std::string* why) {
  if (w.must_hit_store() && p.counters.store_misses != 0) {
    ++*failed;
    *why = "store misses after priming: " +
           std::to_string(p.counters.store_misses);
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

int run(const Args& args) {
  WorkloadConfig cfg;
  cfg.seed = args.seed;
  cfg.threads = std::min(
      kThreads,
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  cfg.work_dir = args.work_dir;
  std::unique_ptr<Workload> w = make_workload(args.workload, cfg);
  if (w == nullptr) {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::printf("perfbench host %s\n",
              host_fingerprint_json(cfg.threads, args.git_sha).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%d setups=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, cfg.threads, kSetups);

  // Set-up several times from nothing; the last session is the one timed.
  std::vector<double> setup_s;
  Session s;
  for (int k = 0; k < kSetups; ++k) {
    s = Session{};
    const auto t0 = Clock::now();
    s = w->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::size_t next = 0;
  const std::size_t tail_len = tail_window(*w);
  Phase untraced =
      args.trace ? run_phase(*w, s, &next, args.seconds / 2, 1, false)
                 : run_phase(*w, s, &next, args.seconds, tail_len, false);
  const double store_mb = s.store != nullptr ? dir_mb(s.store->dir()) : 0;
  const double resident_mb = static_cast<double>(s.cache->stats().bytes) / 1e6;

  std::string why = untraced.first_failure;
  std::size_t failed = untraced.failed;
  std::size_t attempted = untraced.attempted;
  check_store(*w, untraced, &failed, &why);

  Output out;
  if (args.trace == 0) {
    std::printf("end-to-end (%zu requests, %.3f s wall):\n",
                untraced.attempted, untraced.wall_s);
    const Tail tail = tail_of(untraced, tail_len);
    out.add("setup_s", median(setup_s), "s");
    out.add("req_per_s", block_rate(untraced, untraced.good, w->block()),
            "1/s");
    std::printf("    rates: median over %zu windows of %zu requests\n",
                windows(untraced, w->block()).size(), w->block());
    out.add("lat_p50_ms", median(untraced.lat_s) * 1e3, "ms");
    out.add("lat_tail_ms", tail.value_s * 1e3, "ms");
    std::printf("    lat_tail is p%.2f (10 of %zu samples beyond it), median "
                "over %zu windows\n",
                tail.percentile, tail.samples, tail.windows);
    out.add("mc_draws_per_s",
            block_rate(untraced, untraced.draws_of, w->block()), "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("  fail_ratio %zu/%zu, store %.3f MB after the run\n",
                untraced.failed, untraced.attempted, store_mb);
  } else {
    Phase traced = run_phase(*w, s, &next, args.seconds / 2, 1, true);
    attempted += traced.attempted;
    failed += traced.failed;
    if (why.empty()) why = traced.first_failure;
    check_store(*w, traced, &failed, &why);

    double request_wall = 0;
    for (double x : traced.lat_s) request_wall += x;
    const double n = static_cast<double>(traced.attempted);
    std::printf("layer self times (%zu traced requests, %.3f s of request "
                "wall; shares can sum past 100%% where work runs in "
                "parallel):\n",
                traced.attempted, request_wall);
    for (const auto& [name, t] : traced.layers) {
      std::printf("  %-22s %7llu calls %10.4f ms/request %6.2f%% of wall\n",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.self_s * 1e3 / n, 100.0 * t.self_s / request_wall);
    }
    std::printf("  %-22s %7s       %10.4f ms/request %6.2f%% of wall\n",
                "(benchmark glue)", "", traced.glue_s * 1e3 / n,
                100.0 * traced.glue_s / request_wall);

    std::map<std::string, double> m;
    if (!measure_kernels(s, w->sim_samples(), args.work_dir, &m)) {
      ++failed;
      if (why.empty()) why = "kernel self-check failed";
    }
    std::printf("per-layer:\n");
    for (const char* name : kSpanMetrics) {
      const auto it = traced.layers.find(name);
      out.add(std::string(name) + "_ms",
              it == traced.layers.end() ? 0.0 : it->second.self_s * 1e3 / n,
              "ms");
    }
    const double mean_untraced = mean(untraced.lat_s);
    m["serve.trace_overhead_pct"] =
        mean_untraced > 0 ? 100.0 * (mean(traced.lat_s) / mean_untraced - 1)
                          : 0;
    m["trace.layer_share_pct"] = 100.0 * (1 - traced.glue_s / request_wall);
    m["trace.requests"] = n;
    std::vector<double> util, par;
    for (const core::BatchStats& b : traced.batches) {
      util.push_back(b.utilization);
      par.push_back(b.effective_parallelism());
    }
    m["batch.utilization"] = mean(util);
    m["batch.effective_parallelism"] = mean(par);
    const Counters& c = untraced.counters;
    m["cache.hits"] = static_cast<double>(c.cache_hits);
    m["cache.misses"] = static_cast<double>(c.cache_misses);
    m["cache.hit_ratio"] =
        c.cache_hits + c.cache_misses
            ? static_cast<double>(c.cache_hits) /
                  static_cast<double>(c.cache_hits + c.cache_misses)
            : 0;
    m["cache.evictions"] = static_cast<double>(c.cache_evictions);
    m["cache.resident_mb"] = resident_mb;
    m["store.hits"] = static_cast<double>(c.store_hits);
    m["store.misses"] = static_cast<double>(c.store_misses);
    m["store.bytes_read_mb"] = static_cast<double>(c.bytes_read) / 1e6;
    m["store.bytes_written_mb"] = static_cast<double>(c.bytes_written) / 1e6;
    m["store.size_mb"] = store_mb;
    for (const Metric& lm : kLayerMetrics) out.add(lm.name, m[lm.name], lm.unit);
  }

  std::string recheck_why;
  failed += recheck(*w, untraced, &recheck_why);
  if (why.empty()) why = recheck_why;
  const bool correct = failed == 0;
  std::printf("result_digest %s (first %zu fingerprints, seed %llu)\n",
              digest(untraced.fps).c_str(),
              std::min<std::size_t>(untraced.fps.size(), 16),
              static_cast<unsigned long long>(args.seed));
  if (!correct) std::printf("INCORRECT: %s\n", why.c_str());

  s = Session{};
  w.reset();
  std::filesystem::remove_all(args.work_dir);

  json::Value result = json::Value::make_object();
  result.set("correct", json::Value::make_bool(correct));
  result.set("attempted",
             json::Value::make_number(static_cast<double>(attempted)));
  result.set("failed", json::Value::make_number(static_cast<double>(failed)));
  result.set("metrics", std::move(out.metrics));
  std::printf("%s\n", json::dump(result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
