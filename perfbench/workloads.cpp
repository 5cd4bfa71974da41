// The three serve-path workloads and their seeded request generators.
//
//   design_sweep  cold design-space exploration: every request is a spec
//                 never seen before (distinct node x slices x dac_fragments,
//                 so every stage misses), with an empty store attached.
//   mc_yield      Monte-Carlo yield campaign on the two paper specs; every
//                 draw is cold, the netlist and layout are built in set-up.
//   store_restart every request kind plus a batch envelope; each pass opens
//                 a fresh cache over a store populated in set-up, like a new
//                 `serve --store` process.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "core/adc_spec.h"
#include "core/flow.h"
#include "tech/tech_node.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;
using vcoadc::util::Rng;

Session open_session(int threads, const std::string& store_dir) {
  Session s;
  // The serve CLI's cache bound (default_artifact_cache holds 512 entries).
  s.cache = std::make_unique<core::ArtifactCache>(512);
  if (!store_dir.empty()) {
    s.store = std::make_unique<core::ArtifactStore>(store_dir);
  }
  s.ctx.threads = threads;
  s.ctx.cache = s.cache.get();
  s.ctx.store = s.store.get();
  s.handler = core::make_eval_handler(s.ctx, core::EvalServeOptions{});
  return s;
}

namespace {

std::uint64_t count_draws(const json::Value& resp) {
  const json::Value* cmd = resp.find("cmd");
  const json::Value* result = resp.find("result");
  if (cmd == nullptr || !cmd->is_string() || result == nullptr) return 0;
  if (cmd->string == "monte_carlo") {
    if (const json::Value* runs = result->find("runs")) {
      return static_cast<std::uint64_t>(runs->number_or(0));
    }
  } else if (cmd->string == "corner_sweep") {
    if (const json::Value* c = result->find("corners"); c && c->is_array()) {
      return c->array.size();
    }
  }
  return 0;
}

}  // namespace

Reply read_reply(const std::string& response) {
  Reply r;
  json::ParseResult pr = json::parse(response);
  if (!pr.ok) return r;
  const json::Value& v = pr.value;
  if (const json::Value* ok = v.find("ok")) r.ok = ok->bool_or(false);
  if (const json::Value* fp = v.find("result_fp"); fp && fp->is_string()) {
    r.fp = fp->string;
    r.draws = count_draws(v);
  } else if (const json::Value* subs = v.find("results");
             subs && subs->is_array()) {
    for (const json::Value& sub : subs->array) {
      const json::Value* fp = sub.find("result_fp");
      if (!r.fp.empty()) r.fp += ',';
      r.fp += fp != nullptr ? fp->string_or("?") : "?";
      r.draws += count_draws(sub);
    }
  }
  return r;
}

namespace {

// --- request lines -----------------------------------------------------------

json::Value spec_json(const core::AdcSpec& s) {
  json::Value v = json::Value::make_object();
  v.set("node", json::Value::make_number(s.node_nm));
  v.set("slices", json::Value::make_number(s.num_slices));
  v.set("fs", json::Value::make_number(s.fs_hz));
  v.set("bw", json::Value::make_number(s.bandwidth_hz));
  v.set("dac_fragments", json::Value::make_number(s.dac_fragments));
  v.set("seed", json::Value::make_number(static_cast<double>(s.seed)));
  return v;
}

using Options = std::vector<std::pair<const char*, double>>;

json::Value request_json(const char* cmd, const std::string& id,
                         const core::AdcSpec* spec, const Options& opts) {
  json::Value v = json::Value::make_object();
  v.set("cmd", json::Value::make_string(cmd));
  v.set("id", json::Value::make_string(id));
  if (spec != nullptr) v.set("spec", spec_json(*spec));
  if (!opts.empty()) {
    json::Value o = json::Value::make_object();
    for (const auto& [k, x] : opts) o.set(k, json::Value::make_number(x));
    v.set("options", std::move(o));
  }
  return v;
}

std::string request(const char* cmd, const std::string& id,
                    const core::AdcSpec* spec, const Options& opts = {}) {
  return json::dump(request_json(cmd, id, spec, opts));
}

/// Every generated spec must pass the flow's own validator, so the only
/// way a request fails is a program fault (fail_ratio 0 at every seed).
void require_valid(const core::AdcSpec& spec) {
  const auto diags = core::validate_spec(spec);
  if (core::has_errors(diags)) {
    throw std::runtime_error("generator emitted an invalid spec: " +
                             diags.front().to_string());
  }
}

/// Fisher-Yates over [0, n) from `rng` (libstdc++'s std::shuffle is not a
/// portable contract; the inputs must depend on the seed alone).
std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

std::string fresh_dir(const std::string& root, const std::string& name) {
  const std::string dir = root + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

constexpr std::size_t kDatasheetSamples = 1 << 14;
constexpr std::size_t kMcSamples = 1 << 12;

// --- design_sweep ------------------------------------------------------------

/// Cold design-space exploration over L = 11 levels each of node, slices
/// and dac_fragments, as Latin squares. Request i is slot q of block b of
/// round r. Block d of a round holds slices level s with fragments level
/// (s + d) % L and node (s + h[d] + r) % L for s = 0..L-1, so every block
/// of L consecutive requests has each level of each factor exactly once,
/// and every round every (slices, fragments) pair. The seed orders the
/// blocks and slots and draws h, fs, bandwidth and the mismatch seed. A
/// (node, slices, fragments) triple never repeats, so every stage of every
/// request misses: L^3 = 1331 distinct requests.
class DesignSweep : public Workload {
 public:
  explicit DesignSweep(const WorkloadConfig& cfg) : cfg_(cfg) {
    for (double n : {22.0, 32.0, 40.0, 45.0, 65.0, 90.0, 130.0, 180.0, 250.0,
                     350.0, 500.0}) {
      if (!vcoadc::tech::TechDatabase::standard().find(n)) {
        throw std::runtime_error("node missing from the tech table");
      }
      nodes_.push_back(n);
    }
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 11);
    shift_ = permutation(kLevels, rng);
    for (std::size_t r = 0; r < kLevels; ++r) {
      blocks_.push_back(permutation(kLevels, rng));
      for (std::size_t b = 0; b < kLevels; ++b) {
        slots_.push_back(permutation(kLevels, rng));
      }
    }
  }

  Session setup() override {
    Session s = open_session(
        cfg_.threads,
        fresh_dir(cfg_.work_dir, "design_sweep_store" +
                                     std::to_string(setups_++)));
    // One request outside the pool pays process-level lazy state (FFT
    // plans, per-thread workspaces) in set-up rather than in request 0.
    const core::AdcSpec warm = core::AdcSpec::paper_40nm();
    s.handler(request("datasheet", "warmup", &warm,
                      {{"n_samples", kDatasheetSamples}}));
    return s;
  }

  std::string line(std::size_t i) override {
    const std::size_t r = i / (kLevels * kLevels);
    if (r >= kLevels) return {};
    const std::size_t b = i / kLevels % kLevels;
    const std::size_t d = blocks_[r][b];
    const std::size_t s = slots_[r * kLevels + b][i % kLevels];
    core::AdcSpec spec;
    spec.node_nm = nodes_[(s + shift_[d] + r) % kLevels];
    spec.num_slices = 6 + 2 * static_cast<int>(s);
    spec.dac_fragments = 1 + static_cast<int>((s + d) % kLevels);
    Rng rng(cfg_.seed * 0xD1B54A32D192ED03ull + i);
    // fs below the node's ring limit at this slice count (validate_spec
    // refuses a ring centre above 80% of it), OSR 32..128.
    const double f_max =
        spec.tech_node().max_ring_freq_hz(spec.num_slices);
    spec.fs_hz = std::floor(0.8 * f_max / spec.vco_center_over_fs *
                            rng.uniform(0.5, 0.95) / 1e6) * 1e6;
    spec.bandwidth_hz =
        std::floor(spec.fs_hz / (2.0 * rng.uniform(32, 128)) / 1e3) * 1e3;
    spec.seed = 1 + rng.below(1u << 30);
    require_valid(spec);
    const std::string id = "ds" + std::to_string(i);
    // Eight datasheets per block, plus an emitted-HDL check, a gate-level
    // sign-off and a scalar corner sweep of a candidate. The kind follows
    // the slice level: the costly kinds always land on the same design
    // size, so blocks cost the same.
    switch (s) {
      case 3:
        return request("hdl_emit", id, &spec);
      case 5:
        return request("gate_sim", id, &spec, {{"n_samples", 1 << 11}});
      case 7:
        return request("corner_sweep", id, &spec,
                       {{"n_samples", 1 << 12}, {"batch_width", 1}});
      default:
        return request("datasheet", id, &spec,
                       {{"n_samples", kDatasheetSamples}});
    }
  }

  std::size_t sim_samples() const override { return kDatasheetSamples; }
  std::size_t block() const override { return kLevels; }

 private:
  static constexpr std::size_t kLevels = 11;
  WorkloadConfig cfg_;
  std::vector<double> nodes_;
  std::vector<std::size_t> shift_;                ///< h[d]
  std::vector<std::vector<std::size_t>> blocks_;  ///< per round: block order
  std::vector<std::vector<std::size_t>> slots_;   ///< per block: slot order
  int setups_ = 0;
};

// --- mc_yield ------------------------------------------------------------------

/// Monte-Carlo yield campaign on the paper's two design points. 64 runs per
/// request is 8 lane groups at the avx512 width: enough groups to keep
/// every worker of the fixed thread count busy (8 runs would fill exactly
/// one group and leave the fan-out idle).
class McYield : public Workload {
 public:
  explicit McYield(const WorkloadConfig& cfg) : cfg_(cfg) {
    specs_[0] = core::AdcSpec::paper_40nm();
    specs_[1] = core::AdcSpec::paper_180nm();
    for (const core::AdcSpec& s : specs_) require_valid(s);
    // Seed ranges: every run's draws are disjoint from other seeds' and
    // from set-up's, so every draw is a cold simulation.
    seed_base_ = 1'000'000'000ull + (cfg.seed % 1'000'000ull) * 1'000'000ull;
  }

  Session setup() override {
    Session s = open_session(cfg_.threads, "");
    for (std::size_t k = 0; k < 2; ++k) {
      s.handler(request("synthesize", "setup" + std::to_string(k),
                        &specs_[k]));
      // Pays lazy per-process state (FFT plans, lane workspaces) with draws
      // from a seed range the timed requests never use.
      s.handler(request("monte_carlo", "warmup", &specs_[k],
                        {{"runs", kRuns},
                         {"n_samples", kMcSamples},
                         {"seed0", 1e12 + 1e6 * static_cast<double>(k)}}));
    }
    return s;
  }

  std::string line(std::size_t i) override {
    if (i * kRuns >= 1'000'000ull) return {};
    core::AdcSpec spec = specs_[i % 2];
    const std::string id = "mc" + std::to_string(i);
    if (i % 8 == 7) {
      // A corner sweep keeps the spec's own seed; a fresh one makes every
      // corner a cold draw.
      spec.seed = seed_base_ + i;
      return request("corner_sweep", id, &spec, {{"n_samples", kMcSamples}});
    }
    return request(
        "monte_carlo", id, &spec,
        {{"runs", kRuns},
         {"n_samples", kMcSamples},
         {"seed0", static_cast<double>(seed_base_ + i * kRuns)}});
  }

  std::size_t sim_samples() const override { return kMcSamples; }
  std::size_t block() const override { return 8; }
  std::size_t recheck_count() const override { return 2; }

 private:
  static constexpr std::uint64_t kRuns = 64;
  WorkloadConfig cfg_;
  core::AdcSpec specs_[2];
  std::uint64_t seed_base_ = 0;
};

// --- store_restart -------------------------------------------------------------

/// Every request kind over the paper specs, plus a batch envelope. 180 nm
/// migrates to 40 nm: the 40 nm spec's 750 MHz clock is past the 180 nm
/// ring limit, so the other direction is refused by design.
std::vector<std::string> paper_mix() {
  const core::AdcSpec p40 = core::AdcSpec::paper_40nm();
  const core::AdcSpec p180 = core::AdcSpec::paper_180nm();
  require_valid(p40);
  require_valid(p180);
  const double ds_n = kDatasheetSamples;
  const double mc_n = kMcSamples;
  std::vector<std::string> mix = {
      request("datasheet", "ds40", &p40,
              {{"n_samples", ds_n}, {"amp_sweep_points", 4}}),
      request("datasheet", "ds180", &p180, {{"n_samples", ds_n}}),
      request("monte_carlo", "mc40", &p40,
              {{"runs", 16}, {"n_samples", mc_n}, {"seed0", 1000}}),
      request("monte_carlo", "mc180", &p180,
              {{"runs", 16}, {"n_samples", mc_n}, {"seed0", 2000}}),
      request("corner_sweep", "cs40", &p40, {{"n_samples", mc_n}}),
      request("corner_sweep", "cs180", &p180, {{"n_samples", mc_n}}),
      request("synthesize", "syn40", &p40),
      request("synthesize", "syn180", &p180),
      request("migrate", "mig180to40", &p180, {{"target_node", 40}}),
      request("optimize", "opt40", nullptr,
              {{"node", 40},
               {"min_sndr_db", 60},
               {"bandwidth_hz", 2e6},
               {"n_samples", mc_n}}),
      request("hdl_emit", "hdl40", &p40),
      request("hdl_emit", "hdl180", &p180),
      request("gate_sim", "gate40", &p40, {{"n_samples", 1 << 11}}),
      request("gate_sim", "gate180", &p180, {{"n_samples", 1 << 11}}),
  };
  json::Value batch = json::Value::make_object();
  batch.set("cmd", json::Value::make_string("batch"));
  batch.set("id", json::Value::make_string("batch"));
  json::Value subs = json::Value::make_array();
  subs.push(request_json("datasheet", "b-ds180", &p180, {{"n_samples", ds_n}}));
  subs.push(request_json("monte_carlo", "b-mc40", &p40,
                         {{"runs", 16}, {"n_samples", mc_n}, {"seed0", 1000}}));
  subs.push(request_json("corner_sweep", "b-cs180", &p180,
                         {{"n_samples", mc_n}}));
  batch.set("requests", std::move(subs));
  mix.push_back(json::dump(batch));
  return mix;
}

/// Replays the mix in passes, each pass in its own seeded order. Each pass
/// is a new `serve --store` process: fresh store handle, fresh cache, fresh
/// handler over the records written in set-up.
class StoreRestart : public Workload {
 public:
  explicit StoreRestart(const WorkloadConfig& cfg)
      : cfg_(cfg), mix_(paper_mix()) {}

  /// Cold pass over the mix into a fresh store: fills it and records the
  /// reference fingerprints the replayed responses must match.
  Session setup() override {
    store_dir_ = fresh_dir(cfg_.work_dir,
                           "store_restart_store" + std::to_string(setups_++));
    Session s = open_session(cfg_.threads, store_dir_);
    cold_fp_.clear();
    for (const std::string& l : mix_) {
      const Reply r = read_reply(s.handler(l));
      if (!r.ok) throw std::runtime_error("priming request failed: " + l);
      cold_fp_.push_back(r.fp);
    }
    return s;
  }

  std::string line(std::size_t i) override { return mix_[slot(i)]; }
  std::string expected_fp(std::size_t i) const override {
    return cold_fp_[slot(i)];
  }
  bool restarts_before(std::size_t i) const override {
    return i % mix_.size() == 0;
  }
  void restart(Session& s) override {
    s = open_session(cfg_.threads, store_dir_);
  }
  bool must_hit_store() const override { return true; }
  std::size_t sim_samples() const override { return kDatasheetSamples; }
  std::size_t block() const override { return mix_.size(); }
  /// Every reply is already checked against the fresh priming pass.
  std::size_t recheck_count() const override { return 0; }

 private:
  std::size_t slot(std::size_t i) const {
    const std::size_t m = mix_.size();
    Rng rng(cfg_.seed * 0x9E3779B97F4A7C15ull + i / m);
    return permutation(m, rng)[i % m];
  }

  WorkloadConfig cfg_;
  std::vector<std::string> mix_;
  std::vector<std::string> cold_fp_;
  std::string store_dir_;
  int setups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& cfg) {
  if (name == "design_sweep") return std::make_unique<DesignSweep>(cfg);
  if (name == "mc_yield") return std::make_unique<McYield>(cfg);
  if (name == "store_restart") return std::make_unique<StoreRestart>(cfg);
  return nullptr;
}

}  // namespace perfbench
