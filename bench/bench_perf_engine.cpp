// google-benchmark microbenchmarks of the library's engines: FFT throughput
// (complex plan path and the real-input fast path), modulator simulation
// rate (with and without a reused workspace), the full Monte-Carlo-sample
// pipeline, netlist flatten, and the synthesis flow. These gate performance
// regressions in the substrate itself (a 2^16-point Table 3 run must stay
// interactive).
//
// The custom main() additionally emits machine-readable BENCH_JSON summary
// lines (modulator clocks/sec, real-FFT Msamples/sec, single-MC-sample
// milliseconds) for BENCH_*.json tracking.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/adc.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "dsp/fft.h"
#include "dsp/signal_gen.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "netlist/generator.h"
#include "synth/synthesis_flow.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace vcoadc;

static void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<dsp::Complex> data(n);
  for (auto& c : data) c = {rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    auto copy = data;
    dsp::fft_in_place(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 12)->Arg(1 << 16);

static void BM_FftRealPlan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  const dsp::RealFftPlan& plan = dsp::RealFftPlan::of(n);
  std::vector<dsp::Complex> out(plan.out_size());
  for (auto _ : state) {
    plan.forward(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftRealPlan)->Arg(1 << 12)->Arg(1 << 16);

static void BM_ModulatorClock(benchmark::State& state) {
  auto spec = core::AdcSpec::paper_40nm();
  msim::SimConfig cfg = spec.to_sim_config();
  msim::VcoDsmModulator mod(cfg);
  const auto sine = dsp::make_sine(0.5, 1e6);
  for (auto _ : state) {
    auto res = mod.run(sine, 256);
    benchmark::DoNotOptimize(res.output.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ModulatorClock);

static void BM_ModulatorClockWorkspace(benchmark::State& state) {
  auto spec = core::AdcSpec::paper_40nm();
  msim::SimConfig cfg = spec.to_sim_config();
  msim::VcoDsmModulator mod(cfg);
  const auto sine = dsp::make_sine(0.5, 1e6);
  msim::SimWorkspace ws;
  for (auto _ : state) {
    const auto& res = mod.run(sine, 256, ws);
    benchmark::DoNotOptimize(res.output.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ModulatorClockWorkspace);

// Batched SoA engine at the dispatcher's preferred lane width: items are
// lane-clocks (W Monte-Carlo draws retire per modulator clock).
static void BM_BatchedModulatorClock(benchmark::State& state) {
  auto spec = core::AdcSpec::paper_40nm();
  msim::SimConfig cfg = spec.to_sim_config();
  const int w = msim::BatchedModulator::preferred_width();
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(w));
  for (int k = 0; k < w; ++k) seeds[static_cast<std::size_t>(k)] = 100 + k;
  auto batch = msim::BatchedModulator::create(cfg, seeds);
  const auto base = dsp::make_sine(1.0, 1e6);
  const std::vector<double> scale(static_cast<std::size_t>(w), 0.5);
  msim::BatchedWorkspace ws;
  for (auto _ : state) {
    const auto& res = batch->run(base, scale, 256, ws);
    benchmark::DoNotOptimize(res.front().output.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256 * w);
}
BENCHMARK(BM_BatchedModulatorClock);

// One full Monte-Carlo sample: modulator run + windowed real FFT + SNDR /
// slope / idle-tone analysis + power model, with the per-thread workspace a
// batch worker would hold. 2^14 points keeps one iteration short enough for
// the benchmark loop; the BENCH_JSON summary below times the full 2^16 run.
static void BM_McSamplePipeline(benchmark::State& state) {
  core::AdcDesign design(core::AdcSpec::paper_40nm());
  core::SimulationOptions opts;
  opts.n_samples = 1 << 14;
  msim::SimWorkspace ws;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opts.seed = seed++;
    auto res = design.simulate(opts, ws);
    benchmark::DoNotOptimize(res.sndr.sndr_db);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_McSamplePipeline)->Unit(benchmark::kMillisecond);

static void BM_NetlistFlatten(benchmark::State& state) {
  core::AdcDesign adc(core::AdcSpec::paper_40nm());
  for (auto _ : state) {
    auto flat = adc.netlist().flatten();
    benchmark::DoNotOptimize(flat.connections().data());
  }
}
BENCHMARK(BM_NetlistFlatten);

static void BM_SynthesisFlow(benchmark::State& state) {
  // An empty cache per iteration: every stage builds, none is a hit.
  for (auto _ : state) {
    core::ArtifactCache cache(16);
    core::ExecContext ctx;
    ctx.cache = &cache;
    auto res = core::Flow(ctx).synthesis(core::AdcSpec::paper_40nm());
    benchmark::DoNotOptimize(res->stats.die_area_m2);
  }
}
BENCHMARK(BM_SynthesisFlow);

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Standalone summary timings (independent of the google-benchmark reporter)
// so the BENCH_JSON line is emitted even under --benchmark_filter.
void emit_bench_json_summary(const std::string& json_out) {
  auto spec = core::AdcSpec::paper_40nm();

  // Modulator throughput: repeated fixed-size runs with a warm workspace.
  msim::SimConfig cfg = spec.to_sim_config();
  msim::VcoDsmModulator mod(cfg);
  const auto sine = dsp::make_sine(0.5, 1e6);
  msim::SimWorkspace ws;
  constexpr std::size_t kClocksPerRep = 4096;
  mod.run(sine, kClocksPerRep, ws);  // warm-up
  std::size_t reps = 0;
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    benchmark::DoNotOptimize(mod.run(sine, kClocksPerRep, ws).output.data());
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.5);
  const double clocks_per_s =
      static_cast<double>(reps * kClocksPerRep) / elapsed;

  // Batched SoA engine: same config, lane-clocks/s (clocks x lanes) at each
  // kernel width; the summary reports the best width. The shape gate only
  // applies when the active tier has real vector registers (width >= 4
  // doubles per op, i.e. AVX2+) — on narrower hosts the batch still wins
  // but the floor is not promised. The gate is 2.5x, below the 4-8x a
  // pure-SIMD argument would promise: the packed ziggurat, packed
  // comparator-bit extraction and one lane-mask test per rare path moved
  // most of the once-serial per-lane work into the lanes, but the
  // rejection tail, metastability draws and result write-out stay
  // per-lane. Medians of 5 runs on a 4-vCPU avx512 host: W=2 1.80x, W=4
  // 2.57x, W=8 2.71x; the gate passed in 4 of the 5 (best width
  // 2.31-3.84x).
  const util::simd::Tier tier = util::simd::active_tier();
  const int simd_width = util::simd::tier_width(tier);
  double batched_clocks_per_s = 0.0;
  int batched_width = 0;
  msim::BatchedWorkspace bws;
  const auto base = dsp::make_sine(1.0, 1e6);
  for (int w : {2, 4, 8}) {
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(w));
    for (int k = 0; k < w; ++k) seeds[static_cast<std::size_t>(k)] = 100 + k;
    auto batch = msim::BatchedModulator::create(cfg, seeds);
    if (batch == nullptr) continue;
    const std::vector<double> scale(static_cast<std::size_t>(w), 0.5);
    batch->run(base, scale, kClocksPerRep, bws);  // warm-up
    reps = 0;
    t0 = std::chrono::steady_clock::now();
    do {
      benchmark::DoNotOptimize(
          batch->run(base, scale, kClocksPerRep, bws).front().output.data());
      ++reps;
      elapsed = seconds_since(t0);
    } while (elapsed < 0.5);
    const double lane_clocks =
        static_cast<double>(reps * kClocksPerRep) * w / elapsed;
    std::printf("  batched W=%d: %.0f lane-clocks/s (%.2fx scalar)\n", w,
                lane_clocks, lane_clocks / clocks_per_s);
    if (lane_clocks > batched_clocks_per_s) {
      batched_clocks_per_s = lane_clocks;
      batched_width = w;
    }
  }
  std::printf("  simd: %s\n", util::simd::runtime_summary().c_str());
  if (simd_width >= 4) {
    bench::shape_check("batched engine >= 2.5x scalar modulator throughput",
                       batched_clocks_per_s >= 2.5 * clocks_per_s);
  }

  // Real-FFT throughput at the spectrum-analysis size (2^16).
  constexpr std::size_t kFftN = 1 << 16;
  util::Rng rng(1);
  std::vector<double> x(kFftN);
  for (auto& v : x) v = rng.gaussian();
  const dsp::RealFftPlan& plan = dsp::RealFftPlan::of(kFftN);
  std::vector<dsp::Complex> bins(plan.out_size());
  plan.forward(x.data(), bins.data());  // warm-up (builds the plan)
  reps = 0;
  t0 = std::chrono::steady_clock::now();
  do {
    plan.forward(x.data(), bins.data());
    benchmark::DoNotOptimize(bins.data());
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.5);
  const double fft_msamples_per_s =
      static_cast<double>(reps * kFftN) / elapsed / 1e6;

  // End-to-end single Monte-Carlo sample at the paper's 2^16 record length.
  core::AdcDesign design(spec);
  core::SimulationOptions opts;
  opts.n_samples = 1 << 16;
  opts.seed = 1;
  design.simulate(opts, ws);  // warm-up
  t0 = std::chrono::steady_clock::now();
  opts.seed = 2;
  const auto res = design.simulate(opts, ws);
  const double sample_ms = seconds_since(t0) * 1e3;

  bench::emit_json(
      json_out,
      util::format(
          "{\"bench\":\"perf_engine\","
          "\"modulator_clocks_per_s\":%.0f,"
          "\"batched_modulator_clocks_per_s\":%.0f,"
          "\"batched_width\":%d,"
          "\"simd_tier\":\"%s\","
          "\"simd_width\":%d,"
          "\"hw_threads\":%u,"
          "\"fft_real_msamples_per_s\":%.2f,"
          "\"mc_sample_2e16_ms\":%.2f,"
          "\"mc_sample_sndr_db\":%.2f}",
          clocks_per_s, batched_clocks_per_s, batched_width,
          util::simd::tier_name(tier), simd_width,
          std::thread::hardware_concurrency(), fft_msamples_per_s, sample_ms,
          res.sndr.sndr_db));
}

}  // namespace

int main(int argc, char** argv) {
  // --json-out is ours, not google-benchmark's: resolve and strip it first.
  const std::string json_out = bench::json_out_path(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_bench_json_summary(json_out);
  return 0;
}
