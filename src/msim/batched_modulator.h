// Batched (structure-of-arrays) transient engine: W Monte-Carlo draws of
// the modulator simulated in lockstep as SIMD lanes.
//
// All MC draws of one sweep share the identical clock-edge control flow —
// same config, same input signal shape, same substep schedule — and differ
// only in their noise/mismatch realizations. That is exactly the shape SIMD
// wants: lane w holds draw w's control-node voltages, ring phases, DAC
// running sums and slice bits side by side, and every arithmetic line of
// the scalar hot loop becomes one packed operation over W lanes.
//
// Bit-identity contract (the ROADMAP lane-0 ≡ serial check, generalized):
// lane k of a batch produces exactly the bits a scalar VcoDsmModulator
// constructed with seeds[k] would produce. Three ingredients make it hold:
//   1. Construction replays the scalar path verbatim: W scalar modulators
//      are built (same ctor-time mismatch draw order) and their state is
//      transposed into lanes (BatchedStateAccess).
//   2. Every per-lane arithmetic expression in the kernel is a transcription
//      of the scalar expression — same operands, same association — and no
//      tier TU enables FMA contraction, so the IEEE op sequence per lane is
//      the scalar one under every dispatch tier.
//   3. Each lane owns independent RNG streams (util::LaneRng) seeded the
//      way the scalar modulator seeds them, so draw sequences per lane are
//      the serial ones even when a ziggurat rejection or a data-dependent
//      metastability draw fires in only one lane.
//
// The kernel itself (batched_lockstep.h) is portable GNU C++ compiled into
// sse2/avx2/avx512 translation units and dispatched per util::simd tier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "msim/modulator.h"

namespace vcoadc::msim {

/// Reusable scratch for BatchedModulator::run(): per-lane result buffers
/// (the SoA analogue of SimWorkspace). Not thread-safe; one per thread.
/// Buffers grow to the largest run seen; reset() drops them.
struct BatchedWorkspace {
  std::vector<ModulatorResult> results;  ///< one per lane
  std::vector<double> substep_frac;      ///< m / substeps
  // Input signal (and reference ripple) pre-evaluated per substep instant,
  // indexed [n * substeps + m]; shared across lanes. Filled by run() so the
  // lockstep kernel's hot loop makes no indirect std::function / libm calls
  // (a call clobbers the vector registers, forcing the kernel to spill all
  // live lane state around every substep).
  std::vector<double> base_vals;
  std::vector<double> vref_vals;  ///< only sized when ripple is enabled

  void reset() {
    results = {};
    substep_frac = {};
    base_vals = {};
    vref_vals = {};
  }
};

class BatchedModulator {
 public:
  using Options = VcoDsmModulator::Options;

  /// Lane widths the kernels are instantiated for.
  static bool width_supported(int w) { return w == 2 || w == 4 || w == 8; }

  /// The lane width core::monte_carlo should group draws by on this host:
  /// the active tier's util::simd::tier_width, always a supported width.
  static int preferred_width();

  /// Builds a batch of seeds.size() lanes over a shared config; lane k is
  /// a scalar modulator with cfg.seed = seeds[k]. Returns nullptr when the
  /// shape is not batchable (unsupported width or a current-steering DAC,
  /// whose shared bias-noise stream is inherently serial) — callers fall
  /// back to the scalar path.
  static std::unique_ptr<BatchedModulator> create(
      const SimConfig& cfg, const std::vector<std::uint64_t>& seeds,
      const Options& opts = Options{});

  /// Heterogeneous batch: lane k is a scalar modulator built from cfgs[k]
  /// verbatim (seed included). Lanes may differ in any run *value* — PVT
  /// corners move vdd/vrefp/kvco/noise amplitudes, amplitude sweeps move
  /// only the drive — but must share the clock structure (fs, substeps,
  /// num_slices) and agree on every noise-source on/off flag, since the
  /// lane RNG advances all streams together. Returns nullptr when the
  /// shape is not batchable — callers fall back to the scalar path.
  static std::unique_ptr<BatchedModulator> create(
      const std::vector<SimConfig>& cfgs, const Options& opts = Options{});

  int width() const { return static_cast<int>(lanes_.size()); }
  const SimConfig& config() const { return lanes_.front().config(); }

  /// Per-lane scalar-modulator figures (lane DAC mismatch moves them).
  double full_scale_diff(int lane) const;
  double input_common_mode(int lane) const;

  /// Runs n_samples clock periods on every lane. The input signal is
  /// shared across lanes up to a per-lane amplitude: lane w sees
  /// lane_scale[w] * base(t), bit-identical to a scalar run driven by
  /// dsp::make_sine(lane_scale[w], f) when base = make_sine(1.0, f).
  /// Each call restarts from the constructed state, i.e. behaves like a
  /// fresh scalar modulator's first run(). Returns ws.results.
  const std::vector<ModulatorResult>& run(
      const dsp::SignalFn& base, const std::vector<double>& lane_scale,
      std::size_t n_samples, BatchedWorkspace& ws) const;

 private:
  explicit BatchedModulator(std::vector<VcoDsmModulator> lanes)
      : lanes_(std::move(lanes)) {}

  std::vector<VcoDsmModulator> lanes_;
};

}  // namespace vcoadc::msim
