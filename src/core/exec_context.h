// ExecContext: the one execution-environment knob bundle threaded through
// every flow driver (Monte Carlo, corner sweeps, datasheets, synthesis,
// the optimizer, core::evaluate, benches and the CLI). It is the single
// source of truth for execution knobs — the per-driver thread forwarders
// that once shadowed `threads` are gone.
//
// None of these fields participate in artifact cache keys: thread count,
// trace sink, cache and store pointers must never change result bytes
// (the engine's determinism contract), so two runs that differ only in
// ExecContext share every cached artifact — including, via `store`, runs
// in different processes.
#pragma once

#include <cstdio>
#include <utility>

#include "util/diag.h"

namespace vcoadc::util {
class Trace;
}

namespace vcoadc::core {

class ArtifactCache;
class ArtifactStore;
ArtifactCache& default_artifact_cache();

struct ExecContext {
  /// Threads working on one batch fan-out or one of the router's rip-up
  /// batches, the calling thread included; 0 = one per hardware thread,
  /// 1 = serial reference. The helpers beyond the calling thread come from
  /// one process-wide set of persistent threads (util::parallel_for_each),
  /// so a fan-out never uses more threads than the hardware has. Any
  /// value yields bit-identical results. Any value but 1 also lets a cold
  /// datasheet run its nominal simulation on the one process-wide
  /// datasheet worker, beside its maze route; at 1 the datasheet runs it
  /// on the calling thread, before the maze route.
  int threads = 0;
  /// Per-stage event sink; null = no tracing.
  util::Trace* trace = nullptr;
  /// Artifact store shared by all stages; null disables caching (every
  /// stage recomputes). Defaults to the bounded process-wide cache.
  ArtifactCache* cache = &default_artifact_cache();
  /// Structured-diagnostics collector; every stage boundary reports
  /// validation failures here. Null = diagnostics go to stderr (one line
  /// each) so a failure is never silent.
  util::DiagSink* diag = nullptr;
  /// Persistent artifact store (disk tier under `cache`); null = no
  /// persistence. When set, a cache-missed stage first tries to load the
  /// artifact's canonical bytes from disk, and saves them after a real
  /// build — so a second process over the same inputs builds nothing.
  ArtifactStore* store = nullptr;
  /// Test-only fault-injection plan (see util::FaultPlan); null in
  /// production. A stage armed in the plan refuses at entry, before its
  /// cache or store lookup.
  const util::FaultPlan* faults = nullptr;
};

/// Reports one diagnostic through the context: into its sink when present,
/// otherwise one stderr line (a rejected input must never be silent).
inline void emit_diag(const ExecContext& ctx, util::Diagnostic d) {
  if (ctx.diag != nullptr) {
    ctx.diag->add(std::move(d));
  } else {
    std::fprintf(stderr, "vcoadc: %s\n", d.to_string().c_str());
  }
}

inline void emit_diags(const ExecContext& ctx,
                       const std::vector<util::Diagnostic>& diags) {
  for (const util::Diagnostic& d : diags) emit_diag(ctx, d);
}

}  // namespace vcoadc::core
