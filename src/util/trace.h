// Per-stage flow tracing: scoped spans at every stage boundary of the
// design flow (netlist generation, floorplan, placement, routing,
// simulation, reporting) collected into one thread-safe sink.
//
// Spans nest per thread: a span opened while another span of the same
// Trace is open on the same thread becomes its child, which is how one
// `report` span ends up owning `synthesis` which owns `floorplan` /
// `placement` / `route`. In a fan-out (util::parallel_for_each), the spans
// of tasks the calling thread runs nest under its open span; spans opened
// on a helper thread (or the datasheet worker) have no parent and list at
// the root.
//
// Two renderings:
//   * render_tree(): human-readable indented summary. Sibling spans with
//     the same name collapse into one line (count, total/min/max wall
//     time, summed cache hits/misses) so a 1000-draw Monte-Carlo batch
//     prints as one `sim_run x1000` line, not a thousand.
//   * render_jsonl(): one JSON object per completed span, in completion
//     order, for machine ingestion.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vcoadc::util {

struct TraceEvent {
  std::string name;     ///< stage name, e.g. "netlist", "route"
  std::string detail;   ///< freeform annotation, e.g. "key=0x1a2b"
  double start_s = 0;   ///< seconds since the Trace was constructed
  double dur_s = 0;     ///< wall time inside the span
  int parent = -1;      ///< index of the enclosing span; -1 = root
  int cache_hit = -1;   ///< 1 = artifact-cache hit, 0 = miss, -1 = n/a
  std::size_t bytes = 0;  ///< approximate artifact size, 0 = unknown
};

class Trace {
 public:
  Trace();

  /// Opens a span and returns its token. Thread-safe; the span's parent is
  /// the innermost span currently open *on this thread* for this Trace.
  int begin(const std::string& name);

  /// Closes the span. `detail`, `cache_hit` and `bytes` land in the event.
  void end(int token, const std::string& detail = {}, int cache_hit = -1,
           std::size_t bytes = 0);

  /// Records a zero-duration event (e.g. a counter snapshot).
  void instant(const std::string& name, const std::string& detail = {});

  /// Completed + open events, by begin order. Open spans have dur_s = 0.
  std::vector<TraceEvent> events() const;

  bool empty() const;

  std::string render_tree() const;
  std::string render_jsonl() const;

 private:
  double now_s() const;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. Null-safe: a TraceSpan over a null Trace* is a no-op, so
/// flow code can trace unconditionally and callers opt in by providing a
/// sink.
class TraceSpan {
 public:
  TraceSpan(Trace* trace, const std::string& name)
      : trace_(trace), token_(trace ? trace->begin(name) : -1) {}
  ~TraceSpan() {
    if (trace_) trace_->end(token_, detail_, cache_hit_, bytes_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Annotates the span; shows in both renderings.
  void note(const std::string& detail) { detail_ = detail; }
  /// Marks the span as an artifact-cache hit or miss, with the artifact's
  /// approximate size.
  void cache(bool hit, std::size_t bytes) {
    cache_hit_ = hit ? 1 : 0;
    bytes_ = bytes;
  }

 private:
  Trace* trace_;
  int token_;
  std::string detail_;
  int cache_hit_ = -1;
  std::size_t bytes_ = 0;
};

}  // namespace vcoadc::util
