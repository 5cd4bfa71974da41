// Flow-wide structured diagnostics: the error-reporting substrate every
// stage boundary of the generator reports through (DESIGN.md §3f).
//
// The contract the flow promises (and the fault-injection harness
// enforces): a public driver entry point given malformed input returns a
// null/empty artifact plus one or more Diagnostics that say *which stage*
// rejected *which item* and *why* — it never aborts, throws, or produces
// NaN results silently. Interior code keeps `assert` for programmer
// contracts that validated inputs make unreachable; everything a caller
// can influence is validated at the stage boundary.
//
//   Diagnostic  one structured finding {severity, stage, item, reason}
//   DiagSink    thread-safe collector, hung off core::ExecContext so one
//               sink sees every stage of a run (including batch workers)
//   Checked<T>  value-or-diagnostics return wrapper for APIs that want
//               the diagnostics in the return value rather than a sink
//   FaultPlan   deterministic fault-injection hook keyed by stage name;
//               test-only, lets the harness refuse any stage at entry
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcoadc::util {

enum class Severity {
  kInfo,     ///< noteworthy, result unaffected
  kWarning,  ///< suspicious input or degraded result, run continued
  kError,    ///< stage refused; artifact is null/empty
};

const char* severity_name(Severity s);

/// One structured finding from a flow stage.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string stage;   ///< stage that reported, e.g. "spec", "netlist"
  std::string item;    ///< offending field/cell/net/instance; may be empty
  std::string reason;  ///< human-readable explanation

  /// "[error] netlist slice3/I7: unknown master 'NANDX9'"
  std::string to_string() const;
};

/// Thread-safe diagnostic collector. One sink is threaded through a whole
/// run via core::ExecContext, so batch workers, cached-stage builds and
/// the top-level driver all report into the same place.
class DiagSink {
 public:
  void add(Diagnostic d);
  void add(Severity severity, std::string stage, std::string item,
           std::string reason);
  void add_all(const std::vector<Diagnostic>& diags);

  /// Snapshot of everything collected so far, in arrival order.
  std::vector<Diagnostic> all() const;
  std::size_t size() const;
  std::size_t error_count() const;
  bool has_errors() const;
  bool empty() const;
  void clear();

  /// One line per diagnostic (Diagnostic::to_string), newline-terminated.
  std::string render() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Diagnostic> diags_;
};

/// Result<T>-style wrapper: either a value (ok) or the diagnostics that
/// explain why there is none. A value may still carry warnings.
template <typename T>
class Checked {
 public:
  Checked() = default;
  Checked(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design

  static Checked failure(Diagnostic d) {
    Checked c;
    c.diags_.push_back(std::move(d));
    return c;
  }
  static Checked failure(std::vector<Diagnostic> diags) {
    Checked c;
    c.diags_ = std::move(diags);
    return c;
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Precondition: ok(). (Checked by the caller, like std::optional.)
  const T& value() const { return *value_; }
  T& value() { return *value_; }
  const T& value_or(const T& fallback) const {
    return value_.has_value() ? *value_ : fallback;
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }

  /// Copies this result's diagnostics into `sink` (null-safe).
  void report_to(DiagSink* sink) const {
    if (sink) sink->add_all(diags_);
  }

 private:
  std::optional<T> value_;
  std::vector<Diagnostic> diags_;
};

/// Deterministic fault-injection hook, keyed by stage name. Test-only:
/// the flow consults the plan (via core::ExecContext::faults) once per
/// stage execution, at entry; an armed stage refuses with an error
/// diagnostic and a null artifact before any cache or store lookup, so a
/// faulted run can never populate or read either. The validators the
/// refusal stands in for are unit-tested directly.
class FaultPlan {
 public:
  /// Arms `stage` for `times` injections (-1 = every time it is reached).
  void arm(std::string stage, int times = -1);

  /// True if `stage` is currently armed (does not consume a charge).
  bool armed(std::string_view stage) const;

  /// Consumes one charge for `stage` if armed; returns whether a fault
  /// fires. Thread-safe; counters are shared across threads.
  bool consume(std::string_view stage) const;

  /// Total faults fired so far (all stages).
  std::uint64_t injected() const;

 private:
  mutable std::mutex mutex_;
  // remaining < 0 means unlimited.
  mutable std::map<std::string, int, std::less<>> arms_;
  mutable std::uint64_t injected_ = 0;
};

}  // namespace vcoadc::util
