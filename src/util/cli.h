// Minimal command-line argument parser for the example tools.
// Supports `--name=value`, `--name value`, boolean `--flag`, and
// positional arguments; unknown-flag detection for helpful errors.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace vcoadc::util {

/// A numeric flag whose value does not parse completely or does not fit
/// the type asked for; what() names the flag and the value.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ArgParser {
 public:
  ArgParser(int argc, const char* const argv[]);

  bool has(const std::string& flag) const;
  std::string get(const std::string& flag,
                  const std::string& fallback = {}) const;
  /// Numeric flags: an absent flag yields `fallback`. A present one must
  /// parse completely ("16k", "1e3" for an integer, "two" and "" do not)
  /// and fit the type (get_double: a finite double; get_u64: no sign);
  /// otherwise the call throws ArgError.
  double get_double(const std::string& flag, double fallback) const;
  int get_int(const std::string& flag, int fallback) const;
  std::uint64_t get_u64(const std::string& flag,
                        std::uint64_t fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Flags present on the command line that are not in `known` (including
  /// the leading dashes as typed).
  std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;  // name (no dashes) -> value
  std::vector<std::string> positional_;
};

}  // namespace vcoadc::util
