#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "util/strings.h"

namespace vcoadc::util {

namespace {

/// The whole of `text` as a T, or ArgError naming `--flag=text` and what
/// was expected. from_chars takes no sign for unsigned types, reports
/// out-of-range values, and reads doubles the same in every locale.
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               const char* expected) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    throw ArgError("--" + flag + "=" + text + " is not " + expected);
  }
  return v;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const argv[]) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      const std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has(const std::string& flag) const {
  return flags_.count(flag) != 0;
}

std::string ArgParser::get(const std::string& flag,
                           const std::string& fallback) const {
  auto it = flags_.find(flag);
  return (it != flags_.end()) ? it->second : fallback;
}

double ArgParser::get_double(const std::string& flag, double fallback) const {
  auto it = flags_.find(flag);
  return (it != flags_.end())
             ? parse_number<double>(flag, it->second, "a finite number")
             : fallback;
}

int ArgParser::get_int(const std::string& flag, int fallback) const {
  auto it = flags_.find(flag);
  return (it != flags_.end())
             ? parse_number<int>(flag, it->second, "a 32-bit integer")
             : fallback;
}

std::uint64_t ArgParser::get_u64(const std::string& flag,
                                 std::uint64_t fallback) const {
  auto it = flags_.find(flag);
  return (it != flags_.end())
             ? parse_number<std::uint64_t>(flag, it->second,
                                           "a non-negative integer")
             : fallback;
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    bool ok = false;
    for (const auto& k : known) {
      if (k == name) ok = true;
    }
    if (!ok) out.push_back("--" + name);
  }
  return out;
}

}  // namespace vcoadc::util
