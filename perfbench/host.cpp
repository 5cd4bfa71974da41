// Host/build fingerprint and process memory for the benchmark's output.
#include <sys/resource.h>

#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/json.h"
#include "util/simd.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace json = vcoadc::util::json;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json(int threads, const std::string& git_sha) {
  json::Value v = json::Value::make_object();
  v.set("cpu", json::Value::make_string(cpu_model()));
  v.set("simd", json::Value::make_string(vcoadc::util::simd::runtime_summary()));
  v.set("hw_threads", json::Value::make_number(
                          std::thread::hardware_concurrency()));
  v.set("threads", json::Value::make_number(threads));
  v.set("compiler", json::Value::make_string(PERFBENCH_COMPILER));
  v.set("build_type", json::Value::make_string(PERFBENCH_BUILD_TYPE));
  v.set("git_sha", json::Value::make_string(git_sha));
  return json::dump(v);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
