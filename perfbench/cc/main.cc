// perfbench: runs one benchmark workload and prints its metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--span-out PATH]
//
// Prints one "report" JSON line (every metric with its unit and sample
// count, the run's facts, the build, and the first failures), then, as
// the last line, the result object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones from a traced run. Exits 1 if any output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--span-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--span-out") {
      options.span_path = value;
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadConfig* config = perfbench::FindWorkload(workload);
  if (config == nullptr || !have_seed || !have_seconds || !have_trace) {
    if (config == nullptr) std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage();
  }

  const perfbench::RunResult result = perfbench::RunWorkload(*config, options);

  std::string metrics, report_metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!metrics.empty()) {
      metrics += ", ";
      report_metrics += ", ";
    }
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
    report_metrics += JsonString(name) + ": {\"value\": " +
                      JsonNumber(m.value) + ", \"unit\": " +
                      JsonString(m.unit) +
                      ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  std::string facts;
  for (const auto& [name, v] : result.facts) {
    if (!facts.empty()) facts += ", ";
    facts += JsonString(name) + ": " + JsonNumber(v);
  }
  std::string series;
  for (const auto& [name, values] : result.series) {
    if (!series.empty()) series += ", ";
    series += JsonString(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      series += (i ? ", " : "") + JsonNumber(values[i]);
    }
    series += "]";
  }
  std::string failures;
  for (const std::string& f : result.failures) {
    if (!failures.empty()) failures += ", ";
    failures += JsonString(f);
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"release_build\": %s, "
      "\"compiler\": %s, \"facts\": {%s}, \"failures\": [%s], "
      "\"metrics\": {%s}, \"series\": {%s}}}\n",
      JsonString(config->name).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      JsonString(build_type).c_str(),
      build_type == "Release" ? "true" : "false",
      JsonString(PERFBENCH_COMPILER).c_str(), facts.c_str(), failures.c_str(),
      report_metrics.c_str(), series.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
