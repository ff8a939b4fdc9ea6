// perfbench: the host-clock benchmark of the fdet face-detection stack.
//
//   perfbench --workload <detect_540p|serve_180p_faults|fleet_shared_content>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--cache-dir fdet_cache] [--out-dir .]
//             [--inject-decode-us <us>] [--inject-launch-us <us>]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). A failed correctness gate prints its reason on
// standard error and exits 1; an error before a result exits 2.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--cache-dir <dir>] [--out-dir <dir>] "
               "[--inject-decode-us <us>] [--inject-launch-us <us>]\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("expected --flag value pairs, got '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  const auto number = [&](const std::string& key, double fallback) {
    const auto it = args.find(key);
    if (it == args.end()) {
      return fallback;
    }
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
      usage("--" + key + " needs a number, got '" + it->second + "'");
    }
    return value;
  };
  for (const auto& [key, value] : args) {
    static const char* known[] = {"workload", "seed", "seconds", "trace",
                                  "cache-dir", "out-dir", "inject-decode-us",
                                  "inject-launch-us"};
    bool ok = false;
    for (const char* k : known) {
      ok = ok || key == k;
    }
    if (!ok) {
      usage("unknown flag --" + key);
    }
  }
  if (!args.count("workload")) {
    usage("--workload is required");
  }
  config.workload = args["workload"];
  config.seed = static_cast<std::uint64_t>(number("seed", 1));
  config.seconds = number("seconds", 10);
  config.trace = number("trace", 0) != 0.0;
  if (args.count("cache-dir")) config.cache_dir = args["cache-dir"];
  if (args.count("out-dir")) config.out_dir = args["out-dir"];
  config.inject_decode_us = number("inject-decode-us", 0);
  config.inject_launch_us = number("inject-launch-us", 0);
  if (config.seconds <= 0.0) {
    usage("--seconds must be positive");
  }
  return config;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out;
}

/// nproc, compiler, build type, seed and thread count of this run.
std::string stamp(const RunConfig& config) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return "{\"workload\":\"" + json_escape(config.workload) +
         "\",\"seed\":" + std::to_string(config.seed) +
         ",\"seconds\":" + json_number(config.seconds) +
         ",\"trace\":" + (config.trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(nproc) +
         ",\"threads\":1,\"compiler\":\"" + json_escape(__VERSION__) +
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
         "\",\"cxx_flags\":\"" + json_escape(PERFBENCH_CXX_FLAGS) +
         "\",\"inject_decode_us\":" + json_number(config.inject_decode_us) +
         ",\"inject_launch_us\":" + json_number(config.inject_launch_us) +
         "}";
}

void print_layer_table(const std::vector<Metric>& metrics) {
  std::printf("perfbench layers:\n");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  const std::map<std::string,
                 std::function<Outcome(const RunConfig&, Gate&, SpanLog&)>>
      workloads = {
          {"detect_540p", run_detect_540p},
          {"serve_180p_faults", run_serve_180p_faults},
          {"fleet_shared_content", run_fleet_shared_content},
      };
  const auto it = workloads.find(config.workload);
  if (it == workloads.end()) {
    usage("unknown workload '" + config.workload + "'");
  }
  const std::string run_stamp = stamp(config);
  print_line("stamp", run_stamp);
  std::fflush(stdout);

  Gate gate;
  Outcome outcome;
  try {
    SpanLog spans(Clock::now());
    outcome = it->second(config, gate, spans);
    outcome.e2e.peak_rss_mb = peak_rss_mb();
    if (config.trace) {
      std::filesystem::create_directories(config.out_dir);
      const std::string path = config.out_dir + "/" + config.workload +
                               "-seed" + std::to_string(config.seed) +
                               ".trace.json";
      spans.write(path, run_stamp);
      print_line("trace", path + " (" + std::to_string(spans.size()) +
                              " spans)");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: error: " << error.what() << "\n";
    return 2;
  }

  const std::vector<Metric> metrics =
      config.trace ? outcome.layers.metrics() : outcome.e2e.metrics();
  for (const Metric& m : metrics) {
    gate.require(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  if (config.trace) {
    print_layer_table(metrics);
  }
  std::string json = "{\"correct\": ";
  json += gate.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted) +
          ", \"failed\": " + std::to_string(outcome.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? json_number(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return gate.ok() ? 0 : 1;
}
