// fraudsim benchmark program.
//
//   perfbench --workload <admit_mix|soc_day|detect_window|sharded_scale>
//             --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//             [--git-sha SHA]
//
// Runs one workload, checks its outputs, prints a human-readable report, and
// ends standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, derived from in-memory spans that are also dumped as
// JSON lines to <out-dir>/spans-<workload>.jsonl. A JSON report with the run
// metadata goes to <out-dir>/report-<workload>-trace<0|1>.json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

// End-to-end metrics, reported by every workload's untraced run. ops_per_sec
// counts the workload's own unit of work (see kAliases). Every timing is wall
// time.
const std::vector<MetricDef>& end_to_end() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},   {"peak_rss_mb", "MB"}, {"ops_per_sec", "1/s"},
      {"op_p50_us", "us"}, {"op_p99_us", "us"},
  };
  return defs;
}

// Detector families DetectionPipeline::build_detectors() yields with every
// non-graph family armed (detect_window's posture).
const std::vector<std::string>& detector_families() {
  static const std::vector<std::string> families = {
      "behavior.volume",      "behavior.classifier",     "behavior.navigation",
      "ip.reputation",        "biometric.pointer",       "fingerprint.artifact",
      "fingerprint.consistency", "fingerprint.rarity",   "nip.anomaly",
      "name.patterns",        "sms.anomaly"};
  return families;
}

// Per-layer metrics, reported by every workload's traced run; a layer the
// workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const char* kind :
         {"browse", "quote_fare", "hold", "pay", "request_otp", "boarding_sms"}) {
      d.push_back({std::string("app.call_p50_us.") + kind, "us"});
    }
    d.insert(d.end(), {
                          {"app.self_ns", "ns"},
                          {"mitigate.evaluate_ns", "ns"},
                          {"mitigate.evaluations", "count"},
                          {"mitigate.deny_ratio", "ratio"},
                          {"overload.offered", "count"},
                          {"overload.admitted", "count"},
                          {"overload.shed", "count"},
                          {"airline.expiry_sweep_ms", "ms"},
                          {"airline.holds_ok", "count"},
                          {"journal.append_ns", "ns"},
                          {"journal.bytes_per_call", "B"},
                          {"journal.read_ms", "ms"},
                          {"journal.frames", "count"},
                          {"graph.ingest_ns", "ns"},
                          {"graph.nodes", "count"},
                          {"graph.edges", "count"},
                          {"graph.nodes_evicted", "count"},
                          {"graph.maintenance_runs", "count"},
                          {"mitigate.sweep_ms", "ms"},
                          {"mitigate.sweeps", "count"},
                          {"mitigate.actions", "count"},
                          {"checkpoint.write_ms", "ms"},
                          {"checkpoint.bytes", "B"},
                          {"checkpoint.restore_ms", "ms"},
                          {"sim.self_s", "s"},
                          {"sim.events", "count"},
                          {"detect.sessionize_ms", "ms"},
                      });
    for (const std::string& family : detector_families()) {
      d.push_back({"detect." + family + ".ns_per_session", "ns"});
    }
    d.insert(d.end(), {
                          {"detect.sessions", "count"},
                          {"detect.alerts", "count"},
                          {"detect.skipped", "count"},
                          {"scale.messages_per_event", "ratio"},
                          {"scale.barriers", "count"},
                          {"scale.exchange_retries", "count"},
                          {"scale.graph_events", "count"},
                          {"scale.parallel_speedup", "ratio"},
                          {"trace.overhead", "ratio"},
                          {"trace.named_share", "ratio"},
                          {"trace.spans", "count"},
                      });
    return d;
  }();
  return defs;
}

// What ops_per_sec / op latency mean per workload, under the names the
// report prints them with.
struct Alias {
  const char* throughput;
  const char* throughput_unit;
  const char* latency;
};
const std::map<std::string, Alias> kAliases = {
    {"admit_mix", {"admit_per_sec", "calls/s", "admit"}},
    {"soc_day", {"soc_requests_per_sec", "req/s", "soc_request"}},
    {"detect_window", {"detect_sessions_per_sec", "sessions/s", "detect_run"}},
    {"sharded_scale", {"scale_events_per_sec", "events/s", "scale_run"}},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <admit_mix|soc_day|detect_window|sharded_scale>"
               " --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] [--git-sha SHA]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : std::string(); };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--git-sha") {
      options.git_sha = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto alias = kAliases.find(options.workload);
  if (alias == kAliases.end()) return usage("unknown or missing --workload");
  if (options.seconds <= 0) return usage("--seconds must be positive");

  Result result;
  if (options.workload == "admit_mix") result = run_admit_mix(options);
  if (options.workload == "soc_day") result = run_soc_day(options);
  if (options.workload == "detect_window") result = run_detect_window(options);
  if (options.workload == "sharded_scale") result = run_sharded_scale(options);
  if (!options.trace) result.metrics["peak_rss_mb"] = peak_rss_mb();

  // Every declared metric is reported; a layer the workload does not touch
  // reads 0. A metric outside the declared set is a benchmark bug.
  const std::vector<MetricDef>& defs = options.trace ? per_layer() : end_to_end();
  std::map<std::string, std::string> units;
  for (const MetricDef& d : defs) units[d.name] = d.unit;
  std::string undeclared;
  for (const auto& [name, value] : result.metrics) {
    if (!units.contains(name)) undeclared += " " + name;
  }
  result.check("every reported metric is declared" + undeclared, undeclared.empty());
  for (const MetricDef& d : defs) result.metrics.try_emplace(d.name, 0.0);

  const bool correct = result.correct();
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  std::map<std::string, std::string> meta = result.facts;
  meta["workload"] = options.workload;
  meta["seed"] = std::to_string(options.seed);
  meta["seconds"] = number(options.seconds);
  meta["trace"] = options.trace ? "1" : "0";
  meta["smoke"] = options.smoke ? "1" : "0";
  meta["nproc"] = std::to_string(nproc);
  meta["compiler"] = PERFBENCH_COMPILER;
  meta["flags"] = PERFBENCH_FLAGS;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["git_sha"] = options.git_sha;

  // Human-readable report.
  std::cout << "== perfbench " << options.workload << " (" << (options.trace ? "traced" : "untraced")
            << ") ==\n";
  for (const auto& [k, v] : meta) std::cout << "  meta " << k << " = " << v << "\n";
  for (const auto& [name, ok] : result.checks) {
    std::cout << "  check " << (ok ? "PASS " : "FAIL ") << name << "\n";
  }
  std::cout << "  error_rate = " << number(error_rate) << " ratio (" << result.failed << " failed / "
            << result.attempted << " attempted)\n";
  for (const MetricDef& d : defs) {
    std::cout << "  " << d.name << " = " << number(result.metrics[d.name]) << " " << d.unit << "\n";
  }
  if (!options.trace) {
    std::cout << "  " << alias->second.throughput << " = " << number(result.metrics["ops_per_sec"])
              << " " << alias->second.throughput_unit << "\n"
              << "  " << alias->second.latency << "_p50_us = " << number(result.metrics["op_p50_us"])
              << " us\n"
              << "  " << alias->second.latency << "_p99_us = " << number(result.metrics["op_p99_us"])
              << " us\n";
  }

  // Metadata report file, then the result line.
  std::ostringstream metrics_json;
  metrics_json << "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    metrics_json << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
                 << number(result.metrics[d.name]) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  metrics_json << "}";

  std::ofstream report(options.out_dir + "/report-" + options.workload + "-trace" +
                       (options.trace ? "1" : "0") + ".json");
  report << "{\n  \"meta\": {";
  first = true;
  for (const auto& [k, v] : meta) {
    report << (first ? "" : ",") << "\n    \"" << k << "\": \"" << json_escape(v) << "\"";
    first = false;
  }
  report << "\n  },\n  \"error_rate\": " << number(error_rate) << ",\n  \"checks\": {";
  first = true;
  for (const auto& [name, ok] : result.checks) {
    report << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": " << (ok ? "true" : "false");
    first = false;
  }
  report << "\n  },\n  \"metrics\": " << metrics_json.str() << "\n}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json.str() << "}" << std::endl;
  return correct ? 0 : 1;
}
