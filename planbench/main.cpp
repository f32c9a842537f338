// Planner benchmark entry point (planbench/README.md). planbench/run.py
// builds this binary and runs it from the checkout root as
//
//   planbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//
// It prints a table of what it measured, then one JSON result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit code 0: outputs correct; 1: a check failed; 2: error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

using namespace planbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json "end_to_end": every workload defines each over its own
/// plans (planbench/README.md). None is ever 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"plan_wall_s", "s"},       {"tail_wall_s", "s"},
    {"rate_per_s", "1/s"}, {"plan_iter_ms", "sim_ms"}, {"peak_rss_mb", "MB"},
};

/// BENCHMARK.json "per_layer", named module.metric. A layer a workload
/// never reaches reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"profiler.profile_ms", "ms"},
    {"profiler.calls", "count"},
    {"cluster.generate_ms", "ms"},
    {"agent.encode_ms", "ms"},
    {"agent.groups", "count"},
    {"nn.policy_fwd_ms", "ms"},
    {"nn.policy_bwd_ms", "ms"},
    {"nn.optim_ms", "ms"},
    {"nn.sample_ms", "ms"},
    {"nn.tape_ops", "count"},
    {"rl.heuristics_ms", "ms"},
    {"rl.episodes_ms", "ms"},
    {"rl.polish_ms", "ms"},
    {"rl.other_ms", "ms"},
    {"rl.episodes", "count"},
    {"rl.evals", "count"},
    {"rl.eval_hits", "count"},
    {"rl.eval_hit_ratio", "ratio"},
    {"rl.oom_ratio", "ratio"},
    {"graph.unroll_ms", "ms"},
    {"compile.single_ms", "ms"},
    {"compile.unroll_ms", "ms"},
    {"compile.deploy_ms", "ms"},
    {"compile.nodes", "count"},
    {"compile.edges", "count"},
    {"compile.cost_queries", "count"},
    {"sched.rank_ms", "ms"},
    {"sim.tryout_ms", "ms"},
    {"sim.unroll_ms", "ms"},
    {"sim.deploy_eval_ms", "ms"},
    {"sim.tryout_wins_plain", "count"},
    {"sim.tryout_wins_fifo", "count"},
    {"sim.nodes", "count"},
    {"store.open_ms", "ms"},
    {"store.lookup_ms", "ms"},
    {"store.put_ms", "ms"},
    {"store.flush_ms", "ms"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.flushes", "count"},
    {"server.service_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.codec_ms", "ms"},
    {"server.rejects", "count"},
    {"server.degraded", "count"},
    {"server.lo_p50_ms", "ms"},
    {"server.lo_p95_ms", "ms"},
    {"server.lo_requests", "count"},
    {"server.lo_backlog_grew", "flag"},
    {"server.hi_p50_ms", "ms"},
    {"server.hi_p95_ms", "ms"},
    {"server.hi_requests", "count"},
    {"server.hi_backlog_grew", "flag"},
    {"server.max_rps", "1/s"},
    {"core.replan_ms", "ms"},
    {"core.run_self_ms", "ms"},
    {"core.recoveries", "count"},
    {"core.retries", "count"},
    {"core.steps_lost", "count"},
    {"core.recovery_p50_ms", "ms"},
    {"core.steps_per_s", "1/s"},
    {"core.train_s", "sim_s"},
    {"health.detections", "count"},
    {"health.detect_latency_steps", "steps"},
    {"health.quarantines", "count"},
    {"health.detection_overhead_ms", "sim_ms"},
    {"faults.events", "count"},
    {"faults.chaos_plan_ms", "ms"},
    {"ckpt.write_ms", "ms"},
    {"ckpt.writes", "count"},
    {"ckpt.bytes", "bytes"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.fail_ratio", "ratio"},
};

const std::map<std::string, void (*)(const Args&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const Args&, Report&)> table = {
      {"search_testbed", &run_search_testbed},
      {"plan_scale", &run_plan_scale},
      {"serve_mixed", &run_serve_mixed},
      {"run_chaos", &run_chaos},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "planbench: %s\nusage: planbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR\n",
               why);
  return 2;
}

/// Prints the table and the result line for `specs`; checks that the
/// workload reported nothing outside the declared metrics.
template <size_t N>
void print_result(Report& report, const MetricSpec (&specs)[N], bool end_to_end) {
  std::map<std::string, double> values = report.values();
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const MetricSpec& s : kEndToEnd) declared = declared || name == s.name;
    for (const MetricSpec& s : kPerLayer) declared = declared || name == s.name;
    if (!declared) report.violation("undeclared metric " + name);
  }
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const MetricSpec& s : specs) {
    const double value = values[s.name];
    if (!std::isfinite(value) || (end_to_end && value <= 0.0)) {
      report.violation(std::string("metric ") + s.name + " is " + std::to_string(value));
    }
    std::printf("%-32s %20.6f %s\n", s.name, value, s.unit);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + s.name + "\": {\"value\": " +
               (std::isfinite(value) ? number : "null") + ", \"unit\": \"" + s.unit + "\"}";
  }
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_tmp = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("missing value");
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--tmp") {
      args.tmp = value;
      have_tmp = true;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload || !have_tmp) return usage("--workload and --tmp are required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  const auto workload = workloads().find(args.workload);
  if (workload == workloads().end()) return usage(("unknown workload " + args.workload).c_str());

  heterog::set_log_level(heterog::LogLevel::kWarn);
  Report report;
  try {
    workload->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "planbench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  if (args.trace) {
    report.set("bench.fail_ratio",
               report.attempted() > 0
                   ? static_cast<double>(report.failed()) / static_cast<double>(report.attempted())
                   : 0.0);
    print_result(report, kPerLayer, false);
  } else {
    print_result(report, kEndToEnd, true);
  }
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
