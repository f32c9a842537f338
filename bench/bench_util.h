// Shared plumbing for the reproduction benches (one binary per paper table /
// figure).
//
// Knobs (environment variables):
//   HETEROG_EPISODES       RL episodes per HeteroG search (default 150)
//   HETEROG_MAX_GROUPS     grouping size (default 48)
//   HETEROG_BENCH_FAST     =1 shrinks searches for smoke runs (0 or 1)
//   HETEROG_PLAN_CACHE     directory for cached plans (default ./bench_cache)
//   HETEROG_BENCH_JSON     path: dump the metrics-registry snapshot (search
//                          convergence, plan-cache traffic, utilization) as
//                          one JSON object at write_bench_json()
//
// HeteroG searches are cached on disk keyed by (model, batch, cluster) so
// benches that share plans (Table 1 <-> Tables 2/3, Fig. 8) do not repeat
// the RL search.
//
// Every bench records into obs::MetricsRegistry::global() via heterog_plan:
// `rl.*` convergence gauges, `bench.plan_cache_*` counters and `sim.*`
// utilization ratios (naming convention in docs/observability.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/policy.h"
#include "baselines/baselines.h"
#include "common/record_io.h"
#include "common/table.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "profiler/profiler.h"
#include "rl/trainer.h"
#include "sim/plan_eval.h"
#include "strategy/serialize.h"

namespace heterog::bench {

constexpr int kNoLimit = std::numeric_limits<int>::max();

/// An integer knob from the environment, `fallback` when unset. The value is
/// read as every text format reads numbers (common/record_io): the whole
/// token, within [min, max]. Anything else stops the bench.
inline int env_int(const char* name, int fallback, int min, int max) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    Fields fields(value);
    const int knob = fields.integer<int>(name, min, max);
    fields.finish();
    return knob;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
}

inline bool fast_mode() { return env_int("HETEROG_BENCH_FAST", 0, 0, 1) == 1; }

inline int episodes() {
  return env_int("HETEROG_EPISODES", fast_mode() ? 20 : 150, 0, kNoLimit);
}

inline int max_groups() { return env_int("HETEROG_MAX_GROUPS", 48, 1, kNoLimit); }

inline std::string plan_cache_dir() {
  const char* dir = std::getenv("HETEROG_PLAN_CACHE");
  return dir != nullptr ? dir : "bench_cache";
}

/// Cluster + ground-truth cost oracle + evaluation harness.
struct BenchRig {
  cluster::ClusterSpec cluster;
  std::unique_ptr<profiler::HardwareModel> hardware;
  std::unique_ptr<profiler::GroundTruthCosts> costs;
  std::unique_ptr<baselines::Evaluator> evaluator;

  explicit BenchRig(cluster::ClusterSpec spec) : cluster(std::move(spec)) {
    hardware = std::make_unique<profiler::HardwareModel>(cluster);
    costs = std::make_unique<profiler::GroundTruthCosts>(*hardware);
    evaluator = std::make_unique<baselines::Evaluator>(*costs);
  }
};

struct HeteroGPlan {
  strategy::StrategyMap map;
  strategy::Grouping grouping;
  double per_iteration_ms = 0.0;
  bool feasible = false;
  bool from_cache = false;
  /// Full search telemetry (episode trace, cache traffic); empty when the
  /// plan came from the on-disk cache and no search ran.
  rl::SearchResult search;
  /// Ground-truth evaluation with utilization collected (device/link busy
  /// times, critical path).
  sim::PlanEvaluation eval;
};

/// Runs (or loads) the HeteroG search for one benchmark configuration.
inline HeteroGPlan heterog_plan(const BenchRig& rig, const models::Benchmark& bench,
                                double batch, const std::string& cache_tag,
                                compile::CompilerOptions compiler_options =
                                    compile::CompilerOptions()) {
  const auto graph = models::build_training(bench.kind, bench.layers, batch);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  HeteroGPlan plan;
  plan.grouping = strategy::Grouping::build(graph, *rig.costs, max_groups());

  const std::string cache_path =
      plan_cache_dir() + "/" + cache_tag + ".plan";
  std::filesystem::create_directories(plan_cache_dir());
  if (std::filesystem::exists(cache_path)) {
    // Checked load: the v2 fingerprint refuses a cache entry written for a
    // different cluster even when the device count matches. A corrupt or
    // stale entry is simply re-searched, not an error.
    try {
      auto cached = strategy::load_plan_checked(cache_path, rig.cluster);
      if (static_cast<int>(cached.group_actions.size()) == plan.grouping.group_count()) {
        plan.map = std::move(cached);
        plan.from_cache = true;
      }
    } catch (const strategy::PlanFormatError&) {
    }
  }
  metrics.add("bench.plans.count");
  if (plan.from_cache) {
    metrics.add("bench.plan_cache_hits.count");
  } else {
    metrics.add("bench.plan_cache_misses.count");
  }
  if (plan.map.group_actions.empty()) {
    rl::TrainConfig config;
    config.compiler = compiler_options;
    config.episodes = episodes();
    agent::AgentConfig agent_config;
    agent_config.max_groups = max_groups();
    agent::PolicyNetwork policy(rig.cluster.device_count(), agent_config);
    const auto encoded = agent::encode_graph(graph, *rig.costs, max_groups());
    rl::Trainer trainer(*rig.costs, config);
    obs::ScopedTimer search_timer(metrics, "rl.search_wall.ms");
    plan.search = trainer.search(policy, encoded);
    search_timer.stop();
    plan.map = plan.search.best_strategy;
    // Convergence columns: last search wins the gauges, the eval-cache
    // counters accumulate across every search of the bench.
    metrics.set("rl.search_episodes.count", plan.search.episodes_run);
    metrics.set("rl.episode_of_best.count", plan.search.episode_of_best);
    metrics.set("rl.best_time.ms", plan.search.best_time_ms);
    metrics.set("rl.best_reward.none", plan.search.best_reward);
    metrics.add("rl.eval_cache_hits.count", plan.search.eval_cache_hits);
    metrics.add("rl.eval_cache_misses.count", plan.search.eval_cache_misses);
  }

  sim::PlanEvalOptions eval_options;
  eval_options.compiler = compiler_options;
  eval_options.collect_utilization = true;
  obs::ScopedTimer eval_timer(metrics, "sim.plan_eval.ms");
  plan.eval =
      sim::evaluate_plan(*rig.costs, graph, plan.grouping, plan.map, eval_options);
  eval_timer.stop();
  plan.per_iteration_ms = plan.eval.per_iteration_ms;
  plan.feasible = !plan.eval.oom;
  if (plan.eval.cold_iteration_ms > 0.0 && !plan.eval.device_busy_ms.empty()) {
    double busy_sum = 0.0;
    for (const double b : plan.eval.device_busy_ms) busy_sum += b;
    const double denom =
        plan.eval.cold_iteration_ms * static_cast<double>(plan.eval.device_busy_ms.size());
    metrics.set("sim.device_util_mean.ratio", busy_sum / denom);
    metrics.set("sim.device_util_max.ratio",
                *std::max_element(plan.eval.device_busy_ms.begin(),
                                  plan.eval.device_busy_ms.end()) /
                    plan.eval.cold_iteration_ms);
    metrics.set("sim.critical_path_share.ratio",
                plan.eval.critical_path_ms / plan.eval.cold_iteration_ms);
  }
  return plan;
}

/// Reproducibility knobs of one bench invocation, written verbatim into the
/// JSON dump as `"config":{...}`. Values are raw JSON fragments: numbers via
/// std::to_string, strings via config_str. Order is preserved.
using BenchConfig = std::vector<std::pair<std::string, std::string>>;

/// Quotes (and escapes) a string for use as a BenchConfig value.
inline std::string config_str(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Dumps the global metrics registry as one JSON object
/// ({"bench":NAME,"config":{...},"metrics":{counters,gauges,histograms}}) to
/// the path in HETEROG_BENCH_JSON; no-op when the variable is unset. Call at
/// the end of each bench main so the BENCH output carries utilization and
/// convergence columns machine-readably, and pass the scenario knobs (chaos
/// seed, cache/store configuration) so a perf trajectory is attributable to
/// a reproducible configuration.
inline void write_bench_json(const char* bench_name,
                             const BenchConfig& config = {}) {
  const char* path = std::getenv("HETEROG_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::string json = std::string("{\"bench\":\"") + bench_name + "\"";
  json += ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) json += ",";
    first = false;
    json += config_str(key) + ":" + value;
  }
  json += "}";
  json += ",\"metrics\":" + obs::MetricsRegistry::global().snapshot().to_json() + "}\n";
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("bench metrics json written to %s\n", path);
}

/// Formats "our / speed-up" cells in Table 1/4 style: baseline time with the
/// speed-up of HeteroG over it.
inline std::string baseline_cell(double baseline_ms, double heterog_ms, bool oom) {
  if (oom) return "OOM / -";
  const double speedup = 100.0 * (baseline_ms - heterog_ms) / heterog_ms;
  return fmt_double(baseline_ms / 1000.0) + " / " + fmt_double(speedup, 1) + "%";
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("episodes=%d max_groups=%d fast=%d\n", episodes(), max_groups(),
              fast_mode() ? 1 : 0);
  std::printf("==============================================================\n");
}

}  // namespace heterog::bench
