// Topology-generator scaling gate: wall-clock of the heuristic planning path
// versus generated cluster size, plus the determinism wall.
//
// For each generator preset (rack16 -> dc1000 = 100 machines / 1000 GPUs)
// this bench:
//   1. generates the cluster twice from the same options and asserts the
//      canonical JSON descriptions are byte-identical (and the planning
//      fingerprints equal) — the "same seed, same cluster" wall;
//   2. runs the CLI's heuristic planning path (profile -> encode ->
//      heuristic candidates -> batch evaluate -> compile -> evaluate) twice
//      and asserts the serialized winning plans are bit-identical;
//   3. times one planning pass and gates the largest preset at < 10 s —
//      the budget that keeps `heterog_cli plan --cluster-gen dc1000`
//      interactive. Exit code is nonzero on any violation.
//
// Smoke mode (HETEROG_BENCH_FAST=1, the CI configuration) runs the two
// small presets only; the wall-clock gate applies to whichever preset is
// largest in the selected set. HETEROG_BENCH_JSON carries the per-size
// gauges (bench.topo_plan_wall_<preset>.ms).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/topology.h"
#include "compile/compiler.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PlanOutcome {
  std::string plan_text;
  double time_ms = 0.0;
  bool feasible = false;
};

/// The heuristic (zero-episode) planning path, mirroring core/heterog.cpp's
/// choose and deploy stages: deterministic in (graph, cluster, seed).
PlanOutcome heuristic_plan(const cluster::ClusterSpec& cluster,
                           const graph::GraphDef& graph) {
  profiler::HardwareModel hardware(cluster);
  profiler::Profiler prof(hardware, /*seed=*/1);
  const auto cost_model = prof.profile(graph);

  const agent::EncodedGraph encoded = agent::encode_graph(graph, *cost_model, max_groups());
  const rl::Trainer trainer(*cost_model, rl::TrainConfig{});
  const strategy::StrategyMap best =
      trainer.search_heuristic(graph, encoded.grouping).best_strategy;

  // Deployment compile + evaluation against ground truth (the step a real
  // `plan` invocation pays before printing its summary).
  profiler::GroundTruthCosts ground_truth(hardware);
  sim::PlanEvalOptions options;
  const sim::PlanEvaluation deployment =
      sim::evaluate_plan(ground_truth, graph, encoded.grouping, best, options);

  PlanOutcome out;
  out.plan_text = strategy::to_text(best, cluster);
  out.time_ms = deployment.per_iteration_ms;
  out.feasible = !deployment.oom;
  return out;
}

std::string gauge_name(const std::string& preset) {
  return "bench.topo_plan_wall_" + preset + ".ms";
}

}  // namespace

int main() {
  print_header("Topology generator scaling: heuristic planning wall-clock vs GPU count",
               "cluster/comm model (DESIGN.md §5j, docs/topology.md)");

  const std::vector<std::string> presets =
      fast_mode() ? std::vector<std::string>{"rack16", "pod64"}
                  : std::vector<std::string>{"rack16", "pod64", "pod256", "dc1000"};
  constexpr double kWallBudgetMs = 10000.0;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  TextTable table({"preset", "GPUs", "hosts", "racks", "plan wall (ms)",
                   "iteration (ms)", "deterministic"});
  bool ok = true;
  double largest_wall_ms = 0.0;
  std::string largest_preset;

  for (const std::string& preset : presets) {
    const auto options = cluster::topo_preset(preset);
    if (!options) {
      std::fprintf(stderr, "FAIL: unknown preset %s\n", preset.c_str());
      return 1;
    }

    // Wall 1: same options -> byte-identical generated cluster.
    const cluster::ClusterSpec cluster = cluster::generate_cluster(*options);
    const cluster::ClusterSpec again = cluster::generate_cluster(*options);
    bool deterministic = cluster::cluster_to_json(cluster) == cluster::cluster_to_json(again) &&
                         cluster::cluster_fingerprint(cluster) ==
                             cluster::cluster_fingerprint(again);
    if (!deterministic) {
      std::fprintf(stderr, "FAIL: %s: same seed produced different clusters\n",
                   preset.c_str());
      ok = false;
    }

    // Batch scales with the cluster so every device can hold a replica.
    const double batch = 2.0 * cluster.device_count();
    const auto graph = models::build_training(models::ModelKind::kVgg19, 0, batch);

    const auto t0 = std::chrono::steady_clock::now();
    const PlanOutcome first = heuristic_plan(cluster, graph);
    const double wall_ms = wall_ms_since(t0);

    // Wall 2: repeat planning -> bit-identical serialized plan.
    const PlanOutcome second = heuristic_plan(cluster, graph);
    if (first.plan_text != second.plan_text) {
      std::fprintf(stderr, "FAIL: %s: repeated planning produced different plans\n",
                   preset.c_str());
      deterministic = false;
      ok = false;
    }

    metrics.set(gauge_name(preset), wall_ms);
    if (wall_ms > largest_wall_ms || largest_preset.empty()) {
      // The presets grow monotonically; remember the largest for the gate.
    }
    largest_wall_ms = wall_ms;
    largest_preset = preset;

    table.add_row({preset, std::to_string(cluster.device_count()),
                   std::to_string(cluster.host_count()),
                   std::to_string(cluster.has_topology()
                                      ? cluster.topology().rack_count()
                                      : 1),
                   fmt_double(wall_ms, 1), fmt_double(first.time_ms, 2),
                   deterministic && first.feasible ? "yes" : "NO"});
    if (!first.feasible) {
      std::fprintf(stderr, "FAIL: %s: heuristic plan is infeasible (OOM)\n",
                   preset.c_str());
      ok = false;
    }
  }

  std::printf("%s\n", table.render().c_str());

  // Wall 3: the largest selected preset must plan inside the budget.
  if (largest_wall_ms > kWallBudgetMs) {
    std::fprintf(stderr, "FAIL: %s planned in %.0f ms (budget %.0f ms)\n",
                 largest_preset.c_str(), largest_wall_ms, kWallBudgetMs);
    ok = false;
  } else {
    std::printf("gate: %s planned in %.0f ms (budget %.0f ms)\n",
                largest_preset.c_str(), largest_wall_ms, kWallBudgetMs);
  }

  write_bench_json("topology_scale",
                   {{"fast", fast_mode() ? "true" : "false"},
                    {"presets", config_str(presets.front() + ".." + presets.back())},
                    {"wall_budget_ms", std::to_string(kWallBudgetMs)}});
  return ok ? 0 : 1;
}
