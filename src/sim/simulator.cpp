#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/sim_core.h"

namespace heterog::sim {

void validate_for_simulation(const compile::DistGraph& graph,
                             const std::vector<double>* priorities) {
  check(graph.finalized(), "simulator: graph is not finalized");
  for (const double duration : graph.durations()) {
    check(std::isfinite(duration) && duration >= 0.0,
          "simulator: node duration must be finite and non-negative");
  }
  if (priorities != nullptr) {
    check(static_cast<int>(priorities->size()) == graph.node_count(),
          "run_with_priorities: size mismatch");
    for (const double p : *priorities) {
      check(!std::isnan(p),
            "simulator: NaN priority breaks the ready-queue total order");
    }
  }
}

SimResult Simulator::run(const compile::DistGraph& graph) const {
  return run_with_priorities(
      graph, sched::priorities(graph, graph.topological_order(), options_.policy));
}

SimResult Simulator::run_with_priorities(const compile::DistGraph& graph,
                                         const std::vector<double>& priorities) const {
  validate_for_simulation(graph, &priorities);
  SimWorkspace& ws = thread_workspace();
  ws.graph.build(graph);
  return run_core(ws.graph, priorities, options_, ws);
}

void apply_oom_check(SimResult& result, const cluster::ClusterSpec& cluster,
                     double usable_memory_fraction) {
  result.oom = false;
  result.oom_devices.clear();
  for (const auto& d : cluster.devices()) {
    // A peak vector shorter than the device count (e.g. a graph compiled for
    // a smaller device set, or track_memory disabled) means no recorded
    // usage on the missing devices — treat it as zero rather than indexing
    // out of bounds. `continue` (not `break`) so a dense-by-id assumption on
    // devices() is never load-bearing here.
    if (d.id < 0 || static_cast<size_t>(d.id) >= result.peak_memory_bytes.size()) {
      continue;
    }
    const auto usable = static_cast<int64_t>(
        static_cast<double>(d.memory_bytes) * usable_memory_fraction);
    if (result.peak_memory_bytes[static_cast<size_t>(d.id)] > usable) {
      result.oom = true;
      result.oom_devices.push_back(d.id);
    }
  }
}

double simulate_iteration_ms(const compile::DistGraph& graph) {
  Simulator sim;
  return sim.run(graph).makespan_ms;
}

SimResult evaluate(const compile::DistGraph& graph, const cluster::ClusterSpec& cluster,
                   SimOptions options) {
  Simulator sim(options);
  SimResult result = sim.run(graph);
  apply_oom_check(result, cluster, options.usable_memory_fraction);
  return result;
}

double optimal_makespan_exhaustive(const compile::DistGraph& graph, int max_nodes) {
  check(graph.node_count() <= max_nodes,
        "optimal_makespan_exhaustive: graph too large for exhaustive search");
  std::vector<int> perm(static_cast<size_t>(graph.node_count()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);

  SimOptions options;
  options.track_memory = false;
  Simulator simulator(options);

  double best = -1.0;
  std::vector<double> priorities(perm.size(), 0.0);
  do {
    // perm[i] is the i-th most urgent node.
    for (size_t i = 0; i < perm.size(); ++i) {
      priorities[static_cast<size_t>(perm[i])] = static_cast<double>(perm.size() - i);
    }
    const double makespan = simulator.run_with_priorities(graph, priorities).makespan_ms;
    if (best < 0.0 || makespan < best) best = makespan;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace heterog::sim
