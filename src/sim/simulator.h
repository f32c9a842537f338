// Discrete-event simulator for distributed training graphs (paper Sec. 3.3
// Simulator, Sec. 5 Implementation).
//
// Faithful to the paper's description:
//   * a ready queue per device; "every GPU processes at most one computation
//     operation at a time, and every link sends tensor for at most one
//     communication operation at a time";
//   * a single NCCL channel — collectives serialise;
//   * reference-counted memory simulation recording per-device peak usage,
//     used to flag OOM strategies;
//   * per-iteration makespan plus computation / communication busy times for
//     the Fig. 8 breakdown.
//
// The engine is the data-oriented core (sim_core.h — flat SoA state, pooled
// per-thread workspace). The original per-node priority_queue simulator
// lives test-side (tests/reference_sim.h) as its differential oracle; the
// wall is tests/sim_diff_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "compile/dist_graph.h"
#include "sched/scheduler.h"
#include "sim/sim_types.h"

namespace heterog::sim {

/// Thread-safety: run()/run_with_priorities() are pure functions of
/// (options_, graph) — working state lives on the call stack or in a
/// per-thread workspace, so one Simulator (or many) may run concurrently
/// from any number of threads. rl::EvalEngine relies on this to fan plan
/// evaluations across its pool.
class Simulator {
 public:
  explicit Simulator(SimOptions options = SimOptions()) : options_(options) {}

  /// Executes the graph under the configured order policy, with the
  /// priorities sched::priorities gives it unless they are provided.
  SimResult run(const compile::DistGraph& graph) const;
  SimResult run_with_priorities(const compile::DistGraph& graph,
                                const std::vector<double>& priorities) const;

 private:
  SimOptions options_;
};

/// Rejects graphs the simulator cannot execute safely: a graph that is not
/// finalized (finalize() range-checks devices, links and participants),
/// NaN/infinite/negative durations (DistGraph::with_durations does not
/// check them), and NaN priorities (a NaN priority breaks the ready queues'
/// strict total order — see sim_order.h). Throws CheckError; called by
/// every Simulator entry point, exercised by tests/serialize_fuzz_test.cpp.
void validate_for_simulation(const compile::DistGraph& graph,
                             const std::vector<double>* priorities = nullptr);

/// Flags devices whose simulated peak memory exceeds the usable fraction of
/// their capacity; sets result.oom / result.oom_devices.
void apply_oom_check(SimResult& result, const cluster::ClusterSpec& cluster,
                     double usable_memory_fraction = 0.92);

/// Convenience: simulated per-iteration time under HeteroG's order policy.
double simulate_iteration_ms(const compile::DistGraph& graph);

/// Convenience: full evaluation (rank policy + OOM check against `cluster`).
SimResult evaluate(const compile::DistGraph& graph, const cluster::ClusterSpec& cluster,
                   SimOptions options = SimOptions());

/// Exhaustive minimum makespan over all list-schedule priority orders.
/// Exponential; refuses graphs larger than `max_nodes`. Used to validate the
/// (M + M^2) scheduling bound on small instances.
double optimal_makespan_exhaustive(const compile::DistGraph& graph, int max_nodes = 9);

}  // namespace heterog::sim
