// End-to-end plan evaluation: compile + simulate, reporting steady-state
// per-iteration time.
//
// A single-iteration makespan over-charges parameter synchronisation: pulls
// and late collectives overlap the *next* iteration's forward pass in a real
// training loop. evaluate_plan therefore simulates an unrolled multi-
// iteration graph (graph::unroll_iterations) and reports
//   per_iteration = (T_k - T_1) / (k - 1),
// while memory (peaks / OOM) comes from the single-iteration simulation —
// frameworks bound inter-iteration buffering with back-pressure, so one
// iteration's working set is the honest memory figure.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "compile/compiler.h"
#include "profiler/cost_provider.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"

namespace heterog::sim {

/// One named communication resource's busy time over a single iteration
/// (links "link G0->G2", the NCCL channel "nccl", NICs "nic host0 egress").
struct CommResourceBusy {
  std::string resource;
  double busy_ms = 0.0;
};

struct PlanEvaluation {
  double per_iteration_ms = 0.0;    // steady state
  double cold_iteration_ms = 0.0;   // single-iteration makespan
  /// The execution order the scheduler's tryout chose; every figure here
  /// was simulated under it, and so is every later step of the deployed
  /// plan. Filled on every evaluate_plan call but not persisted: PlanStore
  /// records omit it, and the deploy stage never reads the store.
  sched::OrderPolicy order = sched::OrderPolicy::kRankPriority;
  double computation_ms = 0.0;      // busiest GPU, single iteration
  double communication_ms = 0.0;    // busiest comm resource, single iteration
  bool oom = false;
  std::vector<int64_t> peak_memory_bytes;
  std::vector<cluster::DeviceId> oom_devices;

  /// Filled only when PlanEvalOptions::collect_utilization is set (the
  /// deployment path; off in the search hot loop so memoized cache entries
  /// stay small). All figures are over the single cold iteration.
  std::vector<double> device_busy_ms;        // per device id (ms)
  std::vector<CommResourceBusy> comm_busy;   // comm resources with busy > 0
  double critical_path_ms = 0.0;             // longest dependency chain (ms)
};

struct PlanEvalOptions {
  /// kRankPriority: the scheduler tries chained ranks, plain ranks and FIFO
  /// and keeps the fastest. kFifo: FIFO only. kPlainRanks is rejected.
  sched::OrderPolicy policy = sched::OrderPolicy::kRankPriority;
  compile::CompilerOptions compiler;
  /// Iterations in the steady-state unroll (>= 1; 1 disables unrolling and
  /// reports the cold makespan as per-iteration time).
  int unroll_iterations = 2;
  double usable_memory_fraction = 0.92;
  /// Also compute per-device / per-link busy times and the critical path
  /// (PlanEvaluation::device_busy_ms et al.). Deliberately NOT part of
  /// rl::EvalEngine's cache key: only the deployment path (which bypasses
  /// the cache) turns it on.
  bool collect_utilization = false;
  /// Report the cold makespan as per_iteration_ms for OOM plans instead of
  /// simulating the steady-state unroll — an infeasible plan's steady-state
  /// rate is never deployed, and at 1000 GPUs the unroll is ~40% of an
  /// evaluation. Off by default because it changes per_iteration_ms (and
  /// hence RL rewards) for OOM strategies; the heuristic-only planning path
  /// — which only ever reads `oom` and the winner's time — turns it on.
  /// IS part of rl::EvalEngine's cache key (it changes results).
  bool skip_unroll_on_oom = false;
};

/// Cross-call scratch for evaluate_plan. Caches the unrolled training
/// GraphDef + Grouping, which depend only on (graph, grouping, iterations) —
/// NOT on the strategy — so one entry serves every plan an engine evaluates
/// for a model. Keyed by a structural fingerprint of the graph (op workload
/// fields + edges + grouping assignment; names excluded — no evaluation
/// result depends on them). Thread-safe; rl::EvalEngine shares one instance
/// across its worker pool.
class PlanEvalScratch {
 public:
  struct Unrolled {
    graph::GraphDef graph;
    strategy::Grouping grouping;
  };

  /// Returns the cached unroll of (`training_graph`, `grouping`) at
  /// `iterations`, building and caching it on first use.
  std::shared_ptr<const Unrolled> unrolled(const graph::GraphDef& training_graph,
                                           const strategy::Grouping& grouping,
                                           int iterations);

 private:
  std::mutex mu_;
  std::vector<std::pair<uint64_t, std::shared_ptr<const Unrolled>>> entries_;
};

/// Compiles `strategy` against `costs` and evaluates it. `scratch` (optional)
/// memoises the strategy-independent unrolled graph across calls; results
/// are bit-identical with and without it.
PlanEvaluation evaluate_plan(const profiler::CostProvider& costs,
                             const graph::GraphDef& training_graph,
                             const strategy::Grouping& grouping,
                             const strategy::StrategyMap& strategy,
                             PlanEvalOptions options = PlanEvalOptions(),
                             PlanEvalScratch* scratch = nullptr);

}  // namespace heterog::sim
