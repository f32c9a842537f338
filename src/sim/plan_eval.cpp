#include "sim/plan_eval.h"

#include <algorithm>
#include <optional>
#include <span>

#include "common/check.h"
#include "common/hash.h"
#include "compile/compiler.h"
#include "graph/training.h"
#include "sched/scheduler.h"
#include "sim/sim_core.h"

namespace heterog::sim {

namespace {

std::string comm_resource_name(const compile::ResourceModel& resources, int r) {
  const int devices = resources.device_count();
  if (resources.is_link_resource(r)) {
    const int pair = r - devices;
    return "link G" + std::to_string(pair / devices) + "->G" +
           std::to_string(pair % devices);
  }
  if (r == resources.nccl_resource()) return "nccl";
  if (resources.is_nic_resource(r)) {
    const int nic = r - resources.nccl_resource() - 1;
    return "nic host" + std::to_string(nic / 2) +
           (nic % 2 == 0 ? " egress" : " ingress");
  }
  return "resource " + std::to_string(r);
}

/// Per-device and per-comm-resource busy times plus the critical path of the
/// single-iteration schedule (max plain upward rank == longest dependency
/// chain, since transfers are explicit nodes and edges are free).
void collect_utilization(const compile::DistGraph& graph, const SimResult& single,
                         const std::vector<double>& plain_ranks, PlanEvaluation& eval) {
  const compile::ResourceModel& resources = graph.resources();
  eval.device_busy_ms.assign(static_cast<size_t>(resources.device_count()), 0.0);
  for (const auto& [r, busy] : single.resource_busy) {
    if (resources.is_gpu_resource(r)) {
      eval.device_busy_ms[static_cast<size_t>(r)] = busy;
    } else if (busy > 0.0) {
      eval.comm_busy.push_back({comm_resource_name(resources, r), busy});
    }
  }
  eval.critical_path_ms =
      plain_ranks.empty() ? 0.0
                          : *std::max_element(plain_ranks.begin(), plain_ranks.end());
}

/// Structural fingerprint of (graph, grouping, iterations) for the unroll
/// cache. Covers everything unroll_iterations / Grouping::unroll read except
/// op names — no evaluation result depends on node names (evaluate_plan
/// compiles with emit_node_names off).
uint64_t unroll_key(const graph::GraphDef& graph, const strategy::Grouping& grouping,
                    int iterations) {
  Hash64 h;
  h.mix(0x756e726f6c6cULL);  // "unroll" domain tag
  h.mix(static_cast<uint64_t>(iterations));
  h.mix(static_cast<uint64_t>(graph.op_count()));
  h.mix_double(graph.global_batch());
  for (const auto& op : graph.ops()) {
    h.mix(static_cast<uint64_t>(op.kind));
    h.mix(static_cast<uint64_t>(op.role));
    h.mix_double(op.flops_per_sample);
    h.mix_double(op.flops_fixed);
    h.mix_signed(op.out_bytes_per_sample);
    h.mix_signed(op.out_bytes_fixed);
    h.mix_signed(op.param_bytes);
    h.mix(op.batch_divisible ? 1 : 0);
    h.mix_signed(op.grad_of);
    h.mix_signed(op.mirror_of);
    const auto& succ = graph.successors(op.id);
    h.mix(succ.size());
    for (const auto s : succ) h.mix_signed(s);
  }
  for (const auto g : grouping.assignment()) h.mix_signed(g);
  return h.digest();
}

/// Validates `graph` and binds the workspace's view to it; every run until
/// the next bind simulates it.
void bind(SimWorkspace& ws, const compile::DistGraph& graph) {
  validate_for_simulation(graph);
  ws.graph.build(graph);
}

/// Single iteration: memory, breakdown and cold makespan, under the order
/// the scheduler's tryout picks. The compiled graph lives only for this
/// call, so the larger unroll compiles without it.
///
/// For HeteroG's order policy the Scheduler is simulator-driven: it tries
/// the resource-chained ranks, the plain upward ranks and the FIFO order on
/// the compiled graph and enforces whichever finishes first (list
/// scheduling has no universally dominant priority rule; simulating the
/// candidates is exactly what the paper's Scheduler/Simulator pair is for).
/// Each candidate runs once with memory tracking, which never changes the
/// dispatch order; a later one wins only on a strictly smaller makespan. A
/// FIFO request tries FIFO alone.
PlanEvaluation evaluate_cold_iteration(const compile::GraphCompiler& compiler,
                                       const profiler::CostProvider& costs,
                                       const graph::GraphDef& training_graph,
                                       const strategy::Grouping& grouping,
                                       const strategy::StrategyMap& strategy,
                                       const PlanEvalOptions& options, SimWorkspace& ws) {
  static constexpr sched::OrderPolicy kCandidates[] = {
      sched::OrderPolicy::kRankPriority, sched::OrderPolicy::kPlainRanks,
      sched::OrderPolicy::kFifo};
  const std::span<const sched::OrderPolicy> candidates =
      options.policy == sched::OrderPolicy::kFifo
          ? std::span<const sched::OrderPolicy>(kCandidates).last(1)
          : std::span<const sched::OrderPolicy>(kCandidates);
  const compile::CompileResult compiled =
      compiler.compile(training_graph, grouping, strategy);
  const compile::DistGraph& graph = compiled.graph;
  const auto topo = graph.topological_order();
  SimOptions sim_options;
  sim_options.usable_memory_fraction = options.usable_memory_fraction;

  PlanEvaluation eval;
  SimResult single;
  std::vector<double> plain_ranks;  // the critical path is their maximum
  bind(ws, graph);
  for (const sched::OrderPolicy candidate : candidates) {
    std::vector<double> priorities = sched::priorities(graph, topo, candidate);
    sim_options.policy = candidate;
    SimResult result = run_core(ws.graph, priorities, sim_options, ws);
    if (candidate == sched::OrderPolicy::kPlainRanks) plain_ranks = std::move(priorities);
    if (candidate == candidates.front() || result.makespan_ms < single.makespan_ms) {
      single = std::move(result);
      eval.order = candidate;
    }
  }
  ws.graph = CompactGraph{};  // the graph dies with this call
  apply_oom_check(single, costs.cluster(), options.usable_memory_fraction);

  eval.cold_iteration_ms = single.makespan_ms;
  eval.per_iteration_ms = single.makespan_ms;
  eval.computation_ms = single.computation_time_ms;
  eval.communication_ms = single.communication_time_ms;
  eval.oom = single.oom;
  eval.peak_memory_bytes = std::move(single.peak_memory_bytes);
  eval.oom_devices = std::move(single.oom_devices);
  if (options.collect_utilization) {
    if (plain_ranks.empty()) {
      plain_ranks = sched::priorities(graph, topo, sched::OrderPolicy::kPlainRanks);
    }
    collect_utilization(graph, single, plain_ranks, eval);
  }
  return eval;
}


}  // namespace

std::shared_ptr<const PlanEvalScratch::Unrolled> PlanEvalScratch::unrolled(
    const graph::GraphDef& training_graph, const strategy::Grouping& grouping,
    int iterations) {
  const uint64_t key = unroll_key(training_graph, grouping, iterations);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, v] : entries_) {
      if (k == key) return v;
    }
  }
  auto built = std::make_shared<Unrolled>(
      Unrolled{graph::unroll_iterations(training_graph, iterations),
               strategy::Grouping::unroll(grouping, iterations)});
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;  // lost the build race; share the winner
  }
  if (entries_.size() >= 16) entries_.erase(entries_.begin());  // tiny LRU-ish cap
  entries_.emplace_back(key, built);
  return built;
}

PlanEvaluation evaluate_plan(const profiler::CostProvider& costs,
                             const graph::GraphDef& training_graph,
                             const strategy::Grouping& grouping,
                             const strategy::StrategyMap& strategy,
                             PlanEvalOptions options, PlanEvalScratch* scratch) {
  check(options.unroll_iterations >= 1, "evaluate_plan: bad unroll");
  check(options.policy != sched::OrderPolicy::kPlainRanks,
        "evaluate_plan: plain ranks are a scheduler candidate, not a request");
  // Node names are write-only below this point (PlanEvaluation reports
  // resource names, never node names) — skip building them in the hot loop.
  compile::CompilerOptions compiler_options = options.compiler;
  compiler_options.emit_node_names = false;
  compiler_options.validate_output = false;  // asserted structure, not results
  const compile::GraphCompiler compiler(costs, compiler_options);
  // The thread's workspace serves every run below (zero allocations after
  // warm-up).
  SimWorkspace& ws = thread_workspace();

  PlanEvaluation eval = evaluate_cold_iteration(compiler, costs, training_graph,
                                                grouping, strategy, options, ws);
  if (options.unroll_iterations == 1 || (options.skip_unroll_on_oom && eval.oom)) {
    return eval;
  }

  // Steady state: unroll and difference out the pipeline fill. The unroll is
  // strategy-independent, so the scratch (when provided) serves it from its
  // cache after the first plan of a (graph, grouping, k) triple.
  std::shared_ptr<const PlanEvalScratch::Unrolled> cached;
  std::optional<PlanEvalScratch::Unrolled> local;
  if (scratch != nullptr) {
    cached = scratch->unrolled(training_graph, grouping, options.unroll_iterations);
  } else {
    local.emplace(PlanEvalScratch::Unrolled{
        graph::unroll_iterations(training_graph, options.unroll_iterations),
        strategy::Grouping::unroll(grouping, options.unroll_iterations)});
  }
  const PlanEvalScratch::Unrolled& unrolled = scratch != nullptr ? *cached : *local;
  const compile::CompileResult steady =
      compiler.compile(unrolled.graph, unrolled.grouping, strategy);
  SimOptions sim_options;
  sim_options.policy = eval.order;
  sim_options.track_memory = false;
  sim_options.usable_memory_fraction = options.usable_memory_fraction;
  const std::vector<double> priorities =
      sched::priorities(steady.graph, steady.graph.topological_order(), eval.order);
  bind(ws, steady.graph);
  const double t_k = run_core(ws.graph, priorities, sim_options, ws).makespan_ms;
  ws.graph = CompactGraph{};
  const double cold_ms = eval.cold_iteration_ms;
  eval.per_iteration_ms =
      (t_k - cold_ms) / static_cast<double>(options.unroll_iterations - 1);
  // Guard against degenerate overlap estimates (per-iteration time can never
  // exceed the cold makespan nor be non-positive).
  if (eval.per_iteration_ms <= 0.0 || eval.per_iteration_ms > cold_ms) {
    eval.per_iteration_ms = cold_ms;
  }
  return eval;
}

}  // namespace heterog::sim
