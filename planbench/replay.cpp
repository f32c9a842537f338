#include "replay.h"

#include <cmath>

#include "agent/policy.h"
#include "common/rng.h"
#include "compile/compiler.h"
#include "graph/training.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "rl/trainer.h"
#include "sched/scheduler.h"
#include "sim/sim_core.h"
#include "strategy/serialize.h"

namespace planbench {
namespace {

using namespace heterog;

/// Counts the cost queries a compile makes (compile.cost_queries).
class CountingCosts final : public profiler::CostProvider {
 public:
  explicit CountingCosts(const profiler::CostProvider& inner) : inner_(&inner) {}

  double op_time_ms(const graph::OpDef& op, double batch,
                    cluster::DeviceId dev) const override {
    ++queries_;
    return inner_->op_time_ms(op, batch, dev);
  }
  double transfer_time_ms(int64_t bytes, cluster::DeviceId from,
                          cluster::DeviceId to) const override {
    ++queries_;
    return inner_->transfer_time_ms(bytes, from, to);
  }
  const cluster::ClusterSpec& cluster() const override { return inner_->cluster(); }

  uint64_t queries() const { return queries_; }

 private:
  const profiler::CostProvider* inner_;
  mutable uint64_t queries_ = 0;
};

double edge_count(const compile::DistGraph& graph) {
  double edges = 0.0;
  for (compile::DistNodeId n = 0; n < graph.node_count(); ++n) {
    edges += static_cast<double>(graph.successors(n).size());
  }
  return edges;
}

/// evaluate_plan's simulation entry point (data-oriented core): the flat
/// graph is built once per compiled graph and the thread's workspace is
/// reused across the tryouts.
class Simulation {
 public:
  explicit Simulation(const compile::DistGraph& graph)
      : workspace_(&sim::thread_workspace()) {
    sim::validate_for_simulation(graph);
    workspace_->graph.build(graph);
  }
  sim::SimResult run(const std::vector<double>& priorities,
                     const sim::SimOptions& options) const {
    return sim::run_core(workspace_->graph, priorities, options, *workspace_, nullptr);
  }

 private:
  sim::SimWorkspace* workspace_;
};

}  // namespace

Unrolled unroll(const graph::GraphDef& training, const strategy::Grouping& grouping) {
  const int iterations = sim::PlanEvalOptions{}.unroll_iterations;
  const auto t0 = Clock::now();
  Unrolled out{graph::unroll_iterations(training, iterations),
               strategy::Grouping::unroll(grouping, iterations), 0.0};
  out.build_ms = ms_since(t0);
  return out;
}

double replay_evaluation(const profiler::CostProvider& costs,
                         const graph::GraphDef& training,
                         const strategy::Grouping& grouping,
                         const strategy::StrategyMap& strategy,
                         const sim::PlanEvalOptions& options, const Unrolled& unrolled,
                         EvalSplit& split, bool* oom, Report& report) {
  // The same compiler settings evaluate_plan forces for the search loop.
  CountingCosts counting(costs);
  compile::CompilerOptions compiler_options = options.compiler;
  compiler_options.emit_node_names = false;
  compiler_options.validate_output = false;
  const compile::GraphCompiler compiler(counting, compiler_options);

  auto t0 = Clock::now();
  const compile::CompileResult compiled = compiler.compile(training, grouping, strategy);
  split.compile_single_ms += ms_since(t0);
  const compile::DistGraph& graph = compiled.graph;

  sim::SimOptions sim_options;
  sim_options.policy = options.policy;
  sim_options.usable_memory_fraction = options.usable_memory_fraction;

  t0 = Clock::now();
  const auto topo = graph.topological_order();
  const std::vector<double> chained = sched::rank_priorities(graph, topo);
  const std::vector<double> plain_ranks = sched::compute_ranks(graph, topo, {});
  split.rank_ms += ms_since(t0);

  // The scheduler tryout: chained ranks (memory tracked), plain ranks and
  // FIFO; a challenger wins only on a strictly smaller makespan and is then
  // re-simulated with memory tracking.
  t0 = Clock::now();
  const Simulation simulation(graph);
  sim::SimResult single = simulation.run(chained, sim_options);
  sim::SimOptions trial = sim_options;
  trial.track_memory = false;
  const sim::SimResult plain = simulation.run(plain_ranks, trial);
  bool chained_won = true;
  bool rerun = false;
  if (plain.makespan_ms < single.makespan_ms) {
    single = plain;
    chained_won = false;
    rerun = true;
  }
  sim::SimOptions fifo_options = sim_options;
  fifo_options.policy = sched::OrderPolicy::kFifo;
  sim::SimOptions fifo_trial = fifo_options;
  fifo_trial.track_memory = false;
  const std::vector<double> zeros(static_cast<size_t>(graph.node_count()), 0.0);
  const sim::SimResult fifo = simulation.run(zeros, fifo_trial);
  bool fifo_won = false;
  if (fifo.makespan_ms < single.makespan_ms) {
    single = fifo;
    sim_options.policy = sched::OrderPolicy::kFifo;
    fifo_won = true;
    rerun = true;
  }
  int simulations = 3;
  if (rerun && sim_options.track_memory) {
    single = fifo_won ? simulation.run(zeros, fifo_options)
                      : simulation.run(plain_ranks, sim_options);
    ++simulations;
  }
  sim::apply_oom_check(single, costs.cluster(), options.usable_memory_fraction);
  split.tryout_ms += ms_since(t0);
  split.plain_wins += (!chained_won && !fifo_won) ? 1.0 : 0.0;
  split.fifo_wins += fifo_won ? 1.0 : 0.0;
  split.nodes += graph.node_count();
  split.edges += edge_count(graph);
  split.sim_nodes += static_cast<double>(simulations) * graph.node_count();

  double per_iteration_ms = single.makespan_ms;
  if (!(options.unroll_iterations == 1 || (options.skip_unroll_on_oom && single.oom))) {
    t0 = Clock::now();
    const compile::CompileResult steady =
        compiler.compile(unrolled.graph, unrolled.grouping, strategy);
    split.compile_unroll_ms += ms_since(t0);
    sim::SimOptions steady_options = sim_options;
    steady_options.track_memory = false;
    t0 = Clock::now();
    std::vector<double> priorities;
    if (steady_options.policy == sched::OrderPolicy::kRankPriority) {
      const auto steady_topo = steady.graph.topological_order();
      priorities = chained_won ? sched::rank_priorities(steady.graph, steady_topo)
                               : sched::compute_ranks(steady.graph, steady_topo, {});
    } else {
      priorities.assign(static_cast<size_t>(steady.graph.node_count()), 0.0);
    }
    split.rank_ms += ms_since(t0);
    t0 = Clock::now();
    const double t_k = Simulation(steady.graph).run(priorities, steady_options).makespan_ms;
    split.unroll_sim_ms += ms_since(t0);
    split.nodes += steady.graph.node_count();
    split.edges += edge_count(steady.graph);
    split.sim_nodes += steady.graph.node_count();
    per_iteration_ms = (t_k - single.makespan_ms) /
                       static_cast<double>(options.unroll_iterations - 1);
    if (per_iteration_ms <= 0.0 || per_iteration_ms > single.makespan_ms) {
      per_iteration_ms = single.makespan_ms;
    }
  }
  split.cost_queries += static_cast<double>(counting.queries());
  ++split.evals;

  const sim::PlanEvaluation reference =
      sim::evaluate_plan(costs, training, grouping, strategy, options);
  if (reference.per_iteration_ms != per_iteration_ms || reference.oom != single.oom) {
    report.violation("replayed evaluation of " + training.name() + " gives " +
                     std::to_string(per_iteration_ms) + " ms, evaluate_plan " +
                     std::to_string(reference.per_iteration_ms) + " ms");
  }
  *oom = single.oom;
  return per_iteration_ms;
}

Profiled profile_and_encode(const graph::GraphDef& training,
                            const cluster::ClusterSpec& cluster, uint64_t profiler_seed) {
  Profiled out;
  out.hardware = std::make_unique<profiler::HardwareModel>(cluster);
  auto t0 = Clock::now();
  profiler::Profiler prof(*out.hardware, profiler_seed);
  out.costs = prof.profile(training);
  out.profile_ms = ms_since(t0);
  t0 = Clock::now();
  out.encoded = agent::encode_graph(training, *out.costs, agent::AgentConfig{}.max_groups);
  out.encode_ms = ms_since(t0);
  return out;
}

PlanSplit start_split(const Profiled& profiled) {
  PlanSplit split;
  split.profile_ms = profiled.profile_ms;
  split.encode_ms = profiled.encode_ms;
  split.groups = profiled.encoded.group_count();
  return split;
}

void replay_deployment(const Profiled& profiled, const graph::GraphDef& training,
                       const strategy::StrategyMap& strategy, PlanSplit& split) {
  const profiler::GroundTruthCosts ground_truth(*profiled.hardware);
  auto t0 = Clock::now();
  const compile::CompileResult compiled =
      compile::GraphCompiler(ground_truth).compile(training, profiled.encoded.grouping,
                                                    strategy);
  split.deploy_compile_ms += ms_since(t0);
  sim::PlanEvalOptions options;
  options.collect_utilization = true;
  t0 = Clock::now();
  const sim::PlanEvaluation deployment = sim::evaluate_plan(
      ground_truth, training, profiled.encoded.grouping, strategy, options);
  split.deploy_eval_ms += ms_since(t0);
  split.plan_text = strategy::to_text(strategy, profiled.hardware->cluster());
  split.per_iteration_ms = deployment.per_iteration_ms;
  split.feasible = !deployment.oom;
}

PlanSplit replay_heuristic_plan(const graph::GraphDef& training,
                                const cluster::ClusterSpec& cluster,
                                uint64_t profiler_seed, Report& report) {
  const Profiled profiled = profile_and_encode(training, cluster, profiler_seed);
  PlanSplit split = start_split(profiled);
  const strategy::Grouping& grouping = profiled.encoded.grouping;

  rl::TrainConfig config;
  config.skip_unroll_on_oom = true;  // as make_plan's heuristic-only path
  const rl::Trainer trainer(*profiled.costs, config);
  const std::vector<strategy::StrategyMap> candidates =
      trainer.heuristic_candidates(training, grouping);
  const Unrolled unrolled = unroll(training, grouping);
  split.unroll_ms = unrolled.build_ms;
  sim::PlanEvalOptions options;
  options.compiler = config.compiler;
  options.skip_unroll_on_oom = true;

  // make_plan's reduce: the fastest feasible candidate, else the first.
  const strategy::StrategyMap* best = nullptr;
  double best_ms = 0.0;
  bool best_feasible = false;
  for (const strategy::StrategyMap& candidate : candidates) {
    bool oom = false;
    const double ms = replay_evaluation(*profiled.costs, training, grouping, candidate,
                                        options, unrolled, split.evals, &oom, report);
    const bool better = !oom && (!best_feasible || ms < best_ms);
    if (better || best == nullptr) {
      best = &candidate;
      best_ms = ms;
      best_feasible = !oom;
    }
  }
  if (best == nullptr) {
    report.violation("no heuristic candidates for " + training.name());
    return split;
  }
  replay_deployment(profiled, training, *best, split);
  return split;
}

NnSplit replay_episodes(const agent::EncodedGraph& encoded, int device_count,
                        int episodes, uint64_t seed,
                        std::vector<strategy::StrategyMap>* sampled) {
  const rl::TrainConfig defaults;
  agent::PolicyNetwork policy(device_count, agent::AgentConfig{});
  nn::AdamOptimizer::Options adam;
  adam.learning_rate = defaults.learning_rate;
  nn::AdamOptimizer optimizer(policy.params(), adam);
  Rng rng(seed);
  const int samples = defaults.samples_per_episode;

  NnSplit out;
  for (int episode = 0; episode < episodes; ++episode) {
    nn::Tape tape;
    auto t0 = Clock::now();
    const agent::PolicyForward forward = policy.forward(tape, encoded);
    const nn::Var log_probs = tape.log_softmax_rows(forward.logits);
    const nn::Var probs = tape.softmax_rows(forward.logits);
    const nn::Var entropy =
        tape.scale(tape.sum_all(tape.hadamard(probs, log_probs)),
                   -1.0 / static_cast<double>(encoded.group_count()));
    out.fwd_ms += ms_since(t0);

    t0 = Clock::now();
    std::vector<std::vector<int>> actions(static_cast<size_t>(samples));
    for (auto& a : actions) {
      a = policy.sample_actions(forward.logits.value(), rng,
                                policy.config().sample_temperature);
    }
    out.sample_ms += ms_since(t0);
    for (const auto& a : actions) {
      strategy::StrategyMap map;
      for (const int index : a) {
        map.group_actions.push_back(strategy::Action::from_index(index, device_count));
      }
      sampled->push_back(std::move(map));
    }

    // The rewards come from evaluations replayed separately; any fixed
    // advantages build the same loss graph.
    t0 = Clock::now();
    nn::Var loss;
    for (int s = 0; s < samples; ++s) {
      const auto& a = actions[static_cast<size_t>(s)];
      const double advantage = s - 0.5 * (samples - 1);
      const nn::Var mean_logp = tape.scale(tape.sum_all(tape.pick_per_row(log_probs, a)),
                                           1.0 / static_cast<double>(a.size()));
      const nn::Var term = tape.scale(mean_logp, -advantage / samples);
      loss = loss.defined() ? tape.add(loss, term) : term;
    }
    loss = tape.subtract(loss, tape.scale(entropy, defaults.entropy_weight));
    tape.backward(loss);
    out.bwd_ms += ms_since(t0);

    t0 = Clock::now();
    optimizer.step();
    out.optim_ms += ms_since(t0);
    out.tape_ops += static_cast<double>(tape.op_count());
    ++out.episodes;
  }
  return out;
}

void add_split(Report& report, const PlanSplit& split, const StageCounts& counts) {
  report.add("profiler.profile_ms", split.profile_ms * counts.profiles);
  report.add("profiler.calls", counts.profiles);
  report.add("agent.encode_ms", split.encode_ms * counts.plans);
  report.add("agent.groups", split.groups * counts.plans);
  report.add("graph.unroll_ms", split.unroll_ms * counts.plans);
  report.add("compile.deploy_ms", split.deploy_compile_ms * counts.deploys);
  report.add("sim.deploy_eval_ms", split.deploy_eval_ms * counts.deploys);

  const EvalSplit& e = split.evals;
  if (e.evals == 0 || counts.evals == 0.0) return;
  const double k = counts.evals / e.evals;  // replayed evaluations -> the pass's
  report.add("compile.single_ms", e.compile_single_ms * k);
  report.add("compile.unroll_ms", e.compile_unroll_ms * k);
  report.add("sched.rank_ms", e.rank_ms * k);
  report.add("sim.tryout_ms", e.tryout_ms * k);
  report.add("sim.unroll_ms", e.unroll_sim_ms * k);
  report.add("compile.nodes", std::round(e.nodes * k));
  report.add("compile.edges", std::round(e.edges * k));
  report.add("compile.cost_queries", std::round(e.cost_queries * k));
  report.add("sim.nodes", std::round(e.sim_nodes * k));
  report.add("sim.tryout_wins_plain", std::round(e.plain_wins * k));
  report.add("sim.tryout_wins_fifo", std::round(e.fifo_wins * k));
}

}  // namespace planbench
