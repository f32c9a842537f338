// REINFORCE training of the policy network (paper Sec. 4.1.3).
//
//   reward R = -sqrt(T)        (simulated per-iteration time)
//              x10 on OOM      (strategies that overflow device memory)
//   J(theta) = E[R] + lambda * H(pi)       (entropy-regularised)
//   theta <- theta + alpha * grad log pi(a) (r - R_bar) + lambda grad H
//
// where R_bar is a per-graph moving average of rewards.
//
// The trainer also evaluates a small set of heuristic warm-start candidates
// (the four uniform DP strategies, a capacity-balanced MP packing and a
// parameter-heavy-MP hybrid) and keeps the best feasible plan seen anywhere
// as the incumbent — the plan HeteroG finally deploys is the best found
// during search, exactly as in the paper's workflow.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "agent/policy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "compile/compiler.h"
#include "obs/event_log.h"
#include "rl/eval_engine.h"
#include "sim/plan_eval.h"

namespace heterog::rl {

struct TrainConfig {
  int episodes = 150;             // episodes per search
  /// Compiler behaviour used for every evaluation (collective fusion, PS RPC
  /// overhead) — defaults to the paper's per-tensor collectives.
  compile::CompilerOptions compiler;
  int samples_per_episode = 4;    // strategies sampled per policy update
  double learning_rate = 1e-3;
  double entropy_weight = 0.03;
  double baseline_decay = 0.9;
  double oom_penalty_factor = 10.0;
  bool seed_heuristics = true;    // evaluate warm-start candidates
  /// Greedy single-group polish moves applied to the incumbent after the
  /// episode budget (cheap hill climbing; particularly effective on the
  /// memory-repaired large-model plans). <= 0 disables.
  int polish_moves = 48;
  /// Stop early when the incumbent has not improved for this many episodes
  /// (<= 0 disables early stopping).
  int patience = 60;
  uint64_t seed = 7;
  /// Worker threads for strategy evaluation (per-episode samples, heuristic
  /// seeds, OOM repair, polish lookahead). 1 = serial. Results are
  /// bit-identical whatever the value — tests/eval_engine_test.cpp pins it.
  int threads = 1;
  /// Memoized evaluations kept in the engine's LRU cache (0 disables);
  /// re-sampled strategies skip compile+simulate entirely.
  size_t eval_cache_capacity = 4096;
  /// Skip the steady-state unroll for OOM strategies in evaluate(),
  /// evaluate_batch() and search(), reporting the cold makespan instead
  /// (sim::PlanEvalOptions::skip_unroll_on_oom). Changes time_ms/reward for
  /// infeasible strategies, so the RL search leaves it off.
  /// search_heuristic() always evaluates this way: its reduce reads only
  /// `oom` and the feasible winner's time.
  bool skip_unroll_on_oom = false;
  /// Durable cross-run evaluation cache (non-owning; must outlive the
  /// Trainer). Null disables the tier. When set, plan_store_context MUST
  /// carry the cluster/cost-model identity hash (heterog's planning stage
  /// derives it from the cluster fingerprint + profiler seed) — see
  /// rl::EvalEngineOptions::store_context.
  store::PlanStore* plan_store = nullptr;
  uint64_t plan_store_context = 0;
  /// Telemetry sink (non-owning; must outlive the Trainer). When set, every
  /// search streams search_start / search_phase / search_episode /
  /// search_end JSONL events (docs/observability.md). Write-only: attaching
  /// a log never changes the search result — tests/obs_test.cpp pins
  /// bit-identical results with events on and off.
  obs::EventLog* events = nullptr;
};

/// Per-episode telemetry of one REINFORCE update (the search_episode event
/// payload; all rewards unitless, entropy in nats).
struct EpisodeStats {
  double mean_reward = 0.0;  // mean reward over the episode's samples
  double baseline = 0.0;     // moving-average baseline after the update
  double entropy = 0.0;      // mean per-group policy entropy
  int oom_samples = 0;       // samples whose plan overflowed device memory
};

/// Evaluation of one concrete strategy.
struct Evaluation {
  double time_ms = 0.0;
  bool oom = false;
  double reward = 0.0;
};

struct SearchResult {
  strategy::StrategyMap best_strategy;
  double best_time_ms = 0.0;
  /// Reward of the incumbent under the trainer's reward model
  /// (-sqrt(T seconds), x oom_penalty_factor when infeasible).
  double best_reward = 0.0;
  bool best_feasible = false;
  int episodes_run = 0;
  int episode_of_best = 0;
  std::vector<double> episode_best_ms;  // incumbent trace per episode
  /// Evaluation-cache traffic of this search (hits = evaluations answered
  /// without compile+simulate; misses = full evaluations performed).
  uint64_t eval_cache_hits = 0;
  uint64_t eval_cache_misses = 0;
  /// Durable-store traffic (zero unless TrainConfig::plan_store is set):
  /// store hits are cross-run cache hits — evaluations answered from disk.
  uint64_t eval_store_hits = 0;
  uint64_t eval_store_misses = 0;
};

class Trainer {
 public:
  Trainer(const profiler::CostProvider& costs, TrainConfig config);

  /// Evaluates a strategy end-to-end (compile + rank-order simulate + OOM
  /// check) and converts the result to a reward. Memoized: identical
  /// (graph, grouping, strategy) tuples are answered from the engine cache.
  Evaluation evaluate(const graph::GraphDef& graph, const strategy::Grouping& grouping,
                      const strategy::StrategyMap& strategy) const;

  /// Evaluates `strategies` concurrently across the engine's worker pool;
  /// result i corresponds to strategies[i] (deterministic reduce order).
  std::vector<Evaluation> evaluate_batch(
      const graph::GraphDef& graph, const strategy::Grouping& grouping,
      const std::vector<strategy::StrategyMap>& strategies) const;

  /// Trains `policy` on one graph until the episode budget (or patience) is
  /// exhausted; returns the incumbent best plan.
  SearchResult search(agent::PolicyNetwork& policy, const agent::EncodedGraph& encoded);

  /// Heuristic-only search: evaluates the heuristic_candidates as one
  /// parallel batch and keeps the fastest feasible one (the first candidate
  /// when none is feasible). The ordered reduce makes the pick independent
  /// of the thread count. Rejected candidates skip the steady-state unroll
  /// (see TrainConfig::skip_unroll_on_oom). Emits one search_end event and
  /// nothing else; episodes_run and episode_of_best are 0.
  SearchResult search_heuristic(const graph::GraphDef& graph,
                                const strategy::Grouping& grouping) const;

  /// One multi-graph pre-training round (Sec. 4.1.3 samples a set of graphs
  /// per update). Returns the mean reward across graphs.
  double pretrain_round(agent::PolicyNetwork& policy,
                        const std::vector<const agent::EncodedGraph*>& graphs);

  /// Heuristic warm-start candidates for a graph (public for tests/benches).
  std::vector<strategy::StrategyMap> heuristic_candidates(
      const graph::GraphDef& graph, const strategy::Grouping& grouping) const;

  /// Greedy memory repair: while the plan OOMs, move the heaviest MP group
  /// (or demote the heaviest DP group to MP) off each overflowing device onto
  /// the device with the most simulated headroom. Returns the repaired map
  /// and its evaluation; gives up after `max_iterations`.
  std::pair<strategy::StrategyMap, Evaluation> repair_oom(
      const graph::GraphDef& graph, const strategy::Grouping& grouping,
      strategy::StrategyMap map, int max_iterations = 16) const;

  const TrainConfig& config() const { return config_; }

  /// The evaluation engine behind evaluate()/search() (cache stats, test
  /// hooks). One engine — and therefore one cache — per Trainer, scoped to
  /// its CostProvider; a cluster change means a new Trainer and fresh cache.
  EvalEngine& eval_engine() const { return *engine_; }

 private:
  double reward_from(double time_ms, bool oom) const;
  sim::PlanEvalOptions eval_options() const;
  Evaluation to_evaluation(const sim::PlanEvaluation& plan) const;
  EpisodeStats reinforce_step(agent::PolicyNetwork& policy,
                              const agent::EncodedGraph& encoded,
                              MovingAverage& baseline, Rng& rng, SearchResult* result);

  const profiler::CostProvider* costs_;
  TrainConfig config_;
  /// Internally synchronised; mutable so the logically-const evaluate() can
  /// record cache traffic.
  mutable std::unique_ptr<EvalEngine> engine_;
  std::unique_ptr<nn::AdamOptimizer> optimizer_;  // bound to the first policy used
  agent::PolicyNetwork* bound_policy_ = nullptr;
  MovingAverage pretrain_baseline_;
};

}  // namespace heterog::rl
