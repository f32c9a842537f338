// Per-layer replay. The traced run re-executes the planner's stages through
// each layer's public entry point with the benchmark's clock around every
// call, so a plan's wall time splits into profile / encode / compile / rank /
// simulate without instrumentation under src/. Every replayed evaluation is
// checked bit for bit against sim::evaluate_plan, so the split describes the
// computation the planner actually runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/features.h"
#include "bench.h"
#include "cluster/cluster.h"
#include "graph/graph.h"
#include "profiler/profiler.h"
#include "sim/plan_eval.h"
#include "strategy/strategy.h"

namespace planbench {

/// Layer times (ms) and work counts of replayed evaluations, summed.
struct EvalSplit {
  int evals = 0;
  double compile_single_ms = 0.0;
  double compile_unroll_ms = 0.0;
  double rank_ms = 0.0;
  double tryout_ms = 0.0;  // the three scheduler tryouts (+ the winner's re-run)
  double unroll_sim_ms = 0.0;
  double nodes = 0.0;         // compiled DistGraph nodes, single + unrolled
  double edges = 0.0;
  double cost_queries = 0.0;  // CostProvider calls made by the compiler
  double sim_nodes = 0.0;     // nodes over every simulation run
  double plain_wins = 0.0;    // tryouts won by plain upward ranks
  double fifo_wins = 0.0;     // tryouts won by FIFO order

  double total_ms() const {
    return compile_single_ms + compile_unroll_ms + rank_ms + tryout_ms + unroll_sim_ms;
  }
};

/// The unrolled training graph and grouping, built once per plan as the
/// evaluation engine's scratch builds it.
struct Unrolled {
  heterog::graph::GraphDef graph;
  heterog::strategy::Grouping grouping;
  double build_ms = 0.0;
};
Unrolled unroll(const heterog::graph::GraphDef& training,
                const heterog::strategy::Grouping& grouping);

/// Replays sim::evaluate_plan (rank-priority policy) for one strategy and
/// adds its layer times to `split`. Returns the per-iteration time and sets
/// `*oom`. A result that differs from evaluate_plan's is a violation.
double replay_evaluation(const heterog::profiler::CostProvider& costs,
                         const heterog::graph::GraphDef& training,
                         const heterog::strategy::Grouping& grouping,
                         const heterog::strategy::StrategyMap& strategy,
                         const heterog::sim::PlanEvalOptions& options,
                         const Unrolled& unrolled, EvalSplit& split, bool* oom,
                         Report& report);

/// Profile and feature encoding of one (training graph, cluster, seed), as
/// make_plan runs them.
struct Profiled {
  std::unique_ptr<heterog::profiler::HardwareModel> hardware;
  std::shared_ptr<const heterog::profiler::CostModel> costs;
  heterog::agent::EncodedGraph encoded;
  double profile_ms = 0.0;
  double encode_ms = 0.0;
};
Profiled profile_and_encode(const heterog::graph::GraphDef& training,
                            const heterog::cluster::ClusterSpec& cluster,
                            uint64_t profiler_seed);

/// One plan split into layers: profile, encode, candidate evaluations and
/// the ground-truth deployment (compile + evaluate_plan).
struct PlanSplit {
  double profile_ms = 0.0;
  double encode_ms = 0.0;
  double unroll_ms = 0.0;
  double deploy_compile_ms = 0.0;
  double deploy_eval_ms = 0.0;
  int groups = 0;
  EvalSplit evals;
  // The replayed deployment, compared with the program's.
  std::string plan_text;
  double per_iteration_ms = 0.0;
  bool feasible = false;
};

/// Fills `split` with the profile/encode times of `profiled`.
PlanSplit start_split(const Profiled& profiled);

/// Replays make_plan's ground-truth deployment of `strategy` into `split`.
void replay_deployment(const Profiled& profiled, const heterog::graph::GraphDef& training,
                       const heterog::strategy::StrategyMap& strategy, PlanSplit& split);

/// The zero-episode get_runner path (profile, encode, heuristic candidates,
/// deploy the best) replayed stage by stage.
PlanSplit replay_heuristic_plan(const heterog::graph::GraphDef& training,
                                const heterog::cluster::ClusterSpec& cluster,
                                uint64_t profiler_seed, Report& report);

/// nn layer times of replayed REINFORCE episodes: Trainer::reinforce_step's
/// calls on a fresh policy.
struct NnSplit {
  int episodes = 0;
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double optim_ms = 0.0;
  double sample_ms = 0.0;
  double tape_ops = 0.0;
  double total_ms() const { return fwd_ms + bwd_ms + optim_ms + sample_ms; }
};
/// Appends every sampled strategy to `sampled`.
NnSplit replay_episodes(const heterog::agent::EncodedGraph& encoded, int device_count,
                        int episodes, uint64_t seed,
                        std::vector<heterog::strategy::StrategyMap>* sampled);

/// How often the program ran each stage of a split during one pass.
struct StageCounts {
  double plans = 0.0;  // encodes
  double profiles = 0.0;
  double deploys = 0.0;
  double evals = 0.0;  // full (uncached) candidate evaluations
};
/// Adds `split`, scaled by `counts`, to the per-layer metrics.
void add_split(Report& report, const PlanSplit& split, const StageCounts& counts);

}  // namespace planbench
