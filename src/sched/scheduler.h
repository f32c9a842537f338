// Execution-order scheduling (paper Sec. 4.2).
//
// The scheduler assigns every node of the distributed graph a priority
//   rank(o) = p(o) + max_{s in succ(o)} rank(s)
// (upward rank with zero-cost edges — edge costs are explicit transfer nodes
// in our IR). Each resource (GPU, link, NCCL channel) then executes its
// ready nodes in descending rank order; the simulator realises that policy.
//
// The paper proves T_LS <= (M + M^2) T* and exhibits a matching worst case;
// tests/bench_appendix_bound reproduce both.
#pragma once

#include <cstddef>
#include <vector>

#include "compile/dist_graph.h"

namespace heterog::sched {

/// Upward ranks over the distributed graph, in milliseconds (the unit of
/// node durations). rank[i] >= duration[i] > 0 for every node with positive
/// duration, and max_i rank[i] is the schedule's critical-path length.
/// Pure function — safe to call concurrently.
std::vector<double> compute_ranks(const compile::DistGraph& graph);

/// As above, with a caller-supplied topological order of `graph` — avoids
/// recomputing it when the caller already has one (sim::evaluate_plan ranks
/// the same compiled graph several ways). `topo` must be a topological order
/// of exactly this graph; results are identical to the overload above. The
/// unnamed trailing parameter only keeps planbench/replay.cpp, which passes
/// `{}`, compiling: planbench changes only with the benchmark, and that
/// change drops both the argument and this parameter.
std::vector<double> compute_ranks(const compile::DistGraph& graph,
                                  const std::vector<compile::DistNodeId>& topo,
                                  std::nullptr_t = nullptr);

/// An execution order. sim::evaluate_plan simulates the candidates and
/// records the winner as PlanEvaluation::order; every later simulation of
/// that plan runs under it. Appended values keep their integer: the
/// evaluation cache key mixes it.
enum class OrderPolicy {
  kRankPriority,  // HeteroG's list schedule: resource-chained upward ranks
  kFifo,          // TensorFlow's default: ready order (paper Sec. 6.6 baseline)
  kPlainRanks,    // upward ranks without the resource chains
};

/// Priorities realising the rank policy, in milliseconds of upward rank
/// (higher runs first). Pure function — safe to call concurrently.
///
/// Collectives all occupy the single NCCL channel and therefore serialise;
/// plain upward ranks are blind to that, which defers gradient-producing ops
/// behind the backward chain and starves the channel. Ranks are therefore
/// computed on a graph augmented with virtual edges chaining the collectives
/// in their natural (gradient-availability) order, so that an early
/// gradient's rank carries the whole remaining AllReduce backlog and
/// gradient ops interleave with backward compute — maximising the paper's
/// computation/communication overlap objective. Every chain edge points
/// forward in `topo`, so one reverse sweep of it computes them.
/// `topo` must be a topological order of exactly this graph (see
/// compute_ranks).
std::vector<double> rank_priorities(const compile::DistGraph& graph,
                                    const std::vector<compile::DistNodeId>& topo);

/// The priorities that realise `policy` on `graph`: rank_priorities under
/// kRankPriority, compute_ranks under kPlainRanks, and zeros under kFifo,
/// where arrival order decides and `topo` is not read. `topo` must be a
/// topological order of exactly this graph. Pure function.
std::vector<double> priorities(const compile::DistGraph& graph,
                               const std::vector<compile::DistNodeId>& topo,
                               OrderPolicy policy);

}  // namespace heterog::sched
