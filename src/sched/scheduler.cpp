#include "sched/scheduler.h"

#include <algorithm>

namespace heterog::sched {

namespace {

/// Upward ranks in one reverse sweep of `topo`. With `chain_resources`, each
/// communication node also counts the next communication node on its
/// resource (every directed link and the single NCCL channel) as a
/// successor, so its rank carries the remaining backlog of that resource.
/// Those chain edges point forward in `topo`, so one sweep is exact.
std::vector<double> upward_ranks(const compile::DistGraph& graph,
                                 const std::vector<compile::DistNodeId>& topo,
                                 bool chain_resources) {
  std::vector<double> ranks(static_cast<size_t>(graph.node_count()), 0.0);
  // Per resource the graph uses (dense id): its next communication node in
  // `topo`, i.e. the one swept last.
  std::vector<compile::DistNodeId> next_on_resource(
      chain_resources ? static_cast<size_t>(graph.used_resource_count()) : 0, -1);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const compile::DistNodeId id = *it;
    double max_succ = 0.0;
    for (const auto s : graph.successors(id)) {
      max_succ = std::max(max_succ, ranks[static_cast<size_t>(s)]);
    }
    if (chain_resources && graph.is_communication(id)) {
      auto& next = next_on_resource[static_cast<size_t>(
          graph.queue_resources()[static_cast<size_t>(id)])];
      if (next >= 0) max_succ = std::max(max_succ, ranks[static_cast<size_t>(next)]);
      next = id;
    }
    ranks[static_cast<size_t>(id)] = graph.duration_ms(id) + max_succ;
  }
  return ranks;
}

}  // namespace

std::vector<double> compute_ranks(const compile::DistGraph& graph) {
  return upward_ranks(graph, graph.topological_order(), false);
}

std::vector<double> compute_ranks(const compile::DistGraph& graph,
                                  const std::vector<compile::DistNodeId>& topo,
                                  std::nullptr_t) {
  return upward_ranks(graph, topo, false);
}

std::vector<double> rank_priorities(const compile::DistGraph& graph,
                                    const std::vector<compile::DistNodeId>& topo) {
  // Without the resource chains, gradient pushes / pulls / collectives have
  // tiny upward ranks and bunch up after the backward chain instead of
  // streaming out as gradients become available; see header comment.
  return upward_ranks(graph, topo, true);
}

std::vector<double> priorities(const compile::DistGraph& graph,
                               const std::vector<compile::DistNodeId>& topo,
                               OrderPolicy policy) {
  switch (policy) {
    case OrderPolicy::kRankPriority:
      return rank_priorities(graph, topo);
    case OrderPolicy::kPlainRanks:
      return compute_ranks(graph, topo);
    case OrderPolicy::kFifo:
      break;
  }
  return std::vector<double>(static_cast<size_t>(graph.node_count()), 0.0);
}

}  // namespace heterog::sched
