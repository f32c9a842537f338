#include "sched/scheduler.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace heterog::sched {

std::vector<double> compute_ranks(
    const compile::DistGraph& graph,
    const std::vector<std::pair<compile::DistNodeId, compile::DistNodeId>>& extra_edges) {
  return compute_ranks(graph, graph.topological_order(), extra_edges);
}

std::vector<double> compute_ranks(
    const compile::DistGraph& graph, const std::vector<compile::DistNodeId>& topo,
    const std::vector<std::pair<compile::DistNodeId, compile::DistNodeId>>& extra_edges) {
  const int n = graph.node_count();
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);

  std::vector<std::vector<compile::DistNodeId>> extra_succ;
  if (!extra_edges.empty()) {
    extra_succ.assign(static_cast<size_t>(n), {});
    for (const auto& [from, to] : extra_edges) {
      check(from >= 0 && from < n && to >= 0 && to < n, "compute_ranks: bad extra edge");
      extra_succ[static_cast<size_t>(from)].push_back(to);
    }
  }

  // Reverse topological sweep. Extra edges are assumed consistent with some
  // topological order of the augmented graph; we process nodes in reverse
  // order of (graph topo order + extra-edge targets appearing later), which
  // holds for the collective chains rank_priorities builds (chained in topo
  // order). A final fixpoint pass guards against ordering violations.
  const auto& order = topo;
  auto relax = [&](compile::DistNodeId id) {
    double max_succ = 0.0;
    for (auto s : graph.successors(id)) {
      max_succ = std::max(max_succ, ranks[static_cast<size_t>(s)]);
    }
    if (!extra_succ.empty()) {
      for (auto s : extra_succ[static_cast<size_t>(id)]) {
        max_succ = std::max(max_succ, ranks[static_cast<size_t>(s)]);
      }
    }
    const double updated = graph.node(id).duration_ms + max_succ;
    const bool changed = updated > ranks[static_cast<size_t>(id)] + 1e-12;
    ranks[static_cast<size_t>(id)] = updated;
    return changed;
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) relax(*it);
  if (!extra_edges.empty()) {
    // Fixpoint sweeps (extra edges may cut across the base topo order).
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 64) {
      changed = false;
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        changed = relax(*it) || changed;
      }
    }
  }
  return ranks;
}

std::vector<double> rank_priorities(const compile::DistGraph& graph,
                                    const std::vector<compile::DistNodeId>& topo) {
  // Chain the communication nodes of each serialised resource (every
  // directed link and the single NCCL channel) in topological order, so a
  // node's rank carries the remaining backlog of its resource; see header
  // comment. Without this, gradient pushes / pulls / collectives have tiny
  // upward ranks and bunch up after the backward chain instead of streaming
  // out as gradients become available.
  const auto& resources = graph.resources();
  std::vector<std::pair<compile::DistNodeId, compile::DistNodeId>> chains;
  // Keyed map instead of a dense per-resource vector: resource_count() is
  // O(D^2) in cluster size (every ordered device pair is a link resource),
  // so a 1000-GPU cluster would allocate and zero ~1M slots per call even
  // though only the handful of resources with communication nodes matter.
  std::unordered_map<int, compile::DistNodeId> prev_on_resource;
  for (const auto id : topo) {
    const auto& node = graph.node(id);
    if (!node.is_communication()) continue;
    const int res = resources.resource_of(node);
    const auto [it, inserted] = prev_on_resource.try_emplace(res, id);
    if (!inserted) {
      chains.emplace_back(it->second, id);
      it->second = id;
    }
  }
  return compute_ranks(graph, topo, chains);
}

std::vector<double> priorities(const compile::DistGraph& graph,
                               const std::vector<compile::DistNodeId>& topo,
                               OrderPolicy policy) {
  switch (policy) {
    case OrderPolicy::kRankPriority:
      return rank_priorities(graph, topo);
    case OrderPolicy::kPlainRanks:
      return compute_ranks(graph, topo, {});
    case OrderPolicy::kFifo:
      break;
  }
  return std::vector<double>(static_cast<size_t>(graph.node_count()), 0.0);
}

}  // namespace heterog::sched
