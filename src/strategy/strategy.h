// Part-I decision space (paper Sec. 4.1.2).
//
// For each op group the agent picks one action out of M + 4:
//   * action i < M          -> model parallelism: place the whole group on
//                              device i, no replication;
//   * the last four actions -> data parallelism, the cross product of
//     {even replication (one replica per device),
//      proportional replication (replicas per device ~ compute power)}
//     x {PS, AllReduce} gradient synchronisation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/graph.h"
#include "profiler/cost_provider.h"

namespace heterog::strategy {

using cluster::DeviceId;
using graph::OpId;
using GroupId = int32_t;

enum class CommMethod : uint8_t { kPS, kAllReduce };

enum class ReplicationMode : uint8_t { kEven, kProportional };

/// One Part-I action. Exactly one of the M+4 alternatives.
struct Action {
  bool is_mp = false;
  DeviceId mp_device = 0;                              // valid when is_mp
  ReplicationMode replication = ReplicationMode::kEven;  // valid when !is_mp
  CommMethod comm = CommMethod::kAllReduce;              // valid when !is_mp

  static Action mp(DeviceId device);
  static Action dp(ReplicationMode mode, CommMethod comm);

  /// Index in [0, M+4): MP(d) -> d; DP -> M + {EV-PS, EV-AR, CP-PS, CP-AR}.
  int index(int device_count) const;
  static Action from_index(int index, int device_count);
  static int action_count(int device_count) { return device_count + 4; }

  bool operator==(const Action& other) const;
  std::string to_string() const;
};

/// Operation grouping (paper Sec. 4.1.1, per-group embeddings).
///
/// If the op count is within `max_groups`, every op is its own group.
/// Otherwise the top-`max_groups` ops by average execution time become group
/// centres and every other op joins the centre nearest in (undirected) hop
/// distance. Backward and apply ops always share the group of their mirrored
/// forward op so that parameters, gradients and updates are planned
/// coherently.
class Grouping {
 public:
  int group_count() const { return static_cast<int>(members_.size()); }
  GroupId group_of(OpId op) const;
  const std::vector<OpId>& members(GroupId group) const;
  const std::vector<GroupId>& assignment() const { return group_of_; }

  static Grouping build(const graph::GraphDef& graph,
                        const profiler::CostProvider& costs, int max_groups);

  /// Grouping for a graph::unroll_iterations(...) copy of the grouped graph:
  /// op `k * n + i` joins the group of op `i` (same group ids, so a strategy
  /// for the original grouping applies verbatim to the unrolled graph).
  static Grouping unroll(const Grouping& base, int iterations);

  /// Grouping for a derived graph whose op `i` realises base op `origin[i]`
  /// (e.g. graph::pipeline_microbatches): each derived op joins the group of
  /// its origin, so strategies transfer verbatim.
  static Grouping from_origin(const Grouping& base,
                              const std::vector<graph::OpId>& origin);

  /// Reconstructs a Grouping from a per-op assignment vector (the shape
  /// returned by assignment()), as persisted by the ckpt run journal. Group
  /// ids must be dense: every id in [0, max] occupied. Throws CheckError
  /// otherwise.
  static Grouping from_assignment(const std::vector<GroupId>& assignment);

 private:
  std::vector<GroupId> group_of_;             // per op
  std::vector<std::vector<OpId>> members_;    // per group
};

/// A full Part-I strategy: one action per group.
struct StrategyMap {
  std::vector<Action> group_actions;

  const Action& action_for(const Grouping& grouping, OpId op) const;

  /// Uniform strategy (all groups take `action`) — the DP baselines.
  static StrategyMap uniform(int group_count, Action action);
};

/// Per-category op fractions in the style of Tables 2 / 3: for each device
/// (MP placements) and each of the four DP schemes, the fraction of graph
/// ops whose group selected it.
struct StrategyBreakdown {
  std::vector<double> mp_fraction;  // per device
  double ev_ps = 0.0;
  double ev_ar = 0.0;
  double cp_ps = 0.0;
  double cp_ar = 0.0;
};
StrategyBreakdown summarize_strategy(const graph::GraphDef& graph,
                                     const Grouping& grouping,
                                     const StrategyMap& strategy, int device_count);

}  // namespace heterog::strategy
