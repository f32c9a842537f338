#include "strategy/strategy.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace heterog::strategy {

Action Action::mp(DeviceId device) {
  Action a;
  a.is_mp = true;
  a.mp_device = device;
  return a;
}

Action Action::dp(ReplicationMode mode, CommMethod comm) {
  Action a;
  a.is_mp = false;
  a.replication = mode;
  a.comm = comm;
  return a;
}

int Action::index(int device_count) const {
  if (is_mp) {
    check(mp_device >= 0 && mp_device < device_count, "Action::index: bad device");
    return mp_device;
  }
  const int base = device_count;
  const int mode_offset = replication == ReplicationMode::kEven ? 0 : 2;
  const int comm_offset = comm == CommMethod::kPS ? 0 : 1;
  return base + mode_offset + comm_offset;
}

Action Action::from_index(int index, int device_count) {
  check(index >= 0 && index < action_count(device_count), "Action::from_index: bad index");
  if (index < device_count) return mp(index);
  const int rem = index - device_count;
  const ReplicationMode mode = rem < 2 ? ReplicationMode::kEven : ReplicationMode::kProportional;
  const CommMethod comm = (rem % 2 == 0) ? CommMethod::kPS : CommMethod::kAllReduce;
  return dp(mode, comm);
}

bool Action::operator==(const Action& other) const {
  if (is_mp != other.is_mp) return false;
  if (is_mp) return mp_device == other.mp_device;
  return replication == other.replication && comm == other.comm;
}

std::string Action::to_string() const {
  if (is_mp) return "MP(G" + std::to_string(mp_device) + ")";
  std::string mode = replication == ReplicationMode::kEven ? "EV" : "CP";
  std::string comm_name = comm == CommMethod::kPS ? "PS" : "AR";
  return mode + "-" + comm_name;
}

GroupId Grouping::group_of(OpId op) const {
  check(op >= 0 && op < static_cast<OpId>(group_of_.size()), "group_of: bad op");
  return group_of_[static_cast<size_t>(op)];
}

const std::vector<OpId>& Grouping::members(GroupId group) const {
  check(group >= 0 && group < group_count(), "members: bad group");
  return members_[static_cast<size_t>(group)];
}

Grouping Grouping::build(const graph::GraphDef& graph,
                         const profiler::CostProvider& costs, int max_groups) {
  check(max_groups >= 1, "Grouping: max_groups must be >= 1");
  const int n = graph.op_count();
  Grouping grouping;
  grouping.group_of_.assign(static_cast<size_t>(n), -1);

  // Forward ops are the grouping anchors; backward/apply ops inherit via
  // mirror_of so a parameter's compute, gradient and update stay coherent.
  std::vector<OpId> anchors;
  for (const auto& op : graph.ops()) {
    if (op.role == graph::OpRole::kForward) anchors.push_back(op.id);
  }
  check(!anchors.empty(), "Grouping: graph has no forward ops");

  std::vector<OpId> centres;
  if (static_cast<int>(anchors.size()) <= max_groups) {
    centres = anchors;
  } else {
    // Longest-running anchors become group centres (they dominate iteration
    // time), chosen stratified over the topological order: the anchors are
    // cut into N contiguous segments and each segment contributes its
    // longest op. Plain global top-N lets the centres cluster in one stage
    // of the network, which produces one giant group covering everything
    // else — fatal for memory-balanced placement.
    std::vector<double> topo_pos(static_cast<size_t>(graph.op_count()), 0.0);
    {
      const auto order = graph.topological_order();
      for (size_t i = 0; i < order.size(); ++i) {
        topo_pos[static_cast<size_t>(order[i])] = static_cast<double>(i);
      }
    }
    std::vector<OpId> by_topo = anchors;
    std::sort(by_topo.begin(), by_topo.end(), [&](OpId a, OpId b) {
      return topo_pos[static_cast<size_t>(a)] < topo_pos[static_cast<size_t>(b)];
    });
    centres.reserve(static_cast<size_t>(max_groups));
    const size_t n_anchors = by_topo.size();
    for (int seg = 0; seg < max_groups; ++seg) {
      const size_t begin = n_anchors * static_cast<size_t>(seg) /
                           static_cast<size_t>(max_groups);
      const size_t end = n_anchors * (static_cast<size_t>(seg) + 1) /
                         static_cast<size_t>(max_groups);
      OpId best = by_topo[begin];
      double best_time = -1.0;
      for (size_t i = begin; i < end; ++i) {
        const double t =
            costs.average_op_time_ms(graph.op(by_topo[i]), graph.global_batch());
        if (t > best_time) {
          best_time = t;
          best = by_topo[i];
        }
      }
      centres.push_back(best);
    }
    std::sort(centres.begin(), centres.end());
    centres.erase(std::unique(centres.begin(), centres.end()), centres.end());
  }

  grouping.members_.assign(centres.size(), {});
  const auto nearest = graph.nearest_sources(centres);
  for (OpId id : anchors) {
    int source = nearest[static_cast<size_t>(id)].source_index;
    if (source < 0) source = 0;  // disconnected component: fold into group 0
    grouping.group_of_[static_cast<size_t>(id)] = source;
  }
  // Mirrors inherit.
  for (const auto& op : graph.ops()) {
    if (op.role == graph::OpRole::kForward) continue;
    check(op.mirror_of != graph::kInvalidOp, "Grouping: non-forward op without mirror");
    grouping.group_of_[static_cast<size_t>(op.id)] =
        grouping.group_of_[static_cast<size_t>(op.mirror_of)];
  }
  for (OpId id = 0; id < n; ++id) {
    const GroupId g = grouping.group_of_[static_cast<size_t>(id)];
    check(g >= 0, "Grouping: unassigned op");
    grouping.members_[static_cast<size_t>(g)].push_back(id);
  }
  // Drop empty groups (possible when a centre's anchors were re-captured).
  std::vector<std::vector<OpId>> compact;
  std::vector<GroupId> remap(grouping.members_.size(), -1);
  for (size_t g = 0; g < grouping.members_.size(); ++g) {
    if (grouping.members_[g].empty()) continue;
    remap[g] = static_cast<GroupId>(compact.size());
    compact.push_back(std::move(grouping.members_[g]));
  }
  for (auto& g : grouping.group_of_) g = remap[static_cast<size_t>(g)];
  grouping.members_ = std::move(compact);
  return grouping;
}

Grouping Grouping::unroll(const Grouping& base, int iterations) {
  check(iterations >= 1, "Grouping::unroll: need at least one iteration");
  const int n = static_cast<int>(base.group_of_.size());
  Grouping unrolled;
  unrolled.group_of_.reserve(static_cast<size_t>(n) * iterations);
  for (int iter = 0; iter < iterations; ++iter) {
    for (int i = 0; i < n; ++i) {
      unrolled.group_of_.push_back(base.group_of_[static_cast<size_t>(i)]);
    }
  }
  unrolled.members_.assign(base.members_.size(), {});
  for (int iter = 0; iter < iterations; ++iter) {
    for (size_t g = 0; g < base.members_.size(); ++g) {
      for (OpId op : base.members_[g]) {
        unrolled.members_[g].push_back(iter * n + op);
      }
    }
  }
  return unrolled;
}

Grouping Grouping::from_origin(const Grouping& base,
                               const std::vector<graph::OpId>& origin) {
  Grouping derived;
  derived.group_of_.reserve(origin.size());
  derived.members_.assign(base.members_.size(), {});
  for (size_t i = 0; i < origin.size(); ++i) {
    const OpId src = origin[i];
    check(src >= 0 && src < static_cast<OpId>(base.group_of_.size()),
          "Grouping::from_origin: origin out of range");
    const GroupId g = base.group_of_[static_cast<size_t>(src)];
    derived.group_of_.push_back(g);
    derived.members_[static_cast<size_t>(g)].push_back(static_cast<OpId>(i));
  }
  return derived;
}

Grouping Grouping::from_assignment(const std::vector<GroupId>& assignment) {
  check(!assignment.empty(), "Grouping::from_assignment: empty assignment");
  GroupId max_group = -1;
  for (const GroupId g : assignment) {
    check(g >= 0, "Grouping::from_assignment: negative group id");
    max_group = std::max(max_group, g);
  }
  Grouping grouping;
  grouping.group_of_ = assignment;
  grouping.members_.assign(static_cast<size_t>(max_group) + 1, {});
  for (size_t op = 0; op < assignment.size(); ++op) {
    grouping.members_[static_cast<size_t>(assignment[op])].push_back(
        static_cast<OpId>(op));
  }
  for (const auto& members : grouping.members_) {
    check(!members.empty(), "Grouping::from_assignment: group ids must be dense");
  }
  return grouping;
}

const Action& StrategyMap::action_for(const Grouping& grouping, OpId op) const {
  const GroupId g = grouping.group_of(op);
  check(g >= 0 && g < static_cast<GroupId>(group_actions.size()),
        "action_for: strategy/grouping mismatch");
  return group_actions[static_cast<size_t>(g)];
}

StrategyMap StrategyMap::uniform(int group_count, Action action) {
  StrategyMap map;
  map.group_actions.assign(static_cast<size_t>(group_count), action);
  return map;
}

StrategyBreakdown summarize_strategy(const graph::GraphDef& graph,
                                     const Grouping& grouping,
                                     const StrategyMap& strategy, int device_count) {
  StrategyBreakdown bd;
  bd.mp_fraction.assign(static_cast<size_t>(device_count), 0.0);
  const double total = static_cast<double>(graph.op_count());
  for (OpId id = 0; id < graph.op_count(); ++id) {
    const Action& a = strategy.action_for(grouping, id);
    if (a.is_mp) {
      bd.mp_fraction[static_cast<size_t>(a.mp_device)] += 1.0 / total;
    } else if (a.replication == ReplicationMode::kEven && a.comm == CommMethod::kPS) {
      bd.ev_ps += 1.0 / total;
    } else if (a.replication == ReplicationMode::kEven && a.comm == CommMethod::kAllReduce) {
      bd.ev_ar += 1.0 / total;
    } else if (a.replication == ReplicationMode::kProportional && a.comm == CommMethod::kPS) {
      bd.cp_ps += 1.0 / total;
    } else {
      bd.cp_ar += 1.0 / total;
    }
  }
  return bd;
}

}  // namespace heterog::strategy
