#include "reference_sim.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "sim/sim_order.h"

namespace heterog::sim {

namespace {

using compile::DistGraph;
using compile::DistNodeId;
using compile::NodeKind;

/// Per-device live-tensor memory tracker with reference counting.
class MemoryTracker {
 public:
  MemoryTracker(const DistGraph& graph, int device_count)
      : graph_(graph),
        current_(static_cast<size_t>(device_count), 0),
        peak_(static_cast<size_t>(device_count), 0),
        remaining_consumers_(static_cast<size_t>(graph.node_count()), 0) {
    const auto& params = graph.static_param_bytes();
    for (size_t d = 0; d < current_.size() && d < params.size(); ++d) {
      current_[d] = params[d];
      peak_[d] = params[d];
    }
    for (DistNodeId id = 0; id < graph.node_count(); ++id) {
      remaining_consumers_[static_cast<size_t>(id)] =
          static_cast<int>(graph.successors(id).size());
    }
  }

  void on_start(DistNodeId id) {
    const auto& n = graph_.node(id);
    if (n.output_bytes <= 0) return;
    switch (n.kind) {
      case NodeKind::kCompute:
        allocate(n.device, n.output_bytes);
        break;
      case NodeKind::kTransfer:
        allocate(n.link_to, n.output_bytes);
        break;
      case NodeKind::kCollective:
        for (auto d : n.participants) allocate(d, n.output_bytes);
        break;
    }
  }

  void on_finish(DistNodeId id) {
    // A terminal node's output is released immediately; otherwise it lives
    // until the last consumer finishes.
    if (remaining_consumers_[static_cast<size_t>(id)] == 0) release_output(id);
    for (DistNodeId p : graph_.predecessors(id)) {
      if (--remaining_consumers_[static_cast<size_t>(p)] == 0) release_output(p);
    }
  }

  const std::vector<int64_t>& peak() const { return peak_; }

 private:
  void allocate(cluster::DeviceId device, int64_t bytes) {
    auto& cur = current_[static_cast<size_t>(device)];
    cur += bytes;
    peak_[static_cast<size_t>(device)] = std::max(peak_[static_cast<size_t>(device)], cur);
  }

  void release_output(DistNodeId id) {
    const auto& n = graph_.node(id);
    if (n.output_bytes <= 0) return;
    switch (n.kind) {
      case NodeKind::kCompute:
        current_[static_cast<size_t>(n.device)] -= n.output_bytes;
        break;
      case NodeKind::kTransfer:
        current_[static_cast<size_t>(n.link_to)] -= n.output_bytes;
        break;
      case NodeKind::kCollective:
        for (auto d : n.participants) current_[static_cast<size_t>(d)] -= n.output_bytes;
        break;
    }
  }

  const DistGraph& graph_;
  std::vector<int64_t> current_;
  std::vector<int64_t> peak_;
  std::vector<int> remaining_consumers_;
};

template <typename Order>
SimResult run_simulation(const DistGraph& graph, const std::vector<double>& priorities,
                         const SimOptions& options) {
  const auto& resources = graph.resources();
  const int n = graph.node_count();
  const int r = resources.resource_count();

  SimResult result;
  std::vector<double> resource_busy_ms(static_cast<size_t>(r), 0.0);
  result.start_ms.assign(static_cast<size_t>(n), 0.0);
  result.finish_ms.assign(static_cast<size_t>(n), 0.0);

  if (n == 0) {
    result.peak_memory_bytes.assign(static_cast<size_t>(resources.device_count()), 0);
    return result;
  }

  // Per-node resource sets (multi-resource transfers occupy NIC resources
  // besides their link; see ResourceModel::resources_of).
  std::vector<std::vector<int>> node_resources(static_cast<size_t>(n));
  {
    std::vector<int> scratch;
    for (DistNodeId id = 0; id < n; ++id) {
      resources.resources_of(graph.node(id), scratch);
      node_resources[static_cast<size_t>(id)] = scratch;
    }
  }

  std::vector<std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, Order>> ready(
      static_cast<size_t>(r));
  std::vector<bool> busy(static_cast<size_t>(r), false);
  std::vector<int> in_degree(static_cast<size_t>(n), 0);
  int64_t sequence = 0;

  // Dirty-resource worklist, mirroring sim_core.cpp: resources only need a
  // dispatch pass after a push or a free, and r is O(D^2) in cluster size —
  // sweeping all of them per event batch dominated 1000-GPU simulations.
  std::vector<int> dirty;
  std::vector<bool> in_dirty(static_cast<size_t>(r), false);
  auto mark_dirty = [&](int res) {
    if (!in_dirty[static_cast<size_t>(res)]) {
      in_dirty[static_cast<size_t>(res)] = true;
      dirty.push_back(res);
    }
  };

  auto push_on = [&](int res, DistNodeId id, int64_t seq, double priority) {
    ReadyEntry e;
    e.priority = priority;
    e.sequence = seq;
    e.node = id;
    ready[static_cast<size_t>(res)].push(e);
    mark_dirty(res);
  };

  auto push_ready = [&](DistNodeId id) {
    const int res = resources.resource_of(graph.node(id));
    push_on(res, id, sequence++, priorities[static_cast<size_t>(id)]);
  };

  for (DistNodeId id = 0; id < n; ++id) {
    in_degree[static_cast<size_t>(id)] = static_cast<int>(graph.predecessors(id).size());
    if (in_degree[static_cast<size_t>(id)] == 0) push_ready(id);
  }

  MemoryTracker memory(graph, resources.device_count());

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  double now = 0.0;
  int completed = 0;

  // Dispatch on one resource: start queued nodes whose resource sets are
  // entirely free; a node blocked on another resource migrates to that
  // resource's queue (it will be reconsidered when that resource frees).
  auto dispatch_resource = [&](int res, double time) {
    auto& queue = ready[static_cast<size_t>(res)];
    while (!busy[static_cast<size_t>(res)] && !queue.empty()) {
      const ReadyEntry entry = queue.top();
      const auto& needed = node_resources[static_cast<size_t>(entry.node)];
      int blocking = -1;
      for (int nr : needed) {
        if (busy[static_cast<size_t>(nr)]) {
          blocking = nr;
          break;
        }
      }
      queue.pop();
      if (blocking >= 0) {
        push_on(blocking, entry.node, entry.sequence, entry.priority);
        continue;
      }
      const double duration = graph.duration_ms(entry.node);
      for (int nr : needed) {
        busy[static_cast<size_t>(nr)] = true;
        resource_busy_ms[static_cast<size_t>(nr)] += duration;
      }
      result.start_ms[static_cast<size_t>(entry.node)] = time;
      result.finish_ms[static_cast<size_t>(entry.node)] = time + duration;
      if (options.track_memory) memory.on_start(entry.node);
      events.push(Event{time + duration, entry.node});
    }
  };

  // Visit only resources freed or pushed to since the last pass, in ascending
  // index order — equivalent to a full 0..R-1 scan because after a pass every
  // resource is busy or has an empty queue, and only a completion free or a
  // ready push can break that (both mark the resource dirty). Migration
  // pushes during the pass target the blocking (busy) resource, so entries
  // appended past the snapshot would be no-ops; they are re-marked when that
  // resource frees.
  auto dispatch_all = [&](double time) {
    // Ascending order matches the historical 0..R-1 scan; the dirty set is
    // tiny, so an inline insertion sort beats std::sort's call overhead.
    for (size_t i = 1; i < dirty.size(); ++i) {
      const int x = dirty[i];
      size_t j = i;
      for (; j > 0 && dirty[j - 1] > x; --j) dirty[j] = dirty[j - 1];
      dirty[j] = x;
    }
    const size_t snapshot = dirty.size();
    for (size_t i = 0; i < snapshot; ++i) dispatch_resource(dirty[i], time);
    for (const int res : dirty) in_dirty[static_cast<size_t>(res)] = false;
    dirty.clear();
  };

  dispatch_all(0.0);
  while (!events.empty()) {
    // Drain all events at the same timestamp before dispatching, so freed
    // resources see every newly-ready node.
    const double time = events.top().time;
    while (!events.empty() && events.top().time == time) {
      const Event ev = events.top();
      events.pop();
      now = ev.time;
      ++completed;
      for (int nr : node_resources[static_cast<size_t>(ev.node)]) {
        busy[static_cast<size_t>(nr)] = false;
        mark_dirty(nr);
      }
      if (options.track_memory) memory.on_finish(ev.node);
      for (DistNodeId s : graph.successors(ev.node)) {
        if (--in_degree[static_cast<size_t>(s)] == 0) push_ready(s);
      }
    }
    dispatch_all(now);
  }

  check(completed == n, "simulation deadlocked (cycle or unreachable node)");
  result.makespan_ms = now;

  for (int res = 0; res < r; ++res) {
    const double t = resource_busy_ms[static_cast<size_t>(res)];
    if (resources.is_gpu_resource(res)) {
      result.computation_time_ms = std::max(result.computation_time_ms, t);
    } else {
      result.communication_time_ms = std::max(result.communication_time_ms, t);
    }
  }
  // Reported for the resources some node occupies, ascending.
  std::vector<bool> occupied(static_cast<size_t>(r), false);
  for (const auto& set : node_resources) {
    for (const int res : set) occupied[static_cast<size_t>(res)] = true;
  }
  for (int res = 0; res < r; ++res) {
    if (occupied[static_cast<size_t>(res)]) {
      result.resource_busy.push_back({res, resource_busy_ms[static_cast<size_t>(res)]});
    }
  }

  if (options.track_memory) {
    result.peak_memory_bytes = memory.peak();
  } else {
    result.peak_memory_bytes.assign(static_cast<size_t>(resources.device_count()), 0);
  }
  return result;
}

}  // namespace

}  // namespace heterog::sim

namespace heterog::testing {

sim::SimResult reference_run(const compile::DistGraph& graph,
                             const std::vector<double>& priorities,
                             const sim::SimOptions& options) {
  sim::validate_for_simulation(graph, &priorities);
  return options.policy == sched::OrderPolicy::kFifo
             ? sim::run_simulation<sim::FifoOrder>(graph, priorities, options)
             : sim::run_simulation<sim::RankOrder>(graph, priorities, options);
}

sim::SimResult reference_run(const compile::DistGraph& graph,
                             const sim::SimOptions& options) {
  return reference_run(
      graph, sched::priorities(graph, graph.topological_order(), options.policy),
      options);
}

std::vector<double> reference_rank_priorities(
    const compile::DistGraph& graph, const std::vector<compile::DistNodeId>& topo) {
  const int n = graph.node_count();
  const auto& resources = graph.resources();
  std::vector<std::vector<compile::DistNodeId>> extra_succ(static_cast<size_t>(n));
  std::unordered_map<int, compile::DistNodeId> prev_on_resource;
  for (const auto id : topo) {
    const auto& node = graph.node(id);
    if (!node.is_communication()) continue;
    const int res = resources.resource_of(node);
    const auto [it, inserted] = prev_on_resource.try_emplace(res, id);
    if (!inserted) {
      extra_succ[static_cast<size_t>(it->second)].push_back(id);
      it->second = id;
    }
  }

  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  auto relax = [&](compile::DistNodeId id) {
    double max_succ = 0.0;
    for (auto s : graph.successors(id)) {
      max_succ = std::max(max_succ, ranks[static_cast<size_t>(s)]);
    }
    for (auto s : extra_succ[static_cast<size_t>(id)]) {
      max_succ = std::max(max_succ, ranks[static_cast<size_t>(s)]);
    }
    const double updated = graph.duration_ms(id) + max_succ;
    const bool changed = updated > ranks[static_cast<size_t>(id)] + 1e-12;
    ranks[static_cast<size_t>(id)] = updated;
    return changed;
  };
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) relax(*it);
  bool changed = true;
  for (int guard = 0; changed && guard < 64; ++guard) {
    changed = false;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      changed = relax(*it) || changed;
    }
  }
  return ranks;
}

}  // namespace heterog::testing
