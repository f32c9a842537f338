#include "sim/fault_sim.h"

#include <algorithm>

namespace heterog::sim {

namespace {

using compile::DistNodeId;
using compile::NodeKind;

/// Smallest link bandwidth factor across all participant host pairs — a
/// ring/collective runs at the speed of its most degraded segment.
double collective_link_factor(const cluster::ClusterSpec& cluster,
                              const faults::FaultScaling& scaling,
                              const std::vector<cluster::DeviceId>& participants) {
  double factor = 1.0;
  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t j = i + 1; j < participants.size(); ++j) {
      factor = std::min(factor,
                        scaling.link_factor(cluster, participants[i], participants[j]));
    }
  }
  return factor;
}

}  // namespace

compile::DistGraph apply_fault_scaling(const compile::DistGraph& graph,
                                       const cluster::ClusterSpec& cluster,
                                       const faults::FaultScaling& scaling) {
  compile::DistGraph scaled = graph;
  for (DistNodeId id = 0; id < scaled.node_count(); ++id) {
    auto& node = scaled.mutable_node(id);
    switch (node.kind) {
      case NodeKind::kCompute:
        if (node.device >= 0 &&
            static_cast<size_t>(node.device) < scaling.compute_slowdown.size()) {
          node.duration_ms *= scaling.compute_slowdown[static_cast<size_t>(node.device)];
        }
        break;
      case NodeKind::kTransfer: {
        const double factor = scaling.link_factor(cluster, node.link_from, node.link_to);
        if (factor < 1.0) node.duration_ms /= factor;
        break;
      }
      case NodeKind::kCollective: {
        const double factor =
            collective_link_factor(cluster, scaling, node.participants);
        if (factor < 1.0) node.duration_ms /= factor;
        break;
      }
    }
  }
  return scaled;
}

bool plan_uses_device(const compile::DistGraph& graph, cluster::DeviceId device) {
  for (const auto& node : graph.nodes()) {
    switch (node.kind) {
      case NodeKind::kCompute:
        if (node.device == device) return true;
        break;
      case NodeKind::kTransfer:
        if (node.link_from == device || node.link_to == device) return true;
        break;
      case NodeKind::kCollective:
        if (std::find(node.participants.begin(), node.participants.end(), device) !=
            node.participants.end()) {
          return true;
        }
        break;
    }
  }
  return false;
}

FaultInjector::FaultInjector(compile::DistGraph graph, cluster::ClusterSpec cluster,
                             faults::FaultPlan plan, sched::OrderPolicy order)
    : graph_(std::move(graph)),
      cluster_(std::move(cluster)),
      plan_(std::move(plan)),
      order_(order) {
  plan_.validate(cluster_);
}

const FaultInjector::StepMeasurement& FaultInjector::measure(
    const faults::FaultScaling& scaling) {
  const std::string key = scaling.signature();
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    SimOptions options;
    options.policy = order_;
    // Per-step timing only; memory tracking is a deployment-time concern.
    options.track_memory = false;
    const Simulator simulator(options);
    const SimResult result =
        scaling.any() ? simulator.run(apply_fault_scaling(graph_, cluster_, scaling))
                      : simulator.run(graph_);
    StepMeasurement m;
    m.makespan_ms = result.makespan_ms;
    m.device_busy_ms.assign(static_cast<size_t>(cluster_.device_count()), 0.0);
    const compile::ResourceModel& resources = graph_.resources();
    for (int r = 0; r < static_cast<int>(result.resource_busy_ms.size()); ++r) {
      if (resources.is_gpu_resource(r) && r < cluster_.device_count()) {
        m.device_busy_ms[static_cast<size_t>(r)] =
            result.resource_busy_ms[static_cast<size_t>(r)];
      }
    }
    it = memo_.emplace(key, std::move(m)).first;
  }
  return it->second;
}

health::Observation FaultInjector::attempt_step(int step, int attempt) {
  const faults::FaultScaling scaling = faults::scaling_at(plan_, cluster_, step);

  health::Observation obs;
  obs.step = step;
  obs.attempt = attempt;
  obs.responded.assign(static_cast<size_t>(cluster_.device_count()), 1);
  // Isolated devices (behind a dead switch) are indistinguishable from
  // failed ones at the telemetry layer: heartbeats stop arriving.
  for (const auto d : scaling.failed) {
    if (d >= 0 && static_cast<size_t>(d) < obs.responded.size()) {
      obs.responded[static_cast<size_t>(d)] = 0;
    }
  }
  for (const auto d : scaling.isolated) {
    if (d >= 0 && static_cast<size_t>(d) < obs.responded.size()) {
      obs.responded[static_cast<size_t>(d)] = 0;
    }
  }

  // A failed or unreachable device the plan depends on blocks the step
  // entirely: the attempt times out with no error attribution.
  for (const auto d : scaling.failed) {
    if (plan_uses_device(graph_, d)) return obs;
  }
  for (const auto d : scaling.isolated) {
    if (plan_uses_device(graph_, d)) return obs;
  }

  // Transient hiccup: the first failed_attempts tries at the onset step
  // abort with an exception attributed to the raising device (the lowest id
  // when several are active, mirroring "first rank to throw wins").
  cluster::DeviceId error_device = -1;
  for (const auto& event : plan_.events) {
    if (event.kind != faults::FaultKind::kTransient || event.onset_step != step ||
        event.failed_attempts <= attempt) {
      continue;
    }
    if (error_device < 0 || event.device < error_device) error_device = event.device;
  }
  if (error_device >= 0) {
    obs.error_device = error_device;
    return obs;
  }

  const StepMeasurement& m = measure(scaling);
  obs.completed = true;
  obs.makespan_ms = m.makespan_ms;
  obs.device_busy_ms = m.device_busy_ms;
  return obs;
}

void FaultInjector::apply_replan(compile::DistGraph graph,
                                 cluster::ClusterSpec cluster,
                                 const std::vector<int>& new_id_of,
                                 sched::OrderPolicy order) {
  graph_ = std::move(graph);
  cluster_ = std::move(cluster);
  order_ = order;
  // The survivor-aware overload drops domain events whose rack/switch no
  // longer exists in the re-planned cluster.
  plan_ = faults::remap_plan(plan_, new_id_of, cluster_);
  memo_.clear();
  plan_.validate(cluster_);
}

}  // namespace heterog::sim
