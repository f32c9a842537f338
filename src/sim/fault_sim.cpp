#include "sim/fault_sim.h"

#include <algorithm>
#include <span>

namespace heterog::sim {

namespace {

using compile::DistNodeId;
using compile::NodeKind;

/// Smallest link bandwidth factor across all participant host pairs — a
/// ring/collective runs at the speed of its most degraded segment.
double collective_link_factor(const cluster::ClusterSpec& cluster,
                              const faults::FaultScaling& scaling,
                              std::span<const cluster::DeviceId> participants) {
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
  std::vector<double> durations = graph.durations();
  for (DistNodeId id = 0; id < graph.node_count(); ++id) {
    double& duration = durations[static_cast<size_t>(id)];
    switch (graph.kind(id)) {
      case NodeKind::kCompute: {
        const cluster::DeviceId device = graph.device(id);
        if (device >= 0 && static_cast<size_t>(device) < scaling.compute_slowdown.size()) {
          duration *= scaling.compute_slowdown[static_cast<size_t>(device)];
        }
        break;
      }
      case NodeKind::kTransfer: {
        const double factor =
            scaling.link_factor(cluster, graph.link_from(id), graph.link_to(id));
        if (factor < 1.0) duration /= factor;
        break;
      }
      case NodeKind::kCollective: {
        const double factor =
            collective_link_factor(cluster, scaling, graph.participants(id));
        if (factor < 1.0) duration /= factor;
        break;
      }
    }
  }
  return graph.with_durations(std::move(durations));
}

bool plan_uses_device(const compile::DistGraph& graph, cluster::DeviceId device) {
  for (DistNodeId id = 0; id < graph.node_count(); ++id) {
    switch (graph.kind(id)) {
      case NodeKind::kCompute:
        if (graph.device(id) == device) return true;
        break;
      case NodeKind::kTransfer:
        if (graph.link_from(id) == device || graph.link_to(id) == device) return true;
        break;
      case NodeKind::kCollective: {
        const auto participants = graph.participants(id);
        if (std::find(participants.begin(), participants.end(), device) !=
            participants.end()) {
          return true;
        }
        break;
      }
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
    for (const ResourceBusy& busy : result.resource_busy) {
      if (resources.is_gpu_resource(busy.resource) &&
          busy.resource < cluster_.device_count()) {
        m.device_busy_ms[static_cast<size_t>(busy.resource)] = busy.busy_ms;
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
