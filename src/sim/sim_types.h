// Shared simulator option/result types, split out of simulator.h so the
// data-oriented core (sim_core.h) and the public Simulator facade can both
// include them without a cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "sched/scheduler.h"

namespace heterog::sim {

struct SimOptions {
  sched::OrderPolicy policy = sched::OrderPolicy::kRankPriority;
  bool track_memory = true;
  /// Fraction of device memory usable by the job (framework overheads).
  double usable_memory_fraction = 0.92;
};

/// Busy time of one resource a simulated graph occupies.
struct ResourceBusy {
  int resource = -1;  // ResourceModel id
  double busy_ms = 0.0;
};

struct SimResult {
  double makespan_ms = 0.0;

  /// Busiest-GPU computation time and busiest-communication-resource time
  /// (Fig. 8 reports per-iteration computation and communication times; with
  /// overlap their sum exceeds the makespan).
  double computation_time_ms = 0.0;
  double communication_time_ms = 0.0;

  /// Total busy ms of every resource the graph's nodes occupy, in ascending
  /// ResourceModel id order (compile::DistGraph::used_resources).
  std::vector<ResourceBusy> resource_busy;

  /// Peak memory per device, static parameters included.
  std::vector<int64_t> peak_memory_bytes;
  bool oom = false;
  std::vector<cluster::DeviceId> oom_devices;

  /// Per-node start times (ms); useful for timeline inspection in tests.
  std::vector<double> start_ms;
  std::vector<double> finish_ms;
};

}  // namespace heterog::sim
