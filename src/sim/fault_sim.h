// Fault-aware execution for the discrete-event simulator.
//
// Instead of one steady-state scalar, the cluster is stepped through a
// FaultPlan: for every training step the active fault set scales per-device
// compute durations and per-link bandwidth, and the step is simulated under
// it. A step whose plan touches a failed device cannot execute — the signal
// DistRunner's re-planning loop consumes. FaultInjector below is the one
// stepping engine; it memoises each distinct fault set's simulation.
#pragma once

#include <map>
#include <string>

#include "compile/dist_graph.h"
#include "faults/faults.h"
#include "health/health.h"
#include "sim/simulator.h"

namespace heterog::sim {

/// `graph` with durations scaled by the active fault set: compute nodes by
/// their device's slowdown, transfer/collective nodes by the inverse of the
/// degraded link bandwidth factor on their path. The result shares the
/// graph's structure and owns only the scaled durations.
compile::DistGraph apply_fault_scaling(const compile::DistGraph& graph,
                                       const cluster::ClusterSpec& cluster,
                                       const faults::FaultScaling& scaling);

/// Whether any node of the compiled plan executes on / communicates through
/// `device`.
bool plan_uses_device(const compile::DistGraph& graph, cluster::DeviceId device);

/// The *injection* half of the fault pipeline (DESIGN.md "Online health &
/// degraded modes"). The injector owns the FaultPlan and the fault-scaled
/// simulations. DistRunner's monitor detector sees only the
/// health::Observation values it hands out — per-attempt heartbeats, error
/// attributions and (for completed attempts) the raw makespan and per-device
/// busy times a real execution engine's telemetry would report. Its oracle
/// detector reads the plan through oracle_plan() and times steps with
/// measure().
class FaultInjector {
 public:
  /// Raw timing of one simulated iteration under a fixed fault set.
  struct StepMeasurement {
    double makespan_ms = 0.0;
    std::vector<double> device_busy_ms;  // indexed by device id
  };

  /// `order` is the deployed plan's PlanEvaluation::order: every step runs
  /// under it, with priorities recomputed on the fault-scaled durations.
  FaultInjector(compile::DistGraph graph, cluster::ClusterSpec cluster,
                faults::FaultPlan plan, sched::OrderPolicy order);

  /// One attempt of `step` (attempt 0 = first try). Outcome precedence:
  /// a failed device the plan uses times the attempt out (no error
  /// attribution — heartbeats are the only signal); otherwise a transient
  /// event with failed_attempts > attempt aborts it with an attributed
  /// error; otherwise it completes with measured timings.
  health::Observation attempt_step(int step, int attempt);

  /// Memoised from-scratch simulation of the active graph under `scaling`:
  /// each distinct fault set (by FaultScaling::signature) simulates once per
  /// deployment. attempt_step and the oracle detector share it, so their
  /// arithmetic is identical.
  const StepMeasurement& measure(const faults::FaultScaling& scaling);

  /// Swaps in the re-planned graph/cluster and its order, and rewrites the
  /// plan's device references through `new_id_of` (faults::remap_plan
  /// semantics).
  void apply_replan(compile::DistGraph graph, cluster::ClusterSpec cluster,
                    const std::vector<int>& new_id_of, sched::OrderPolicy order);

  /// The remapped fault plan — DistRunner's oracle detector only.
  const faults::FaultPlan& oracle_plan() const { return plan_; }

  int device_count() const { return cluster_.device_count(); }

 private:
  compile::DistGraph graph_;
  cluster::ClusterSpec cluster_;
  faults::FaultPlan plan_;
  sched::OrderPolicy order_;
  std::map<std::string, StepMeasurement> memo_;  // keyed by scaling signature
};

}  // namespace heterog::sim
