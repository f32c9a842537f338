#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "core/heterog.h"
#include "faults/faults.h"
#include "models/models.h"
#include "sim/fault_sim.h"
#include "sim/simulator.h"

namespace heterog {
namespace {

using compile::DistGraph;
using compile::DistNode;
using compile::DistNodeId;
using compile::NodeKind;
using faults::FaultEvent;
using faults::FaultKind;
using faults::FaultPlan;

DistNodeId add_compute(DistGraph& g, const std::string& name, int device, double ms) {
  DistNode n;
  n.name = name;
  n.kind = NodeKind::kCompute;
  n.device = device;
  n.duration_ms = ms;
  return g.add_node(std::move(n));
}

DistNodeId add_transfer(DistGraph& g, const std::string& name, int from, int to,
                        double ms) {
  DistNode n;
  n.name = name;
  n.kind = NodeKind::kTransfer;
  n.link_from = from;
  n.link_to = to;
  n.duration_ms = ms;
  return g.add_node(std::move(n));
}

FaultEvent device_failure(cluster::DeviceId device, int onset) {
  FaultEvent e;
  e.kind = FaultKind::kDeviceFailure;
  e.device = device;
  e.onset_step = onset;
  return e;
}

FaultEvent straggler(cluster::DeviceId device, double slowdown, int onset,
                     int recovery = -1) {
  FaultEvent e;
  e.kind = FaultKind::kStraggler;
  e.device = device;
  e.slowdown = slowdown;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

FaultEvent transient(cluster::DeviceId device, int onset, int failed_attempts) {
  FaultEvent e;
  e.kind = FaultKind::kTransient;
  e.device = device;
  e.onset_step = onset;
  e.failed_attempts = failed_attempts;
  return e;
}

FaultEvent link_degradation(cluster::DeviceId a, cluster::DeviceId b, double factor,
                            int onset, int recovery = -1) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDegradation;
  e.device_a = a;
  e.device_b = b;
  e.bandwidth_factor = factor;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

FaultEvent rack_failure(int rack, int onset) {
  FaultEvent e;
  e.kind = FaultKind::kRackFailure;
  e.rack = rack;
  e.onset_step = onset;
  return e;
}

FaultEvent switch_outage(int level, int index, int onset, int recovery = -1) {
  FaultEvent e;
  e.kind = FaultKind::kSwitchOutage;
  e.level = level;
  e.switch_index = index;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

FaultEvent switch_degradation(int level, int index, double factor, int onset,
                              int recovery = -1) {
  FaultEvent e;
  e.kind = FaultKind::kSwitchDegradation;
  e.level = level;
  e.switch_index = index;
  e.bandwidth_factor = factor;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

/// rack16: 2 racks x 2 hosts x 4 GPUs — the smallest generated topology with
/// an inter-rack hop, and the domain-event fixture throughout this file.
cluster::ClusterSpec rack16_cluster() {
  return cluster::generate_cluster(*cluster::topo_preset("rack16"));
}

/// Device ids living in rack `rack` of a generated cluster, sorted.
std::vector<cluster::DeviceId> devices_in_rack(const cluster::ClusterSpec& c,
                                               int rack) {
  std::vector<cluster::DeviceId> out;
  for (const auto& d : c.devices()) {
    if (c.topology().rack_of_host[static_cast<size_t>(d.host)] == rack) {
      out.push_back(d.id);
    }
  }
  return out;
}

HeteroGConfig fast_config() {
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  config.agent.max_groups = 16;
  return config;
}

// JSON ----------------------------------------------------------------------

TEST(FaultJson, ParsesAllKinds) {
  const std::string json = R"({"faults": [
    {"kind": "device_failure", "device": 3, "onset_step": 5},
    {"kind": "straggler", "device": 1, "onset_step": 0, "recovery_step": 10,
     "slowdown": 2.5},
    {"kind": "link_degradation", "device_a": 0, "device_b": 2, "onset_step": 3,
     "bandwidth_factor": 0.25},
    {"kind": "transient", "device": 2, "onset_step": 4, "failed_attempts": 2}
  ]})";
  const FaultPlan plan = faults::parse_fault_plan_json(json);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDeviceFailure);
  EXPECT_EQ(plan.events[0].device, 3);
  EXPECT_EQ(plan.events[0].onset_step, 5);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.events[1].slowdown, 2.5);
  EXPECT_EQ(plan.events[1].recovery_step, 10);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkDegradation);
  EXPECT_EQ(plan.events[2].device_a, 0);
  EXPECT_EQ(plan.events[2].device_b, 2);
  EXPECT_DOUBLE_EQ(plan.events[2].bandwidth_factor, 0.25);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kTransient);
  EXPECT_EQ(plan.events[3].failed_attempts, 2);
}

TEST(FaultJson, RoundTripsThroughSerialiser) {
  FaultPlan plan;
  plan.events = {device_failure(3, 5), straggler(1, 2.5, 0, 10),
                 link_degradation(0, 2, 0.25, 3), transient(2, 4, 2)};
  const FaultPlan reparsed =
      faults::parse_fault_plan_json(faults::fault_plan_to_json(plan));
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(reparsed.events[i].device, plan.events[i].device) << i;
    EXPECT_EQ(reparsed.events[i].onset_step, plan.events[i].onset_step) << i;
    EXPECT_EQ(reparsed.events[i].recovery_step, plan.events[i].recovery_step) << i;
  }
}

TEST(FaultJson, BareArrayAccepted) {
  const FaultPlan plan = faults::parse_fault_plan_json(
      R"([{"kind": "device_failure", "device": 0, "onset_step": 1}])");
  ASSERT_EQ(plan.events.size(), 1u);
}

TEST(FaultJson, MalformedInputsRejected) {
  EXPECT_THROW(faults::parse_fault_plan_json("{"), faults::FaultPlanError);
  EXPECT_THROW(faults::parse_fault_plan_json("42"), faults::FaultPlanError);
  EXPECT_THROW(faults::parse_fault_plan_json(R"({"faults": 1})"),
               faults::FaultPlanError);
  EXPECT_THROW(faults::parse_fault_plan_json(
                   R"({"faults": [{"kind": "meteor_strike", "onset_step": 1}]})"),
               faults::FaultPlanError);
  EXPECT_THROW(
      faults::parse_fault_plan_json(R"({"faults": [{"kind": "straggler"}]})"),
      faults::FaultPlanError);
  EXPECT_THROW(faults::load_fault_plan("/nonexistent/plan.json"),
               faults::FaultPlanError);
  // A number must convert in full: read as their longest valid prefix,
  // these would load as device 1 and slowdown 2.
  for (const char* text :
       {R"({"faults": [{"kind": "device_failure", "device": 1-2, "onset_step": 0}]})",
        R"({"faults": [{"kind": "straggler", "device": 0, "slowdown": 2-0.5,)"
        R"( "onset_step": 0}]})"}) {
    EXPECT_THROW(faults::parse_fault_plan_json(text), faults::FaultPlanError) << text;
  }
}

// Plan validation -----------------------------------------------------------

TEST(FaultPlanValidate, RejectsOutOfClusterDevices) {
  const auto cluster8 = cluster::make_paper_testbed_8gpu();
  FaultPlan plan;
  plan.events = {device_failure(11, 5)};
  EXPECT_THROW(plan.validate(cluster8), faults::FaultPlanError);

  plan.events = {straggler(0, 0.5, 0)};  // slowdown must be > 1
  EXPECT_THROW(plan.validate(cluster8), faults::FaultPlanError);

  plan.events = {link_degradation(0, 0, 0.5, 0)};  // same endpoint
  EXPECT_THROW(plan.validate(cluster8), faults::FaultPlanError);

  plan.events = {device_failure(3, 5), straggler(1, 2.0, 0)};
  EXPECT_NO_THROW(plan.validate(cluster8));
}

// Scaling -------------------------------------------------------------------

TEST(FaultScaling, StragglerScalesComputeDurations) {
  const auto cluster4 = cluster::make_fig3_testbed();
  DistGraph g(cluster4);
  add_compute(g, "a", 0, 2.0);
  add_compute(g, "b", 1, 2.0);
  g.finalize();

  FaultPlan plan;
  plan.events = {straggler(0, 3.0, 0)};
  const auto scaling = faults::scaling_at(plan, cluster4, 0);
  const DistGraph scaled = sim::apply_fault_scaling(g, cluster4, scaling);
  EXPECT_DOUBLE_EQ(scaled.node(0).duration_ms, 6.0);
  EXPECT_DOUBLE_EQ(scaled.node(1).duration_ms, 2.0);
}

TEST(FaultScaling, LinkDegradationScalesCrossHostTransfers) {
  // fig3: G0,G1 on host0; G2,G3 on host1.
  const auto cluster4 = cluster::make_fig3_testbed();
  DistGraph g(cluster4);
  add_transfer(g, "cross", 0, 2, 4.0);
  add_transfer(g, "intra", 0, 1, 4.0);
  g.finalize();

  FaultPlan plan;
  plan.events = {link_degradation(0, 2, 0.25, 0)};
  const auto scaling = faults::scaling_at(plan, cluster4, 0);
  const DistGraph scaled = sim::apply_fault_scaling(g, cluster4, scaling);
  EXPECT_DOUBLE_EQ(scaled.node(0).duration_ms, 16.0);  // 4 / 0.25
  EXPECT_DOUBLE_EQ(scaled.node(1).duration_ms, 4.0);   // other host pair
}

TEST(FaultScaling, EventsRespectOnsetAndRecoveryWindows) {
  const auto cluster8 = cluster::make_paper_testbed_8gpu();
  FaultPlan plan;
  plan.events = {straggler(0, 2.0, 3, 6)};
  EXPECT_FALSE(faults::scaling_at(plan, cluster8, 2).any());
  EXPECT_TRUE(faults::scaling_at(plan, cluster8, 3).any());
  EXPECT_TRUE(faults::scaling_at(plan, cluster8, 5).any());
  EXPECT_FALSE(faults::scaling_at(plan, cluster8, 6).any());
}

TEST(FaultScaling, DegradedClusterReflectsActiveFaults) {
  const auto base = cluster::make_paper_testbed_8gpu();
  FaultPlan plan;
  plan.events = {device_failure(7, 0), straggler(0, 4.0, 0),
                 link_degradation(0, 2, 0.5, 0)};
  const auto scaling = faults::scaling_at(plan, base, 0);
  const auto degraded = faults::degraded_cluster(base, scaling);

  EXPECT_EQ(degraded.device_count(), 7);
  EXPECT_DOUBLE_EQ(degraded.device(0).gflops_per_ms,
                   base.device(0).gflops_per_ms / 4.0);
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(0, 2),
                   base.link_bandwidth_bytes_per_ms(0, 2) * 0.5);
}

TEST(FaultScaling, RemapDropsVanishedDevices) {
  FaultPlan plan;
  plan.events = {straggler(2, 2.0, 0), transient(3, 1, 1), device_failure(5, 4),
                 link_degradation(3, 5, 0.5, 0)};
  // Device 3 removed: ids above shift down by one.
  const std::vector<int> id_map = {0, 1, 2, -1, 3, 4, 5, 6};
  const FaultPlan remapped = faults::remap_plan(plan, id_map);
  ASSERT_EQ(remapped.events.size(), 2u);
  EXPECT_EQ(remapped.events[0].device, 2);  // straggler unchanged
  EXPECT_EQ(remapped.events[1].device, 4);  // failure of old 5 -> new 4
}

// remap_plan / JSON properties ----------------------------------------------

FaultPlan random_plan(Rng& rng, int device_count) {
  FaultPlan plan;
  const int n = rng.uniform_int(1, 8);
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        plan.events.push_back(
            device_failure(rng.uniform_int(0, device_count - 1), rng.uniform_int(0, 19)));
        break;
      case 1:
        plan.events.push_back(straggler(rng.uniform_int(0, device_count - 1),
                                        rng.uniform(1.5, 6.0), rng.uniform_int(0, 19),
                                        rng.uniform_int(0, 1) ? rng.uniform_int(5, 25)
                                                              : -1));
        break;
      case 2:
        plan.events.push_back(transient(rng.uniform_int(0, device_count - 1),
                                        rng.uniform_int(0, 19), rng.uniform_int(1, 4)));
        break;
      default: {
        const int a = rng.uniform_int(0, device_count - 1);
        int b = rng.uniform_int(0, device_count - 1);
        if (b == a) b = (a + 1) % device_count;
        plan.events.push_back(
            link_degradation(a, b, rng.uniform(0.1, 0.9), rng.uniform_int(0, 19)));
        break;
      }
    }
  }
  return plan;
}

TEST(FaultProperties, RemapDropsExactlyTheVanishedAndRewritesTheRest) {
  // For 200 random (plan, removal set) pairs: every event whose device (or
  // either link endpoint) was removed vanishes, every survivor is rewritten
  // through the id map, and nothing else changes.
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const int devices = rng.uniform_int(2, 8);
    const FaultPlan plan = random_plan(rng, devices);

    std::vector<int> id_map(static_cast<size_t>(devices));
    int next = 0;
    int removed = 0;
    for (int d = 0; d < devices; ++d) {
      // Remove each device with probability ~1/3, but keep at least one.
      const bool remove = rng.uniform() < (1.0 / 3.0) && removed < devices - 1;
      id_map[static_cast<size_t>(d)] = remove ? -1 : next++;
      removed += remove ? 1 : 0;
    }

    const FaultPlan remapped = faults::remap_plan(plan, id_map);

    size_t expected = 0;
    size_t cursor = 0;
    for (const auto& e : plan.events) {
      const bool survives =
          e.kind == FaultKind::kLinkDegradation
              ? id_map[static_cast<size_t>(e.device_a)] >= 0 &&
                    id_map[static_cast<size_t>(e.device_b)] >= 0
              : id_map[static_cast<size_t>(e.device)] >= 0;
      if (!survives) continue;
      ++expected;
      ASSERT_LT(cursor, remapped.events.size());
      const auto& r = remapped.events[cursor++];
      EXPECT_EQ(r.kind, e.kind);
      EXPECT_EQ(r.onset_step, e.onset_step);
      EXPECT_EQ(r.recovery_step, e.recovery_step);
      if (e.kind == FaultKind::kLinkDegradation) {
        EXPECT_EQ(r.device_a, id_map[static_cast<size_t>(e.device_a)]);
        EXPECT_EQ(r.device_b, id_map[static_cast<size_t>(e.device_b)]);
        EXPECT_DOUBLE_EQ(r.bandwidth_factor, e.bandwidth_factor);
      } else {
        EXPECT_EQ(r.device, id_map[static_cast<size_t>(e.device)]);
        EXPECT_DOUBLE_EQ(r.slowdown, e.slowdown);
        EXPECT_EQ(r.failed_attempts, e.failed_attempts);
      }
    }
    EXPECT_EQ(remapped.events.size(), expected);
  }
}

TEST(FaultProperties, IdentityRemapIsANoOpAndJsonRoundTripIsStable) {
  // Identity maps leave plans untouched, and JSON serialisation reaches a
  // fixed point after one round trip (parse(to_json(p)) serialises to the
  // same bytes again) — the journal relies on this for byte-identical
  // re-saves.
  Rng rng(977);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    const int devices = rng.uniform_int(2, 8);
    const FaultPlan plan = random_plan(rng, devices);

    std::vector<int> identity(static_cast<size_t>(devices));
    for (int d = 0; d < devices; ++d) identity[static_cast<size_t>(d)] = d;
    const FaultPlan same = faults::remap_plan(plan, identity);
    ASSERT_EQ(same.events.size(), plan.events.size());

    const std::string json = faults::fault_plan_to_json(plan);
    const FaultPlan reparsed = faults::parse_fault_plan_json(json);
    ASSERT_EQ(reparsed.events.size(), plan.events.size());
    EXPECT_EQ(faults::fault_plan_to_json(reparsed), json);
    EXPECT_EQ(faults::fault_plan_to_json(same), json);
  }
}

// Error-path diagnostics: signature() and degraded_cluster must name the
// step and the offending device so chaos-harness failures are debuggable ----

TEST(FaultScalingErrors, SignatureNamesStepAndDeviceOnBadSlowdown) {
  faults::FaultScaling scaling;
  scaling.step = 7;
  scaling.compute_slowdown = {1.0, 0.5, 1.0};
  try {
    scaling.signature();
    FAIL() << "signature() accepted a slowdown < 1";
  } catch (const faults::FaultPlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at step 7"), std::string::npos) << what;
    EXPECT_NE(what.find("device 1"), std::string::npos) << what;
  }
}

TEST(FaultScalingErrors, SignatureNamesLinkEndpointsOnBadFactor) {
  faults::FaultScaling scaling;
  scaling.step = 3;
  scaling.links.push_back({0, 2, 1.5});
  try {
    scaling.signature();
    FAIL() << "signature() accepted a bandwidth factor >= 1";
  } catch (const faults::FaultPlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at step 3"), std::string::npos) << what;
    EXPECT_NE(what.find("G0<->G2"), std::string::npos) << what;
  }
}

TEST(FaultScalingErrors, SignatureRejectsNegativeFailedId) {
  faults::FaultScaling scaling;
  scaling.step = 11;
  scaling.failed = {-2};
  EXPECT_THROW(scaling.signature(), faults::FaultPlanError);
}

TEST(FaultScalingErrors, DegradedClusterNamesOutOfRangeFailedDevice) {
  const auto cluster4 = cluster::make_fig3_testbed();
  faults::FaultScaling scaling;
  scaling.step = 5;
  scaling.failed = {9};
  try {
    faults::degraded_cluster(cluster4, scaling);
    FAIL() << "degraded_cluster accepted an out-of-range failed device";
  } catch (const faults::FaultPlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at step 5"), std::string::npos) << what;
    EXPECT_NE(what.find("device 9"), std::string::npos) << what;
  }
}

TEST(FaultScalingErrors, DegradedClusterNamesStepWhenNoDeviceSurvives) {
  const auto cluster4 = cluster::make_fig3_testbed();
  faults::FaultScaling scaling;
  scaling.step = 6;
  scaling.failed = {0, 1, 2, 3};
  try {
    faults::degraded_cluster(cluster4, scaling);
    FAIL() << "degraded_cluster accepted an all-failed scaling";
  } catch (const cluster::ClusterSpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no device survives at step 6"), std::string::npos) << what;
    EXPECT_NE(what.find("all 4 devices failed"), std::string::npos) << what;
  }
}

TEST(FaultScalingErrors, DegradedClusterNamesBadLinkEndpoint) {
  const auto cluster4 = cluster::make_fig3_testbed();
  faults::FaultScaling scaling;
  scaling.step = 2;
  scaling.links.push_back({1, 7, 0.5});
  try {
    faults::degraded_cluster(cluster4, scaling);
    FAIL() << "degraded_cluster accepted an out-of-range link endpoint";
  } catch (const faults::FaultPlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at step 2"), std::string::npos) << what;
    EXPECT_NE(what.find("G1<->G7"), std::string::npos) << what;
  }
}

// Fault-aware simulation ----------------------------------------------------
//
// sim::FaultInjector steps a compiled plan through a FaultPlan one attempt at
// a time. These pin its per-step makespans, the step a failed device blocks
// and the devices that go silent there.

/// Devices whose heartbeat `obs` reports missing.
std::vector<cluster::DeviceId> silent_devices(const health::Observation& obs) {
  std::vector<cluster::DeviceId> silent;
  for (size_t d = 0; d < obs.responded.size(); ++d) {
    if (obs.responded[d] == 0) silent.push_back(static_cast<cluster::DeviceId>(d));
  }
  return silent;
}

TEST(FaultSim, ReportsPerStepMakespans) {
  const auto cluster4 = cluster::make_fig3_testbed();
  DistGraph g(cluster4);
  add_compute(g, "a", 0, 2.0);
  add_compute(g, "b", 1, 2.0);
  g.finalize();

  FaultPlan plan;
  plan.events = {straggler(0, 3.0, 1, 3)};
  sim::FaultInjector injector(g, cluster4, plan, sched::OrderPolicy::kRankPriority);
  std::vector<double> makespans;
  double total_ms = 0.0;
  for (int step = 0; step < 5; ++step) {
    const health::Observation obs = injector.attempt_step(step, 0);
    ASSERT_TRUE(obs.completed) << "step " << step;
    EXPECT_DOUBLE_EQ(
        injector.measure(faults::scaling_at(plan, cluster4, step)).makespan_ms,
        obs.makespan_ms);
    makespans.push_back(obs.makespan_ms);
    total_ms += obs.makespan_ms;
  }
  EXPECT_DOUBLE_EQ(makespans[0], 2.0);
  EXPECT_DOUBLE_EQ(makespans[1], 6.0);
  EXPECT_DOUBLE_EQ(makespans[2], 6.0);
  EXPECT_DOUBLE_EQ(makespans[3], 2.0);
  EXPECT_DOUBLE_EQ(total_ms, 2.0 + 6.0 + 6.0 + 2.0 + 2.0);
}

TEST(FaultSim, DeviceFailureMarksStepInexecutable) {
  const auto cluster4 = cluster::make_fig3_testbed();
  DistGraph g(cluster4);
  add_compute(g, "a", 0, 2.0);
  add_compute(g, "b", 1, 2.0);
  g.finalize();

  FaultPlan plan;
  plan.events = {device_failure(1, 2)};
  sim::FaultInjector injector(g, cluster4, plan, sched::OrderPolicy::kRankPriority);
  int first_inexecutable_step = -1;
  health::Observation blocked;
  for (int step = 0; step < 5 && first_inexecutable_step < 0; ++step) {
    const health::Observation obs = injector.attempt_step(step, 0);
    if (!obs.completed) {
      first_inexecutable_step = step;
      blocked = obs;
    }
  }
  EXPECT_EQ(first_inexecutable_step, 2);
  EXPECT_LT(blocked.error_device, 0);  // a timeout: heartbeats are the signal
  EXPECT_EQ(silent_devices(blocked), (std::vector<cluster::DeviceId>{1}));
}

TEST(FaultSim, FailureOfUnusedDeviceDoesNotStopExecution) {
  const auto cluster4 = cluster::make_fig3_testbed();
  DistGraph g(cluster4);
  add_compute(g, "a", 0, 2.0);  // device 3 untouched by the plan
  g.finalize();

  FaultPlan plan;
  plan.events = {device_failure(3, 1)};
  sim::FaultInjector injector(g, cluster4, plan, sched::OrderPolicy::kRankPriority);
  for (int step = 0; step < 4; ++step) {
    const health::Observation obs = injector.attempt_step(step, 0);
    EXPECT_TRUE(obs.completed) << "step " << step;
    EXPECT_EQ(silent_devices(obs), step >= 1 ? std::vector<cluster::DeviceId>{3}
                                             : std::vector<cluster::DeviceId>{})
        << "step " << step;
  }
}

// apply_oom_check hardening (regression: peak vector shorter than device
// count must not index out of bounds) --------------------------------------

TEST(OomCheck, ShortPeakVectorIsTreatedAsZeroUsage) {
  const auto cluster8 = cluster::make_paper_testbed_8gpu();
  sim::SimResult result;
  result.peak_memory_bytes = {int64_t{1} << 40, 0};  // only 2 of 8 devices
  sim::apply_oom_check(result, cluster8);
  EXPECT_TRUE(result.oom);  // device 0 overflows...
  ASSERT_EQ(result.oom_devices.size(), 1u);
  EXPECT_EQ(result.oom_devices[0], 0);  // ...and no out-of-bounds read occurs

  result.peak_memory_bytes.clear();
  sim::apply_oom_check(result, cluster8);
  EXPECT_FALSE(result.oom);
}

// DistRunner fault-aware execution ------------------------------------------

TEST(FaultSim, NearlyEqualSlowdownsDoNotShareAMemoEntry) {
  // Slowdowns of 2.0 and 2.000004 on every device are distinct fault sets:
  // the second must measure its own simulation, not the first's memo entry.
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 64); },
      cluster::make_paper_testbed_8gpu(), fast_config());
  const auto slowed = [&](double factor) {
    faults::FaultScaling scaling;
    scaling.compute_slowdown.assign(static_cast<size_t>(runner.cluster().device_count()),
                                    factor);
    return scaling;
  };
  EXPECT_NE(slowed(2.0).signature(), slowed(2.000004).signature());
  sim::FaultInjector shared(runner.dist_graph(), runner.cluster(), FaultPlan{},
                            runner.deployment().order);
  const double first = shared.measure(slowed(2.0)).makespan_ms;
  const double second = shared.measure(slowed(2.000004)).makespan_ms;
  sim::FaultInjector fresh(runner.dist_graph(), runner.cluster(), FaultPlan{},
                           runner.deployment().order);
  EXPECT_EQ(second, fresh.measure(slowed(2.000004)).makespan_ms);
  EXPECT_NE(second, first);
}

TEST(RunnerFaults, EmptyPlanMatchesPlainRun) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());
  const RunStats plain = runner.run(10);
  const RunStats faulty = runner.run(10, FaultPlan{});
  EXPECT_DOUBLE_EQ(plain.total_ms, faulty.total_ms);
  EXPECT_TRUE(faulty.recoveries.empty());
}

TEST(RunnerFaults, DeviceFailureMidRunReplansAndCompletes) {
  // Acceptance: permanent single-device failure at step 5 of a 20-step run on
  // the 8-GPU testbed completes all 20 steps, reports a RecoveryReport, and
  // the post-recovery plan is within 2x of a from-scratch plan on the 7-GPU
  // survivor cluster.
  const auto base = cluster::make_paper_testbed_8gpu();
  const auto model = [] {
    return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96);
  };
  const auto runner = get_runner(model, base, fast_config());

  FaultPlan plan;
  plan.events = {device_failure(3, 5)};
  const RunStats stats = runner.run(20, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.step_ms.size(), 20u);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  const RecoveryReport& report = stats.recoveries[0];
  EXPECT_EQ(report.fault_step, 5);
  ASSERT_EQ(report.failed_devices.size(), 1u);
  EXPECT_EQ(report.failed_devices[0], 3);
  EXPECT_EQ(report.steps_lost, 1);
  EXPECT_EQ(report.surviving_devices, 7);
  EXPECT_GT(report.replan_wall_ms, 0.0);
  EXPECT_GT(report.post_fault_iteration_ms, 0.0);
  EXPECT_FALSE(report.post_plan_oom);  // re-plan lands OOM-free on survivors
  EXPECT_FALSE(stats.oom);

  // Steps before the fault run at the original speed; afterwards at the
  // re-planned speed.
  EXPECT_DOUBLE_EQ(stats.step_ms[0], report.pre_fault_iteration_ms);
  EXPECT_DOUBLE_EQ(stats.step_ms[19], report.post_fault_iteration_ms);

  const auto scratch = get_runner(model, base.remove_device(3), fast_config());
  EXPECT_LE(report.post_fault_iteration_ms, 2.0 * scratch.per_iteration_ms());
}

TEST(RunnerFaults, TransientFaultRetriesWithoutReplanning) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());

  FaultPlan plan;
  plan.events = {transient(2, 3, 2)};  // 2 failed attempts < default cap of 5
  const RunStats stats = runner.run(10, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.recoveries.empty());  // no re-planning
  EXPECT_EQ(stats.step_ms.size(), 10u);
  EXPECT_EQ(stats.transient_retries, 2);
  // Exponential backoff: 50 + 100 ms with the default config.
  EXPECT_DOUBLE_EQ(stats.retry_backoff_total_ms, 150.0);
  const RunStats plain = runner.run(10);
  EXPECT_DOUBLE_EQ(stats.total_ms, plain.total_ms + 150.0);
}

TEST(RunnerFaults, TransientEscalatesToFailureAtRetryCap) {
  HeteroGConfig config = fast_config();
  config.fault_handling.max_retries = 3;
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), config);

  FaultPlan plan;
  plan.events = {transient(2, 4, 100)};  // never recovers within the cap
  const RunStats stats = runner.run(12, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.transient_retries, 3);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_TRUE(stats.recoveries[0].escalated_transient);
  EXPECT_EQ(stats.recoveries[0].surviving_devices, 7);
  EXPECT_EQ(stats.step_ms.size(), 12u);
}

TEST(RunnerFaults, StragglerWindowScalesStepTimes) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());

  FaultPlan plan;
  plan.events = {straggler(0, 4.0, 2, 5)};
  const RunStats stats = runner.run(8, plan);

  EXPECT_TRUE(stats.recoveries.empty());
  ASSERT_EQ(stats.step_ms.size(), 8u);
  const double baseline = stats.step_ms[0];
  EXPECT_GT(stats.step_ms[2], baseline);
  EXPECT_GT(stats.step_ms[3], baseline);
  EXPECT_GT(stats.step_ms[4], baseline);
  EXPECT_DOUBLE_EQ(stats.step_ms[5], baseline);  // recovered
  EXPECT_DOUBLE_EQ(stats.step_ms[7], baseline);
}

TEST(RunnerFaults, LinkDegradationSlowsAffectedSteps) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());

  FaultPlan plan;
  plan.events = {link_degradation(0, 2, 0.1, 1, 3)};
  const RunStats stats = runner.run(5, plan);
  ASSERT_EQ(stats.step_ms.size(), 5u);
  EXPECT_GE(stats.step_ms[1], stats.step_ms[0]);
  EXPECT_DOUBLE_EQ(stats.step_ms[3], stats.step_ms[0]);
}

TEST(RunnerFaults, StragglerAwareReplanningBeatsStaleStrategy) {
  // Planning against the straggler-degraded cluster must produce a plan that
  // is no slower (on the degraded hardware) than the fault-free plan, and the
  // degraded hardware itself must be slower than the pristine cluster.
  const auto base = cluster::make_paper_testbed_8gpu();
  const auto model = [] {
    return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96);
  };

  FaultPlan plan;
  plan.events = {straggler(0, 6.0, 0), straggler(1, 6.0, 0)};
  const auto degraded =
      faults::degraded_cluster(base, faults::scaling_at(plan, base, 0));

  const auto clean_runner = get_runner(model, base, fast_config());
  const auto degraded_runner = get_runner(model, degraded, fast_config());

  EXPECT_GT(degraded_runner.per_iteration_ms(), clean_runner.per_iteration_ms());

  // The stale (fault-free) plan executed on the degraded hardware: scale the
  // clean deployment by the active fault set and compare.
  const RunStats stale = clean_runner.run(1, plan);
  ASSERT_EQ(stale.step_ms.size(), 1u);
  EXPECT_LE(degraded_runner.per_iteration_ms(), stale.step_ms[0] * 1.05);
}

// Correlated fault domains: JSON ---------------------------------------------

TEST(FaultJson, ParsesDomainKinds) {
  const std::string json = R"({"faults": [
    {"kind": "rack_failure", "rack": 1, "onset_step": 5},
    {"kind": "switch_outage", "level": 0, "switch": 1, "onset_step": 5,
     "recovery_step": 9},
    {"kind": "switch_degradation", "level": 1, "switch": 0, "onset_step": 3,
     "bandwidth_factor": 0.5}
  ]})";
  const FaultPlan plan = faults::parse_fault_plan_json(json);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kRackFailure);
  EXPECT_EQ(plan.events[0].rack, 1);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kSwitchOutage);
  EXPECT_EQ(plan.events[1].level, 0);
  EXPECT_EQ(plan.events[1].switch_index, 1);
  EXPECT_EQ(plan.events[1].recovery_step, 9);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kSwitchDegradation);
  EXPECT_EQ(plan.events[2].level, 1);
  EXPECT_EQ(plan.events[2].switch_index, 0);
  EXPECT_DOUBLE_EQ(plan.events[2].bandwidth_factor, 0.5);
}

TEST(FaultJson, DomainKindsReachJsonFixedPoint) {
  FaultPlan plan;
  plan.events = {rack_failure(0, 2), switch_outage(0, 1, 3, 7),
                 switch_degradation(1, 0, 0.25, 1)};
  const std::string json = faults::fault_plan_to_json(plan);
  const FaultPlan reparsed = faults::parse_fault_plan_json(json);
  ASSERT_EQ(reparsed.events.size(), 3u);
  EXPECT_EQ(faults::fault_plan_to_json(reparsed), json);
}

TEST(FaultJson, DomainKindsRequireTheirFields) {
  // A rack failure without a rack, and switch events missing either
  // coordinate, are schema errors — not silently defaulted targets.
  EXPECT_THROW(faults::parse_fault_plan_json(
                   R"([{"kind": "rack_failure", "onset_step": 1}])"),
               faults::FaultPlanError);
  EXPECT_THROW(faults::parse_fault_plan_json(
                   R"([{"kind": "switch_outage", "switch": 0, "onset_step": 1}])"),
               faults::FaultPlanError);
  EXPECT_THROW(faults::parse_fault_plan_json(
                   R"([{"kind": "switch_degradation", "level": 0, "onset_step": 1}])"),
               faults::FaultPlanError);
}

// Correlated fault domains: validation sweep ---------------------------------

TEST(FaultPlanValidate, DomainEventsRejectFlatClusters) {
  // The paper testbeds carry no switch topology, so every domain event must
  // be rejected with a typed error — not resolved against phantom racks.
  const auto flat = cluster::make_paper_testbed_8gpu();
  for (const FaultEvent& e :
       {rack_failure(0, 1), switch_outage(0, 0, 1), switch_degradation(0, 0, 0.5, 1)}) {
    FaultPlan plan;
    plan.events = {e};
    EXPECT_THROW(plan.validate(flat), faults::FaultPlanError) << e.describe();
  }
}

TEST(FaultPlanValidate, DomainRejectionSweep) {
  const auto c = rack16_cluster();
  ASSERT_TRUE(c.has_topology());

  auto rejects = [&](const FaultEvent& e) {
    FaultPlan plan;
    plan.events = {e};
    EXPECT_THROW(plan.validate(c), faults::FaultPlanError) << e.describe();
  };

  rejects(rack_failure(-1, 1));                  // rack below range
  rejects(rack_failure(2, 1));                   // unknown rack (2 racks)
  rejects(switch_outage(-1, 0, 1));              // level below range
  rejects(switch_outage(0, -1, 1));              // index below range
  rejects(switch_outage(0, 2, 1));               // index past the 2 ToRs
  rejects(switch_outage(c.topology().level_count(), 0, 1));  // level past top
  rejects(switch_outage(0, 1, 5, 5));            // recovery == onset
  rejects(switch_outage(0, 1, 5, 3));            // recovery before onset
  rejects(switch_degradation(0, 0, 0.0, 1));     // factor == 0 is an outage
  rejects(switch_degradation(0, 0, 1.0, 1));     // factor == 1 is a no-op
  rejects(switch_degradation(0, 0, 1.5, 1));     // factor above 1

  // The well-formed versions of all three kinds validate.
  FaultPlan ok;
  ok.events = {rack_failure(1, 1), switch_outage(0, 1, 5, 9),
               switch_degradation(0, 0, 0.5, 1)};
  EXPECT_NO_THROW(ok.validate(c));
}

TEST(FaultPlanValidate, SwitchOutageCoveringEveryDeviceRejected) {
  // One rack under one ToR: an outage of that ToR would isolate the whole
  // cluster, which can never be survived — rejected at validation time.
  auto options = *cluster::topo_preset("rack16");
  options.racks = 1;
  const auto c = cluster::generate_cluster(options);
  FaultPlan plan;
  plan.events = {switch_outage(0, 0, 1)};
  EXPECT_THROW(plan.validate(c), faults::FaultPlanError);
}

// Correlated fault domains: expansion and scaling ----------------------------

TEST(FaultDomains, DomainDevicesMatchesTopology) {
  const auto c = rack16_cluster();
  EXPECT_EQ(faults::domain_devices(c, rack_failure(0, 1)), devices_in_rack(c, 0));
  EXPECT_EQ(faults::domain_devices(c, rack_failure(1, 1)), devices_in_rack(c, 1));
  // A ToR outage strands exactly its rack.
  EXPECT_EQ(faults::domain_devices(c, switch_outage(0, 1, 1)), devices_in_rack(c, 1));
  // Degradation slows paths but strands no one.
  EXPECT_TRUE(faults::domain_devices(c, switch_degradation(0, 0, 0.5, 1)).empty());
  // Expansion validates its event first.
  EXPECT_THROW(faults::domain_devices(c, rack_failure(5, 1)), faults::FaultPlanError);
}

TEST(FaultDomains, RackFailureExpandsToMemberFailures) {
  const auto c = rack16_cluster();
  FaultPlan plan;
  plan.events = {rack_failure(0, 2)};
  EXPECT_FALSE(faults::scaling_at(plan, c, 1).any());
  const auto scaling = faults::scaling_at(plan, c, 2);
  EXPECT_EQ(scaling.failed, devices_in_rack(c, 0));
  EXPECT_TRUE(scaling.isolated.empty());
}

TEST(FaultDomains, SwitchOutageIsolatesWithoutFailing) {
  const auto c = rack16_cluster();
  FaultPlan plan;
  plan.events = {switch_outage(0, 1, 3, 6)};
  const auto scaling = faults::scaling_at(plan, c, 3);
  EXPECT_TRUE(scaling.failed.empty());
  EXPECT_EQ(scaling.isolated, devices_in_rack(c, 1));
  EXPECT_TRUE(scaling.is_isolated(devices_in_rack(c, 1).front()));
  // The window closes: the isolated devices come back.
  EXPECT_FALSE(faults::scaling_at(plan, c, 6).any());
  // degraded_cluster removes isolated devices like failed ones.
  const auto degraded = faults::degraded_cluster(c, scaling);
  EXPECT_EQ(degraded.device_count(),
            c.device_count() - static_cast<int>(devices_in_rack(c, 1).size()));
}

TEST(FaultDomains, FailureDominatesIsolation) {
  // A rack that both fails and is stranded by its ToR appears only in
  // `failed` — the sets stay disjoint so degraded_cluster removes each
  // device exactly once.
  const auto c = rack16_cluster();
  FaultPlan plan;
  plan.events = {rack_failure(1, 2), switch_outage(0, 1, 2)};
  const auto scaling = faults::scaling_at(plan, c, 2);
  EXPECT_EQ(scaling.failed, devices_in_rack(c, 1));
  EXPECT_TRUE(scaling.isolated.empty());
}

TEST(FaultDomains, SwitchDegradationRepricesPathsCrossingIt) {
  // rack16: 50 GbE NICs under 100 GbE ToRs. Degrading ToR 0 to x0.25 drops
  // it to 25 Gbps — now the path min for every pair whose path crosses it.
  const auto c = rack16_cluster();
  const auto rack0 = devices_in_rack(c, 0);
  const auto rack1 = devices_in_rack(c, 1);
  // A cross-host pair inside rack 0 (hosts are 4-GPU machines).
  const cluster::DeviceId r0a = rack0.front(), r0b = rack0.back();
  const cluster::DeviceId r1a = rack1.front(), r1b = rack1.back();
  ASSERT_NE(c.device(r0a).host, c.device(r0b).host);

  FaultPlan plan;
  plan.events = {switch_degradation(0, 0, 0.25, 0)};
  const auto scaling = faults::scaling_at(plan, c, 0);
  ASSERT_EQ(scaling.switches.size(), 1u);

  // link_factor: cross-rack and intra-rack-0 cross-host paths scale; rack 1
  // internals do not.
  EXPECT_LT(scaling.link_factor(c, r0a, r1a), 1.0);
  EXPECT_LT(scaling.link_factor(c, r0a, r0b), 1.0);
  EXPECT_DOUBLE_EQ(scaling.link_factor(c, r1a, r1b), 1.0);

  // degraded_cluster re-prices the inter-host bandwidth table itself.
  const auto degraded = faults::degraded_cluster(c, scaling);
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(r0a, r0b),
                   cluster::gbps_to_bytes_per_ms(25.0));
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(r0a, r1a),
                   cluster::gbps_to_bytes_per_ms(25.0));
  EXPECT_EQ(degraded.link_bandwidth_bytes_per_ms(r1a, r1b),
            c.link_bandwidth_bytes_per_ms(r1a, r1b));
  // Intra-host fabric is never switch-priced.
  EXPECT_EQ(degraded.link_bandwidth_bytes_per_ms(rack0[0], rack0[1]),
            c.link_bandwidth_bytes_per_ms(rack0[0], rack0[1]));
}

TEST(FaultDomains, SignatureSeparatesSwitchAndIsolationTerms) {
  // Distinct domain fault sets must not alias in the simulation memo.
  faults::FaultScaling a;
  a.switches.push_back({0, 1, 0.5});
  faults::FaultScaling b;
  b.isolated = {3, 4};
  faults::FaultScaling none;
  EXPECT_NE(a.signature(), none.signature());
  EXPECT_NE(b.signature(), none.signature());
  EXPECT_NE(a.signature(), b.signature());
  // Malformed switch factors are rejected like link factors.
  faults::FaultScaling bad;
  bad.step = 4;
  bad.switches.push_back({0, 1, 1.5});
  EXPECT_THROW(bad.signature(), faults::FaultPlanError);
}

TEST(FaultDomains, RemapAgainstSurvivorsDropsDeadDomains) {
  // After rack 1 is removed, a rack_failure(1) has no members and a ToR-0
  // outage would isolate everyone left: both must be dropped, while
  // device-targeted events remap as before.
  const auto c = rack16_cluster();
  faults::FaultScaling scaling;
  scaling.failed = devices_in_rack(c, 1);
  const auto survivors = faults::degraded_cluster(c, scaling);

  std::vector<int> id_map(static_cast<size_t>(c.device_count()), -1);
  int next = 0;
  for (const auto d : devices_in_rack(c, 0)) id_map[static_cast<size_t>(d)] = next++;

  FaultPlan plan;
  plan.events = {rack_failure(1, 5), switch_outage(0, 0, 6),
                 switch_degradation(0, 0, 0.5, 7),
                 straggler(devices_in_rack(c, 0).front(), 2.0, 8)};
  const FaultPlan remapped = faults::remap_plan(plan, id_map, survivors);
  ASSERT_EQ(remapped.events.size(), 2u);
  EXPECT_EQ(remapped.events[0].kind, FaultKind::kSwitchDegradation);
  EXPECT_EQ(remapped.events[1].kind, FaultKind::kStraggler);
  EXPECT_NO_THROW(remapped.validate(survivors));

  // The id-map-only overload keeps domain events untouched.
  const FaultPlan kept = faults::remap_plan(plan, id_map);
  ASSERT_EQ(kept.events.size(), 4u);
  EXPECT_EQ(kept.events[0].kind, FaultKind::kRackFailure);
}

// Docs <-> code schema sync (same pattern as docs/topology.md in
// tests/topo_test.cpp) -------------------------------------------------------

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// docs/faults.md must document every JSON field the parser accepts (one
// "### `field`" heading each) and no field it does not — the doc and
// fault_json_fields() are the same schema. Every kind name must appear too.
TEST(Docs, FaultDocCoversExactlyTheSchemaFields) {
  const std::filesystem::path doc_path =
      std::filesystem::path(HETEROG_SOURCE_DIR) / "docs/faults.md";
  const std::string doc = read_text_file(doc_path);
  ASSERT_FALSE(doc.empty());

  const std::vector<std::string>& fields = faults::fault_json_fields();
  for (const std::string& field : fields) {
    EXPECT_NE(doc.find("### `" + field + "`"), std::string::npos)
        << "docs/faults.md lacks a section for field `" << field << "`";
  }

  size_t pos = 0;
  int documented = 0;
  while ((pos = doc.find("### `", pos)) != std::string::npos) {
    pos += 5;
    const size_t end = doc.find('`', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string name = doc.substr(pos, end - pos);
    ++documented;
    EXPECT_NE(std::find(fields.begin(), fields.end(), name), fields.end())
        << "docs/faults.md documents `" << name
        << "`, which fault_json_fields() does not know";
  }
  EXPECT_EQ(documented, static_cast<int>(fields.size()));

  for (const FaultKind kind :
       {FaultKind::kDeviceFailure, FaultKind::kStraggler,
        FaultKind::kLinkDegradation, FaultKind::kTransient,
        FaultKind::kRackFailure, FaultKind::kSwitchOutage,
        FaultKind::kSwitchDegradation}) {
    const std::string name = faults::fault_kind_name(kind);
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/faults.md does not mention kind `" << name << "`";
  }
}

}  // namespace
}  // namespace heterog
