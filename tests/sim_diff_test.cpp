// Differential wall for the data-oriented simulator core (DESIGN.md §5i).
//
// The test-side reference simulator (reference_sim.h, the original per-node
// priority_queue implementation) is the oracle; the library's flat SoA core
// and the fault injector that steps it must reproduce it BIT-identically —
// makespans, busy times, peak-memory vectors and the full start/finish trace
// are compared with exact (memcmp-grade) equality, never tolerances.
// Scenarios are seeded and randomized: models × clusters × policies × fault
// scalings × single-action strategy deltas. The scheduler's resource-chained
// ranks are held to the original extra-edge fixpoint the same way.
//
// ctest label: simdiff (runs under ASan/UBSan and TSan in CI).
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "compile/compiler.h"
#include "faults/faults.h"
#include "graph/training.h"
#include "models/models.h"
#include "profiler/hardware_model.h"
#include "sched/scheduler.h"
#include "sim/fault_sim.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"
#include "reference_sim.h"
#include "test_util.h"

namespace heterog {
namespace {

using sched::OrderPolicy;
using sim::SimOptions;
using sim::SimResult;
using sim::Simulator;
using testing::reference_run;

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Same resources in the same order, with bitwise-equal busy times.
bool busy_equal(const std::vector<sim::ResourceBusy>& a,
                const std::vector<sim::ResourceBusy>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].resource != b[i].resource || !bytes_equal({a[i].busy_ms}, {b[i].busy_ms})) {
      return false;
    }
  }
  return true;
}

/// Exact equality of every observable the simulator reports. Doubles are
/// compared as raw bytes: "close" is a bug here, the two paths must execute
/// the same arithmetic in the same order.
void expect_identical(const SimResult& oracle, const SimResult& candidate,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(bytes_equal({oracle.makespan_ms}, {candidate.makespan_ms}))
      << "makespan " << oracle.makespan_ms << " vs " << candidate.makespan_ms;
  EXPECT_TRUE(bytes_equal({oracle.computation_time_ms}, {candidate.computation_time_ms}));
  EXPECT_TRUE(
      bytes_equal({oracle.communication_time_ms}, {candidate.communication_time_ms}));
  EXPECT_TRUE(busy_equal(oracle.resource_busy, candidate.resource_busy));
  EXPECT_EQ(oracle.peak_memory_bytes, candidate.peak_memory_bytes);
  EXPECT_EQ(oracle.oom, candidate.oom);
  EXPECT_EQ(oracle.oom_devices, candidate.oom_devices);
  EXPECT_TRUE(bytes_equal(oracle.start_ms, candidate.start_ms)) << "start trace";
  EXPECT_TRUE(bytes_equal(oracle.finish_ms, candidate.finish_ms)) << "finish trace";
}

std::vector<double> priorities_for(const compile::DistGraph& graph,
                                   OrderPolicy policy) {
  return sched::priorities(graph, graph.topological_order(), policy);
}

strategy::Action random_action(std::mt19937& rng, int device_count) {
  switch (rng() % 4) {
    case 0:
      return strategy::Action::dp(strategy::ReplicationMode::kEven,
                                  strategy::CommMethod::kAllReduce);
    case 1:
      return strategy::Action::dp(strategy::ReplicationMode::kEven,
                                  strategy::CommMethod::kPS);
    case 2:
      return strategy::Action::dp(strategy::ReplicationMode::kProportional,
                                  strategy::CommMethod::kAllReduce);
    default:
      return strategy::Action::mp(static_cast<cluster::DeviceId>(rng() % device_count));
  }
}

faults::FaultScaling random_scaling(std::mt19937& rng, int device_count) {
  faults::FaultScaling scaling;
  scaling.compute_slowdown.assign(static_cast<size_t>(device_count), 1.0);
  const int slowed = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < slowed; ++i) {
    scaling.compute_slowdown[rng() % device_count] =
        1.2 + 0.1 * static_cast<double>(rng() % 30);
  }
  if (rng() % 2 == 0) {
    faults::LinkDegradation link;
    link.a = static_cast<cluster::DeviceId>(rng() % device_count);
    link.b = static_cast<cluster::DeviceId>(rng() % device_count);
    if (link.a != link.b) {
      link.factor = 0.25 + 0.05 * static_cast<double>(rng() % 10);
      scaling.links.push_back(link);
    }
  }
  return scaling;
}

/// One randomized scenario: compile a (model, cluster, strategy) triple, then
/// compare the reference with the data-oriented core on the base graph, a
/// fault-scaled variant, and a single-action strategy delta.
void run_scenario(int seed, const graph::GraphDef& graph,
                  const testing::TestRig& rig, const std::string& tag) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  const int devices = rig.cluster.device_count();

  const auto grouping = strategy::Grouping::build(graph, *rig.costs, 32);
  strategy::StrategyMap map =
      strategy::StrategyMap::uniform(grouping.group_count(), random_action(rng, devices));
  for (auto& action : map.group_actions) {
    if (rng() % 3 == 0) action = random_action(rng, devices);
  }
  const auto compiled = rig.compiler->compile(graph, grouping, map);

  const OrderPolicy policy =
      rng() % 2 == 0 ? OrderPolicy::kRankPriority : OrderPolicy::kFifo;
  SimOptions options;
  options.policy = policy;
  options.track_memory = rng() % 4 != 0;

  const auto priorities = priorities_for(compiled.graph, policy);
  const SimResult oracle = reference_run(compiled.graph, priorities, options);

  const SimResult data =
      Simulator(options).run_with_priorities(compiled.graph, priorities);
  expect_identical(oracle, data, tag + ": data-oriented");

  // Fault-scaled delta: durations change, structure does not.
  const faults::FaultScaling scaling = random_scaling(rng, devices);
  const auto scaled = sim::apply_fault_scaling(compiled.graph, rig.cluster, scaling);
  const auto scaled_priorities = priorities_for(scaled, policy);
  const SimResult scaled_oracle = reference_run(scaled, scaled_priorities, options);
  const SimResult scaled_data =
      Simulator(options).run_with_priorities(scaled, scaled_priorities);
  expect_identical(scaled_oracle, scaled_data, tag + ": fault delta");

  // Single-action strategy delta: the re-compiled graph can have a different
  // node count.
  strategy::StrategyMap flipped = map;
  const size_t group = rng() % flipped.group_actions.size();
  strategy::Action replacement = random_action(rng, devices);
  flipped.group_actions[group] = replacement;
  const auto recompiled = rig.compiler->compile(graph, grouping, flipped);
  const auto flipped_priorities = priorities_for(recompiled.graph, policy);
  const SimResult flipped_oracle =
      reference_run(recompiled.graph, flipped_priorities, options);
  const SimResult flipped_data =
      Simulator(options).run_with_priorities(recompiled.graph, flipped_priorities);
  expect_identical(flipped_oracle, flipped_data, tag + ": strategy delta");
}

/// A small randomized layered training graph: enough structural variety
/// (fan-out, parameterless ops, mixed byte sizes) to exercise every node
/// kind the compiler emits, cheap enough for hundreds of scenarios.
graph::GraphDef random_training_graph(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 13u);
  graph::GraphDef fwd("rand" + std::to_string(seed),
                      8.0 * static_cast<double>(1 + rng() % 8));
  const int layers = 3 + static_cast<int>(rng() % 6);
  std::vector<graph::OpId> previous;
  graph::OpId last = -1;
  for (int layer = 0; layer < layers; ++layer) {
    graph::OpDef op;
    op.name = "l" + std::to_string(layer);
    op.kind = layer == layers - 1 ? graph::OpKind::kLoss
              : rng() % 2 == 0    ? graph::OpKind::kConv2D
                                  : graph::OpKind::kMatMul;
    op.flops_per_sample = 1e8 * static_cast<double>(1 + rng() % 40);
    op.out_bytes_per_sample = 1024 * static_cast<int64_t>(1 + rng() % 512);
    op.param_bytes = rng() % 4 == 0 ? 0 : (1 << 16) * static_cast<int64_t>(1 + rng() % 64);
    const graph::OpId id = fwd.add_op(op);
    if (last >= 0) fwd.add_edge(last, id);
    if (!previous.empty() && rng() % 2 == 0) {
      fwd.add_edge(previous[rng() % previous.size()], id);  // skip connection
    }
    previous.push_back(id);
    last = id;
  }
  return graph::build_training_graph(fwd);
}

// 120 randomized small-graph scenarios on the heterogeneous 8-GPU testbed
// and the Fig. 3 testbed — the ≥100-scenario volume wall.
TEST(SimDiffTest, RandomizedScenariosTestbed8) {
  testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  for (int seed = 0; seed < 60; ++seed) {
    run_scenario(seed, random_training_graph(seed), rig,
                 "rig8 seed " + std::to_string(seed));
  }
}

TEST(SimDiffTest, RandomizedScenariosFig3) {
  testing::TestRig rig(cluster::make_fig3_testbed());
  for (int seed = 60; seed < 120; ++seed) {
    run_scenario(seed, random_training_graph(seed), rig,
                 "fig3 seed " + std::to_string(seed));
  }
}

// Full paper models on both testbeds — depth over volume: thousands of
// compiled nodes per scenario, every transfer/collective/PS shape the real
// search produces.
TEST(SimDiffTest, PaperModels) {
  struct Case {
    models::ModelKind kind;
    int layers;
    double batch;
  };
  const Case cases[] = {
      {models::ModelKind::kMobileNetV2, 0, 64.0},
      {models::ModelKind::kVgg19, 0, 32.0},
      {models::ModelKind::kBertLarge, 12, 24.0},
  };
  testing::TestRig rig8(cluster::make_paper_testbed_8gpu());
  testing::TestRig rig3(cluster::make_fig3_testbed());
  int seed = 1000;
  for (const auto& c : cases) {
    const auto graph = models::build_training(c.kind, c.layers, c.batch);
    run_scenario(seed++, graph, rig8, std::string(models::model_kind_name(c.kind)) + "/rig8");
    run_scenario(seed++, graph, rig3, std::string(models::model_kind_name(c.kind)) + "/fig3");
  }
}

// The fault injector (memoised: each distinct fault set simulated once, from
// scratch) must agree at every step with a from-scratch reference run of the
// graph scaled by that step's active fault set: under a straggler and a link
// degradation, and after a re-plan onto the survivors of a device failure,
// where the remapped faults follow their devices to new ids.
TEST(SimDiffTest, FaultInjectorPathsAgree) {
  testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto graph = testing::make_toy_training_graph(64.0);
  const auto dp = strategy::Action::dp(strategy::ReplicationMode::kEven,
                                       strategy::CommMethod::kAllReduce);
  const auto compiled = rig.compile_uniform(graph, dp);

  faults::FaultPlan plan;
  faults::FaultEvent slow;  // device 2 is device 1 after the re-plan
  slow.kind = faults::FaultKind::kStraggler;
  slow.device = 2;
  slow.onset_step = 1;
  slow.recovery_step = 5;
  slow.slowdown = 3.0;
  plan.events.push_back(slow);
  faults::FaultEvent link;  // host 0 <-> host 3, until step 6
  link.kind = faults::FaultKind::kLinkDegradation;
  link.device_a = 0;
  link.device_b = 7;
  link.onset_step = 2;
  link.recovery_step = 6;
  link.bandwidth_factor = 0.4;
  plan.events.push_back(link);
  faults::FaultEvent dead;
  dead.kind = faults::FaultKind::kDeviceFailure;
  dead.device = 1;
  dead.onset_step = 4;
  plan.events.push_back(dead);

  SimOptions options;
  sim::FaultInjector injector(compiled.graph, rig.cluster, plan, options.policy);
  // The injector times steps without memory tracking; so does the oracle.
  options.track_memory = false;
  auto expect_step_agrees = [&](int step, const compile::DistGraph& active,
                                const cluster::ClusterSpec& cluster,
                                const faults::FaultPlan& active_plan) {
    SCOPED_TRACE("step " + std::to_string(step));
    const faults::FaultScaling scaling = faults::scaling_at(active_plan, cluster, step);
    const SimResult oracle =
        reference_run(sim::apply_fault_scaling(active, cluster, scaling), options);
    const auto& resources = active.resources();
    std::vector<double> oracle_busy(static_cast<size_t>(cluster.device_count()), 0.0);
    for (const auto& [r, busy] : oracle.resource_busy) {
      if (resources.is_gpu_resource(r) && r < cluster.device_count()) {
        oracle_busy[static_cast<size_t>(r)] = busy;
      }
    }

    const auto obs = injector.attempt_step(step, 0);
    ASSERT_TRUE(obs.completed);
    EXPECT_TRUE(bytes_equal({oracle.makespan_ms}, {obs.makespan_ms}));
    EXPECT_TRUE(bytes_equal(oracle_busy, obs.device_busy_ms));
  };

  for (int step = 0; step < 4; ++step) {
    expect_step_agrees(step, compiled.graph, rig.cluster, plan);
  }
  EXPECT_FALSE(injector.attempt_step(4, 0).completed) << "device 1 is down";

  testing::TestRig survivors(rig.cluster.remove_device(1));
  const std::vector<int> new_id_of = {0, -1, 1, 2, 3, 4, 5, 6};
  const auto replanned = survivors.compile_uniform(graph, dp);
  injector.apply_replan(replanned.graph, survivors.cluster, new_id_of, options.policy);
  const faults::FaultPlan remapped =
      faults::remap_plan(plan, new_id_of, survivors.cluster);
  ASSERT_EQ(remapped.events.size(), 2u);  // the failure left with its device
  // Steps 6 and 7 are fault-free again, as step 0 was: the re-planned graph
  // must be simulated anew, not answered from the old graph's memo.
  for (int step = 4; step < 8; ++step) {
    expect_step_agrees(step, replanned.graph, survivors.cluster, remapped);
  }
}

// rank_priorities sweeps the topological order once; the reference chains
// each resource's communication nodes as extra edges and repeats the sweep
// until nothing changes. Random strategies on three paper models and three
// cluster sizes, each compiled single and unrolled, must rank identically.
TEST(SimDiffTest, RankPrioritiesMatchExtraEdgeFixpoint) {
  struct Model {
    models::ModelKind kind;
    double batch;
  };
  const Model model_cases[] = {{models::ModelKind::kMobileNetV2, 64.0},
                               {models::ModelKind::kInceptionV3, 32.0},
                               {models::ModelKind::kVgg19, 32.0}};
  std::vector<std::pair<std::string, cluster::ClusterSpec>> clusters;
  clusters.emplace_back("8gpu", cluster::make_paper_testbed_8gpu());
  for (const char* preset : {"rack16", "pod64"}) {
    clusters.emplace_back(preset,
                          cluster::generate_cluster(*cluster::topo_preset(preset)));
  }
  std::mt19937 rng(2024);
  int chained = 0;  // graphs where the resource chains change some rank
  for (const auto& [cluster_name, spec] : clusters) {
    const testing::TestRig rig(spec);
    for (const auto& m : model_cases) {
      const auto graph = models::build_training(m.kind, 0, m.batch);
      const auto grouping = strategy::Grouping::build(graph, *rig.costs, 32);
      strategy::StrategyMap map = strategy::StrategyMap::uniform(
          grouping.group_count(), random_action(rng, spec.device_count()));
      for (auto& action : map.group_actions) {
        if (rng() % 3 == 0) action = random_action(rng, spec.device_count());
      }
      const auto single = rig.compiler->compile(graph, grouping, map);
      const auto unrolled =
          rig.compiler->compile(graph::unroll_iterations(graph, 2),
                                strategy::Grouping::unroll(grouping, 2), map);
      for (const auto* compiled : {&single, &unrolled}) {
        SCOPED_TRACE(cluster_name + " " + models::model_kind_name(m.kind) +
                     (compiled == &single ? " single" : " unrolled"));
        const auto topo = compiled->graph.topological_order();
        const auto ranks = sched::rank_priorities(compiled->graph, topo);
        EXPECT_TRUE(
            bytes_equal(testing::reference_rank_priorities(compiled->graph, topo), ranks));
        chained += !bytes_equal(sched::compute_ranks(compiled->graph, topo), ranks);
      }
    }
  }
  EXPECT_GE(chained, 12) << "most graphs should serialise communication";
}

}  // namespace
}  // namespace heterog
