#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "graph/training.h"
#include "rl/trainer.h"
#include "models/models.h"
#include "sim/plan_eval.h"
#include "strategy/serialize.h"
#include "test_util.h"

namespace heterog {
namespace {

using strategy::Action;
using strategy::CommMethod;
using strategy::ReplicationMode;

class PlanEvalTest : public ::testing::Test {
 protected:
  heterog::testing::TestRig rig_{cluster::make_paper_testbed_8gpu()};
  graph::GraphDef graph_ = heterog::testing::make_toy_training_graph(64.0);
  strategy::Grouping grouping_ = strategy::Grouping::build(graph_, *rig_.costs, 16);
};

TEST_F(PlanEvalTest, SteadyStateNeverExceedsColdIteration) {
  for (int idx = 0; idx < Action::action_count(8); ++idx) {
    const auto map = strategy::StrategyMap::uniform(grouping_.group_count(),
                                                    Action::from_index(idx, 8));
    const auto eval = sim::evaluate_plan(*rig_.costs, graph_, grouping_, map);
    EXPECT_LE(eval.per_iteration_ms, eval.cold_iteration_ms + 1e-9)
        << Action::from_index(idx, 8).to_string();
    EXPECT_GT(eval.per_iteration_ms, 0.0);
  }
}

TEST_F(PlanEvalTest, PsOverlapsPullTailAcrossIterations) {
  // With PS, pulls have no successors within one iteration; steady state
  // hides part of that tail behind the next iteration's forward pass.
  const auto map = strategy::StrategyMap::uniform(
      grouping_.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kPS));
  const auto eval = sim::evaluate_plan(*rig_.costs, graph_, grouping_, map);
  EXPECT_LT(eval.per_iteration_ms, eval.cold_iteration_ms);
}

TEST_F(PlanEvalTest, UnrollDisabledReportsColdTime) {
  const auto map = strategy::StrategyMap::uniform(
      grouping_.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kPS));
  sim::PlanEvalOptions options;
  options.unroll_iterations = 1;
  const auto eval = sim::evaluate_plan(*rig_.costs, graph_, grouping_, map, options);
  EXPECT_DOUBLE_EQ(eval.per_iteration_ms, eval.cold_iteration_ms);
}

TEST_F(PlanEvalTest, HeteroGOrderNeverWorseThanFifo) {
  // The order policy simulates chained-rank / plain-rank / FIFO candidates
  // and enforces the best, so it can never lose to FIFO.
  for (const auto& bench :
       {models::ModelKind::kInceptionV3, models::ModelKind::kMobileNetV2}) {
    const auto g = models::build_training(bench, 0, 96);
    const auto grouping = strategy::Grouping::build(g, *rig_.costs, 24);
    for (int idx : {8, 9, 10, 11, 0}) {
      const auto map = strategy::StrategyMap::uniform(grouping.group_count(),
                                                      Action::from_index(idx, 8));
      sim::PlanEvalOptions fifo;
      fifo.policy = sched::OrderPolicy::kFifo;
      const auto best = sim::evaluate_plan(*rig_.costs, g, grouping, map);
      const auto fifo_eval = sim::evaluate_plan(*rig_.costs, g, grouping, map, fifo);
      EXPECT_LE(best.per_iteration_ms, fifo_eval.per_iteration_ms + 1e-9)
          << static_cast<int>(bench) << " action " << idx;
    }
  }
}

TEST_F(PlanEvalTest, RecordsTheFirstStrictlyFastestOrder) {
  // The tryout keeps the first strictly fastest of chained ranks, plain
  // ranks and FIFO, and records it; a FIFO request tries FIFO alone.
  const auto g = models::build_training(models::ModelKind::kInceptionV3, 0, 32);
  const auto grouping = strategy::Grouping::build(g, *rig_.costs, 48);
  const compile::GraphCompiler compiler(*rig_.costs);
  sim::PlanEvalOptions fifo;
  fifo.policy = sched::OrderPolicy::kFifo;
  for (int idx : {8, 9, 10, 11, 0}) {
    SCOPED_TRACE("action " + std::to_string(idx));
    const auto map = strategy::StrategyMap::uniform(grouping.group_count(),
                                                    Action::from_index(idx, 8));
    const auto compiled = compiler.compile(g, grouping, map);
    sched::OrderPolicy fastest = sched::OrderPolicy::kRankPriority;
    double fastest_ms = 0.0;
    for (const auto order : {sched::OrderPolicy::kRankPriority,
                             sched::OrderPolicy::kPlainRanks, sched::OrderPolicy::kFifo}) {
      sim::SimOptions options;
      options.policy = order;
      const double ms = sim::Simulator(options).run(compiled.graph).makespan_ms;
      if (order == sched::OrderPolicy::kRankPriority || ms < fastest_ms) {
        fastest = order;
        fastest_ms = ms;
      }
    }
    const auto eval = sim::evaluate_plan(*rig_.costs, g, grouping, map);
    EXPECT_EQ(eval.order, fastest);
    EXPECT_EQ(eval.cold_iteration_ms, fastest_ms);
    EXPECT_EQ(sim::evaluate_plan(*rig_.costs, g, grouping, map, fifo).order,
              sched::OrderPolicy::kFifo);
  }
  sim::PlanEvalOptions plain;
  plain.policy = sched::OrderPolicy::kPlainRanks;
  const auto map = strategy::StrategyMap::uniform(
      grouping_.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kPS));
  EXPECT_THROW(sim::evaluate_plan(*rig_.costs, graph_, grouping_, map, plain), CheckError);
}

TEST_F(PlanEvalTest, CompilerOptionsChangeTheOutcome) {
  const auto map = strategy::StrategyMap::uniform(
      grouping_.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  sim::PlanEvalOptions fused;
  fused.compiler.allreduce_fusion_bytes = 64LL << 20;
  const auto per_tensor = sim::evaluate_plan(*rig_.costs, graph_, grouping_, map);
  const auto with_fusion = sim::evaluate_plan(*rig_.costs, graph_, grouping_, map, fused);
  EXPECT_NE(per_tensor.per_iteration_ms, with_fusion.per_iteration_ms);
}

TEST(Unroll, PreservesStructurePerIteration) {
  const auto train = heterog::testing::make_toy_training_graph(32.0);
  const auto unrolled = graph::unroll_iterations(train, 3);
  EXPECT_EQ(unrolled.op_count(), train.op_count() * 3);
  std::string error;
  EXPECT_TRUE(unrolled.validate(&error)) << error;
  // Op k*n+i mirrors op i.
  for (graph::OpId id = 0; id < train.op_count(); ++id) {
    for (int iter = 1; iter < 3; ++iter) {
      const auto& orig = train.op(id);
      const auto& copy = unrolled.op(iter * train.op_count() + id);
      EXPECT_EQ(copy.kind, orig.kind);
      EXPECT_EQ(copy.role, orig.role);
      EXPECT_DOUBLE_EQ(copy.flops_per_sample, orig.flops_per_sample);
    }
  }
}

TEST(Unroll, ApplyGatesNextIterationForward) {
  const auto train = heterog::testing::make_toy_training_graph(32.0);
  const auto unrolled = graph::unroll_iterations(train, 2);
  const int n = train.op_count();
  int cross_edges = 0;
  for (graph::OpId id = 0; id < n; ++id) {
    if (train.op(id).role != graph::OpRole::kApply) continue;
    EXPECT_TRUE(unrolled.has_edge(id, n + train.op(id).mirror_of));
    ++cross_edges;
  }
  EXPECT_GT(cross_edges, 0);
}

TEST(Unroll, SingleIterationIsIdentityShaped) {
  const auto train = heterog::testing::make_toy_training_graph(32.0);
  const auto unrolled = graph::unroll_iterations(train, 1);
  EXPECT_EQ(unrolled.op_count(), train.op_count());
  EXPECT_EQ(unrolled.edge_count(), train.edge_count());
}

TEST(Unroll, GroupingUnrollKeepsGroupIds) {
  heterog::testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto train = heterog::testing::make_toy_training_graph(32.0);
  const auto grouping = strategy::Grouping::build(train, *rig.costs, 8);
  const auto unrolled = strategy::Grouping::unroll(grouping, 3);
  EXPECT_EQ(unrolled.group_count(), grouping.group_count());
  const int n = train.op_count();
  for (graph::OpId id = 0; id < n; ++id) {
    for (int iter = 0; iter < 3; ++iter) {
      EXPECT_EQ(unrolled.group_of(iter * n + id), grouping.group_of(id));
    }
  }
}

TEST(UnrollCompile, FusionAcrossIterationsStaysAcyclic) {
  // Regression: fusing gradient collectives across training-step phases
  // would close a cycle through the apply ops; the phase-aware bucketing
  // must keep unrolled graphs valid.
  heterog::testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto train = heterog::testing::make_toy_training_graph(32.0);
  const auto unrolled = graph::unroll_iterations(train, 3);
  const auto grouping =
      strategy::Grouping::unroll(strategy::Grouping::build(train, *rig.costs, 8), 3);
  const auto map = strategy::StrategyMap::uniform(
      grouping.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  compile::CompilerOptions options;
  options.allreduce_fusion_bytes = 1LL << 40;  // everything would fuse if legal
  const compile::GraphCompiler compiler(*rig.costs, options);
  const auto result = compiler.compile(unrolled, grouping, map);
  std::string error;
  EXPECT_TRUE(result.graph.validate(&error)) << error;
  // One fused collective per iteration, never fewer.
  EXPECT_GE(result.stats.collectives, 3);
}

TEST(Serialize, RoundTrip) {
  strategy::StrategyMap map;
  for (int i = 0; i < 12; ++i) map.group_actions.push_back(Action::from_index(i, 8));
  const std::string text = strategy::to_text(map, 8);
  const auto parsed = strategy::from_text(text, 8);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->group_actions.size(), map.group_actions.size());
  for (size_t i = 0; i < map.group_actions.size(); ++i) {
    EXPECT_TRUE(parsed->group_actions[i] == map.group_actions[i]);
  }
}

TEST(Serialize, RejectsWrongDeviceCountAndGarbage) {
  strategy::StrategyMap map;
  map.group_actions.push_back(Action::mp(3));
  const std::string text = strategy::to_text(map, 8);
  EXPECT_FALSE(strategy::from_text(text, 12).has_value());
  EXPECT_FALSE(strategy::from_text("not a plan", 8).has_value());
  EXPECT_FALSE(strategy::from_text("heterog-plan v1\ndevices 8\ngroups 2\n1\n",
                                   8).has_value());  // truncated
  EXPECT_FALSE(strategy::from_text("heterog-plan v1\ndevices 8\ngroups 1\n99\n",
                                   8).has_value());  // action out of range
}

TEST(Serialize, RejectsTrailingGarbage) {
  strategy::StrategyMap map;
  map.group_actions.push_back(Action::mp(3));
  map.group_actions.push_back(Action::mp(5));
  const std::string text = strategy::to_text(map, 8);
  ASSERT_TRUE(strategy::from_text(text, 8).has_value());
  // Concatenation corruption must not masquerade as a valid shorter plan.
  EXPECT_FALSE(strategy::from_text(text + "0\n", 8).has_value());
  EXPECT_FALSE(strategy::from_text(text + "garbage\n", 8).has_value());
}

TEST(Serialize, V2RoundTripAndChecksum) {
  const auto cluster = cluster::make_paper_testbed_8gpu();
  strategy::StrategyMap map;
  for (int i = 0; i < 5; ++i) {
    map.group_actions.push_back(Action::from_index(i, cluster.device_count()));
  }
  const std::string text = strategy::to_text(map, cluster);
  EXPECT_EQ(text.rfind("heterog-plan v2", 0), 0u);
  const auto parsed = strategy::from_text(text, cluster.device_count());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->group_actions.size(), map.group_actions.size());
  EXPECT_NO_THROW((void)strategy::parse_plan(text, cluster));

  std::string corrupted = text;
  corrupted[text.size() / 2] ^= 0x1;
  EXPECT_THROW((void)strategy::parse_plan(corrupted, cluster),
               strategy::PlanFormatError);
  EXPECT_FALSE(strategy::from_text(corrupted, cluster.device_count()).has_value());
}

TEST(Serialize, FileHelpers) {
  strategy::StrategyMap map;
  map.group_actions.push_back(Action::dp(ReplicationMode::kProportional, CommMethod::kPS));
  const std::string path = ::testing::TempDir() + "/hg_plan_test.plan";
  ASSERT_TRUE(strategy::save_plan(path, map, 8));
  const auto loaded = strategy::load_plan(path, 8);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->group_actions[0] == map.group_actions[0]);
  EXPECT_FALSE(strategy::load_plan(path + ".missing", 8).has_value());
}

TEST(RepairOom, RescuesOverloadedMpPlan) {
  heterog::testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  // A model whose single-device placement overflows but which fits spread out.
  graph::GraphDef fwd("mid", 16.0);
  graph::OpId prev = graph::kInvalidOp;
  for (int i = 0; i < 12; ++i) {
    graph::OpDef op;
    op.name = "layer" + std::to_string(i);
    op.kind = graph::OpKind::kConv2D;
    op.flops_per_sample = 1e9;
    op.out_bytes_per_sample = 96LL << 20;  // 96 MB/sample -> 1.5 GB per layer
    op.param_bytes = 8 << 20;
    const auto id = fwd.add_op(op);
    if (prev != graph::kInvalidOp) fwd.add_edge(prev, id);
    prev = id;
  }
  const auto train = graph::build_training_graph(fwd);
  const auto grouping = strategy::Grouping::build(train, *rig.costs, 12);
  rl::TrainConfig config;
  rl::Trainer trainer(*rig.costs, config);

  const auto all_on_one =
      strategy::StrategyMap::uniform(grouping.group_count(), Action::mp(2));
  const auto before = trainer.evaluate(train, grouping, all_on_one);
  ASSERT_TRUE(before.oom);
  const auto [repaired, after] = trainer.repair_oom(train, grouping, all_on_one);
  EXPECT_FALSE(after.oom);
  // The repaired plan actually spreads over several devices.
  std::set<int> devices;
  for (const auto& a : repaired.group_actions) {
    if (a.is_mp) devices.insert(a.mp_device);
  }
  EXPECT_GT(devices.size(), 1u);
}

}  // namespace
}  // namespace heterog
