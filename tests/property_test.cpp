// Cross-cutting invariants swept over (model x strategy) combinations with
// parameterized gtest: whatever the plan, compilation must produce a valid
// DAG and the simulation must respect fundamental scheduling bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "models/models.h"
#include "sched/scheduler.h"
#include "sim/plan_eval.h"
#include "test_util.h"

namespace heterog {
namespace {

using strategy::Action;

struct SweepCase {
  models::ModelKind kind;
  int layers;
  int action_index;  // in the 8-GPU action space
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = std::string(models::model_kind_name(info.param.kind)) + "_a" +
                     std::to_string(info.param.action_index);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class StrategySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static heterog::testing::TestRig& rig() {
    static heterog::testing::TestRig instance{cluster::make_paper_testbed_8gpu()};
    return instance;
  }
};

TEST_P(StrategySweep, CompileAndSimulateInvariants) {
  const auto& param = GetParam();
  const auto graph = models::build_training(param.kind, param.layers, 32.0);
  const auto grouping = strategy::Grouping::build(graph, *rig().costs, 24);
  const auto map = strategy::StrategyMap::uniform(grouping.group_count(),
                                                  Action::from_index(param.action_index, 8));
  const auto compiled = rig().compiler->compile(graph, grouping, map);

  // 1. Structural validity.
  std::string error;
  ASSERT_TRUE(compiled.graph.validate(&error)) << error;
  ASSERT_GT(compiled.graph.node_count(), graph.op_count() / 2);

  // 2. Simulation bounds.
  const auto result = sim::Simulator().run(compiled.graph);
  EXPECT_GT(result.makespan_ms, 0.0);

  //    (a) makespan >= busiest resource (no resource can be overcommitted).
  for (const auto& busy : result.resource_busy) {
    EXPECT_GE(result.makespan_ms + 1e-9, busy.busy_ms);
  }
  //    (b) makespan >= critical path (max upward rank).
  const auto ranks = sched::compute_ranks(compiled.graph);
  double critical_path = 0.0;
  for (double r : ranks) critical_path = std::max(critical_path, r);
  EXPECT_GE(result.makespan_ms + 1e-6, critical_path);

  //    (c) every node runs within [0, makespan] for exactly its duration.
  for (compile::DistNodeId id = 0; id < compiled.graph.node_count(); ++id) {
    EXPECT_GE(result.start_ms[static_cast<size_t>(id)], -1e-9);
    EXPECT_LE(result.finish_ms[static_cast<size_t>(id)], result.makespan_ms + 1e-9);
    EXPECT_NEAR(result.finish_ms[static_cast<size_t>(id)] -
                    result.start_ms[static_cast<size_t>(id)],
                compiled.graph.node(id).duration_ms, 1e-9);
    // Dependencies respected.
    for (compile::DistNodeId s : compiled.graph.successors(id)) {
      EXPECT_GE(result.start_ms[static_cast<size_t>(s)] + 1e-9,
                result.finish_ms[static_cast<size_t>(id)]);
    }
  }

  // 3. Memory: peak includes the static parameters.
  const auto& params = compiled.graph.static_param_bytes();
  for (size_t d = 0; d < params.size(); ++d) {
    EXPECT_GE(result.peak_memory_bytes[d], params[d]);
  }

  // 4. The Table 2 breakdown is a distribution.
  const auto bd = strategy::summarize_strategy(graph, grouping, map, 8);
  double total = bd.ev_ps + bd.ev_ar + bd.cp_ps + bd.cp_ar;
  for (double f : bd.mp_fraction) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const std::pair<models::ModelKind, int> model_set[] = {
      {models::ModelKind::kVgg19, 0},
      {models::ModelKind::kInceptionV3, 0},
      {models::ModelKind::kMobileNetV2, 0},
      {models::ModelKind::kTransformer, 4},
  };
  for (const auto& [kind, layers] : model_set) {
    for (int action : {0, 3, 7, 8, 9, 10, 11}) {  // MP samples + all DP schemes
      cases.push_back({kind, layers, action});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ModelsByActions, StrategySweep,
                         ::testing::ValuesIn(sweep_cases()), case_name);

// Determinism sweep: two independent end-to-end evaluations of the same
// (model, strategy) must agree bit-for-bit.
class DeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismSweep, EvaluationIsPure) {
  heterog::testing::TestRig rig1{cluster::make_paper_testbed_8gpu()};
  heterog::testing::TestRig rig2{cluster::make_paper_testbed_8gpu()};
  const auto g1 = models::build_training(models::ModelKind::kInceptionV3, 0, 48);
  const auto g2 = models::build_training(models::ModelKind::kInceptionV3, 0, 48);
  const auto grouping1 = strategy::Grouping::build(g1, *rig1.costs, 16);
  const auto grouping2 = strategy::Grouping::build(g2, *rig2.costs, 16);
  const auto map1 = strategy::StrategyMap::uniform(grouping1.group_count(),
                                                   Action::from_index(GetParam(), 8));
  const auto map2 = strategy::StrategyMap::uniform(grouping2.group_count(),
                                                   Action::from_index(GetParam(), 8));
  const auto e1 = sim::evaluate_plan(*rig1.costs, g1, grouping1, map1);
  const auto e2 = sim::evaluate_plan(*rig2.costs, g2, grouping2, map2);
  EXPECT_DOUBLE_EQ(e1.per_iteration_ms, e2.per_iteration_ms);
  EXPECT_EQ(e1.peak_memory_bytes, e2.peak_memory_bytes);
}

INSTANTIATE_TEST_SUITE_P(Actions, DeterminismSweep, ::testing::Values(0, 8, 9, 10, 11));

// Scaling property: doubling the batch never makes an iteration faster.
class BatchMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(BatchMonotonicity, LargerBatchIsNeverMeaningfullyFaster) {
  heterog::testing::TestRig rig{cluster::make_paper_testbed_8gpu()};
  double previous = 0.0;
  for (double batch : {16.0, 32.0, 64.0, 128.0}) {
    const auto g = models::build_training(models::ModelKind::kMobileNetV2, 0, batch);
    const auto grouping = strategy::Grouping::build(g, *rig.costs, 16);
    const auto map = strategy::StrategyMap::uniform(grouping.group_count(),
                                                    Action::from_index(GetParam(), 8));
    const auto eval = sim::evaluate_plan(*rig.costs, g, grouping, map);
    // In communication-bound regimes the makespan can be nearly flat in the
    // batch; it must never *drop* by more than scheduling noise.
    EXPECT_GT(eval.per_iteration_ms, previous * 0.98);
    previous = eval.per_iteration_ms;
  }
}

INSTANTIATE_TEST_SUITE_P(Actions, BatchMonotonicity, ::testing::Values(8, 9, 10, 11));

// ---------------------------------------------------------------------------
// Randomized scheduler invariants: 200 random (graph, grouping, strategy,
// cluster) cases. Whatever the plan, the simulated schedule must never run
// two units of work on one resource at once (no two ops on one GPU, no two
// transfers on one directed link, one collective on the NCCL channel at a
// time), and the list-scheduling makespan must stay within the paper's
// T_LS <= (M + M^2) T* guarantee — checked against max(critical path,
// busiest resource), a lower bound on T*, so a pass here implies the bound.

graph::GraphDef random_training_graph(Rng& rng, int case_index) {
  const double batch = static_cast<double>(rng.uniform_int(8, 64));
  graph::GraphDef fwd("random_" + std::to_string(case_index), batch);

  const int layers = rng.uniform_int(3, 6);
  std::vector<std::vector<graph::OpId>> by_layer;
  graph::OpDef input;
  input.name = "input";
  input.kind = graph::OpKind::kIdentity;
  input.out_bytes_per_sample = 64 * 1024;
  by_layer.push_back({fwd.add_op(input)});

  int op_counter = 0;
  for (int l = 1; l <= layers; ++l) {
    const int width = rng.uniform_int(1, 4);
    std::vector<graph::OpId> layer_ops;
    for (int w = 0; w < width; ++w) {
      graph::OpDef op;
      op.name = "op" + std::to_string(op_counter++);
      op.kind = rng.uniform_int(0, 1) == 0 ? graph::OpKind::kConv2D
                                           : graph::OpKind::kMatMul;
      op.flops_per_sample = (0.05 + 0.4 * rng.uniform()) * 1e9;
      op.out_bytes_per_sample = static_cast<int64_t>(64 + rng.uniform_int(0, 2048)) << 10;
      op.param_bytes = static_cast<int64_t>(rng.uniform_int(0, 24)) << 20;
      const auto id = fwd.add_op(op);
      // 1-2 predecessors from the previous layer keep the DAG connected and
      // give it real depth (the critical path matters for the bound below).
      const auto& prev = by_layer.back();
      const int preds = std::min<int>(rng.uniform_int(1, 2), static_cast<int>(prev.size()));
      std::vector<graph::OpId> picked;
      for (int p = 0; p < preds; ++p) {
        const auto from = prev[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(prev.size()) - 1))];
        if (std::find(picked.begin(), picked.end(), from) == picked.end()) {
          fwd.add_edge(from, id);
          picked.push_back(from);
        }
      }
      layer_ops.push_back(id);
    }
    by_layer.push_back(std::move(layer_ops));
  }

  graph::OpDef loss;
  loss.name = "loss";
  loss.kind = graph::OpKind::kLoss;
  loss.flops_per_sample = 1e6;
  loss.out_bytes_per_sample = 4;
  const auto loss_id = fwd.add_op(loss);
  for (const auto id : by_layer.back()) fwd.add_edge(id, loss_id);
  return graph::build_training_graph(fwd);
}

TEST(RandomScheduleInvariants, NoResourceOverlapAndMakespanBound) {
  constexpr int kCases = 200;
  Rng rng(20260806);
  heterog::testing::TestRig rig8{cluster::make_paper_testbed_8gpu()};
  heterog::testing::TestRig rig_fig3{cluster::make_fig3_testbed()};

  for (int c = 0; c < kCases; ++c) {
    auto& rig = (c % 2 == 0) ? rig8 : rig_fig3;
    const int devices = rig.cluster.device_count();
    SCOPED_TRACE("case " + std::to_string(c) + " on " + std::to_string(devices) +
                 " devices");

    const auto graph = random_training_graph(rng, c);
    const auto grouping =
        strategy::Grouping::build(graph, *rig.costs, rng.uniform_int(4, 16));
    strategy::StrategyMap map;
    for (int g = 0; g < grouping.group_count(); ++g) {
      map.group_actions.push_back(Action::from_index(
          rng.uniform_int(0, Action::action_count(devices) - 1), devices));
    }

    const auto compiled = rig.compiler->compile(graph, grouping, map);
    std::string error;
    ASSERT_TRUE(compiled.graph.validate(&error)) << error;
    const auto result = sim::Simulator().run(compiled.graph);

    // Invariant 1: no two units of work overlap on any resource. Collect
    // every (start, finish) interval per occupied resource and check that
    // sorted neighbours never intersect.
    std::map<int, std::vector<std::pair<double, double>>> intervals;
    std::vector<int> occupied;
    for (compile::DistNodeId id = 0; id < compiled.graph.node_count(); ++id) {
      const auto& node = compiled.graph.node(id);
      if (node.duration_ms <= 0.0) continue;  // zero-width: cannot overlap
      compiled.graph.resources().resources_of(node, occupied);
      for (const int r : occupied) {
        intervals[r].emplace_back(result.start_ms[static_cast<size_t>(id)],
                                  result.finish_ms[static_cast<size_t>(id)]);
      }
    }
    for (auto& [resource, spans] : intervals) {
      std::sort(spans.begin(), spans.end());
      for (size_t i = 1; i < spans.size(); ++i) {
        ASSERT_GE(spans[i].first + 1e-9, spans[i - 1].second)
            << "overlap on resource " << resource << ": ["
            << spans[i - 1].first << ", " << spans[i - 1].second << ") vs ["
            << spans[i].first << ", " << spans[i].second << ")";
      }
    }

    // Invariant 2: T_LS <= (M + M^2) T*. T* is unknown, but the critical
    // path and the busiest resource both lower-bound it, so the (stronger)
    // check against max(CP, busiest) implies the paper's guarantee.
    const auto ranks = sched::compute_ranks(compiled.graph);
    double critical_path = 0.0;
    for (const double r : ranks) critical_path = std::max(critical_path, r);
    double busiest = 0.0;
    for (const auto& b : result.resource_busy) busiest = std::max(busiest, b.busy_ms);
    const double lower_bound = std::max(critical_path, busiest);
    ASSERT_GT(lower_bound, 0.0);
    const double factor = static_cast<double>(devices) +
                          static_cast<double>(devices) * static_cast<double>(devices);
    EXPECT_LE(result.makespan_ms, factor * lower_bound + 1e-6);
    EXPECT_GE(result.makespan_ms + 1e-6, lower_bound);
  }
}

}  // namespace
}  // namespace heterog
