#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "compile/collective.h"
#include "test_util.h"

namespace heterog::compile {
namespace {

using strategy::Action;
using strategy::CommMethod;
using strategy::ReplicationMode;
using testing::TestRig;

class CompileTest : public ::testing::Test {
 protected:
  TestRig rig_{cluster::make_paper_testbed_8gpu()};
  graph::GraphDef train_ = heterog::testing::make_toy_training_graph();
};

/// Every node of `graph`, assembled, in id order.
std::vector<DistNode> nodes(const DistGraph& graph) {
  std::vector<DistNode> out;
  for (DistNodeId id = 0; id < graph.node_count(); ++id) out.push_back(graph.node(id));
  return out;
}

int count_kind(const DistGraph& g, NodeKind kind) {
  int n = 0;
  for (const auto& node : nodes(g)) {
    if (node.kind == kind) ++n;
  }
  return n;
}

TEST_F(CompileTest, MpPlacesEverythingOnOneDevice) {
  const auto result = rig_.compile_uniform(train_, Action::mp(3));
  for (const auto& node : nodes(result.graph)) {
    if (node.kind == NodeKind::kCompute) {
      EXPECT_EQ(node.device, 3);
    }
  }
  EXPECT_EQ(count_kind(result.graph, NodeKind::kTransfer), 0);
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), 0);
  // All parameters (weights + optimiser slot) resident on device 3 only.
  const auto& params = result.graph.static_param_bytes();
  for (size_t d = 0; d < params.size(); ++d) {
    if (d == 3) {
      EXPECT_EQ(params[d], 2 * train_.total_param_bytes());
    } else {
      EXPECT_EQ(params[d], 0);
    }
  }
}

TEST_F(CompileTest, EvenDpReplicatesOncePerDevice) {
  const auto result =
      rig_.compile_uniform(train_, Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  // Every batch-divisible op has 8 replicas: 8 compute nodes of that origin.
  std::vector<int> replicas(static_cast<size_t>(train_.op_count()), 0);
  for (const auto& node : nodes(result.graph)) {
    if (node.kind == NodeKind::kCompute && node.origin != graph::kInvalidOp) {
      ++replicas[static_cast<size_t>(node.origin)];
    }
  }
  for (graph::OpId id = 0; id < train_.op_count(); ++id) {
    const auto& op = train_.op(id);
    if (op.role == graph::OpRole::kApply) continue;
    if (op.batch_divisible) {
      EXPECT_EQ(replicas[static_cast<size_t>(id)], 8) << op.name;
    }
  }
}

TEST_F(CompileTest, FusionEnabledMergesGradientsIntoBuckets) {
  // With Horovod-style fusion enabled, the toy model's gradients
  // (2 + 4 + 16 MB) fit into one 64 MB bucket: a single collective serves
  // all three parameter ops. (The default is per-tensor, like the paper.)
  compile::CompilerOptions options;
  options.allreduce_fusion_bytes = 64LL << 20;
  const GraphCompiler compiler(*rig_.costs, options);
  const auto grouping = strategy::Grouping::build(train_, *rig_.costs, 1000);
  const auto map = strategy::StrategyMap::uniform(
      grouping.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  const auto result = compiler.compile(train_, grouping, map);
  int param_ops = 0;
  int64_t param_bytes = 0;
  for (const auto& op : train_.ops()) {
    if (op.param_bytes > 0) {
      ++param_ops;
      param_bytes += op.param_bytes;
    }
  }
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), 1);
  for (const auto& node : nodes(result.graph)) {
    if (node.kind == NodeKind::kCollective) {
      EXPECT_EQ(node.output_bytes, param_bytes);
    }
  }
  // Apply still runs per parameter op on every device after the collective.
  int applies = 0;
  for (const auto& node : nodes(result.graph)) {
    if (node.role == graph::OpRole::kApply) ++applies;
  }
  EXPECT_EQ(applies, param_ops * 8);
}

TEST_F(CompileTest, DefaultIsPerTensorCollectives) {
  // The paper's Graph Compiler emits one NCCL collective per gradient.
  const auto result =
      rig_.compile_uniform(train_, Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  int param_ops = 0;
  for (const auto& op : train_.ops()) {
    if (op.param_bytes > 0) ++param_ops;
  }
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), param_ops);
}

TEST_F(CompileTest, FusionDisabledEmitsOneCollectivePerParamOp) {
  compile::CompilerOptions options;
  options.allreduce_fusion_bytes = 0;
  const GraphCompiler compiler(*rig_.costs, options);
  const auto grouping = strategy::Grouping::build(train_, *rig_.costs, 1000);
  const auto map = strategy::StrategyMap::uniform(
      grouping.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  const auto result = compiler.compile(train_, grouping, map);
  int param_ops = 0;
  for (const auto& op : train_.ops()) {
    if (op.param_bytes > 0) ++param_ops;
  }
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), param_ops);
}

TEST_F(CompileTest, SmallFusionLimitSplitsBuckets) {
  compile::CompilerOptions options;
  options.allreduce_fusion_bytes = 7 << 20;  // 7 MB: fc (16) alone, conv grads (4+2) fuse
  const GraphCompiler compiler(*rig_.costs, options);
  const auto grouping = strategy::Grouping::build(train_, *rig_.costs, 1000);
  const auto map = strategy::StrategyMap::uniform(
      grouping.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  const auto result = compiler.compile(train_, grouping, map);
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), 2);
}

TEST_F(CompileTest, EvenDpPsEmitsPushAggregateApplyPull) {
  const auto result =
      rig_.compile_uniform(train_, Action::dp(ReplicationMode::kEven, CommMethod::kPS));
  EXPECT_EQ(count_kind(result.graph, NodeKind::kCollective), 0);
  int param_ops = 0;
  for (const auto& op : train_.ops()) {
    if (op.param_bytes > 0) ++param_ops;
  }
  EXPECT_EQ(result.stats.ps_aggregations, param_ops);
  // Each PS group: 7 pushes + 7 pulls across 8 devices.
  EXPECT_EQ(result.stats.transfers, param_ops * 14);
}

TEST_F(CompileTest, ProportionalPutsMoreReplicasOnFasterDevices) {
  const auto result = rig_.compile_uniform(
      train_, Action::dp(ReplicationMode::kProportional, CommMethod::kAllReduce));
  std::map<cluster::DeviceId, int> replica_count;
  for (const auto& node : nodes(result.graph)) {
    if (node.kind == NodeKind::kCompute && node.origin == 1 /* conv1 */) {
      ++replica_count[node.device];
    }
  }
  // V100s (0,1) carry 2 replicas each; 1080Ti and P100 carry 1.
  EXPECT_EQ(replica_count[0], 2);
  EXPECT_EQ(replica_count[1], 2);
  EXPECT_EQ(replica_count[2], 1);
  EXPECT_EQ(replica_count[6], 1);
}

TEST_F(CompileTest, ProportionalBatchSharesSumToGlobalBatch) {
  const auto compiler = *rig_.compiler;
  const auto slots = compiler.placement_slots(
      train_.op(1), Action::dp(ReplicationMode::kProportional, CommMethod::kAllReduce),
      train_.global_batch());
  double total = 0.0;
  for (const auto& [dev, batch] : slots) {
    (void)dev;
    total += batch;
  }
  EXPECT_NEAR(total, train_.global_batch(), 1e-9);
  EXPECT_EQ(slots.size(), 10u);  // 2+2+1+1+1+1+1+1
}

TEST_F(CompileTest, MixedActionsInsertConcatSplitBetweenGroups) {
  // conv1 group -> MP(0); rest EV-AR. The conv1->conv2 edge crosses a
  // replication boundary and must stage through Concat/Split or transfers.
  const auto grouping = strategy::Grouping::build(train_, *rig_.costs, 1000);
  auto map = strategy::StrategyMap::uniform(
      grouping.group_count(), Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  map.group_actions[static_cast<size_t>(grouping.group_of(1))] = Action::mp(0);
  const auto result = rig_.compiler->compile(train_, grouping, map);
  EXPECT_GT(result.stats.splits + result.stats.concats, 0);
  EXPECT_TRUE(result.graph.validate());
}

TEST_F(CompileTest, CompiledGraphIsAlwaysAcyclic) {
  for (int idx = 0; idx < strategy::Action::action_count(8); ++idx) {
    const auto action = Action::from_index(idx, 8);
    const auto result = rig_.compile_uniform(train_, action);
    std::string error;
    EXPECT_TRUE(result.graph.validate(&error)) << action.to_string() << ": " << error;
  }
}

TEST_F(CompileTest, DpParamsResidentOnEveryDevice) {
  const auto result =
      rig_.compile_uniform(train_, Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce));
  const auto& params = result.graph.static_param_bytes();
  for (size_t d = 0; d < params.size(); ++d) {
    EXPECT_EQ(params[d], 2 * train_.total_param_bytes()) << "device " << d;
  }
}

TEST_F(CompileTest, TransferDurationsMatchCostModelPlusRpcOverhead) {
  const auto result =
      rig_.compile_uniform(train_, Action::dp(ReplicationMode::kEven, CommMethod::kPS));
  const double rpc = compile::CompilerOptions().ps_rpc_overhead_ms;
  for (const auto& node : nodes(result.graph)) {
    if (node.kind != NodeKind::kTransfer) continue;
    const double base =
        rig_.costs->transfer_time_ms(node.output_bytes, node.link_from, node.link_to);
    const bool is_rpc = node.name.find("/push") != std::string::npos ||
                        node.name.find("/pull") != std::string::npos;
    EXPECT_NEAR(node.duration_ms, base + (is_rpc ? rpc : 0.0), 1e-9) << node.name;
  }
}

TEST(PlacementSlots, NonDivisibleOpNotReplicated) {
  TestRig rig(cluster::make_paper_testbed_8gpu());
  graph::OpDef op;
  op.name = "scalar";
  op.kind = graph::OpKind::kIdentity;
  op.batch_divisible = false;
  const auto slots = rig.compiler->placement_slots(
      op, Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce), 64.0);
  EXPECT_EQ(slots.size(), 1u);
}

class CollectiveTest : public ::testing::Test {
 protected:
  TestRig rig_{cluster::make_paper_testbed_8gpu()};
};

TEST_F(CollectiveTest, RingTimeScalesWithBytes) {
  const std::vector<cluster::DeviceId> devices = {0, 1, 2, 3};
  const double t1 = ring_allreduce_ms(10 << 20, devices, *rig_.costs);
  const double t2 = ring_allreduce_ms(20 << 20, devices, *rig_.costs);
  EXPECT_GT(t2, 1.8 * t1);
  EXPECT_LT(t2, 2.2 * t1);
}

TEST_F(CollectiveTest, HierarchicalWinsWithFastIntraHostFabric) {
  // Two hosts x 4 GPUs with NVLink-class intra-host bandwidth: the flat ring
  // pays the slow inter-host link on every phase with R=8 participants,
  // while the hierarchical structure reduces intra-host first and runs the
  // inter-host ring between only H=2 chiefs. (Hierarchical wins when
  // bw_intra / bw_inter > RH/(R-H); here 320/50 = 6.4 > 16/6.)
  std::vector<cluster::HostSpec> hosts = {{0, "h0", 50.0, 320.0}, {1, "h1", 50.0, 320.0}};
  std::vector<cluster::DeviceSpec> devices;
  for (int i = 0; i < 8; ++i) {
    cluster::DeviceSpec d;
    d.id = i;
    d.name = "G" + std::to_string(i);
    d.model = cluster::GpuModel::kV100;
    d.host = i / 4;
    devices.push_back(d);
  }
  TestRig rig(cluster::ClusterSpec(hosts, devices, 100.0));
  std::vector<cluster::DeviceId> participants = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto est = estimate_allreduce(256 << 20, participants, *rig.costs);
  EXPECT_EQ(est.structure, AllReduceStructure::kHierarchical);
  EXPECT_LE(est.time_ms, ring_allreduce_ms(256 << 20, participants, *rig.costs));
}

TEST_F(CollectiveTest, SingleHostRingWins) {
  TestRig homo(cluster::make_homogeneous(4, cluster::GpuModel::kV100, 4));
  std::vector<cluster::DeviceId> devices = {0, 1, 2, 3};
  const auto est = estimate_allreduce(64 << 20, devices, *homo.costs);
  EXPECT_EQ(est.structure, AllReduceStructure::kRing);
}

TEST_F(CollectiveTest, EstimatePicksMinimum) {
  std::vector<cluster::DeviceId> devices = {0, 2, 4, 6};
  const int64_t bytes = 32 << 20;
  const auto est = estimate_allreduce(bytes, devices, *rig_.costs);
  const double ring = ring_allreduce_ms(bytes, devices, *rig_.costs);
  const double hier = hierarchical_allreduce_ms(bytes, devices, *rig_.costs);
  EXPECT_DOUBLE_EQ(est.time_ms, std::min(ring, hier) + kCollectiveLaunchOverheadMs);
}

}  // namespace
}  // namespace heterog::compile
