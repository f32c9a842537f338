#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/check.h"

#include "cluster/topology.h"
#include "sched/scheduler.h"
#include "sim/sim_core.h"
#include "sim/sim_order.h"
#include "sim/simulator.h"
#include "reference_sim.h"
#include "test_util.h"

namespace heterog::sim {
namespace {

using compile::DistGraph;
using compile::DistNode;
using compile::DistNodeId;
using compile::NodeKind;

DistNodeId add_compute(DistGraph& g, const std::string& name, int device, double ms,
                       int64_t out_bytes = 0) {
  DistNode n;
  n.name = name;
  n.kind = NodeKind::kCompute;
  n.device = device;
  n.duration_ms = ms;
  n.output_bytes = out_bytes;
  return g.add_node(std::move(n));
}

DistNodeId add_transfer(DistGraph& g, const std::string& name, int from, int to, double ms,
                        int64_t bytes = 0) {
  DistNode n;
  n.name = name;
  n.kind = NodeKind::kTransfer;
  n.link_from = from;
  n.link_to = to;
  n.duration_ms = ms;
  n.output_bytes = bytes;
  return g.add_node(std::move(n));
}

TEST(Simulator, ChainMakespanIsSumOfDurations) {
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 1.0);
  const auto b = add_compute(g, "b", 0, 2.0);
  const auto c = add_compute(g, "c", 0, 3.0);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 6.0);
}

TEST(Simulator, IndependentOpsOnDifferentDevicesRunInParallel) {
  DistGraph g(2);
  add_compute(g, "a", 0, 5.0);
  add_compute(g, "b", 1, 3.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 5.0);
}

TEST(Simulator, SameDeviceSerialises) {
  DistGraph g(2);
  add_compute(g, "a", 0, 5.0);
  add_compute(g, "b", 0, 3.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 8.0);
}

TEST(Simulator, TransfersOverlapWithCompute) {
  // a(dev0) -> t(link 0->1) -> b(dev1); c keeps dev0 busy meanwhile.
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 1.0);
  const auto t = add_transfer(g, "t", 0, 1, 4.0);
  const auto b = add_compute(g, "b", 1, 1.0);
  add_compute(g, "c", 0, 5.0);
  g.add_edge(a, t);
  g.add_edge(t, b);
  g.finalize();
  // dev0: a then c -> busy until 6. link: 1..5, b: 5..6. Makespan 6.
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 6.0);
}

TEST(Simulator, CollectivesSerialiseOnNcclChannel) {
  DistGraph g(3);
  for (int i = 0; i < 2; ++i) {
    DistNode n;
    n.name = "ar" + std::to_string(i);
    n.kind = NodeKind::kCollective;
    n.participants = {0, 1, 2};
    n.duration_ms = 4.0;
    g.add_node(std::move(n));
  }
  g.finalize();
  // Two independent collectives cannot overlap: 8 ms, not 4.
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 8.0);
}

TEST(Simulator, RankPolicyPrefersCriticalPath) {
  // Device 0 has two ready ops: "long_chain_head" (followed by a long chain
  // on device 1) and "local" (no successors). Rank order must run the chain
  // head first; FIFO (which sees "local" pushed first) runs local first.
  DistGraph g(2);
  const auto local = add_compute(g, "local", 0, 5.0);
  (void)local;
  const auto head = add_compute(g, "head", 0, 1.0);
  const auto tail = add_compute(g, "tail", 1, 10.0);
  g.add_edge(head, tail);
  g.finalize();

  SimOptions rank_opts;
  rank_opts.policy = sched::OrderPolicy::kRankPriority;
  const double rank_ms = Simulator(rank_opts).run(g).makespan_ms;

  SimOptions fifo_opts;
  fifo_opts.policy = sched::OrderPolicy::kFifo;
  const double fifo_ms = Simulator(fifo_opts).run(g).makespan_ms;

  EXPECT_DOUBLE_EQ(rank_ms, 11.0);  // head 0-1, tail 1-11, local 1-6
  EXPECT_DOUBLE_EQ(fifo_ms, 16.0);  // local 0-5, head 5-6, tail 6-16
  EXPECT_LT(rank_ms, fifo_ms);
}

TEST(Ranks, RankIsDurationPlusMaxSuccessor) {
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 1.0);
  const auto b = add_compute(g, "b", 0, 2.0);
  const auto c = add_compute(g, "c", 1, 7.0);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.finalize();
  const auto ranks = sched::compute_ranks(g);
  EXPECT_DOUBLE_EQ(ranks[static_cast<size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(ranks[static_cast<size_t>(c)], 7.0);
  EXPECT_DOUBLE_EQ(ranks[static_cast<size_t>(a)], 8.0);
}

TEST(Simulator, MemoryPeakCountsLiveTensors) {
  // a produces 100 bytes consumed by b; c produces 50 bytes, no consumer.
  DistGraph g(1);
  const auto a = add_compute(g, "a", 0, 1.0, 100);
  const auto b = add_compute(g, "b", 0, 1.0, 30);
  g.add_edge(a, b);
  add_compute(g, "c", 0, 1.0, 50);
  g.finalize();
  const auto result = Simulator().run(g);
  // Peak: while b runs, a's 100 + b's 30 live; c's 50 at some point. The
  // worst instant is a(100)+b(30)+possibly c(50) depending on order; at
  // least 130.
  EXPECT_GE(result.peak_memory_bytes[0], 130);
  EXPECT_LE(result.peak_memory_bytes[0], 180);
}

TEST(Simulator, StaticParamsIncludedInPeak) {
  DistGraph g(1);
  g.add_static_param_bytes(0, 1000);
  add_compute(g, "a", 0, 1.0, 100);
  g.finalize();
  const auto result = Simulator().run(g);
  EXPECT_EQ(result.peak_memory_bytes[0], 1100);
}

TEST(Simulator, TransferAllocatesOnDestination) {
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 1.0, 100);
  const auto t = add_transfer(g, "t", 0, 1, 1.0, 100);
  const auto b = add_compute(g, "b", 1, 1.0, 0);
  g.add_edge(a, t);
  g.add_edge(t, b);
  g.finalize();
  const auto result = Simulator().run(g);
  EXPECT_GE(result.peak_memory_bytes[1], 100);
}

TEST(Simulator, OomCheckFlagsOverCapacity) {
  cluster::ClusterSpec c = cluster::make_paper_testbed_8gpu();
  DistGraph g(8);
  // 1080Ti (device 2) has 11 GiB; allocate 12 GiB.
  add_compute(g, "big", 2, 1.0, 12LL << 30);
  g.finalize();
  auto result = Simulator().run(g);
  apply_oom_check(result, c);
  EXPECT_TRUE(result.oom);
  ASSERT_EQ(result.oom_devices.size(), 1u);
  EXPECT_EQ(result.oom_devices[0], 2);
}

TEST(Simulator, ComputeAndCommBreakdownSeparated) {
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 3.0);
  const auto t = add_transfer(g, "t", 0, 1, 7.0);
  g.add_edge(a, t);
  g.finalize();
  const auto result = Simulator().run(g);
  EXPECT_DOUBLE_EQ(result.computation_time_ms, 3.0);
  EXPECT_DOUBLE_EQ(result.communication_time_ms, 7.0);
  EXPECT_DOUBLE_EQ(result.makespan_ms, 10.0);
}

TEST(Simulator, StartFinishTimesConsistent) {
  DistGraph g(2);
  const auto a = add_compute(g, "a", 0, 2.0);
  const auto b = add_compute(g, "b", 1, 3.0);
  g.add_edge(a, b);
  g.finalize();
  const auto result = Simulator().run(g);
  EXPECT_DOUBLE_EQ(result.start_ms[static_cast<size_t>(a)], 0.0);
  EXPECT_DOUBLE_EQ(result.finish_ms[static_cast<size_t>(a)], 2.0);
  EXPECT_DOUBLE_EQ(result.start_ms[static_cast<size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(result.finish_ms[static_cast<size_t>(b)], 5.0);
}

TEST(Simulator, EmptyGraph) {
  DistGraph g(2);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 0.0);
}

TEST(OptimalExhaustive, MatchesKnownOptimumAndBoundsListSchedule) {
  // Two chains competing for device 0; optimal interleaving beats the
  // worst priority order.
  DistGraph g(2);
  const auto a1 = add_compute(g, "a1", 0, 1.0);
  const auto a2 = add_compute(g, "a2", 1, 4.0);
  add_compute(g, "b1", 0, 4.0);
  g.add_edge(a1, a2);
  g.finalize();
  const double optimal = optimal_makespan_exhaustive(g);
  const double ls = simulate_iteration_ms(g);
  // Optimal: a1 (0-1), b1 (1-5), a2 (1-5) -> 5.
  EXPECT_DOUBLE_EQ(optimal, 5.0);
  EXPECT_GE(ls, optimal);
}

TEST(OptimalExhaustive, RejectsLargeGraphs) {
  DistGraph g(1);
  for (int i = 0; i < 12; ++i) add_compute(g, "n", 0, 1.0);
  g.finalize();
  EXPECT_THROW(optimal_makespan_exhaustive(g, 9), CheckError);
}

// A simulation's state is sized by the resources the graph occupies, not by
// the cluster: the 1000-GPU preset has 1,001,201 ResourceModel ids, and a
// two-node graph on it reports and buffers exactly its two GPUs.
TEST(SimFootprint, TwoNodeGraphOnDc1000HoldsTwoResources) {
  const auto dc1000 = cluster::generate_cluster(*cluster::topo_preset("dc1000"));
  DistGraph g(dc1000);
  const auto a = add_compute(g, "a", 0, 1.0, 64);
  const auto b = add_compute(g, "b", 999, 2.0);
  g.add_edge(a, b);
  g.finalize();
  ASSERT_EQ(g.resources().resource_count(), 1'001'201);

  SimWorkspace ws;
  ws.graph.build(g);
  const auto priorities =
      sched::priorities(g, g.topological_order(), sched::OrderPolicy::kRankPriority);
  const SimResult result = run_core(ws.graph, priorities, SimOptions(), ws);
  ASSERT_EQ(result.resource_busy.size(), 2u);
  EXPECT_EQ(result.resource_busy[0].resource, g.resources().gpu_resource(0));
  EXPECT_DOUBLE_EQ(result.resource_busy[0].busy_ms, 1.0);
  EXPECT_EQ(result.resource_busy[1].resource, g.resources().gpu_resource(999));
  EXPECT_DOUBLE_EQ(result.resource_busy[1].busy_ms, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan_ms, 3.0);
  EXPECT_EQ(ws.ready.size(), 2u);
  EXPECT_EQ(ws.busy.size(), 2u);
  EXPECT_EQ(ws.in_dirty.size(), 2u);
}

// ---------------------------------------------------------------------------
// Deterministic-order regression wall (sim_order.h). Every comparator is a
// strict TOTAL order — ties on the primary key break on a unique secondary
// key — so the pop sequence of a heap is fixed by the comparator alone and a
// heap-implementation change (priority_queue -> flat push/pop_heap, or any
// future layout) can never reorder equal-key entries. These tests fail if a
// tiebreak is ever weakened back to a partial order.

TEST(SchedulingOrder, EventOrderIsTimeThenNode) {
  const Event early{1.0, 9};
  const Event late{2.0, 1};
  EXPECT_TRUE(late > early);
  EXPECT_FALSE(early > late);

  // Equal times: the node id decides — never "equivalent".
  const Event a{1.0, 3};
  const Event b{1.0, 7};
  EXPECT_TRUE(b > a);
  EXPECT_FALSE(a > b);
  EXPECT_FALSE(a > a);  // irreflexive (strict)

  // The pop sequence of a heap of equal-time events is the node-id order,
  // whatever order the events were pushed in.
  std::vector<int> push_orders[] = {{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (const auto& order : push_orders) {
    std::vector<Event> heap;
    for (const int node : order) {
      heap.push_back(Event{5.0, node});
      std::push_heap(heap.begin(), heap.end(), EventAfter());
    }
    std::vector<int> popped;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), EventAfter());
      popped.push_back(heap.back().node);
      heap.pop_back();
    }
    EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(SchedulingOrder, RankOrderTieBreaksByArrivalSequence) {
  // Equal priorities pop in arrival order (sequence is unique per entry).
  const ReadyEntry first{3.0, 1, 10};
  const ReadyEntry second{3.0, 2, 20};
  EXPECT_TRUE(RankOrder()(second, first));   // first pops before second
  EXPECT_FALSE(RankOrder()(first, second));
  EXPECT_FALSE(RankOrder()(first, first));   // irreflexive (strict)

  // Pop sequence is independent of heap layout: (priority desc, sequence asc)
  // regardless of push order.
  std::vector<int64_t> push_orders[] = {{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}};
  for (const auto& order : push_orders) {
    std::vector<ReadyEntry> heap;
    for (const int64_t seq : order) {
      heap.push_back(ReadyEntry{seq < 2 ? 7.0 : 4.0, seq,
                                static_cast<DistNodeId>(100 + seq)});
      std::push_heap(heap.begin(), heap.end(), RankOrder());
    }
    std::vector<int64_t> popped;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), RankOrder());
      popped.push_back(heap.back().sequence);
      heap.pop_back();
    }
    EXPECT_EQ(popped, (std::vector<int64_t>{0, 1, 2, 3}));
  }

  // FIFO: pure arrival order.
  EXPECT_TRUE(FifoOrder()(second, first));
  EXPECT_FALSE(FifoOrder()(first, second));
}

// End-to-end: two predecessors completing at the same instant feed two
// equal-priority ops on one GPU. The (time, node) event order and the
// (priority, sequence) ready order pin the winner; the simulator and the
// test-side reference must agree exactly.
TEST(SchedulingOrder, EqualTimeCompletionsScheduleIdenticallyOnBothImpls) {
  DistGraph g(3);
  const auto a = add_compute(g, "a", 0, 2.0);  // finish exactly at t=2
  const auto b = add_compute(g, "b", 1, 2.0);  // finish exactly at t=2
  const auto c = add_compute(g, "c", 2, 1.0);
  const auto d = add_compute(g, "d", 2, 1.0);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.finalize();

  for (const auto policy : {sched::OrderPolicy::kRankPriority, sched::OrderPolicy::kFifo}) {
    SimOptions options;
    options.policy = policy;
    // Equal priorities everywhere: only the pinned tiebreaks order the work.
    const std::vector<double> priorities(static_cast<size_t>(g.node_count()), 1.0);
    const auto reference = heterog::testing::reference_run(g, priorities, options);
    const auto data = Simulator(options).run_with_priorities(g, priorities);

    // a and b complete at the same time; a (lower node id) drains first, so c
    // becomes ready before d and wins the sequence tiebreak on device 2.
    EXPECT_DOUBLE_EQ(reference.start_ms[static_cast<size_t>(c)], 2.0);
    EXPECT_DOUBLE_EQ(reference.start_ms[static_cast<size_t>(d)], 3.0);
    EXPECT_EQ(reference.start_ms, data.start_ms);
    EXPECT_EQ(reference.finish_ms, data.finish_ms);
    EXPECT_DOUBLE_EQ(reference.makespan_ms, data.makespan_ms);
  }
}

// A NaN priority would break the ready queues' strict total order; the
// simulator and the reference must both reject it up front rather than
// corrupt a heap.
TEST(SchedulingOrder, NanPriorityRejected) {
  DistGraph g(1);
  add_compute(g, "a", 0, 1.0);
  g.finalize();
  const std::vector<double> priorities{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(heterog::testing::reference_run(g, priorities), CheckError);
  EXPECT_THROW(Simulator().run_with_priorities(g, priorities), CheckError);
}

// ---------------------------------------------------------------------------
// Scheduler invariants pinned on the simulator AND the test-side reference:
// whatever the plan, no resource ever runs two units of work at once and the
// makespan can never beat the critical path.

TEST(SchedulerInvariants, NonOverlapAndCriticalPathHoldOnBothImpls) {
  heterog::testing::TestRig rig{cluster::make_paper_testbed_8gpu()};
  const auto graph = heterog::testing::make_toy_training_graph(64.0);
  const strategy::Action actions[] = {
      strategy::Action::dp(strategy::ReplicationMode::kEven,
                           strategy::CommMethod::kAllReduce),
      strategy::Action::dp(strategy::ReplicationMode::kEven, strategy::CommMethod::kPS),
      strategy::Action::mp(3),
  };
  for (const auto& action : actions) {
    const auto compiled = rig.compile_uniform(graph, action);
    const auto ranks = sched::compute_ranks(compiled.graph);
    double critical_path = 0.0;
    for (const double r : ranks) critical_path = std::max(critical_path, r);

    for (const bool reference : {true, false}) {
      SCOPED_TRACE(reference ? "reference" : "data-oriented");
      const auto result = reference ? heterog::testing::reference_run(compiled.graph)
                                    : Simulator().run(compiled.graph);

      EXPECT_GE(result.makespan_ms + 1e-6, critical_path);

      std::map<int, std::vector<std::pair<double, double>>> intervals;
      std::vector<int> occupied;
      for (DistNodeId id = 0; id < compiled.graph.node_count(); ++id) {
        const auto& node = compiled.graph.node(id);
        if (node.duration_ms <= 0.0) continue;
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
              << "overlap on resource " << resource;
        }
      }
    }
  }
}

}  // namespace
}  // namespace heterog::sim
