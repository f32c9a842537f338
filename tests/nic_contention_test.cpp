// Multi-resource scheduling semantics: inter-host transfers occupy the link
// plus both host NICs, so incast/outcast serialises while intra-host traffic
// and full-duplex flows stay parallel.
#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace heterog::sim {
namespace {

using compile::DistGraph;
using compile::DistNode;

/// 4 GPUs on 2 hosts (G0,G1 on host0; G2,G3 on host1).
DistGraph two_host_graph() {
  std::vector<cluster::HostSpec> hosts = {{0, "h0", 50.0, 96.0}, {1, "h1", 50.0, 96.0}};
  std::vector<cluster::DeviceSpec> devices(4);
  for (int i = 0; i < 4; ++i) {
    devices[static_cast<size_t>(i)].id = i;
    devices[static_cast<size_t>(i)].host = i / 2;
    devices[static_cast<size_t>(i)].model = cluster::GpuModel::kGtx1080Ti;
  }
  return DistGraph(cluster::ClusterSpec(hosts, devices, 100.0));
}

compile::DistNodeId add_transfer(DistGraph& g, int from, int to, double ms) {
  DistNode n;
  n.name = "t";
  n.kind = compile::NodeKind::kTransfer;
  n.link_from = from;
  n.link_to = to;
  n.duration_ms = ms;
  return g.add_node(std::move(n));
}

TEST(NicContention, IncastSerialisesOnIngressNic) {
  // Two transfers from different sources into host1: distinct links, but the
  // shared ingress NIC forces them to run one after the other.
  DistGraph g = two_host_graph();
  add_transfer(g, 0, 2, 4.0);
  add_transfer(g, 1, 3, 4.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 8.0);
}

TEST(NicContention, OutcastSerialisesOnEgressNic) {
  DistGraph g = two_host_graph();
  add_transfer(g, 0, 2, 3.0);
  add_transfer(g, 0, 3, 5.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 8.0);
}

TEST(NicContention, FullDuplexFlowsOverlap) {
  // One transfer out of host0 and one into host0 use different NIC
  // directions: they overlap.
  DistGraph g = two_host_graph();
  add_transfer(g, 0, 2, 4.0);  // host0 egress, host1 ingress
  add_transfer(g, 3, 1, 4.0);  // host1 egress, host0 ingress
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 4.0);
}

TEST(NicContention, IntraHostTransfersBypassNics) {
  DistGraph g = two_host_graph();
  add_transfer(g, 0, 1, 4.0);  // intra host0
  add_transfer(g, 2, 3, 4.0);  // intra host1
  add_transfer(g, 0, 2, 4.0);  // the only NIC user
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 4.0);
}

TEST(NicContention, BlockedTransferYieldsToIndependentWork) {
  // t1 (0->2) holds host1 ingress; t2 (1->3) must wait, but compute on the
  // GPUs proceeds meanwhile (work conservation across resource kinds).
  DistGraph g = two_host_graph();
  add_transfer(g, 0, 2, 6.0);
  add_transfer(g, 1, 3, 2.0);
  DistNode c;
  c.name = "c";
  c.kind = compile::NodeKind::kCompute;
  c.device = 3;
  c.duration_ms = 7.0;
  g.add_node(std::move(c));
  g.finalize();
  const auto result = Simulator().run(g);
  EXPECT_DOUBLE_EQ(result.makespan_ms, 8.0);  // t1 0-6, t2 6-8; compute 0-7
}

TEST(NicContention, LegacyGraphsWithoutTopologyHaveNoNics) {
  // DistGraph(int) has no host topology: the two inter-"host" transfers of
  // IncastSerialises overlap because only pairwise links exist.
  DistGraph g(4);
  add_transfer(g, 0, 2, 4.0);
  add_transfer(g, 1, 3, 4.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(simulate_iteration_ms(g), 4.0);
}

TEST(NicContention, ResourceSetContents) {
  DistGraph g = two_host_graph();
  const auto id = add_transfer(g, 0, 2, 1.0);
  std::vector<int> resources;
  g.resources().resources_of(g.node(id), resources);
  ASSERT_EQ(resources.size(), 3u);
  EXPECT_EQ(resources[0], g.resources().link_resource(0, 2));
  EXPECT_EQ(resources[1], g.resources().nic_egress_resource(0));
  EXPECT_EQ(resources[2], g.resources().nic_ingress_resource(1));

  const auto intra = add_transfer(g, 0, 1, 1.0);
  g.resources().resources_of(g.node(intra), resources);
  EXPECT_EQ(resources.size(), 1u);
}

}  // namespace
}  // namespace heterog::sim
