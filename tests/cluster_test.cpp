#include <gtest/gtest.h>

#include "common/check.h"
#include "common/record_io.h"

#include "cluster/cluster.h"
#include "cluster/topology.h"

namespace heterog::cluster {
namespace {

TEST(Cluster, Paper8GpuLayoutMatchesTable2) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  ASSERT_EQ(c.device_count(), 8);
  EXPECT_EQ(c.device(0).model, GpuModel::kV100);
  EXPECT_EQ(c.device(1).model, GpuModel::kV100);
  for (int i = 2; i <= 5; ++i) EXPECT_EQ(c.device(i).model, GpuModel::kGtx1080Ti);
  EXPECT_EQ(c.device(6).model, GpuModel::kP100);
  EXPECT_EQ(c.device(7).model, GpuModel::kP100);
}

TEST(Cluster, Paper12GpuHasFourOfEach) {
  const ClusterSpec c = make_paper_testbed_12gpu();
  ASSERT_EQ(c.device_count(), 12);
  int v100 = 0, gtx = 0, p100 = 0;
  for (const auto& d : c.devices()) {
    if (d.model == GpuModel::kV100) ++v100;
    if (d.model == GpuModel::kGtx1080Ti) ++gtx;
    if (d.model == GpuModel::kP100) ++p100;
  }
  EXPECT_EQ(v100, 4);
  EXPECT_EQ(gtx, 4);
  EXPECT_EQ(p100, 4);
}

TEST(Cluster, IntraHostFasterThanInterHost) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  EXPECT_GT(c.link_bandwidth_bytes_per_ms(0, 1), c.link_bandwidth_bytes_per_ms(0, 2));
  EXPECT_LT(c.link_latency_ms(0, 1), c.link_latency_ms(0, 2));
}

TEST(Cluster, InterHostBandwidthIsPathMin) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  // V100 host has a 100 GbE NIC, 1080Ti hosts 50 GbE: path min is 50 Gbps.
  EXPECT_DOUBLE_EQ(c.link_bandwidth_bytes_per_ms(0, 2), gbps_to_bytes_per_ms(50.0));
}

TEST(Cluster, RelativePowerNormalisedToSlowest) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  EXPECT_DOUBLE_EQ(c.relative_power(2), 1.0);  // 1080Ti is slowest
  EXPECT_NEAR(c.relative_power(0), 2.0, 0.01);  // V100 ~2x
  EXPECT_GT(c.relative_power(6), 1.0);          // P100 slightly faster
  EXPECT_LT(c.relative_power(6), 1.3);
}

TEST(Cluster, MemoryCapacitiesMatchTestbed) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  constexpr int64_t kGiB = 1024LL * 1024 * 1024;
  EXPECT_EQ(c.device(0).memory_bytes, 16 * kGiB);
  EXPECT_EQ(c.device(2).memory_bytes, 11 * kGiB);
  EXPECT_EQ(c.device(6).memory_bytes, 12 * kGiB);
}

TEST(Cluster, GbpsConversion) {
  // 100 Gbps = 12.5e6 bytes per ms.
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_ms(100.0), 1.25e7);
}

TEST(Cluster, HomogeneousBuilder) {
  const ClusterSpec c = make_homogeneous(6, GpuModel::kV100, 2);
  EXPECT_EQ(c.device_count(), 6);
  EXPECT_EQ(c.host_count(), 3);
  for (const auto& d : c.devices()) {
    EXPECT_EQ(d.model, GpuModel::kV100);
    EXPECT_DOUBLE_EQ(c.relative_power(d.id), 1.0);
  }
}

TEST(Cluster, MotivationClusterRatio122) {
  const ClusterSpec c = make_motivation_cluster();
  ASSERT_EQ(c.device_count(), 3);
  EXPECT_NEAR(c.relative_power(1) / c.relative_power(0), 2.0, 0.01);
  EXPECT_NEAR(c.relative_power(2) / c.relative_power(0), 2.0, 0.01);
}

TEST(Cluster, DeviceIdsMustBeDense) {
  std::vector<HostSpec> hosts = {{0, "h0", 50.0, 96.0}};
  std::vector<DeviceSpec> devices(1);
  devices[0].id = 5;  // not dense
  devices[0].host = 0;
  EXPECT_THROW(ClusterSpec(hosts, devices, 100.0), CheckError);
}

TEST(Cluster, MinLinkBandwidthIsInterHost) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  EXPECT_DOUBLE_EQ(c.min_link_bandwidth_bytes_per_ms(), gbps_to_bytes_per_ms(50.0));
}

TEST(Cluster, MalformedSpecsRaiseTypedErrors) {
  std::vector<HostSpec> hosts = {{0, "h0", 50.0, 96.0}};
  std::vector<DeviceSpec> devices(1);
  devices[0].id = 0;
  devices[0].host = 0;

  // Empty device list.
  EXPECT_THROW(ClusterSpec(hosts, {}, 100.0), ClusterSpecError);
  // Empty host list.
  EXPECT_THROW(ClusterSpec({}, devices, 100.0), ClusterSpecError);
  // Non-positive switch bandwidth.
  EXPECT_THROW(ClusterSpec(hosts, devices, -1.0), ClusterSpecError);
  // Non-positive NIC bandwidth.
  {
    auto bad_hosts = hosts;
    bad_hosts[0].nic_gbps = 0.0;
    EXPECT_THROW(ClusterSpec(bad_hosts, devices, 100.0), ClusterSpecError);
  }
  // Dangling host id.
  {
    auto bad_devices = devices;
    bad_devices[0].host = 7;
    EXPECT_THROW(ClusterSpec(hosts, bad_devices, 100.0), ClusterSpecError);
  }
  // Negative memory.
  {
    auto bad_devices = devices;
    bad_devices[0].memory_bytes = -1;
    EXPECT_THROW(ClusterSpec(hosts, bad_devices, 100.0), ClusterSpecError);
  }
  // A well-formed spec still constructs (and fills model defaults).
  const ClusterSpec ok(hosts, devices, 100.0);
  EXPECT_GT(ok.device(0).gflops_per_ms, 0.0);
  EXPECT_GT(ok.device(0).memory_bytes, 0);
}

TEST(Cluster, OutOfRangeDeviceIdsThrowInsteadOfUB) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  EXPECT_THROW(c.relative_power(-1), ClusterSpecError);
  EXPECT_THROW(c.relative_power(8), ClusterSpecError);
  EXPECT_THROW(c.link_bandwidth_bytes_per_ms(0, 8), ClusterSpecError);
  EXPECT_THROW(c.link_bandwidth_bytes_per_ms(-1, 0), ClusterSpecError);
  EXPECT_THROW(c.device(99), ClusterSpecError);
}

TEST(Cluster, RemoveDeviceRedensifiesIds) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  const ClusterSpec survivors = c.remove_device(3);
  ASSERT_EQ(survivors.device_count(), 7);
  EXPECT_EQ(survivors.host_count(), 4);
  // Old G4 (1080Ti on host 2) became G3.
  EXPECT_EQ(survivors.device(3).model, GpuModel::kGtx1080Ti);
  EXPECT_EQ(survivors.device(3).host, 2);
  for (int i = 0; i < survivors.device_count(); ++i) {
    EXPECT_EQ(survivors.device(i).id, i);
  }
}

TEST(Cluster, RemoveDeviceDropsEmptyHosts) {
  const ClusterSpec c = make_paper_testbed_8gpu();
  // Remove both P100s — host 3 has no devices left and must disappear.
  const ClusterSpec survivors = c.remove_device(7).remove_device(6);
  EXPECT_EQ(survivors.device_count(), 6);
  EXPECT_EQ(survivors.host_count(), 3);
  for (const auto& d : survivors.devices()) {
    EXPECT_LT(d.host, survivors.host_count());
  }
}

TEST(Cluster, RemoveDeviceRejectsBadInput) {
  const ClusterSpec c = make_motivation_cluster();
  EXPECT_THROW(c.remove_device(5), ClusterSpecError);
  const ClusterSpec one = c.remove_device(2).remove_device(1);
  EXPECT_EQ(one.device_count(), 1);
  EXPECT_THROW(one.remove_device(0), ClusterSpecError);  // would empty cluster
}

TEST(Cluster, DegradeLinkScalesHostPairBandwidth) {
  const ClusterSpec c = make_fig3_testbed();
  const double base_cross = c.link_bandwidth_bytes_per_ms(0, 2);
  const double base_intra = c.link_bandwidth_bytes_per_ms(0, 1);

  const ClusterSpec degraded = c.degrade_link(0, 2, 0.5);
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(0, 2), base_cross * 0.5);
  // Same host pair, other device pair: also degraded (host path fault).
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(1, 3), base_cross * 0.5);
  // Intra-host fabric untouched.
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(0, 1), base_intra);

  // Degradations compose multiplicatively.
  const ClusterSpec twice = degraded.degrade_link(0, 2, 0.5);
  EXPECT_DOUBLE_EQ(twice.link_bandwidth_bytes_per_ms(0, 2), base_cross * 0.25);
}

TEST(Cluster, DegradeLinkRejectsBadFactors) {
  const ClusterSpec c = make_fig3_testbed();
  EXPECT_THROW(c.degrade_link(0, 2, 0.0), ClusterSpecError);
  EXPECT_THROW(c.degrade_link(0, 2, 1.5), ClusterSpecError);
  EXPECT_THROW(c.degrade_link(0, 0, 0.5), ClusterSpecError);
  EXPECT_THROW(c.degrade_link(0, 9, 0.5), ClusterSpecError);
}

TEST(Cluster, RemoveDevicePreservesLinkDegradation) {
  const ClusterSpec c = make_paper_testbed_8gpu().degrade_link(0, 2, 0.5);
  // Removing a P100 does not touch the degraded host0<->host1 path.
  const ClusterSpec survivors = c.remove_device(7);
  EXPECT_DOUBLE_EQ(survivors.link_bandwidth_bytes_per_ms(0, 2),
                   gbps_to_bytes_per_ms(50.0) * 0.5);
}

// Switch-level degradation (correlated fault domains) ------------------------

/// First device id found in rack `rack`, offset by `nth` within the rack.
DeviceId rack_device(const ClusterSpec& c, int rack, int nth) {
  int seen = 0;
  for (const auto& d : c.devices()) {
    if (c.topology().rack_of_host[static_cast<size_t>(d.host)] != rack) continue;
    if (seen++ == nth) return d.id;
  }
  ADD_FAILURE() << "rack " << rack << " has fewer than " << nth + 1 << " devices";
  return -1;
}

TEST(Cluster, DegradeSwitchRejectsBadInput) {
  // Flat testbeds carry no switches to degrade.
  EXPECT_THROW(make_paper_testbed_8gpu().degrade_switch(0, 0, 0.5),
               ClusterSpecError);

  const ClusterSpec c = generate_cluster(*topo_preset("rack16"));
  EXPECT_THROW(c.degrade_switch(0, 0, 0.0), ClusterSpecError);   // outage, not scale
  EXPECT_THROW(c.degrade_switch(0, 0, 1.5), ClusterSpecError);   // speed-up
  EXPECT_THROW(c.degrade_switch(-1, 0, 0.5), ClusterSpecError);  // level below
  EXPECT_THROW(c.degrade_switch(c.topology().level_count(), 0, 0.5),
               ClusterSpecError);                                // level above
  EXPECT_THROW(c.degrade_switch(0, -1, 0.5), ClusterSpecError);  // index below
  EXPECT_THROW(c.degrade_switch(0, 2, 0.5), ClusterSpecError);   // only 2 ToRs
}

TEST(Cluster, DegradeSwitchRepricesPathsCrossingIt) {
  // rack16: 50 GbE NICs under 100 GbE ToRs. ToR 0 at x0.25 = 25 Gbps becomes
  // the path min for every pair whose path crosses it — cross-rack pairs and
  // cross-host pairs inside rack 0 — while rack 1 internals are untouched.
  const ClusterSpec c = generate_cluster(*topo_preset("rack16"));
  const DeviceId r0a = rack_device(c, 0, 0);
  const DeviceId r0b = rack_device(c, 0, 4);  // second host of rack 0
  const DeviceId r1a = rack_device(c, 1, 0);
  const DeviceId r1b = rack_device(c, 1, 4);
  ASSERT_NE(c.device(r0a).host, c.device(r0b).host);

  const ClusterSpec degraded = c.degrade_switch(0, 0, 0.25);
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(r0a, r0b),
                   gbps_to_bytes_per_ms(25.0));
  EXPECT_DOUBLE_EQ(degraded.link_bandwidth_bytes_per_ms(r0a, r1a),
                   gbps_to_bytes_per_ms(25.0));
  EXPECT_EQ(degraded.link_bandwidth_bytes_per_ms(r1a, r1b),
            c.link_bandwidth_bytes_per_ms(r1a, r1b));

  // A mild degradation that stays above the 50 GbE NIC floor changes nothing
  // observable: the NIC is still the path min.
  const ClusterSpec mild = c.degrade_switch(0, 0, 0.8);
  EXPECT_EQ(mild.link_bandwidth_bytes_per_ms(r0a, r1a),
            c.link_bandwidth_bytes_per_ms(r0a, r1a));

  // Degradations compose multiplicatively on one switch.
  const ClusterSpec twice = degraded.degrade_switch(0, 0, 0.5);
  EXPECT_DOUBLE_EQ(twice.link_bandwidth_bytes_per_ms(r0a, r1a),
                   gbps_to_bytes_per_ms(12.5));
}

TEST(Cluster, DegradeSwitchChangesFingerprintAndJson) {
  // The fingerprint and the JSON round-trip must see switch scales — two
  // clusters differing only in a degraded ToR are different deployments.
  const ClusterSpec c = generate_cluster(*topo_preset("rack16"));
  const ClusterSpec degraded = c.degrade_switch(0, 1, 0.25);
  EXPECT_NE(cluster_fingerprint(c), cluster_fingerprint(degraded));
  EXPECT_NE(cluster_to_json(c), cluster_to_json(degraded));
  // An undegraded topology cluster serialises without a switch_scales block
  // (pre-PR byte stability).
  EXPECT_EQ(cluster_to_json(c).find("switch_scales"), std::string::npos);
  EXPECT_NE(cluster_to_json(degraded).find("switch_scales"), std::string::npos);
}

TEST(Cluster, RemoveDevicePreservesSwitchDegradation) {
  // Switch coordinates key off rack ids, which survive device removal — the
  // degraded ToR must stay degraded on the survivor cluster.
  const ClusterSpec c =
      generate_cluster(*topo_preset("rack16")).degrade_switch(0, 1, 0.25);
  const ClusterSpec survivors = c.remove_device(rack_device(c, 0, 0));
  const DeviceId r1a = rack_device(survivors, 1, 0);
  const DeviceId r1b = rack_device(survivors, 1, 4);
  EXPECT_DOUBLE_EQ(survivors.link_bandwidth_bytes_per_ms(r1a, r1b),
                   gbps_to_bytes_per_ms(25.0));
}

TEST(Cluster, ScaledNetworkKeepsSwitchDegradations) {
  const ClusterSpec c =
      generate_cluster(*topo_preset("rack16")).degrade_switch(0, 1, 0.25);
  const ClusterSpec scaled = scale_network_bandwidth(c, 0.5);
  EXPECT_EQ(scaled.switch_scales(), c.switch_scales());
  // The path through the degraded ToR is scaled by both factors.
  const DeviceId r1a = rack_device(c, 1, 0);
  const DeviceId r1b = rack_device(c, 1, 4);
  EXPECT_DOUBLE_EQ(scaled.link_bandwidth_bytes_per_ms(r1a, r1b),
                   0.5 * c.link_bandwidth_bytes_per_ms(r1a, r1b));
}

TEST(Cluster, BlockRoundTripsEveryFingerprintedPart) {
  // cluster_block lists what cluster_fingerprint hashes: reading it back
  // gives the same fingerprint and the same block, degradations included.
  const ClusterSpec topo = generate_cluster(*topo_preset("pod64"))
                               .degrade_switch(0, 1, 0.25)
                               .degrade_switch(1, 0, 0.5)
                               .degrade_link(0, 5, 0.5);
  for (const ClusterSpec& c : {make_paper_testbed_8gpu(), topo}) {
    const std::string text = cluster_block(c);
    LineCursor in(text);
    const ClusterSpec back = parse_cluster_block(in);
    EXPECT_TRUE(in.done());
    EXPECT_EQ(cluster_block(back), text);
    EXPECT_EQ(cluster_fingerprint(back), cluster_fingerprint(c));
    EXPECT_EQ(back.switch_scales(), c.switch_scales());
  }
  // Clusters without degraded switches write no switch-scale line.
  EXPECT_EQ(cluster_block(generate_cluster(*topo_preset("pod64"))).find("switch-scale"),
            std::string::npos);
  EXPECT_NE(cluster_block(topo).find("\nswitch-scale 0 1 0.25\n"), std::string::npos);
}

}  // namespace
}  // namespace heterog::cluster
