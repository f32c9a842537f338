// Topology generator + cluster/comm model tests (ctest -L topo):
//   - generator determinism (byte-identical cluster JSON, equal fingerprints)
//     and the options JSON round trip;
//   - typed TopoSpecError rejection of malformed options and spec files;
//   - docs/topology.md <-> topo_json_fields() schema cross-check and the
//     doc's worked 2-rack AllReduce example pinned against the cost model;
//   - property: estimate_allreduce never beats the serialized flat ring on
//     any generated preset;
//   - scheduler invariants swept on a generated 256-GPU cluster;
//   - fault-plan remap / degraded-cluster carry-through on generated
//     multi-rack clusters (non-contiguous failures re-densify device ids).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "compile/collective.h"
#include "compile/compiler.h"
#include "faults/faults.h"
#include "models/models.h"
#include "profiler/cost_provider.h"
#include "profiler/hardware_model.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"

namespace heterog {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Generator determinism

TEST(TopoGen, SameOptionsByteIdenticalCluster) {
  for (const std::string& name : cluster::topo_preset_names()) {
    const auto options = cluster::topo_preset(name);
    ASSERT_TRUE(options.has_value()) << name;
    const cluster::ClusterSpec a = cluster::generate_cluster(*options);
    const cluster::ClusterSpec b = cluster::generate_cluster(*options);
    EXPECT_EQ(cluster::cluster_to_json(a), cluster::cluster_to_json(b)) << name;
    EXPECT_EQ(cluster::cluster_fingerprint(a), cluster::cluster_fingerprint(b)) << name;
  }
}

TEST(TopoGen, SeedChangesDrawsButNotShape) {
  auto options = *cluster::topo_preset("pod64");
  const cluster::ClusterSpec a = cluster::generate_cluster(options);
  options.seed = 99;
  const cluster::ClusterSpec b = cluster::generate_cluster(options);
  EXPECT_EQ(a.device_count(), b.device_count());
  EXPECT_EQ(a.host_count(), b.host_count());
  ASSERT_TRUE(a.has_topology());
  ASSERT_TRUE(b.has_topology());
  EXPECT_EQ(a.topology().rack_of_host, b.topology().rack_of_host);
  // pod64 mixes three SKUs over 16 hosts; a different seed changing no draw
  // at all would be astronomically unlikely (and would regress the wall that
  // the seed actually reaches the Rng).
  EXPECT_NE(cluster::cluster_to_json(a), cluster::cluster_to_json(b));
}

TEST(TopoGen, OptionsJsonRoundTripIsByteIdentical) {
  std::vector<cluster::TopoGenOptions> specs = {cluster::TopoGenOptions{}};
  for (const std::string& name : cluster::topo_preset_names()) {
    specs.push_back(*cluster::topo_preset(name));
  }
  for (const auto& options : specs) {
    const std::string json = cluster::topo_gen_to_json(options);
    const cluster::TopoGenOptions parsed = cluster::parse_topo_gen_json(json);
    EXPECT_EQ(cluster::topo_gen_to_json(parsed), json);
    // The round-tripped options describe the same cluster, not just the same
    // bytes.
    EXPECT_EQ(cluster::cluster_to_json(cluster::generate_cluster(parsed)),
              cluster::cluster_to_json(cluster::generate_cluster(options)));
  }
}

TEST(TopoGen, LoadsOptionsFromFileAndAppliesDefaults) {
  const fs::path path = fs::temp_directory_path() / "hg_topo_gen_spec.json";
  {
    std::ofstream out(path);
    out << "{\"racks\": 3, \"gpu_mix\": {\"a100\": 1}}";
  }
  const cluster::TopoGenOptions o = cluster::load_topo_gen_options(path.string());
  fs::remove(path);
  EXPECT_EQ(o.racks, 3);
  EXPECT_EQ(o.hosts_per_rack, cluster::TopoGenOptions{}.hosts_per_rack);
  ASSERT_EQ(o.gpu_mix.size(), 1u);
  EXPECT_EQ(o.gpu_mix.count("a100"), 1u);
  EXPECT_THROW(cluster::load_topo_gen_options("/nonexistent/topo.json"),
               cluster::TopoSpecError);
}

TEST(TopoGen, PresetsCoverTheDocumentedScales) {
  EXPECT_EQ(cluster::topo_preset_names().size(), 4u);
  EXPECT_FALSE(cluster::topo_preset("warehouse9000").has_value());

  const cluster::ClusterSpec dc =
      cluster::generate_cluster(*cluster::topo_preset("dc1000"));
  EXPECT_EQ(dc.device_count(), 1000);
  EXPECT_EQ(dc.host_count(), 100);
  ASSERT_TRUE(dc.has_topology());
  EXPECT_EQ(dc.topology().rack_count(), 10);

  const cluster::ClusterSpec rack =
      cluster::generate_cluster(*cluster::topo_preset("rack16"));
  EXPECT_EQ(rack.device_count(), 16);
  ASSERT_TRUE(rack.has_topology());
  EXPECT_EQ(rack.topology().rack_count(), 2);
}

// ---------------------------------------------------------------------------
// Typed rejections

TEST(TopoGen, ValidateRejectsOutOfRangeOptions) {
  auto expect_invalid = [](auto mutate) {
    cluster::TopoGenOptions o;
    mutate(o);
    EXPECT_THROW(o.validate(), cluster::TopoSpecError);
    EXPECT_THROW(cluster::generate_cluster(o), cluster::TopoSpecError);
  };
  expect_invalid([](auto& o) { o.racks = 0; });
  expect_invalid([](auto& o) { o.hosts_per_rack = -1; });
  expect_invalid([](auto& o) { o.gpus_per_host = 0; });
  expect_invalid([](auto& o) { o.tor_gbps = 0.0; });
  expect_invalid([](auto& o) { o.oversubscription = 0.5; });
  expect_invalid([](auto& o) { o.racks_per_pod = -1; });
  expect_invalid([](auto& o) { o.gpu_mix = {{"tpu", 1.0}}; });
  expect_invalid([](auto& o) { o.gpu_mix = {{"v100", -1.0}}; });
  expect_invalid([](auto& o) { o.gpu_mix = {{"v100", 0.0}}; });
  expect_invalid([](auto& o) { o.link_classes = {{"infiniband", 1.0}}; });
  expect_invalid([](auto& o) { o.nic_classes = {{"roce100", 0.0}, {"roce50", 0.0}}; });
}

TEST(TopoGen, ParserRejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                                   // no value at all
      "[1, 2]",                             // top level must be an object
      "{\"racks\": 2} trailing",            // trailing bytes
      "{\"rakcs\": 2}",                     // unknown field
      "{\"racks\": \"two\"}",               // wrong type
      "{\"racks\": 2.5}",                   // non-integer count
      "{\"seed\": -1}",                     // seed out of range
      "{\"seed\": 1e300}",                  // seed above 2^53
      "{\"gpu_mix\": [\"v100\"]}",          // mix must be an object
      "{\"gpu_mix\": {\"v100\": \"x\"}}",   // weight must be a number
      "{\"racks\": 2",                      // unterminated object
      "{\"racks\": 2-1}",                   // number with trailing junk
      "{\"hosts_per_rack\": 4e}",           // exponent without digits
      "{\"tor_gbps\": 100.0.5}",            // two decimal points
  };
  for (const std::string& text : bad) {
    EXPECT_THROW(cluster::parse_topo_gen_json(text), cluster::TopoSpecError) << text;
  }
}

// ---------------------------------------------------------------------------
// Docs <-> code schema sync (same pattern as docs/observability.md in
// tests/obs_test.cpp)

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// docs/topology.md must document every JSON field the parser accepts (one
// "### `field`" heading each) and no field it does not — the doc and
// topo_json_fields() are the same schema.
TEST(Docs, TopologyDocCoversExactlyTheSchemaFields) {
  const fs::path doc_path = fs::path(HETEROG_SOURCE_DIR) / "docs/topology.md";
  const std::string doc = read_file(doc_path);
  ASSERT_FALSE(doc.empty());

  const std::vector<std::string>& fields = cluster::topo_json_fields();
  for (const std::string& field : fields) {
    EXPECT_NE(doc.find("### `" + field + "`"), std::string::npos)
        << "docs/topology.md lacks a section for field `" << field << "`";
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
        << "docs/topology.md documents `" << name
        << "`, which topo_json_fields() does not know";
  }
  EXPECT_EQ(documented, static_cast<int>(fields.size()));

  // Every preset the code knows is named in the doc's preset table.
  for (const std::string& preset : cluster::topo_preset_names()) {
    EXPECT_NE(doc.find("`" + preset + "`"), std::string::npos)
        << "docs/topology.md does not mention preset `" << preset << "`";
  }
}

/// The doc's worked example: 2 racks x 2 hosts x 4 GPUs, 100 GbE ToR, 10:1
/// oversubscribed core, all-NVLink hosts, all-roce100 NICs.
cluster::ClusterSpec worked_example_cluster() {
  cluster::TopoGenOptions o;
  o.racks = 2;
  o.hosts_per_rack = 2;
  o.gpus_per_host = 4;
  o.tor_gbps = 100.0;
  o.oversubscription = 10.0;
  o.gpu_mix = {{"v100", 1.0}};
  o.link_classes = {{"nvlink", 1.0}};
  o.nic_classes = {{"roce100", 1.0}};
  return cluster::generate_cluster(o);
}

// Pins the arithmetic of docs/topology.md's "Worked example" section against
// the cost model, so the doc's numbers cannot drift from the code.
TEST(Docs, TopologyWorkedExampleMatchesCostModel) {
  const cluster::ClusterSpec cluster = worked_example_cluster();
  const profiler::HardwareModel hw(cluster);
  const profiler::GroundTruthCosts costs(hw);
  constexpr int64_t kBytes = 64 * 1000 * 1000;  // 6.4e7, the doc's B

  std::vector<cluster::DeviceId> all(16);
  for (int i = 0; i < 16; ++i) all[static_cast<size_t>(i)] = i;

  // Per-path full-payload transfers from the doc's table.
  EXPECT_NEAR(costs.transfer_time_ms(kBytes, 0, 1), 1.61, 1e-9);    // intra-host
  EXPECT_NEAR(costs.transfer_time_ms(kBytes, 0, 4), 5.17, 1e-9);    // same rack
  EXPECT_NEAR(costs.transfer_time_ms(kBytes, 0, 8), 51.25, 1e-9);   // cross rack

  EXPECT_NEAR(compile::ring_allreduce_ms(kBytes, all, costs), 97.5, 1e-6);
  EXPECT_NEAR(compile::hierarchical_allreduce_ms(kBytes, all, costs), 80.32, 1e-6);
  EXPECT_NEAR(compile::rack_hierarchical_allreduce_ms(kBytes, all, costs), 64.86, 1e-6);

  const compile::AllReduceEstimate est = compile::estimate_allreduce(kBytes, all, costs);
  EXPECT_EQ(est.structure, compile::AllReduceStructure::kRackHierarchical);
  EXPECT_NEAR(est.time_ms, 64.86 + compile::kCollectiveLaunchOverheadMs, 1e-6);
}

// ---------------------------------------------------------------------------
// Property: the chosen AllReduce structure never loses to the flat ring

TEST(Collective, EstimateNeverWorseThanSerializedRingOnAnyPreset) {
  for (const std::string& name : cluster::topo_preset_names()) {
    for (const uint64_t seed : {1ull, 42ull}) {
      auto options = *cluster::topo_preset(name);
      options.seed = seed;
      const cluster::ClusterSpec cluster = cluster::generate_cluster(options);
      const profiler::HardwareModel hw(cluster);
      const profiler::GroundTruthCosts costs(hw);

      std::vector<cluster::DeviceId> all(static_cast<size_t>(cluster.device_count()));
      for (int i = 0; i < cluster.device_count(); ++i) all[static_cast<size_t>(i)] = i;

      for (const int64_t bytes : {int64_t{1} << 20, int64_t{64} << 20}) {
        const double ring = compile::ring_allreduce_ms(bytes, all, costs);
        const compile::AllReduceEstimate est =
            compile::estimate_allreduce(bytes, all, costs);
        EXPECT_LE(est.time_ms, ring + compile::kCollectiveLaunchOverheadMs + 1e-9)
            << name << " seed " << seed << " bytes " << bytes;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler invariants on a generated 256-GPU cluster

TEST(TopoSched, InvariantSweepAt256Gpus) {
  const cluster::ClusterSpec cluster =
      cluster::generate_cluster(*cluster::topo_preset("pod256"));
  ASSERT_EQ(cluster.device_count(), 256);
  const profiler::HardwareModel hw(cluster);
  const profiler::GroundTruthCosts costs(hw);

  const auto graph =
      models::build_training(models::ModelKind::kVgg19, 0, 2.0 * cluster.device_count());
  const auto grouping = strategy::Grouping::build(graph, costs, 48);
  compile::GraphCompiler compiler(costs);

  // The four uniform DP strategies (EV/CP x PS/AR) plus an MP placement —
  // the heuristic seeds, at 256-way replication.
  for (const int dp_index : {0, 1, 2, 3}) {
    const auto map = strategy::StrategyMap::uniform(
        grouping.group_count(),
        strategy::Action::from_index(cluster.device_count() + dp_index,
                                     cluster.device_count()));
    const auto compiled = compiler.compile(graph, grouping, map);

    std::string error;
    ASSERT_TRUE(compiled.graph.validate(&error)) << error;

    const auto result = sim::Simulator().run(compiled.graph);
    EXPECT_GT(result.makespan_ms, 0.0);
    // No resource overcommitted; makespan covers the critical path.
    for (const auto& busy : result.resource_busy) {
      EXPECT_GE(result.makespan_ms + 1e-9, busy.busy_ms);
    }
    const auto ranks = sched::compute_ranks(compiled.graph);
    double critical_path = 0.0;
    for (double r : ranks) critical_path = std::max(critical_path, r);
    EXPECT_GE(result.makespan_ms + 1e-6, critical_path);
    // Every node runs inside [0, makespan] for exactly its duration.
    for (compile::DistNodeId id = 0; id < compiled.graph.node_count(); ++id) {
      EXPECT_GE(result.start_ms[static_cast<size_t>(id)], -1e-9);
      EXPECT_LE(result.finish_ms[static_cast<size_t>(id)], result.makespan_ms + 1e-9);
      EXPECT_NEAR(result.finish_ms[static_cast<size_t>(id)] -
                      result.start_ms[static_cast<size_t>(id)],
                  compiled.graph.node(id).duration_ms, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Faults on generated clusters: id re-densification and carry-through

// Removing devices leaves non-contiguous original ids; remap_plan must
// follow the re-densification (and drop events on removed devices) so a
// fault plan written against the base cluster stays valid on the survivor.
TEST(TopoFaults, RemapPlanFollowsRemoveDeviceRedensification) {
  const cluster::ClusterSpec base =
      cluster::generate_cluster(*cluster::topo_preset("rack16"));

  // Remove G5 then (original) G12 — after the first removal G12 has become
  // G11, exactly the bookkeeping remap_plan exists to hide.
  std::vector<int> new_id_of(static_cast<size_t>(base.device_count()));
  for (size_t i = 0; i < new_id_of.size(); ++i) new_id_of[i] = static_cast<int>(i);
  auto remove = [&](int original_id) {
    const int current = new_id_of[static_cast<size_t>(original_id)];
    for (auto& id : new_id_of) {
      if (id == current) id = -1;
      else if (id > current) --id;
    }
    return current;
  };
  cluster::ClusterSpec survivor = base.remove_device(remove(5));
  survivor = survivor.remove_device(remove(12));
  ASSERT_EQ(survivor.device_count(), 14);

  faults::FaultPlan plan;
  auto add = [&](int device) {
    faults::FaultEvent e;
    e.kind = faults::FaultKind::kStraggler;
    e.onset_step = 1;
    e.device = device;
    e.slowdown = 2.0;
    plan.events.push_back(e);
  };
  add(4);    // survives, id unchanged
  add(5);    // removed -> dropped
  add(6);    // survives as G5
  add(12);   // removed -> dropped
  add(15);   // survives as G13
  {
    faults::FaultEvent e;
    e.kind = faults::FaultKind::kLinkDegradation;
    e.onset_step = 1;
    e.device_a = 6;
    e.device_b = 12;  // one endpoint removed -> whole event dropped
    e.bandwidth_factor = 0.5;
    plan.events.push_back(e);
  }

  const faults::FaultPlan remapped = faults::remap_plan(plan, new_id_of);
  ASSERT_EQ(remapped.events.size(), 3u);
  EXPECT_EQ(remapped.events[0].device, 4);
  EXPECT_EQ(remapped.events[1].device, 5);
  EXPECT_EQ(remapped.events[2].device, 13);
  // Remapped ids are valid on the survivor: applying the plan must not throw.
  for (const auto& e : remapped.events) {
    EXPECT_LT(e.device, survivor.device_count());
  }
}

// degraded_cluster and remove_device must carry the switch topology and the
// accumulated link degradations into the surviving cluster — dropping either
// silently un-degrades links or flattens the multi-rack fabric.
TEST(TopoFaults, DegradedClusterKeepsTopologyAndLinkScales) {
  const cluster::ClusterSpec base =
      cluster::generate_cluster(*cluster::topo_preset("rack16"));
  ASSERT_TRUE(base.has_topology());

  // Degrade the G0 <-> G8 (cross-rack) path, then fail G5 via a scaling.
  const cluster::ClusterSpec degraded_links = base.degrade_link(0, 8, 0.5);
  faults::FaultScaling scaling;
  scaling.step = 1;
  scaling.failed = {5};
  scaling.compute_slowdown.assign(static_cast<size_t>(base.device_count()), 1.0);
  const cluster::ClusterSpec survivor =
      faults::degraded_cluster(degraded_links, scaling);

  ASSERT_EQ(survivor.device_count(), base.device_count() - 1);
  ASSERT_TRUE(survivor.has_topology());
  EXPECT_EQ(survivor.topology().rack_count(), base.topology().rack_count());
  EXPECT_EQ(survivor.topology().tor_gbps, base.topology().tor_gbps);

  // The host-pair degradation survives the rebuild: G0 -> G8 was cross-rack
  // at 50 Gbps (roce50 NICs); scaled by 0.5 it moves bytes half as fast as
  // in the pristine cluster. G5's removal does not renumber hosts 0 or 2.
  const double base_ms = base.link_bandwidth_bytes_per_ms(0, 8);
  EXPECT_NEAR(survivor.link_bandwidth_bytes_per_ms(0, 8), 0.5 * base_ms, 1e-9);
  // And the cross-rack path is still distinguishable from the in-rack one —
  // i.e. the topology really is attached, not defaulted.
  EXPECT_NEAR(degraded_links.link_bandwidth_bytes_per_ms(0, 8), 0.5 * base_ms, 1e-9);
}

}  // namespace
}  // namespace heterog
