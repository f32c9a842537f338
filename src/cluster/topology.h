// Seeded cluster-topology generator: scales the planner's scenario space
// past the paper's 12-GPU testbed to rack/pod-structured clusters with
// hundreds of machines, mixed GPU SKUs and mixed link classes, while staying
// bit-reproducible (same options -> byte-identical cluster).
//
// The generator's knobs load from a small JSON document (schema documented
// field-by-field in docs/topology.md, mirroring the faults::FaultPlan
// loader) and every draw comes from one explicitly-seeded Rng, so a
// generated cluster is a pure function of its options.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace heterog::cluster {

/// Thrown on malformed generator options / JSON. Derives ClusterSpecError
/// (and therefore CheckError) so existing catch sites keep working.
class TopoSpecError : public ClusterSpecError {
 public:
  explicit TopoSpecError(const std::string& what) : ClusterSpecError(what) {}
};

/// Options of one generated topology. Defaults describe a small 2-rack pod.
/// Weights need not be normalised; a map with a single entry pins the choice.
struct TopoGenOptions {
  /// PRNG seed; every stochastic choice below derives from it.
  uint64_t seed = 1;
  /// Physical layout: racks x hosts_per_rack machines, gpus_per_host each.
  int racks = 2;
  int hosts_per_rack = 2;
  int gpus_per_host = 4;
  /// Top-of-rack switch bandwidth (Gbps).
  double tor_gbps = 100.0;
  /// Bandwidth taper per switch level above the ToR: each level carries
  /// tor_gbps / oversubscription^level. 1.0 = non-blocking fabric.
  double oversubscription = 1.0;
  /// Racks joined by one aggregation switch. 0 = no aggregation tier (all
  /// racks meet at the core). Values >= racks also collapse to core-only.
  int racks_per_pod = 0;
  /// GPU SKU mix: weight per model name ("v100", "1080ti", "p100", "a100").
  /// One SKU is drawn per host (whole machines are homogeneous).
  std::map<std::string, double> gpu_mix = {{"v100", 1.0}, {"1080ti", 1.0}};
  /// Intra-host fabric class mix: "nvlink" (320 Gbps) vs "pcie" (96 Gbps).
  std::map<std::string, double> link_classes = {{"nvlink", 1.0}, {"pcie", 1.0}};
  /// NIC class mix: "roce100" (100 Gbps), "roce50" (50), "roce25" (25).
  std::map<std::string, double> nic_classes = {{"roce100", 1.0}, {"roce50", 1.0}};

  int host_count() const { return racks * hosts_per_rack; }
  int device_count() const { return host_count() * gpus_per_host; }

  /// Throws TopoSpecError on out-of-range values (non-positive counts /
  /// bandwidths, oversubscription < 1, unknown mix keys, negative weights,
  /// all-zero weight maps).
  void validate() const;
};

/// Deterministically generates the cluster described by `options`: same
/// options -> byte-identical cluster (cluster_to_json) and equal
/// cluster_fingerprint. Throws TopoSpecError on invalid options.
ClusterSpec generate_cluster(const TopoGenOptions& options);

/// Canonical JSON for the generator options; parse_topo_gen_json round-trips
/// it byte-identically (doubles via format_double).
std::string topo_gen_to_json(const TopoGenOptions& options);

/// Parses generator options from JSON (schema in docs/topology.md). Unknown
/// fields, wrong types, bad nesting and trailing bytes all throw
/// TopoSpecError ("topology spec JSON: <why> (at offset N)").
TopoGenOptions parse_topo_gen_json(const std::string& text);

/// Reads and parses a JSON options file; TopoSpecError when unreadable.
TopoGenOptions load_topo_gen_options(const std::string& path);

/// Canonical, deterministic JSON description of a (generated or hand-built)
/// cluster: hosts, devices, link scales and switch topology. This is the
/// byte-identity wall bench_topology_scale gates on; it is a description,
/// not a loadable format.
std::string cluster_to_json(const ClusterSpec& cluster);

/// The JSON field names parse_topo_gen_json accepts, in canonical emit
/// order. docs/topology.md documents exactly these (cross-checked by the
/// topo test suite, like docs/observability.md <-> all_event_types()).
const std::vector<std::string>& topo_json_fields();

/// Named generator presets for the CLI (--cluster-gen NAME) and benches:
/// "rack16" (16 GPUs), "pod64", "pod256", "dc1000" (100 machines / 1000
/// GPUs). nullopt for unknown names.
std::optional<TopoGenOptions> topo_preset(const std::string& name);
const std::vector<std::string>& topo_preset_names();

}  // namespace heterog::cluster
