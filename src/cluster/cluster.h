// Heterogeneous cluster description.
//
// Mirrors the paper's testbed (Sec. 6.1): five machines — one with 4x Tesla
// V100 (16 GB) and a 100 GbE RDMA NIC, two with 2x GTX 1080 Ti (11 GB) and
// 50 GbE NICs, two with 2x Tesla P100 (12 GB) and 50 GbE NICs — joined by a
// 100 Gbps switch. The scheduler treats every ordered GPU pair as a "link
// device"; bandwidth of a link is the min of the path segments it crosses
// (intra-host fabric, either NIC, the switch).
//
// Units: time in milliseconds, bandwidth in bytes/ms, memory in bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace heterog {
class LineCursor;
}

namespace heterog::cluster {

/// Thrown when a ClusterSpec is constructed from malformed inputs (empty
/// device list, non-positive bandwidth/memory, dangling host ids) or a
/// derivation (remove_device / degrade_link) is invalid. Derives CheckError
/// so existing catch sites keep working.
class ClusterSpecError : public CheckError {
 public:
  explicit ClusterSpecError(const std::string& what) : CheckError(what) {}
};

using DeviceId = int32_t;

enum class GpuModel : uint8_t { kV100, kGtx1080Ti, kP100, kA100 };

/// Number of GpuModel enumerators; serialisers validate stored model ids
/// against this instead of naming the last enumerator.
inline constexpr int kGpuModelCount = 4;

const char* gpu_model_name(GpuModel model);

/// Peak effective compute of a GPU model in GFLOPs per millisecond.
/// Calibrated so that V100 : 1080Ti effective speed is roughly 2 : 1 as
/// measured in the paper (Sec. 2.3), with per-op-type modulation applied by
/// the synthetic hardware model in src/profiler.
double base_gflops_per_ms(GpuModel model);

/// Device memory capacity in bytes.
int64_t memory_capacity_bytes(GpuModel model);

struct HostSpec {
  int id = 0;
  std::string name;
  double nic_gbps = 50.0;    // NIC line rate
  double intra_gbps = 96.0;  // intra-host GPU-GPU fabric (PCIe / NVLink)
};

struct DeviceSpec {
  DeviceId id = 0;
  std::string name;
  GpuModel model = GpuModel::kGtx1080Ti;
  int host = 0;
  double gflops_per_ms = 0.0;
  int64_t memory_bytes = 0;
};

/// One switch tier above the top-of-rack layer, nearest-to-rack first. A
/// switch at tier i joins `group_size` groups of tier i-1 (tier 0 groups
/// racks); traffic crossing it is capped at `gbps`. Oversubscribed fabrics
/// have decreasing gbps as tiers go up.
struct SwitchTierSpec {
  double gbps = 100.0;
  int group_size = 2;
};

/// Optional multi-level switch topology. When attached to a ClusterSpec the
/// inter-host path bandwidth becomes min(NICs, ToR, every tier crossed up to
/// the lowest common switch) instead of min(NICs, flat switch). An empty
/// topology (no rack assignment) preserves the flat single-switch model.
struct TopologySpec {
  /// Rack id of each host (indexed by host id). Empty = flat cluster.
  std::vector<int> rack_of_host;
  /// Bandwidth of the per-rack (top-of-rack) switch in Gbps.
  double tor_gbps = 100.0;
  /// Switch tiers above the racks; may be empty, in which case inter-rack
  /// traffic goes through the ClusterSpec's flat switch ("core").
  std::vector<SwitchTierSpec> tiers;

  bool empty() const { return rack_of_host.empty(); }
  int rack_count() const;
  /// Tier index (0-based) of the lowest common switch above two racks, or
  /// -1 when they only meet at the root (the flat core switch).
  int common_tier(int rack_a, int rack_b) const;

  /// Addressable switch levels: level 0 is the per-rack ToR layer, level k in
  /// [1, tiers.size()] is tiers[k-1]. The flat core switch beyond the last
  /// tier is not addressable (it has no (level, index) coordinate).
  int level_count() const { return 1 + static_cast<int>(tiers.size()); }
  /// Number of switches at `level`: rack_count() ToRs at level 0, one switch
  /// per tier-(level-1) group above. 0 for an out-of-range level.
  int switch_count(int level) const;
  /// Group index of `rack` at `level` — i.e. which level-`level` switch its
  /// northbound traffic crosses. `rack` itself at level 0.
  int group_of_rack(int rack, int level) const;
};

class ClusterSpec {
 public:
  ClusterSpec() = default;
  ClusterSpec(std::vector<HostSpec> hosts, std::vector<DeviceSpec> devices,
              double switch_gbps);

  /// Full reconstruction, including accumulated link degradations keyed by
  /// unordered host pair — the ckpt journal uses this to round-trip a
  /// cluster (possibly already degraded mid-run) through a restart. Throws
  /// ClusterSpecError on dangling host ids or factors outside (0, 1].
  ClusterSpec(std::vector<HostSpec> hosts, std::vector<DeviceSpec> devices,
              double switch_gbps, std::map<std::pair<int, int>, double> link_scales);

  int device_count() const { return static_cast<int>(devices_.size()); }
  int host_count() const { return static_cast<int>(hosts_.size()); }
  const DeviceSpec& device(DeviceId id) const;
  const HostSpec& host(int id) const;
  const std::vector<DeviceSpec>& devices() const { return devices_; }
  const std::vector<HostSpec>& hosts() const { return hosts_; }
  double switch_gbps() const { return switch_gbps_; }

  bool same_host(DeviceId a, DeviceId b) const;
  std::vector<DeviceId> devices_on_host(int host) const;

  /// Multi-level switch topology (empty for flat clusters). Attached via
  /// with_topology; carried through remove_device / degrade_link.
  const TopologySpec& topology() const { return topology_; }
  bool has_topology() const { return !topology_.empty(); }

  /// Copy of this cluster with the given switch topology attached (or
  /// detached, when `topo` is empty). Throws ClusterSpecError when the rack
  /// assignment does not cover every host, a rack id is negative, or a
  /// tier/ToR bandwidth or group size is non-positive. Accumulated
  /// degrade_switch scales are dropped — they are coordinates into the old
  /// topology; re-apply them against the new one if needed.
  ClusterSpec with_topology(TopologySpec topo) const;

  /// Accumulated degrade_switch factors keyed by (level, index); 1.0 entries
  /// are not stored. Exposed for serialisation and fingerprinting.
  const std::map<std::pair<int, int>, double>& switch_scales() const {
    return switch_scale_;
  }
  /// Effective bandwidth scale of the (level, index) switch (1.0 when
  /// undegraded). Does not validate the coordinate.
  double switch_scale(int level, int index) const;

  /// The (level, index) switches the host-pair path crosses, in walk order:
  /// both ToRs, then one switch per side per tier up to (and including) the
  /// lowest common switch. Empty for same-host pairs and flat clusters.
  /// Throws ClusterSpecError on bad host ids.
  std::vector<std::pair<int, int>> switches_on_path(int host_a, int host_b) const;

  /// Effective bandwidth of the (a -> b) link in bytes per millisecond.
  double link_bandwidth_bytes_per_ms(DeviceId a, DeviceId b) const;

  /// One-way latency of the (a -> b) link in milliseconds.
  double link_latency_ms(DeviceId a, DeviceId b) const;

  /// Compute power of `id` relative to the slowest device (>= 1.0). Used for
  /// the paper's proportional ("CP") replica allocation. O(1): the slowest
  /// device is cached at construction (the Graph Compiler calls this per
  /// device per op, which was O(D^2) per op with the original linear scan).
  double relative_power(DeviceId id) const;

  /// Sum of relative powers; proportional share of device d is
  /// relative_power(d) / total_relative_power(). O(1) (cached).
  double total_relative_power() const;

  /// Minimum link bandwidth over all ordered device pairs (ring AllReduce
  /// bottleneck term). O(1): cached at construction from an O(H^2) host-pair
  /// sweep (bandwidth only depends on the host pair, not the device pair).
  double min_link_bandwidth_bytes_per_ms() const;

  std::string summary() const;

  /// Accumulated degrade_link factors by unordered host pair (1.0 pairs are
  /// not stored). Exposed for serialisation; see the four-argument ctor.
  const std::map<std::pair<int, int>, double>& host_link_scales() const {
    return link_scale_;
  }

  /// Derivation builders ---------------------------------------------------

  /// Copy of this cluster without device `id`. Device and host ids are
  /// re-densified (hosts left without devices are dropped); link degradations
  /// on surviving host pairs are carried over. Throws ClusterSpecError for an
  /// unknown id or when removal would leave the cluster empty.
  ClusterSpec remove_device(DeviceId id) const;

  /// Copy of this cluster with the bandwidth of the path between `a`'s and
  /// `b`'s hosts scaled by `factor` in (0, 1] — the intra-host fabric when
  /// they share a host, the NIC/switch path otherwise. Degradations compose
  /// multiplicatively. Throws ClusterSpecError on a bad factor or device id.
  ClusterSpec degrade_link(DeviceId a, DeviceId b, double factor) const;

  /// Copy of this cluster with the (level, index) switch's bandwidth scaled
  /// by `factor` in (0, 1]. The whole inter-host bandwidth table is
  /// recomputed for the degraded switch graph: every path crossing the
  /// switch is re-priced as min over its hops with the hop's effective
  /// (scaled) bandwidth, so only traffic actually routed through the switch
  /// slows down. Degradations compose multiplicatively. Throws
  /// ClusterSpecError when the cluster has no topology, the coordinate is
  /// out of range, or the factor is outside (0, 1].
  ClusterSpec degrade_switch(int level, int index, double factor) const;

 private:
  /// Recomputes the cached derived values (slowest device, total relative
  /// power, min link bandwidth). Must be called after any mutation of
  /// devices_ / hosts_ / link_scale_ / topology_ outside the 3-arg ctor.
  void recompute_derived();
  /// Bandwidth of the switch path between two (validated) host ids in Gbps,
  /// before degrade_link scaling: the flat switch, or the topology walk.
  /// Served from the precomputed host-pair table once recompute_derived ran.
  double inter_host_path_gbps(int host_a, int host_b) const;
  /// The uncached tier walk behind inter_host_path_gbps.
  double compute_inter_host_path_gbps(int host_a, int host_b) const;

  std::vector<HostSpec> hosts_;
  std::vector<DeviceSpec> devices_;
  double switch_gbps_ = 100.0;
  /// Bandwidth scale per unordered host pair (degrade_link), default 1.0.
  std::map<std::pair<int, int>, double> link_scale_;
  /// Bandwidth scale per (level, index) switch (degrade_switch), default 1.0.
  std::map<std::pair<int, int>, double> switch_scale_;
  TopologySpec topology_;

  // Derived caches (recompute_derived).
  double slowest_gflops_ = 1.0;
  double total_relative_power_ = 0.0;
  double min_link_bandwidth_ = -1.0;
  // [a * host_count + b] -> inter_host_path_gbps(a, b): the NIC/switch-tier
  // min-walk, precomputed so per-transfer bandwidth lookups in the profiler
  // and compiler are O(1) even on multi-tier topologies.
  std::vector<double> inter_host_gbps_;
};

/// Convenience: converts Gbps (network convention, bits) to bytes per ms.
double gbps_to_bytes_per_ms(double gbps);

/// CRC-32 fingerprint of everything that affects planning: per-device model,
/// host, compute power and memory; per-host NIC / intra-host bandwidth;
/// switch bandwidth; accumulated link degradations; the switch topology and
/// its degraded switches. Cosmetic names are excluded. Two clusters with
/// equal fingerprints are interchangeable for plan deployment; the v2 plan
/// format and the run journal embed this value so a plan can refuse to
/// deploy onto hardware it was not made for.
uint32_t cluster_fingerprint(const ClusterSpec& cluster);

/// The run journal's text form of `cluster`: the lines between
/// "cluster-begin" and "cluster-end" list every part cluster_fingerprint
/// hashes, in the same order, plus the host and device names. Topology lines
/// ("tor", "rack", "tier", "switch-scale") appear only when a topology is
/// attached, and "switch-scale" lines only for degraded switches.
std::string cluster_block(const ClusterSpec& cluster);

/// Reads one cluster_block back, so that the result fingerprints like the
/// cluster written. Throws ParseError (common/record_io) on a malformed line
/// and ClusterSpecError when the lines describe an invalid cluster.
ClusterSpec parse_cluster_block(LineCursor& in);

/// Builders -------------------------------------------------------------

/// Named testbed lookup shared by heterog_cli and the plan server: "8gpu",
/// "12gpu", "fig3", "homog8". nullopt for an unknown name (callers turn that
/// into their own usage error / typed rejection).
std::optional<ClusterSpec> cluster_from_name(const std::string& name);

/// The names cluster_from_name accepts, for usage text and docs.
const std::vector<std::string>& known_cluster_names();

/// The paper's 8-GPU configuration: G0,G1 = V100; G2..G5 = 1080Ti; G6,G7 =
/// P100 (Table 2 header).
ClusterSpec make_paper_testbed_8gpu();

/// The paper's full 12-GPU testbed: 4x V100 + 4x 1080Ti + 4x P100.
ClusterSpec make_paper_testbed_12gpu();

/// A homogeneous n-GPU cluster of the given model, `per_host` GPUs per host.
ClusterSpec make_homogeneous(int n, GpuModel model, int per_host = 4);

/// The 4-GPU cluster used in Fig. 3(a): 2x V100 + 2x 1080Ti.
ClusterSpec make_fig3_testbed();

/// A 3-GPU cluster with compute power ratio 1:2:2, one GPU per host
/// (Fig. 1 / 2).
ClusterSpec make_motivation_cluster();

/// Copy of `base` with every NIC and switch bandwidth scaled by `factor`
/// (intra-host fabric unchanged; link and switch degradations kept). Used
/// for bandwidth-sensitivity studies —
/// the paper notes that strategies must change when bandwidth changes.
ClusterSpec scale_network_bandwidth(const ClusterSpec& base, double factor);

}  // namespace heterog::cluster
