#include "cluster/cluster.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/check.h"
#include "common/crc32.h"
#include "common/record_io.h"

namespace heterog::cluster {

const char* gpu_model_name(GpuModel model) {
  switch (model) {
    case GpuModel::kV100:
      return "Tesla V100";
    case GpuModel::kGtx1080Ti:
      return "GTX 1080Ti";
    case GpuModel::kP100:
      return "Tesla P100";
    case GpuModel::kA100:
      return "A100";
  }
  return "Unknown GPU";
}

double base_gflops_per_ms(GpuModel model) {
  // GFLOPs per ms == TFLOPS. Effective (not peak-datasheet) figures chosen so
  // the average V100 : 1080Ti speed-up over the paper's op mix lands near the
  // measured ~2:1 after per-op-type efficiency modulation.
  switch (model) {
    case GpuModel::kV100:
      return 14.0;
    case GpuModel::kGtx1080Ti:
      return 7.0;
    case GpuModel::kP100:
      return 7.8;
    case GpuModel::kA100:
      return 28.0;
  }
  return 1.0;
}

int64_t memory_capacity_bytes(GpuModel model) {
  constexpr int64_t kGiB = 1024LL * 1024 * 1024;
  switch (model) {
    case GpuModel::kV100:
      return 16 * kGiB;
    case GpuModel::kGtx1080Ti:
      return 11 * kGiB;
    case GpuModel::kP100:
      return 12 * kGiB;
    case GpuModel::kA100:
      return 40 * kGiB;
  }
  return 8 * kGiB;
}

int TopologySpec::rack_count() const {
  int max_rack = -1;
  for (const int r : rack_of_host) max_rack = std::max(max_rack, r);
  return max_rack + 1;
}

int TopologySpec::switch_count(int level) const {
  if (empty() || level < 0 || level > static_cast<int>(tiers.size())) return 0;
  // Group index of rack r at tier t is r / prod(group_size[0..t]); iterated
  // ceil-division gives the group count exactly.
  int groups = rack_count();
  for (int t = 0; t < level; ++t) {
    const int gs = std::max(1, tiers[static_cast<size_t>(t)].group_size);
    groups = (groups + gs - 1) / gs;
  }
  return groups;
}

int TopologySpec::group_of_rack(int rack, int level) const {
  int group = rack;
  for (int t = 0; t < level && t < static_cast<int>(tiers.size()); ++t) {
    group /= std::max(1, tiers[static_cast<size_t>(t)].group_size);
  }
  return group;
}

int TopologySpec::common_tier(int rack_a, int rack_b) const {
  if (rack_a == rack_b) return -1;  // ToR-local; callers handle separately
  int group_a = rack_a;
  int group_b = rack_b;
  for (size_t t = 0; t < tiers.size(); ++t) {
    group_a /= tiers[t].group_size;
    group_b /= tiers[t].group_size;
    if (group_a == group_b) return static_cast<int>(t);
  }
  return -1;  // only meet at the root (flat core switch)
}

double gbps_to_bytes_per_ms(double gbps) {
  // gbps * 1e9 bits/s = gbps * 1e9 / 8 bytes/s = gbps * 1.25e5 bytes/ms.
  return gbps * 1.25e5;
}

ClusterSpec::ClusterSpec(std::vector<HostSpec> hosts, std::vector<DeviceSpec> devices,
                         double switch_gbps)
    : hosts_(std::move(hosts)), devices_(std::move(devices)), switch_gbps_(switch_gbps) {
  if (devices_.empty()) throw ClusterSpecError("ClusterSpec: no devices");
  if (hosts_.empty()) throw ClusterSpecError("ClusterSpec: no hosts");
  if (switch_gbps_ <= 0.0) {
    throw ClusterSpecError("ClusterSpec: switch bandwidth must be positive, got " +
                           std::to_string(switch_gbps_));
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    const auto& h = hosts_[i];
    if (h.id != static_cast<int>(i)) {
      throw ClusterSpecError("ClusterSpec: host ids must be dense (host " +
                             std::to_string(i) + " has id " + std::to_string(h.id) + ")");
    }
    if (h.nic_gbps <= 0.0 || h.intra_gbps <= 0.0) {
      throw ClusterSpecError("ClusterSpec: host " + std::to_string(h.id) +
                             " has non-positive NIC/fabric bandwidth");
    }
  }
  for (size_t i = 0; i < devices_.size(); ++i) {
    auto& d = devices_[i];
    if (d.id != static_cast<DeviceId>(i)) {
      throw ClusterSpecError("ClusterSpec: device ids must be dense (device " +
                             std::to_string(i) + " has id " + std::to_string(d.id) + ")");
    }
    if (d.host < 0 || d.host >= host_count()) {
      throw ClusterSpecError("ClusterSpec: device G" + std::to_string(d.id) +
                             " references dangling host id " + std::to_string(d.host));
    }
    // Zero means "unset — fill from the model table"; negative is malformed.
    if (d.gflops_per_ms < 0.0) {
      throw ClusterSpecError("ClusterSpec: device G" + std::to_string(d.id) +
                             " has negative compute power");
    }
    if (d.memory_bytes < 0) {
      throw ClusterSpecError("ClusterSpec: device G" + std::to_string(d.id) +
                             " has negative memory capacity");
    }
    if (d.gflops_per_ms == 0.0) d.gflops_per_ms = base_gflops_per_ms(d.model);
    if (d.memory_bytes == 0) d.memory_bytes = memory_capacity_bytes(d.model);
  }
  recompute_derived();
}

ClusterSpec::ClusterSpec(std::vector<HostSpec> hosts, std::vector<DeviceSpec> devices,
                         double switch_gbps,
                         std::map<std::pair<int, int>, double> link_scales)
    : ClusterSpec(std::move(hosts), std::move(devices), switch_gbps) {
  for (const auto& [pair, scale] : link_scales) {
    host(pair.first);   // validates the id
    host(pair.second);  // (throws ClusterSpecError on dangling hosts)
    if (scale <= 0.0 || scale > 1.0) {
      throw ClusterSpecError("ClusterSpec: link scale for hosts (" +
                             std::to_string(pair.first) + ", " +
                             std::to_string(pair.second) + ") must be in (0, 1], got " +
                             std::to_string(scale));
    }
    if (pair.first > pair.second) {
      throw ClusterSpecError("ClusterSpec: link scale host pairs must be ordered");
    }
  }
  link_scale_ = std::move(link_scales);
  recompute_derived();
}

ClusterSpec ClusterSpec::with_topology(TopologySpec topo) const {
  if (!topo.empty()) {
    if (static_cast<int>(topo.rack_of_host.size()) != host_count()) {
      throw ClusterSpecError(
          "with_topology: rack assignment covers " +
          std::to_string(topo.rack_of_host.size()) + " hosts, cluster has " +
          std::to_string(host_count()));
    }
    for (size_t h = 0; h < topo.rack_of_host.size(); ++h) {
      if (topo.rack_of_host[h] < 0) {
        throw ClusterSpecError("with_topology: host " + std::to_string(h) +
                               " has negative rack id");
      }
    }
    if (topo.tor_gbps <= 0.0) {
      throw ClusterSpecError("with_topology: ToR bandwidth must be positive, got " +
                             std::to_string(topo.tor_gbps));
    }
    for (size_t t = 0; t < topo.tiers.size(); ++t) {
      if (topo.tiers[t].gbps <= 0.0 || topo.tiers[t].group_size < 1) {
        throw ClusterSpecError("with_topology: switch tier " + std::to_string(t) +
                               " needs positive bandwidth and group size >= 1");
      }
    }
  }
  ClusterSpec out = *this;
  out.topology_ = std::move(topo);
  // Switch degradations are coordinates into the topology being replaced;
  // carrying them onto a different switch graph would scale the wrong
  // switches silently.
  out.switch_scale_.clear();
  out.recompute_derived();
  return out;
}

double ClusterSpec::switch_scale(int level, int index) const {
  const auto it = switch_scale_.find({level, index});
  return it != switch_scale_.end() ? it->second : 1.0;
}

std::vector<std::pair<int, int>> ClusterSpec::switches_on_path(int host_a,
                                                               int host_b) const {
  host(host_a);  // validates (throws ClusterSpecError on bad ids)
  host(host_b);
  std::vector<std::pair<int, int>> out;
  if (topology_.empty() || host_a == host_b) return out;
  const int rack_a = topology_.rack_of_host[static_cast<size_t>(host_a)];
  const int rack_b = topology_.rack_of_host[static_cast<size_t>(host_b)];
  out.emplace_back(0, rack_a);
  if (rack_a == rack_b) return out;
  out.emplace_back(0, rack_b);
  const int top = topology_.common_tier(rack_a, rack_b);
  const size_t crossed =
      top >= 0 ? static_cast<size_t>(top) + 1 : topology_.tiers.size();
  int group_a = rack_a;
  int group_b = rack_b;
  for (size_t t = 0; t < crossed; ++t) {
    group_a /= std::max(1, topology_.tiers[t].group_size);
    group_b /= std::max(1, topology_.tiers[t].group_size);
    out.emplace_back(static_cast<int>(t) + 1, group_a);
    if (group_a != group_b) out.emplace_back(static_cast<int>(t) + 1, group_b);
  }
  return out;
}

const DeviceSpec& ClusterSpec::device(DeviceId id) const {
  if (id < 0 || id >= device_count()) {
    throw ClusterSpecError("ClusterSpec: device id " + std::to_string(id) +
                           " out of range [0, " + std::to_string(device_count()) + ")");
  }
  return devices_[static_cast<size_t>(id)];
}

const HostSpec& ClusterSpec::host(int id) const {
  if (id < 0 || id >= host_count()) {
    throw ClusterSpecError("ClusterSpec: host id " + std::to_string(id) +
                           " out of range [0, " + std::to_string(host_count()) + ")");
  }
  return hosts_[static_cast<size_t>(id)];
}

bool ClusterSpec::same_host(DeviceId a, DeviceId b) const {
  return device(a).host == device(b).host;
}

std::vector<DeviceId> ClusterSpec::devices_on_host(int host_id) const {
  std::vector<DeviceId> out;
  for (const auto& d : devices_) {
    if (d.host == host_id) out.push_back(d.id);
  }
  return out;
}

double ClusterSpec::inter_host_path_gbps(int host_a, int host_b) const {
  if (!inter_host_gbps_.empty()) {
    return inter_host_gbps_[static_cast<size_t>(host_a) * hosts_.size() +
                            static_cast<size_t>(host_b)];
  }
  return compute_inter_host_path_gbps(host_a, host_b);
}

double ClusterSpec::compute_inter_host_path_gbps(int host_a, int host_b) const {
  double switch_path = switch_gbps_;
  if (!topology_.empty()) {
    const int rack_a = topology_.rack_of_host[static_cast<size_t>(host_a)];
    const int rack_b = topology_.rack_of_host[static_cast<size_t>(host_b)];
    // Each hop runs at its nominal bandwidth times its degrade_switch scale
    // (1.0 when undegraded, so undegraded clusters price bit-identically).
    switch_path = topology_.tor_gbps * switch_scale(0, rack_a);
    if (rack_a != rack_b) {
      switch_path =
          std::min(switch_path, topology_.tor_gbps * switch_scale(0, rack_b));
      // Traffic leaves both racks' ToR switches and crosses every tier up to
      // the lowest common switch; the path is capped by the narrowest hop.
      const int top = topology_.common_tier(rack_a, rack_b);
      const size_t crossed =
          top >= 0 ? static_cast<size_t>(top) + 1 : topology_.tiers.size();
      int group_a = rack_a;
      int group_b = rack_b;
      for (size_t t = 0; t < crossed; ++t) {
        group_a /= std::max(1, topology_.tiers[t].group_size);
        group_b /= std::max(1, topology_.tiers[t].group_size);
        const int level = static_cast<int>(t) + 1;
        switch_path = std::min(
            switch_path, topology_.tiers[t].gbps * switch_scale(level, group_a));
        if (group_a != group_b) {
          switch_path = std::min(
              switch_path, topology_.tiers[t].gbps * switch_scale(level, group_b));
        }
      }
      // Racks that only meet at the root go through the flat core switch.
      if (top < 0) switch_path = std::min(switch_path, switch_gbps_);
    }
  }
  return std::min({host(host_a).nic_gbps, host(host_b).nic_gbps, switch_path});
}

double ClusterSpec::link_bandwidth_bytes_per_ms(DeviceId a, DeviceId b) const {
  check(a != b, "link_bandwidth: same device");
  const DeviceSpec& da = device(a);  // throws ClusterSpecError on bad ids
  const DeviceSpec& db = device(b);
  double scale = 1.0;
  const auto it = link_scale_.find(std::minmax(da.host, db.host));
  if (it != link_scale_.end()) scale = it->second;
  if (da.host == db.host) {
    return gbps_to_bytes_per_ms(host(da.host).intra_gbps) * scale;
  }
  return gbps_to_bytes_per_ms(inter_host_path_gbps(da.host, db.host)) * scale;
}

double ClusterSpec::link_latency_ms(DeviceId a, DeviceId b) const {
  return same_host(a, b) ? 0.01 : 0.05;
}

double ClusterSpec::relative_power(DeviceId id) const {
  return device(id).gflops_per_ms / slowest_gflops_;
}

double ClusterSpec::total_relative_power() const { return total_relative_power_; }

double ClusterSpec::min_link_bandwidth_bytes_per_ms() const {
  check(min_link_bandwidth_ > 0.0, "min_link_bandwidth: cluster has a single device");
  return min_link_bandwidth_;
}

void ClusterSpec::recompute_derived() {
  // Host-pair path table first: the min-bandwidth walk below reads it.
  inter_host_gbps_.assign(hosts_.size() * hosts_.size(), 0.0);
  for (const auto& ha : hosts_) {
    for (const auto& hb : hosts_) {
      inter_host_gbps_[static_cast<size_t>(ha.id) * hosts_.size() +
                       static_cast<size_t>(hb.id)] =
          compute_inter_host_path_gbps(ha.id, hb.id);
    }
  }

  double slowest = devices_.front().gflops_per_ms;
  for (const auto& d : devices_) slowest = std::min(slowest, d.gflops_per_ms);
  slowest_gflops_ = slowest;
  double total = 0.0;
  for (const auto& d : devices_) total += d.gflops_per_ms / slowest;
  total_relative_power_ = total;

  // Min link bandwidth over device pairs == min over host pairs with a
  // device-pair witness: intra-host pairs need a host with >= 2 devices,
  // inter-host pairs any two populated hosts. O(H^2 + D) instead of O(D^2).
  std::vector<int> devices_on(hosts_.size(), 0);
  for (const auto& d : devices_) ++devices_on[static_cast<size_t>(d.host)];
  double min_bw = -1.0;
  const auto consider = [&](double bw) {
    if (min_bw < 0.0 || bw < min_bw) min_bw = bw;
  };
  for (const auto& h : hosts_) {
    if (devices_on[static_cast<size_t>(h.id)] < 2) continue;
    double scale = 1.0;
    const auto it = link_scale_.find({h.id, h.id});
    if (it != link_scale_.end()) scale = it->second;
    consider(gbps_to_bytes_per_ms(h.intra_gbps) * scale);
  }
  for (const auto& ha : hosts_) {
    if (devices_on[static_cast<size_t>(ha.id)] == 0) continue;
    for (const auto& hb : hosts_) {
      if (hb.id <= ha.id || devices_on[static_cast<size_t>(hb.id)] == 0) continue;
      double scale = 1.0;
      const auto it = link_scale_.find({ha.id, hb.id});
      if (it != link_scale_.end()) scale = it->second;
      consider(gbps_to_bytes_per_ms(inter_host_path_gbps(ha.id, hb.id)) * scale);
    }
  }
  min_link_bandwidth_ = min_bw;
}

ClusterSpec ClusterSpec::remove_device(DeviceId id) const {
  device(id);  // validates id
  if (device_count() == 1) {
    throw ClusterSpecError("remove_device: removing G" + std::to_string(id) +
                           " would leave the cluster empty");
  }

  std::vector<DeviceSpec> devices;
  devices.reserve(devices_.size() - 1);
  for (const auto& d : devices_) {
    if (d.id != id) devices.push_back(d);
  }

  // Drop hosts left without devices and re-densify host ids.
  std::vector<int> host_map(hosts_.size(), -1);
  std::vector<HostSpec> hosts;
  for (const auto& h : hosts_) {
    const bool populated = std::any_of(devices.begin(), devices.end(),
                                       [&](const DeviceSpec& d) { return d.host == h.id; });
    if (!populated) continue;
    host_map[static_cast<size_t>(h.id)] = static_cast<int>(hosts.size());
    HostSpec copy = h;
    copy.id = static_cast<int>(hosts.size());
    hosts.push_back(copy);
  }
  for (size_t i = 0; i < devices.size(); ++i) {
    devices[i].id = static_cast<DeviceId>(i);
    devices[i].host = host_map[static_cast<size_t>(devices[i].host)];
  }

  const int new_host_count = static_cast<int>(hosts.size());
  ClusterSpec out(std::move(hosts), std::move(devices), switch_gbps_);
  for (const auto& [pair, scale] : link_scale_) {
    const int ha = host_map[static_cast<size_t>(pair.first)];
    const int hb = host_map[static_cast<size_t>(pair.second)];
    if (ha < 0 || hb < 0) continue;
    out.link_scale_[std::minmax(ha, hb)] = scale;
  }
  if (!topology_.empty()) {
    // Surviving hosts keep their rack (and therefore their switch path);
    // rack ids are not re-densified so tier grouping stays stable.
    TopologySpec topo = topology_;
    topo.rack_of_host.assign(static_cast<size_t>(new_host_count), 0);
    for (size_t old_host = 0; old_host < host_map.size(); ++old_host) {
      const int new_id = host_map[old_host];
      if (new_id < 0) continue;
      topo.rack_of_host[static_cast<size_t>(new_id)] = topology_.rack_of_host[old_host];
    }
    out.topology_ = std::move(topo);
    // Switch coordinates key off rack ids, which survive unchanged.
    out.switch_scale_ = switch_scale_;
  }
  out.recompute_derived();
  return out;
}

ClusterSpec ClusterSpec::degrade_link(DeviceId a, DeviceId b, double factor) const {
  if (factor <= 0.0 || factor > 1.0) {
    throw ClusterSpecError("degrade_link: factor must be in (0, 1], got " +
                           std::to_string(factor));
  }
  if (a == b) {
    throw ClusterSpecError("degrade_link: endpoints must differ (got G" +
                           std::to_string(a) + " twice)");
  }
  const auto key = std::minmax(device(a).host, device(b).host);
  ClusterSpec out = *this;
  auto [it, inserted] = out.link_scale_.try_emplace(key, factor);
  if (!inserted) it->second *= factor;
  out.recompute_derived();
  return out;
}

ClusterSpec ClusterSpec::degrade_switch(int level, int index, double factor) const {
  if (!has_topology()) {
    throw ClusterSpecError("degrade_switch: cluster has no switch topology");
  }
  if (factor <= 0.0 || factor > 1.0) {
    throw ClusterSpecError("degrade_switch: factor must be in (0, 1], got " +
                           std::to_string(factor));
  }
  if (level < 0 || level >= topology_.level_count()) {
    throw ClusterSpecError("degrade_switch: level " + std::to_string(level) +
                           " out of range [0, " +
                           std::to_string(topology_.level_count()) + ")");
  }
  const int count = topology_.switch_count(level);
  if (index < 0 || index >= count) {
    throw ClusterSpecError("degrade_switch: switch index " + std::to_string(index) +
                           " out of range [0, " + std::to_string(count) +
                           ") at level " + std::to_string(level));
  }
  ClusterSpec out = *this;
  auto [it, inserted] =
      out.switch_scale_.try_emplace(std::pair<int, int>{level, index}, factor);
  if (!inserted) it->second *= factor;
  out.recompute_derived();
  return out;
}

std::string ClusterSpec::summary() const {
  std::ostringstream os;
  os << device_count() << " GPUs on " << host_count() << " hosts";
  if (has_topology()) {
    os << " in " << topology_.rack_count() << " racks ("
       << (topology_.tiers.size() + 1) << " switch levels)";
  }
  os << ":";
  for (const auto& d : devices_) {
    os << " G" << d.id << "=" << gpu_model_name(d.model) << "(host" << d.host << ")";
  }
  return os.str();
}

uint32_t cluster_fingerprint(const ClusterSpec& cluster) {
  // Canonical text over capability + topology (names excluded: renaming a
  // host must not invalidate a plan). Lists the parts cluster_block writes,
  // in the same order.
  std::ostringstream os;
  os << "switch=" << format_double(cluster.switch_gbps());
  for (const auto& h : cluster.hosts()) {
    os << ";h" << h.id << ":" << format_double(h.nic_gbps) << ":"
       << format_double(h.intra_gbps);
  }
  for (const auto& d : cluster.devices()) {
    os << ";d" << d.id << ":" << static_cast<int>(d.model) << ":" << d.host << ":"
       << format_double(d.gflops_per_ms) << ":" << d.memory_bytes;
  }
  for (const auto& [pair, scale] : cluster.host_link_scales()) {
    os << ";l" << pair.first << "-" << pair.second << ":" << format_double(scale);
  }
  // Topology section only when attached, so flat-cluster fingerprints (and
  // every plan/journal written before topologies existed) stay stable.
  if (cluster.has_topology()) {
    const TopologySpec& topo = cluster.topology();
    os << ";tor=" << format_double(topo.tor_gbps);
    for (size_t h = 0; h < topo.rack_of_host.size(); ++h) {
      os << ";r" << h << ":" << topo.rack_of_host[h];
    }
    for (size_t t = 0; t < topo.tiers.size(); ++t) {
      os << ";t" << t << ":" << format_double(topo.tiers[t].gbps) << ":"
         << topo.tiers[t].group_size;
    }
    // Only degraded switches contribute, so undegraded fingerprints (and
    // every plan/journal written before switch faults existed) stay stable.
    for (const auto& [coord, scale] : cluster.switch_scales()) {
      os << ";w" << coord.first << "-" << coord.second << ":" << format_double(scale);
    }
  }
  return crc32(os.str());
}

std::string cluster_block(const ClusterSpec& cluster) {
  std::string out =
      "cluster-begin\nswitch " + format_double(cluster.switch_gbps()) + "\n";
  for (const auto& h : cluster.hosts()) {
    out += "host " + std::to_string(h.id) + " " + format_double(h.nic_gbps) + " " +
           format_double(h.intra_gbps) + " " + h.name + "\n";
  }
  for (const auto& d : cluster.devices()) {
    out += "device " + std::to_string(d.id) + " " +
           std::to_string(static_cast<int>(d.model)) + " " + std::to_string(d.host) +
           " " + format_double(d.gflops_per_ms) + " " + std::to_string(d.memory_bytes) +
           " " + d.name + "\n";
  }
  for (const auto& [pair, scale] : cluster.host_link_scales()) {
    out += "link " + std::to_string(pair.first) + " " + std::to_string(pair.second) +
           " " + format_double(scale) + "\n";
  }
  // Topology lines only when attached, so flat-cluster journals stay
  // byte-identical to the pre-topology format; switch-scale lines only for
  // degraded switches, for the same reason.
  if (cluster.has_topology()) {
    const TopologySpec& topo = cluster.topology();
    out += "tor " + format_double(topo.tor_gbps) + "\n";
    for (size_t h = 0; h < topo.rack_of_host.size(); ++h) {
      out += "rack " + std::to_string(h) + " " + std::to_string(topo.rack_of_host[h]) +
             "\n";
    }
    for (const auto& tier : topo.tiers) {
      out += "tier " + format_double(tier.gbps) + " " + std::to_string(tier.group_size) +
             "\n";
    }
    for (const auto& [coord, scale] : cluster.switch_scales()) {
      out += "switch-scale " + std::to_string(coord.first) + " " +
             std::to_string(coord.second) + " " + format_double(scale) + "\n";
    }
  }
  out += "cluster-end\n";
  return out;
}

ClusterSpec parse_cluster_block(LineCursor& in) {
  in.expect("cluster-begin");
  const double switch_gbps = in.real("switch");
  std::vector<HostSpec> hosts;
  while (in.at("host")) {
    Fields f = in.field("host");
    HostSpec h;
    h.id = f.integer("host id");
    h.nic_gbps = f.real("NIC bandwidth");
    h.intra_gbps = f.real("intra-host bandwidth");
    h.name = f.rest();
    hosts.push_back(std::move(h));
  }
  std::vector<DeviceSpec> devices;
  while (in.at("device")) {
    Fields f = in.field("device");
    DeviceSpec d;
    d.id = f.integer<DeviceId>("device id");
    d.model = static_cast<GpuModel>(f.integer("GPU model id", 0, kGpuModelCount - 1));
    d.host = f.integer("device host");
    d.gflops_per_ms = f.real("device compute");
    d.memory_bytes = f.integer<int64_t>("device memory");
    d.name = f.rest();
    devices.push_back(std::move(d));
  }
  std::map<std::pair<int, int>, double> link_scales;
  while (in.at("link")) {
    Fields f = in.field("link");
    const int a = f.integer("link host");
    const int b = f.integer("link host");
    link_scales[{a, b}] = f.real("link scale");
    f.finish();
  }
  TopologySpec topo;
  std::vector<std::tuple<int, int, double>> switch_scales;
  if (in.at("tor")) {
    topo.tor_gbps = in.real("tor");
    topo.rack_of_host.assign(hosts.size(), 0);
    while (in.at("rack")) {
      Fields f = in.field("rack");
      const int host = f.integer("rack host", 0, static_cast<int>(hosts.size()) - 1);
      topo.rack_of_host[static_cast<size_t>(host)] = f.integer("rack id");
      f.finish();
    }
    while (in.at("tier")) {
      Fields f = in.field("tier");
      SwitchTierSpec tier;
      tier.gbps = f.real("tier bandwidth");
      tier.group_size = f.integer("tier group size");
      f.finish();
      topo.tiers.push_back(tier);
    }
    while (in.at("switch-scale")) {
      Fields f = in.field("switch-scale");
      const int level = f.integer("switch level");
      const int index = f.integer("switch index");
      switch_scales.emplace_back(level, index, f.real("switch scale"));
      f.finish();
    }
  }
  in.expect("cluster-end");
  ClusterSpec out(std::move(hosts), std::move(devices), switch_gbps,
                  std::move(link_scales));
  if (!topo.empty()) out = out.with_topology(std::move(topo));
  for (const auto& [level, index, factor] : switch_scales) {
    out = out.degrade_switch(level, index, factor);
  }
  return out;
}

namespace {

DeviceSpec make_device(DeviceId id, GpuModel model, int host) {
  DeviceSpec d;
  d.id = id;
  d.name = "G" + std::to_string(id);
  d.model = model;
  d.host = host;
  d.gflops_per_ms = base_gflops_per_ms(model);
  d.memory_bytes = memory_capacity_bytes(model);
  return d;
}

HostSpec make_host(int id, double nic_gbps, double intra_gbps) {
  HostSpec h;
  h.id = id;
  h.name = "host" + std::to_string(id);
  h.nic_gbps = nic_gbps;
  h.intra_gbps = intra_gbps;
  return h;
}

}  // namespace

ClusterSpec make_paper_testbed_8gpu() {
  // host0: V100 machine (NVLink-class fabric, 100 GbE); hosts 1-2: 1080Ti
  // machines; host 3: P100 machine. Matches Table 2's G0..G7 ordering.
  std::vector<HostSpec> hosts = {
      make_host(0, 100.0, 320.0),
      make_host(1, 50.0, 96.0),
      make_host(2, 50.0, 96.0),
      make_host(3, 50.0, 96.0),
  };
  std::vector<DeviceSpec> devices = {
      make_device(0, GpuModel::kV100, 0),      make_device(1, GpuModel::kV100, 0),
      make_device(2, GpuModel::kGtx1080Ti, 1), make_device(3, GpuModel::kGtx1080Ti, 1),
      make_device(4, GpuModel::kGtx1080Ti, 2), make_device(5, GpuModel::kGtx1080Ti, 2),
      make_device(6, GpuModel::kP100, 3),      make_device(7, GpuModel::kP100, 3),
  };
  return ClusterSpec(std::move(hosts), std::move(devices), 100.0);
}

ClusterSpec make_paper_testbed_12gpu() {
  std::vector<HostSpec> hosts = {
      make_host(0, 100.0, 320.0),
      make_host(1, 50.0, 96.0),
      make_host(2, 50.0, 96.0),
      make_host(3, 50.0, 96.0),
      make_host(4, 50.0, 96.0),
  };
  std::vector<DeviceSpec> devices = {
      make_device(0, GpuModel::kV100, 0),       make_device(1, GpuModel::kV100, 0),
      make_device(2, GpuModel::kV100, 0),       make_device(3, GpuModel::kV100, 0),
      make_device(4, GpuModel::kGtx1080Ti, 1),  make_device(5, GpuModel::kGtx1080Ti, 1),
      make_device(6, GpuModel::kGtx1080Ti, 2),  make_device(7, GpuModel::kGtx1080Ti, 2),
      make_device(8, GpuModel::kP100, 3),       make_device(9, GpuModel::kP100, 3),
      make_device(10, GpuModel::kP100, 4),      make_device(11, GpuModel::kP100, 4),
  };
  return ClusterSpec(std::move(hosts), std::move(devices), 100.0);
}

ClusterSpec make_homogeneous(int n, GpuModel model, int per_host) {
  check(n > 0, "make_homogeneous: n must be positive");
  check(per_host > 0, "make_homogeneous: per_host must be positive");
  const int host_count = (n + per_host - 1) / per_host;
  std::vector<HostSpec> hosts;
  for (int h = 0; h < host_count; ++h) hosts.push_back(make_host(h, 100.0, 96.0));
  std::vector<DeviceSpec> devices;
  for (int i = 0; i < n; ++i) devices.push_back(make_device(i, model, i / per_host));
  return ClusterSpec(std::move(hosts), std::move(devices), 100.0);
}

ClusterSpec make_fig3_testbed() {
  std::vector<HostSpec> hosts = {
      make_host(0, 100.0, 320.0),
      make_host(1, 50.0, 96.0),
  };
  std::vector<DeviceSpec> devices = {
      make_device(0, GpuModel::kV100, 0),
      make_device(1, GpuModel::kV100, 0),
      make_device(2, GpuModel::kGtx1080Ti, 1),
      make_device(3, GpuModel::kGtx1080Ti, 1),
  };
  return ClusterSpec(std::move(hosts), std::move(devices), 100.0);
}

ClusterSpec make_motivation_cluster() {
  // Fig. 1/2: GPU0 half the compute power of GPU1/GPU2, one GPU per machine
  // (gradient aggregation crosses the network, as in the figures' timelines
  // where communication is a first-order cost).
  std::vector<HostSpec> hosts = {
      make_host(0, 50.0, 96.0),
      make_host(1, 50.0, 96.0),
      make_host(2, 50.0, 96.0),
  };
  std::vector<DeviceSpec> devices = {
      make_device(0, GpuModel::kGtx1080Ti, 0),
      make_device(1, GpuModel::kV100, 1),
      make_device(2, GpuModel::kV100, 2),
  };
  return ClusterSpec(std::move(hosts), std::move(devices), 100.0);
}

std::optional<ClusterSpec> cluster_from_name(const std::string& name) {
  if (name == "8gpu") return make_paper_testbed_8gpu();
  if (name == "12gpu") return make_paper_testbed_12gpu();
  if (name == "fig3") return make_fig3_testbed();
  if (name == "homog8") return make_homogeneous(8, GpuModel::kGtx1080Ti, 2);
  return std::nullopt;
}

const std::vector<std::string>& known_cluster_names() {
  static const std::vector<std::string> names = {"8gpu", "12gpu", "fig3", "homog8"};
  return names;
}

ClusterSpec scale_network_bandwidth(const ClusterSpec& base, double factor) {
  check(factor > 0.0, "scale_network_bandwidth: factor must be positive");
  std::vector<HostSpec> hosts = base.hosts();
  for (auto& h : hosts) h.nic_gbps *= factor;
  // Accumulated degradations are part of the network being scaled — dropping
  // them silently (the original behaviour) made a degraded-then-scaled
  // cluster look healthy.
  ClusterSpec out(std::move(hosts), base.devices(), base.switch_gbps() * factor,
                  base.host_link_scales());
  if (base.has_topology()) {
    TopologySpec topo = base.topology();
    topo.tor_gbps *= factor;
    for (auto& tier : topo.tiers) tier.gbps *= factor;
    // Same switch graph, so the degraded switches' coordinates still hold.
    out = out.with_topology(std::move(topo));
    for (const auto& [coord, scale] : base.switch_scales()) {
      out = out.degrade_switch(coord.first, coord.second, scale);
    }
  }
  return out;
}

}  // namespace heterog::cluster
