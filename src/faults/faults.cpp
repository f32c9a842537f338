#include "faults/faults.h"

#include <algorithm>
#include <sstream>

#include "common/record_io.h"

namespace heterog::faults {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceFailure:
      return "device_failure";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kLinkDegradation:
      return "link_degradation";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kRackFailure:
      return "rack_failure";
    case FaultKind::kSwitchOutage:
      return "switch_outage";
    case FaultKind::kSwitchDegradation:
      return "switch_degradation";
  }
  return "unknown";
}

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  switch (kind) {
    case FaultKind::kDeviceFailure:
      os << " G" << device;
      break;
    case FaultKind::kStraggler:
      os << " G" << device << " x" << slowdown;
      break;
    case FaultKind::kLinkDegradation:
      os << " G" << device_a << "<->G" << device_b << " x" << bandwidth_factor;
      break;
    case FaultKind::kTransient:
      os << " G" << device << " (" << failed_attempts << " failed attempts)";
      break;
    case FaultKind::kRackFailure:
      os << " rack" << rack;
      break;
    case FaultKind::kSwitchOutage:
      os << " L" << level << "/S" << switch_index;
      break;
    case FaultKind::kSwitchDegradation:
      os << " L" << level << "/S" << switch_index << " x" << bandwidth_factor;
      break;
  }
  os << " @step " << onset_step;
  if (recovery_step >= 0) os << "..." << recovery_step;
  return os.str();
}

namespace {

// Devices whose only path to the rest of the cluster crosses the event's
// fault domain. Assumes coordinates already validated (see validate_event).
std::vector<cluster::DeviceId> domain_devices_unchecked(
    const cluster::ClusterSpec& cluster, const FaultEvent& e) {
  std::vector<cluster::DeviceId> out;
  if (!cluster.has_topology()) return out;
  const cluster::TopologySpec& topo = cluster.topology();
  for (const auto& d : cluster.devices()) {
    const int rack = topo.rack_of_host[static_cast<size_t>(d.host)];
    const bool inside =
        e.kind == FaultKind::kRackFailure
            ? rack == e.rack
            : e.kind == FaultKind::kSwitchOutage &&
                  topo.group_of_rack(rack, e.level) == e.switch_index;
    if (inside) out.push_back(d.id);
  }
  return out;
}

void validate_event(const FaultEvent& e, const cluster::ClusterSpec& cluster) {
  auto fail = [&](const std::string& why) {
    throw FaultPlanError("fault plan: " + why + " in event [" + e.describe() + "]");
  };
  if (e.onset_step < 0) fail("negative onset_step");
  if (e.recovery_step >= 0 && e.recovery_step <= e.onset_step) {
    fail("recovery_step must be after onset_step");
  }
  auto check_device = [&](cluster::DeviceId d, const char* field) {
    if (d < 0 || d >= cluster.device_count()) {
      fail(std::string(field) + " out of range for a " +
           std::to_string(cluster.device_count()) + "-device cluster");
    }
  };
  auto check_switch = [&]() {
    if (!cluster.has_topology()) {
      fail("switch event requires a cluster with switch topology");
    }
    const cluster::TopologySpec& topo = cluster.topology();
    if (e.level < 0 || e.level >= topo.level_count()) {
      fail("switch level " + std::to_string(e.level) + " out of range [0, " +
           std::to_string(topo.level_count()) + ")");
    }
    const int count = topo.switch_count(e.level);
    if (e.switch_index < 0 || e.switch_index >= count) {
      fail("switch index " + std::to_string(e.switch_index) +
           " out of range [0, " + std::to_string(count) + ") at level " +
           std::to_string(e.level));
    }
  };
  switch (e.kind) {
    case FaultKind::kDeviceFailure:
      check_device(e.device, "device");
      break;
    case FaultKind::kStraggler:
      check_device(e.device, "device");
      if (e.slowdown <= 1.0) fail("straggler slowdown must be > 1");
      break;
    case FaultKind::kLinkDegradation:
      check_device(e.device_a, "device_a");
      check_device(e.device_b, "device_b");
      if (e.device_a == e.device_b) fail("link endpoints must differ");
      if (e.bandwidth_factor <= 0.0 || e.bandwidth_factor >= 1.0) {
        fail("bandwidth_factor must be in (0, 1)");
      }
      break;
    case FaultKind::kTransient:
      check_device(e.device, "device");
      if (e.failed_attempts < 1) fail("failed_attempts must be >= 1");
      break;
    case FaultKind::kRackFailure: {
      if (!cluster.has_topology()) {
        fail("rack event requires a cluster with switch topology");
      }
      const cluster::TopologySpec& topo = cluster.topology();
      if (e.rack < 0 || e.rack >= topo.rack_count()) {
        fail("rack " + std::to_string(e.rack) + " out of range for a " +
             std::to_string(topo.rack_count()) + "-rack topology");
      }
      if (domain_devices_unchecked(cluster, e).empty()) {
        fail("rack " + std::to_string(e.rack) + " has no devices");
      }
      break;
    }
    case FaultKind::kSwitchOutage: {
      check_switch();
      const auto cut = domain_devices_unchecked(cluster, e);
      if (static_cast<int>(cut.size()) >= cluster.device_count()) {
        fail("switch outage would isolate every device in the cluster");
      }
      break;
    }
    case FaultKind::kSwitchDegradation:
      check_switch();
      if (e.bandwidth_factor <= 0.0 || e.bandwidth_factor >= 1.0) {
        fail("bandwidth_factor must be in (0, 1)");
      }
      break;
  }
}

}  // namespace

void FaultPlan::validate(const cluster::ClusterSpec& cluster) const {
  for (const auto& e : events) validate_event(e, cluster);
}

bool FaultScaling::any() const {
  if (!failed.empty() || !links.empty() || !switches.empty() || !isolated.empty()) {
    return true;
  }
  return std::any_of(compute_slowdown.begin(), compute_slowdown.end(),
                     [](double s) { return s > 1.0; });
}

bool FaultScaling::is_failed(cluster::DeviceId d) const {
  return std::binary_search(failed.begin(), failed.end(), d);
}

bool FaultScaling::is_isolated(cluster::DeviceId d) const {
  return std::binary_search(isolated.begin(), isolated.end(), d);
}

double FaultScaling::link_factor(const cluster::ClusterSpec& cluster,
                                 cluster::DeviceId x, cluster::DeviceId y) const {
  if (links.empty() && switches.empty()) return 1.0;
  const int hx = cluster.device(x).host;
  const int hy = cluster.device(y).host;
  const auto key = std::minmax(hx, hy);
  double factor = 1.0;
  for (const auto& l : links) {
    const auto lk = std::minmax(cluster.device(l.a).host, cluster.device(l.b).host);
    if (lk == key) factor *= l.factor;
  }
  if (!switches.empty() && hx != hy) {
    for (const auto& hop : cluster.switches_on_path(hx, hy)) {
      for (const auto& s : switches) {
        if (s.level == hop.first && s.index == hop.second) factor *= s.factor;
      }
    }
  }
  return factor;
}

namespace {

[[noreturn]] void scaling_fail(const char* where, int step, const std::string& why) {
  throw FaultPlanError(std::string(where) + ": " + why + " at step " +
                       std::to_string(step));
}

}  // namespace

std::string FaultScaling::signature() const {
  // Factors print in full, so nearly equal fault sets (slowdowns 2.0 and
  // 2.000004) get distinct keys.
  std::ostringstream os;
  for (size_t d = 0; d < compute_slowdown.size(); ++d) {
    if (compute_slowdown[d] < 1.0) {
      scaling_fail("FaultScaling::signature", step,
                   "compute slowdown " + std::to_string(compute_slowdown[d]) +
                       " < 1 on device " + std::to_string(d));
    }
    if (compute_slowdown[d] > 1.0) {
      os << "s" << d << ":" << format_double(compute_slowdown[d]) << ";";
    }
  }
  for (const auto& l : links) {
    if (l.factor <= 0.0 || l.factor >= 1.0) {
      scaling_fail("FaultScaling::signature", step,
                   "bandwidth factor " + std::to_string(l.factor) +
                       " outside (0, 1) on link G" + std::to_string(l.a) + "<->G" +
                       std::to_string(l.b));
    }
    os << "l" << l.a << "-" << l.b << ":" << format_double(l.factor) << ";";
  }
  for (auto d : failed) {
    if (d < 0) {
      scaling_fail("FaultScaling::signature", step,
                   "negative failed device id " + std::to_string(d));
    }
    os << "f" << d << ";";
  }
  // Domain terms come last so signatures of flat fault sets are unchanged.
  for (const auto& s : switches) {
    if (s.factor <= 0.0 || s.factor >= 1.0) {
      scaling_fail("FaultScaling::signature", step,
                   "switch factor " + std::to_string(s.factor) +
                       " outside (0, 1) on switch L" + std::to_string(s.level) +
                       "/S" + std::to_string(s.index));
    }
    os << "w" << s.level << "-" << s.index << ":" << format_double(s.factor) << ";";
  }
  for (auto d : isolated) {
    if (d < 0) {
      scaling_fail("FaultScaling::signature", step,
                   "negative isolated device id " + std::to_string(d));
    }
    os << "i" << d << ";";
  }
  return os.str();
}

FaultScaling scaling_at(const FaultPlan& plan, const cluster::ClusterSpec& cluster,
                        int step) {
  FaultScaling out;
  out.step = step;
  out.compute_slowdown.assign(static_cast<size_t>(cluster.device_count()), 1.0);
  for (const auto& e : plan.events) {
    if (!e.active_at(step)) continue;
    switch (e.kind) {
      case FaultKind::kDeviceFailure:
        if (e.device >= 0 && e.device < cluster.device_count()) {
          out.failed.push_back(e.device);
        }
        break;
      case FaultKind::kStraggler:
        if (e.device >= 0 && e.device < cluster.device_count()) {
          out.compute_slowdown[static_cast<size_t>(e.device)] *= e.slowdown;
        }
        break;
      case FaultKind::kLinkDegradation:
        out.links.push_back({e.device_a, e.device_b, e.bandwidth_factor});
        break;
      case FaultKind::kTransient:
        break;  // handled by the runner's retry loop
      case FaultKind::kRackFailure:
        for (auto d : domain_devices_unchecked(cluster, e)) out.failed.push_back(d);
        break;
      case FaultKind::kSwitchOutage:
        for (auto d : domain_devices_unchecked(cluster, e)) out.isolated.push_back(d);
        break;
      case FaultKind::kSwitchDegradation:
        out.switches.push_back({e.level, e.switch_index, e.bandwidth_factor});
        break;
    }
  }
  std::sort(out.failed.begin(), out.failed.end());
  out.failed.erase(std::unique(out.failed.begin(), out.failed.end()), out.failed.end());
  std::sort(out.isolated.begin(), out.isolated.end());
  out.isolated.erase(std::unique(out.isolated.begin(), out.isolated.end()),
                     out.isolated.end());
  // A device that failed outright is not additionally "isolated" — failure
  // dominates so the two sets stay disjoint for consumers.
  out.isolated.erase(std::remove_if(out.isolated.begin(), out.isolated.end(),
                                    [&](cluster::DeviceId d) {
                                      return out.is_failed(d);
                                    }),
                     out.isolated.end());
  return out;
}

std::vector<cluster::DeviceId> domain_devices(const cluster::ClusterSpec& cluster,
                                              const FaultEvent& e) {
  validate_event(e, cluster);
  return domain_devices_unchecked(cluster, e);
}

namespace {

bool is_domain_kind(FaultKind kind) {
  return kind == FaultKind::kRackFailure || kind == FaultKind::kSwitchOutage ||
         kind == FaultKind::kSwitchDegradation;
}

}  // namespace

FaultPlan remap_plan(const FaultPlan& plan, const std::vector<int>& new_id_of) {
  auto remap = [&](cluster::DeviceId d) -> cluster::DeviceId {
    if (d < 0 || static_cast<size_t>(d) >= new_id_of.size()) return -1;
    return new_id_of[static_cast<size_t>(d)];
  };
  FaultPlan out;
  for (const auto& e : plan.events) {
    FaultEvent copy = e;
    if (is_domain_kind(e.kind)) {
      // Rack / switch coordinates are host-id-independent and racks are
      // never re-densified, so domain events survive remapping untouched.
    } else if (e.kind == FaultKind::kLinkDegradation) {
      copy.device_a = remap(e.device_a);
      copy.device_b = remap(e.device_b);
      if (copy.device_a < 0 || copy.device_b < 0) continue;
    } else {
      copy.device = remap(e.device);
      if (copy.device < 0) continue;
    }
    out.events.push_back(copy);
  }
  return out;
}

FaultPlan remap_plan(const FaultPlan& plan, const std::vector<int>& new_id_of,
                     const cluster::ClusterSpec& survivors) {
  FaultPlan out = remap_plan(plan, new_id_of);
  out.events.erase(std::remove_if(out.events.begin(), out.events.end(),
                                  [&](const FaultEvent& e) {
                                    if (!is_domain_kind(e.kind)) return false;
                                    try {
                                      validate_event(e, survivors);
                                      return false;
                                    } catch (const FaultPlanError&) {
                                      return true;  // domain no longer exists
                                    }
                                  }),
                   out.events.end());
  return out;
}

cluster::ClusterSpec degraded_cluster(const cluster::ClusterSpec& base,
                                      const FaultScaling& scaling) {
  // Isolated devices are unreachable from the survivors, so re-planning must
  // exclude them exactly like failed ones.
  std::vector<cluster::DeviceId> lost = scaling.failed;
  lost.insert(lost.end(), scaling.isolated.begin(), scaling.isolated.end());
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  for (const auto d : lost) {
    if (d < 0 || d >= base.device_count()) {
      scaling_fail("degraded_cluster", scaling.step,
                   "failed device " + std::to_string(d) + " out of range for a " +
                       std::to_string(base.device_count()) + "-device cluster");
    }
  }
  if (static_cast<int>(lost.size()) >= base.device_count()) {
    throw cluster::ClusterSpecError(
        "degraded_cluster: no device survives at step " +
        std::to_string(scaling.step) + " (all " +
        std::to_string(base.device_count()) + " devices failed or isolated)");
  }
  std::vector<cluster::HostSpec> hosts = base.hosts();
  std::vector<cluster::DeviceSpec> devices = base.devices();
  for (auto& d : devices) {
    const auto idx = static_cast<size_t>(d.id);
    if (idx < scaling.compute_slowdown.size()) {
      if (scaling.compute_slowdown[idx] < 1.0) {
        scaling_fail("degraded_cluster", scaling.step,
                     "compute slowdown " + std::to_string(scaling.compute_slowdown[idx]) +
                         " < 1 on device " + std::to_string(d.id));
      }
      if (scaling.compute_slowdown[idx] > 1.0) {
        d.gflops_per_ms /= scaling.compute_slowdown[idx];
      }
    }
  }
  // Rebuild with the base cluster's accumulated link degradations and switch
  // topology intact — dropping them here silently un-degraded previously
  // degraded clusters and flattened generated multi-rack fabrics.
  cluster::ClusterSpec out(std::move(hosts), std::move(devices), base.switch_gbps(),
                           base.host_link_scales());
  if (base.has_topology()) {
    out = out.with_topology(base.topology());
    // with_topology drops switch scales (coordinates belong to the replaced
    // topology); re-apply the base cluster's accumulated ones, which target
    // the identical topology here.
    for (const auto& [coord, scale] : base.switch_scales()) {
      out = out.degrade_switch(coord.first, coord.second, scale);
    }
  }
  for (const auto& l : scaling.links) {
    if (l.a < 0 || l.a >= base.device_count() || l.b < 0 || l.b >= base.device_count()) {
      scaling_fail("degraded_cluster", scaling.step,
                   "degraded link G" + std::to_string(l.a) + "<->G" +
                       std::to_string(l.b) + " references a device outside the " +
                       std::to_string(base.device_count()) + "-device cluster");
    }
    out = out.degrade_link(l.a, l.b, l.factor);
  }
  // Active switch degradations re-price the whole inter-host bandwidth table
  // so the rack-aware hierarchical AllReduce sees the narrowed fabric.
  for (const auto& s : scaling.switches) {
    if (!out.has_topology()) {
      scaling_fail("degraded_cluster", scaling.step,
                   "switch degradation L" + std::to_string(s.level) + "/S" +
                       std::to_string(s.index) +
                       " targets a cluster without switch topology");
    }
    out = out.degrade_switch(s.level, s.index, s.factor);
  }
  // Remove failed + isolated devices last (highest id first so lower ids
  // stay stable while iterating; degraded-link host pairs and switch scales
  // are carried through).
  std::sort(lost.rbegin(), lost.rend());
  for (auto d : lost) out = out.remove_device(d);
  return out;
}

}  // namespace heterog::faults
