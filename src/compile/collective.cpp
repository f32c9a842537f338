#include "compile/collective.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace heterog::compile {

double ring_allreduce_ms(int64_t bytes, std::span<const cluster::DeviceId> devices,
                         const profiler::CostProvider& costs) {
  const int r = static_cast<int>(devices.size());
  check(r >= 2, "ring_allreduce_ms: need >= 2 devices");
  const int64_t chunk = std::max<int64_t>(bytes / r, 1);
  // Each of the 2(R-1) phases is bounded by the slowest link in the ring.
  double slowest_chunk_ms = 0.0;
  for (int i = 0; i < r; ++i) {
    const cluster::DeviceId from = devices[static_cast<size_t>(i)];
    const cluster::DeviceId to = devices[static_cast<size_t>((i + 1) % r)];
    slowest_chunk_ms = std::max(slowest_chunk_ms, costs.transfer_time_ms(chunk, from, to));
  }
  return 2.0 * static_cast<double>(r - 1) * slowest_chunk_ms;
}

namespace {

/// `devices` as (host, device) pairs, stable-sorted by host: hosts ascending,
/// each host's devices in the order given.
std::vector<std::pair<int, cluster::DeviceId>> by_host(
    std::span<const cluster::DeviceId> devices, const cluster::ClusterSpec& cluster) {
  std::vector<std::pair<int, cluster::DeviceId>> pairs;
  pairs.reserve(devices.size());
  for (const cluster::DeviceId d : devices) pairs.emplace_back(cluster.device(d).host, d);
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return pairs;
}

/// Calls `visit(begin, end)` for each run of equal keys in `pairs`, which
/// are sorted by key.
template <typename Visit>
void for_each_run(const std::vector<std::pair<int, cluster::DeviceId>>& pairs, Visit visit) {
  for (size_t begin = 0; begin < pairs.size();) {
    size_t end = begin + 1;
    while (end < pairs.size() && pairs[end].first == pairs[begin].first) ++end;
    visit(begin, end);
    begin = end;
  }
}

/// The slowest full-payload transfer from a run's members to its first one.
double reduce_to_first_ms(int64_t bytes,
                          const std::vector<std::pair<int, cluster::DeviceId>>& pairs,
                          size_t begin, size_t end, const profiler::CostProvider& costs) {
  double ms = 0.0;
  for (size_t i = begin + 1; i < end; ++i) {
    ms = std::max(ms, costs.transfer_time_ms(bytes, pairs[i].second, pairs[begin].second));
  }
  return ms;
}

/// True when the cluster has a topology and `devices` span >= 2 racks — the
/// precondition for the rack-aware structure to be meaningful.
bool spans_multiple_racks(std::span<const cluster::DeviceId> devices,
                          const cluster::ClusterSpec& cluster) {
  if (!cluster.has_topology()) return false;
  const auto& racks = cluster.topology().rack_of_host;
  int first_rack = -1;
  for (cluster::DeviceId d : devices) {
    const int rack = racks[static_cast<size_t>(cluster.device(d).host)];
    if (first_rack < 0) {
      first_rack = rack;
    } else if (rack != first_rack) {
      return true;
    }
  }
  return false;
}

}  // namespace

double hierarchical_allreduce_ms(int64_t bytes, std::span<const cluster::DeviceId> devices,
                                 const profiler::CostProvider& costs) {
  check(devices.size() >= 2, "hierarchical_allreduce_ms: need >= 2 devices");
  const auto hosts = by_host(devices, costs.cluster());

  // Phase 1: intra-host reduce to the host chief (first device). Each
  // non-chief sends the full payload over the intra-host fabric; transfers
  // on distinct links proceed in parallel, so the phase is bounded by the
  // slowest single transfer.
  double intra_reduce_ms = 0.0;
  std::vector<cluster::DeviceId> chiefs;
  chiefs.reserve(hosts.size());
  for_each_run(hosts, [&](size_t begin, size_t end) {
    chiefs.push_back(hosts[begin].second);
    intra_reduce_ms =
        std::max(intra_reduce_ms, reduce_to_first_ms(bytes, hosts, begin, end, costs));
  });

  // Phase 2: ring AllReduce across host chiefs.
  double inter_ms = 0.0;
  if (chiefs.size() >= 2) {
    inter_ms = ring_allreduce_ms(bytes, chiefs, costs);
  }

  // Phase 3: intra-host broadcast from the chief (mirror of phase 1).
  return intra_reduce_ms + inter_ms + intra_reduce_ms;
}

double rack_hierarchical_allreduce_ms(int64_t bytes,
                                      std::span<const cluster::DeviceId> devices,
                                      const profiler::CostProvider& costs) {
  check(devices.size() >= 2, "rack_hierarchical_allreduce_ms: need >= 2 devices");
  const auto& cluster = costs.cluster();
  check(cluster.has_topology(),
        "rack_hierarchical_allreduce_ms: cluster has no switch topology");
  const auto& racks = cluster.topology().rack_of_host;
  const auto hosts = by_host(devices, cluster);

  // Phase 1: intra-host reduce to the host chief (as in hierarchical_*).
  double intra_reduce_ms = 0.0;
  std::vector<std::pair<int, cluster::DeviceId>> chiefs_by_rack;  // (rack, host chief)
  chiefs_by_rack.reserve(hosts.size());
  for_each_run(hosts, [&](size_t begin, size_t end) {
    chiefs_by_rack.emplace_back(racks[static_cast<size_t>(hosts[begin].first)],
                                hosts[begin].second);
    intra_reduce_ms =
        std::max(intra_reduce_ms, reduce_to_first_ms(bytes, hosts, begin, end, costs));
  });
  std::stable_sort(chiefs_by_rack.begin(), chiefs_by_rack.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  check(chiefs_by_rack.front().first != chiefs_by_rack.back().first,
        "rack_hierarchical_allreduce_ms: participants span a single rack");

  // Phase 2: intra-rack reduce to the rack chief. Traffic stays behind each
  // ToR, so racks proceed in parallel; like phase 1, the phase is bounded by
  // the slowest single full-payload transfer.
  double rack_reduce_ms = 0.0;
  std::vector<cluster::DeviceId> rack_chiefs;
  rack_chiefs.reserve(chiefs_by_rack.size());
  for_each_run(chiefs_by_rack, [&](size_t begin, size_t end) {
    rack_chiefs.push_back(chiefs_by_rack[begin].second);
    rack_reduce_ms = std::max(rack_reduce_ms,
                              reduce_to_first_ms(bytes, chiefs_by_rack, begin, end, costs));
  });

  // Phase 3: ring AllReduce across rack chiefs — the only phase that crosses
  // the (possibly oversubscribed) aggregation/core tiers.
  const double inter_ms = ring_allreduce_ms(bytes, rack_chiefs, costs);

  // Phases 4/5: mirrored intra-rack and intra-host broadcasts.
  return intra_reduce_ms + rack_reduce_ms + inter_ms + rack_reduce_ms + intra_reduce_ms;
}

AllReduceEstimate estimate_allreduce(int64_t bytes,
                                     std::span<const cluster::DeviceId> devices,
                                     const profiler::CostProvider& costs) {
  AllReduceEstimate est;
  const double ring = ring_allreduce_ms(bytes, devices, costs);
  const double hier = hierarchical_allreduce_ms(bytes, devices, costs);
  if (hier < ring) {
    est.time_ms = hier;
    est.structure = AllReduceStructure::kHierarchical;
  } else {
    est.time_ms = ring;
    est.structure = AllReduceStructure::kRing;
  }
  // The rack-aware structure only enters the contest on multi-rack
  // topologies, so flat clusters keep the original two-way choice (and the
  // plans pinned against it) bit-for-bit.
  if (spans_multiple_racks(devices, costs.cluster())) {
    const double rack = rack_hierarchical_allreduce_ms(bytes, devices, costs);
    if (rack < est.time_ms) {
      est.time_ms = rack;
      est.structure = AllReduceStructure::kRackHierarchical;
    }
  }
  // Per-collective launch/synchronisation overhead: every NCCL operation
  // rendezvouses all participants before data moves, a fixed cost that makes
  // one AllReduce per gradient tensor expensive for models with many
  // parameter ops (and is why the paper's hybrid PS/AR plans win).
  est.time_ms += kCollectiveLaunchOverheadMs;
  return est;
}

}  // namespace heterog::compile
