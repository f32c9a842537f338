// AllReduce time estimation (paper Sec. 3.4, Gradient Aggregation):
// "ring-based AllReduce, or a hierarchical AllReduce structure that
//  aggregates gradients among GPUs on the same physical server first and
//  then across servers. We always use the better structure among the two by
//  estimating the communication time of the two based on the given network
//  topology."
#pragma once

#include <cstdint>
#include <span>

#include "cluster/cluster.h"
#include "profiler/cost_provider.h"

namespace heterog::compile {

enum class AllReduceStructure { kRing, kHierarchical, kRackHierarchical };

struct AllReduceEstimate {
  double time_ms = 0.0;
  AllReduceStructure structure = AllReduceStructure::kRing;
};

/// Ring AllReduce over `devices` (>= 2, ring in the given order): 2(R-1)
/// phases, each moving bytes/R per link; phase time is the slowest ring link.
double ring_allreduce_ms(int64_t bytes, std::span<const cluster::DeviceId> devices,
                         const profiler::CostProvider& costs);

/// Hierarchical: intra-host ring reduce, inter-host ring over host chiefs
/// with the full payload, intra-host broadcast.
double hierarchical_allreduce_ms(int64_t bytes,
                                 std::span<const cluster::DeviceId> devices,
                                 const profiler::CostProvider& costs);

/// Rack-aware three-level structure for clusters with an attached
/// TopologySpec: intra-host reduce to host chiefs, intra-rack reduce to rack
/// chiefs (behind the ToR, off the oversubscribed core), inter-rack ring
/// over rack chiefs, then the mirrored broadcasts. Requires a topology with
/// >= 2 racks among the participants; throws CheckError otherwise.
double rack_hierarchical_allreduce_ms(int64_t bytes,
                                      std::span<const cluster::DeviceId> devices,
                                      const profiler::CostProvider& costs);

/// Fixed per-collective launch/rendezvous overhead added by
/// estimate_allreduce (NCCL kernels synchronise all participants).
inline constexpr double kCollectiveLaunchOverheadMs = 1.0;

/// The better structure for this payload and device set, plus the launch
/// overhead. The rack-aware structure is only considered when the cluster
/// has a multi-rack topology attached, so flat clusters keep the original
/// two-way choice bit-for-bit.
AllReduceEstimate estimate_allreduce(int64_t bytes,
                                     std::span<const cluster::DeviceId> devices,
                                     const profiler::CostProvider& costs);

}  // namespace heterog::compile
