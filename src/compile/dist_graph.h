// Distributed execution graph — the Graph Compiler's output.
//
// Nodes are concrete units of work with a precomputed duration:
//   * compute nodes run on a GPU (op replicas, Split/Concat, PS aggregation,
//     ApplyGradient);
//   * transfer nodes occupy a directed GPU-GPU link ("we further treat a
//     link between two GPUs as a device" — paper Sec. 4.2);
//   * collective nodes (NCCL AllReduce) occupy the global NCCL channel,
//     serialising with each other ("AllReduce for different operations
//     cannot be launched simultaneously" — paper Sec. 6.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/op.h"

namespace heterog::compile {

using cluster::DeviceId;
using DistNodeId = int32_t;

enum class NodeKind : uint8_t { kCompute, kTransfer, kCollective };
const char* node_kind_name(NodeKind kind);

struct DistNode {
  DistNodeId id = -1;
  std::string name;
  NodeKind kind = NodeKind::kCompute;

  // kCompute: execution device. kTransfer: unused (see link_*). kCollective:
  // unused (see participants).
  DeviceId device = -1;
  DeviceId link_from = -1;
  DeviceId link_to = -1;
  std::vector<DeviceId> participants;  // collective only, sorted, unique

  /// Precomputed duration (cost model applied at compile time).
  double duration_ms = 0.0;

  /// Bytes of output tensor this node materialises. Compute: on `device`;
  /// transfer: on `link_to`; collective: on every participant.
  int64_t output_bytes = 0;

  /// Provenance.
  graph::OpId origin = graph::kInvalidOp;  // base op id, or kInvalidOp
  graph::OpKind op_kind = graph::OpKind::kIdentity;
  graph::OpRole role = graph::OpRole::kForward;
  int replica_index = -1;

  bool is_communication() const { return kind != NodeKind::kCompute; }
};

/// Maps nodes to schedulable resources: one per GPU, one per directed GPU
/// pair, a single NCCL channel, and — when host topology is attached — one
/// egress and one ingress resource per host NIC (full-duplex Ethernet).
///
/// An inter-host transfer occupies three resources simultaneously: its GPU
/// pair link, the source host's NIC egress and the destination host's NIC
/// ingress. This models the incast/outcast serialisation that makes a
/// parameter server's links the bottleneck (paper Sec. 2.3) while intra-host
/// transfers only contend pairwise.
class ResourceModel {
 public:
  explicit ResourceModel(int device_count) : device_count_(device_count) {}
  ResourceModel(int device_count, std::vector<int> host_of_device, int host_count)
      : device_count_(device_count),
        host_of_(std::move(host_of_device)),
        host_count_(host_count) {}

  int device_count() const { return device_count_; }
  int host_count() const { return host_count_; }

  int resource_count() const {
    return device_count_ + device_count_ * device_count_ + 1 + 2 * host_count_;
  }

  int gpu_resource(DeviceId d) const;
  int link_resource(DeviceId from, DeviceId to) const;
  int nccl_resource() const { return device_count_ + device_count_ * device_count_; }
  int nic_egress_resource(int host) const;
  int nic_ingress_resource(int host) const;

  bool is_gpu_resource(int r) const { return r >= 0 && r < device_count_; }
  bool is_link_resource(int r) const {
    return r >= device_count_ && r < device_count_ + device_count_ * device_count_;
  }
  bool is_nic_resource(int r) const { return r > nccl_resource() && r < resource_count(); }

  /// The resource a node queues on (GPU, link, or NCCL channel).
  int resource_of(const DistNode& node) const;

  /// All resources a node occupies while running. Appends to `out` (cleared
  /// first); 1 for compute/collective/intra-host transfers, 3 for inter-host
  /// transfers when host topology is attached.
  void resources_of(const DistNode& node, std::vector<int>& out) const;

 private:
  int device_count_;
  std::vector<int> host_of_;
  int host_count_ = 0;
};

class DistGraph {
 public:
  /// Without host topology: pairwise links only (unit tests, micro DAGs).
  explicit DistGraph(int device_count) : resources_(device_count) {}
  /// With host topology: NIC contention modelled (the Graph Compiler's path).
  explicit DistGraph(const cluster::ClusterSpec& cluster)
      : resources_(make_resource_model(cluster)) {}

  DistNodeId add_node(DistNode node);
  void add_edge(DistNodeId from, DistNodeId to);

  /// Pre-sizes the node and adjacency stores (the Graph Compiler knows a
  /// good estimate up front; DistNode is fat, so reallocation moves are
  /// worth avoiding in the search hot loop).
  void reserve_nodes(size_t expected) {
    nodes_.reserve(expected);
    succ_.reserve(expected);
    pred_.reserve(expected);
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const DistNode& node(DistNodeId id) const;
  DistNode& mutable_node(DistNodeId id);
  const std::vector<DistNode>& nodes() const { return nodes_; }

  const std::vector<DistNodeId>& successors(DistNodeId id) const;
  const std::vector<DistNodeId>& predecessors(DistNodeId id) const;

  const ResourceModel& resources() const { return resources_; }

  /// Parameter bytes statically resident on each device (model weights).
  const std::vector<int64_t>& static_param_bytes() const { return static_params_; }
  void add_static_param_bytes(DeviceId device, int64_t bytes);

  std::vector<DistNodeId> topological_order() const;
  bool validate(std::string* error = nullptr) const;

  /// Sum of durations of all nodes whose resource is a link or the NCCL
  /// channel.
  double total_communication_ms() const;

 private:
  static ResourceModel make_resource_model(const cluster::ClusterSpec& cluster);

  ResourceModel resources_;
  std::vector<DistNode> nodes_;
  std::vector<std::vector<DistNodeId>> succ_;
  std::vector<std::vector<DistNodeId>> pred_;
  std::vector<int64_t> static_params_;
};

}  // namespace heterog::compile
