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
//
// The graph is stored the way the simulator reads it (DESIGN.md §5i): one
// flat array per node field, edges appended to one list, and finalize()
// turning the list into successor/predecessor rows and numbering the
// resources the nodes occupy densely. Nothing downstream copies it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "graph/op.h"

namespace heterog::compile {

using cluster::DeviceId;
using DistNodeId = int32_t;

enum class NodeKind : uint8_t { kCompute, kTransfer, kCollective };
const char* node_kind_name(NodeKind kind);

/// A node's scalar fields: everything but its name and participants. The
/// Graph Compiler appends nodes from these (DistGraph::append_node).
struct NodeFields {
  NodeKind kind = NodeKind::kCompute;

  // kCompute: execution device. kTransfer: unused (see link_*). kCollective:
  // unused (see DistNode::participants).
  DeviceId device = -1;
  DeviceId link_from = -1;
  DeviceId link_to = -1;

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
};

/// One node's fields: what a caller hands to DistGraph::add_node, and what
/// DistGraph::node assembles back for tests, traces and deploy tooling. The
/// graph itself keeps each field in its own array.
struct DistNode : NodeFields {
  DistNodeId id = -1;
  std::string name;
  std::vector<DeviceId> participants;  // collective only, sorted, unique

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
///
/// The ids span D + D^2 + 1 + 2H values, a million at 1000 GPUs, of which a
/// graph occupies a few thousand: DistGraph renumbers the ones it uses
/// densely, and the model stays for names and the test-side reference
/// simulator.
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

  /// The resources a node with these fields occupies while running, the one
  /// it queues on first: its GPU, its link or the NCCL channel, then — for a
  /// transfer between hosts when host topology is attached — the source
  /// NIC's egress and the destination NIC's ingress. Writes 1 or 3 ids to
  /// `out` and returns the count.
  int occupied(NodeKind kind, DeviceId device, DeviceId link_from, DeviceId link_to,
               int out[3]) const;

  /// The resource a node queues on (GPU, link, or NCCL channel).
  int resource_of(const DistNode& node) const;

  /// All resources a node occupies while running (`out` is cleared first).
  void resources_of(const DistNode& node, std::vector<int>& out) const;

 private:
  int device_count_;
  std::vector<int> host_of_;
  int host_count_ = 0;
};

/// Compressed sparse rows over node ids: row v is dat[off[v], off[v + 1]).
struct Csr {
  std::vector<int32_t> off;
  std::vector<int32_t> dat;

  std::span<const int32_t> row(int32_t v) const {
    return {dat.data() + off[static_cast<size_t>(v)],
            dat.data() + off[static_cast<size_t>(v) + 1]};
  }
};

/// Built in two phases. add_node / add_edge / add_static_param_bytes append;
/// finalize() then builds the rows every reader uses, after which the graph
/// is immutable: concurrent readers (rl::EvalEngine's workers, the run loop)
/// need no locks, and nothing is filled in lazily.
///
/// A copy of a finalized graph shares its structure and owns only its
/// durations, which is what with_durations (fault scaling) rewrites.
class DistGraph {
 public:
  /// Without host topology: pairwise links only (unit tests, micro DAGs).
  explicit DistGraph(int device_count);
  /// With host topology: NIC contention modelled (the Graph Compiler's path).
  explicit DistGraph(const cluster::ClusterSpec& cluster);

  DistGraph(const DistGraph& other);
  DistGraph& operator=(const DistGraph& other);
  DistGraph(DistGraph&&) noexcept = default;
  DistGraph& operator=(DistGraph&&) noexcept = default;

  // -- Building ---------------------------------------------------------------

  /// Appends a node. Rejects a compute node without a device in range, a
  /// transfer without two distinct non-negative endpoints, a collective with
  /// fewer than two participants and a negative duration; the remaining
  /// range checks happen in finalize(). The name is kept only when not empty.
  DistNodeId add_node(const DistNode& node) {
    return append_node(node, node.name, node.participants);
  }
  /// add_node from the parts, without a DistNode to build: the Graph
  /// Compiler's path.
  DistNodeId append_node(const NodeFields& fields, std::string name = {},
                         std::span<const DeviceId> participants = {});
  /// Appends an edge. A repeated edge is dropped by finalize(), which keeps
  /// the first occurrence.
  void add_edge(DistNodeId from, DistNodeId to);
  /// Pre-sizes the per-node arrays (the Graph Compiler knows a good estimate).
  void reserve_nodes(size_t expected);
  /// Parameter bytes statically resident on `device` (model weights).
  void add_static_param_bytes(DeviceId device, int64_t bytes);

  /// Builds the successor and predecessor rows (each node's successors in
  /// insertion order, its predecessors in the order their edges were first
  /// added), numbers the used resources densely in ascending ResourceModel
  /// order, and records each node's queue resource, resource set and memory
  /// targets. Rejects a transfer endpoint or collective participant outside
  /// the device range. Call once; no node or edge may follow.
  void finalize();
  bool finalized() const { return s_->finalized; }

  // -- Nodes (any phase) ------------------------------------------------------

  int node_count() const { return static_cast<int>(duration_.size()); }
  /// The node's fields, assembled (participants and name are copies).
  DistNode node(DistNodeId id) const;

  NodeKind kind(DistNodeId id) const { return s_->kind[at(id)]; }
  bool is_communication(DistNodeId id) const { return kind(id) != NodeKind::kCompute; }
  DeviceId device(DistNodeId id) const { return s_->device[at(id)]; }
  DeviceId link_from(DistNodeId id) const { return s_->link_from[at(id)]; }
  DeviceId link_to(DistNodeId id) const { return s_->link_to[at(id)]; }
  std::span<const DeviceId> participants(DistNodeId id) const {
    return s_->participants.row(id_checked(id));
  }
  double duration_ms(DistNodeId id) const { return duration_[at(id)]; }
  int64_t output_bytes(DistNodeId id) const { return s_->output_bytes[at(id)]; }

  /// Every node's duration and output bytes, by id.
  const std::vector<double>& durations() const { return duration_; }
  const std::vector<int64_t>& output_sizes() const { return s_->output_bytes; }
  /// A graph sharing this one's structure with `durations` in place of its
  /// own (fault scaling). Requires a finalized graph and one value per node.
  DistGraph with_durations(std::vector<double> durations) const;

  const ResourceModel& resources() const { return s_->resources; }
  /// Per device, possibly shorter than the device count.
  const std::vector<int64_t>& static_param_bytes() const { return s_->static_params; }

  // -- Finalized structure ----------------------------------------------------

  std::span<const DistNodeId> successors(DistNodeId id) const {
    return rows().succ.row(id_checked(id));
  }
  std::span<const DistNodeId> predecessors(DistNodeId id) const {
    return rows().pred.row(id_checked(id));
  }
  const Csr& successor_rows() const { return rows().succ; }
  const Csr& predecessor_rows() const { return rows().pred; }

  /// The resources the nodes occupy, as ResourceModel ids in ascending
  /// order; a node's dense resource id indexes this.
  const std::vector<int32_t>& used_resources() const { return rows().used_resources; }
  int used_resource_count() const {
    return static_cast<int>(rows().used_resources.size());
  }
  /// Dense id of the resource each node queues on, by node id.
  const std::vector<int32_t>& queue_resources() const { return rows().queue_res; }
  /// Dense ids of every resource a node occupies, queue resource first.
  const Csr& resource_rows() const { return rows().res; }
  /// Devices a node's output occupies while live (compute: its device;
  /// transfer: link_to; collective: every participant); empty rows for
  /// nodes without output bytes.
  const Csr& memory_rows() const { return rows().mem; }

  std::vector<DistNodeId> topological_order() const;
  /// False (with a reason) when the edges close a cycle.
  bool validate(std::string* error = nullptr) const;

  /// Sum of durations of all nodes whose resource is a link or the NCCL
  /// channel.
  double total_communication_ms() const;

 private:
  /// Everything but the durations. Owned alone while building; shared,
  /// read-only, by a finalized graph's copies.
  struct Structure {
    explicit Structure(ResourceModel model) : resources(std::move(model)) {
      participants.off.push_back(0);
    }

    ResourceModel resources;
    std::vector<NodeKind> kind;
    std::vector<DeviceId> device;
    std::vector<DeviceId> link_from;
    std::vector<DeviceId> link_to;
    std::vector<int64_t> output_bytes;
    std::vector<graph::OpId> origin;
    std::vector<graph::OpKind> op_kind;
    std::vector<graph::OpRole> role;
    std::vector<int32_t> replica_index;
    Csr participants;
    /// Empty, or one name per node up to the last named one.
    std::vector<std::string> names;
    std::vector<int64_t> static_params;
    /// (from, to) in insertion order; finalize() turns it into succ / pred.
    std::vector<std::pair<DistNodeId, DistNodeId>> edges;

    bool finalized = false;
    Csr succ;
    Csr pred;
    std::vector<int32_t> used_resources;
    std::vector<int32_t> queue_res;
    Csr res;
    Csr mem;
  };

  DistGraph(std::shared_ptr<Structure> structure, std::vector<double> durations)
      : s_(std::move(structure)), duration_(std::move(durations)) {}

  static ResourceModel make_resource_model(const cluster::ClusterSpec& cluster);
  DistNodeId id_checked(DistNodeId id) const {
    check(id >= 0 && id < node_count(), "DistGraph: bad node id");
    return id;
  }
  size_t at(DistNodeId id) const { return static_cast<size_t>(id_checked(id)); }
  const Structure& rows() const {
    check(s_->finalized, "DistGraph: not finalized");
    return *s_;
  }
  Structure& building(const char* what);
  void build_adjacency();
  void build_resources();
  /// Kahn's algorithm over the rows; false when a cycle leaves nodes out.
  bool kahn_order(std::vector<DistNodeId>& order) const;

  std::shared_ptr<Structure> s_;
  std::vector<double> duration_;
};

}  // namespace heterog::compile
