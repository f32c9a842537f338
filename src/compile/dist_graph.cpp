#include "compile/dist_graph.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace heterog::compile {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kCompute:
      return "compute";
    case NodeKind::kTransfer:
      return "transfer";
    case NodeKind::kCollective:
      return "collective";
  }
  return "unknown";
}

int ResourceModel::gpu_resource(DeviceId d) const {
  check(d >= 0 && d < device_count_, "gpu_resource: bad device");
  return d;
}

int ResourceModel::link_resource(DeviceId from, DeviceId to) const {
  check(from >= 0 && from < device_count_, "link_resource: bad from");
  check(to >= 0 && to < device_count_, "link_resource: bad to");
  check(from != to, "link_resource: degenerate link");
  return device_count_ + from * device_count_ + to;
}

int ResourceModel::nic_egress_resource(int host) const {
  check(host >= 0 && host < host_count_, "nic_egress_resource: bad host");
  return nccl_resource() + 1 + 2 * host;
}

int ResourceModel::nic_ingress_resource(int host) const {
  check(host >= 0 && host < host_count_, "nic_ingress_resource: bad host");
  return nccl_resource() + 1 + 2 * host + 1;
}

int ResourceModel::resource_of(const DistNode& node) const {
  switch (node.kind) {
    case NodeKind::kCompute:
      return gpu_resource(node.device);
    case NodeKind::kTransfer:
      return link_resource(node.link_from, node.link_to);
    case NodeKind::kCollective:
      return nccl_resource();
  }
  check_failed("resource_of: unknown node kind");
}

void ResourceModel::resources_of(const DistNode& node, std::vector<int>& out) const {
  out.clear();
  out.push_back(resource_of(node));
  if (node.kind != NodeKind::kTransfer || host_of_.empty()) return;
  const int src_host = host_of_[static_cast<size_t>(node.link_from)];
  const int dst_host = host_of_[static_cast<size_t>(node.link_to)];
  if (src_host != dst_host) {
    out.push_back(nic_egress_resource(src_host));
    out.push_back(nic_ingress_resource(dst_host));
  }
}

ResourceModel DistGraph::make_resource_model(const cluster::ClusterSpec& cluster) {
  std::vector<int> host_of;
  host_of.reserve(static_cast<size_t>(cluster.device_count()));
  for (const auto& d : cluster.devices()) host_of.push_back(d.host);
  return ResourceModel(cluster.device_count(), std::move(host_of), cluster.host_count());
}

DistNodeId DistGraph::add_node(DistNode node) {
  switch (node.kind) {
    case NodeKind::kCompute:
      check(node.device >= 0 && node.device < resources_.device_count(),
            "add_node: compute node without valid device");
      break;
    case NodeKind::kTransfer:
      check(node.link_from >= 0 && node.link_to >= 0 && node.link_from != node.link_to,
            "add_node: transfer node without valid link");
      break;
    case NodeKind::kCollective:
      check(node.participants.size() >= 2, "add_node: collective needs >= 2 participants");
      break;
  }
  check(node.duration_ms >= 0.0, "add_node: negative duration");
  node.id = static_cast<DistNodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  succ_.emplace_back();
  pred_.emplace_back();
  return nodes_.back().id;
}

void DistGraph::add_edge(DistNodeId from, DistNodeId to) {
  check(from >= 0 && from < node_count(), "add_edge: bad from");
  check(to >= 0 && to < node_count(), "add_edge: bad to");
  check(from != to, "add_edge: self loop");
  auto& out = succ_[static_cast<size_t>(from)];
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  pred_[static_cast<size_t>(to)].push_back(from);
}

const DistNode& DistGraph::node(DistNodeId id) const {
  check(id >= 0 && id < node_count(), "node: bad id");
  return nodes_[static_cast<size_t>(id)];
}

DistNode& DistGraph::mutable_node(DistNodeId id) {
  check(id >= 0 && id < node_count(), "mutable_node: bad id");
  return nodes_[static_cast<size_t>(id)];
}

const std::vector<DistNodeId>& DistGraph::successors(DistNodeId id) const {
  check(id >= 0 && id < node_count(), "successors: bad id");
  return succ_[static_cast<size_t>(id)];
}

const std::vector<DistNodeId>& DistGraph::predecessors(DistNodeId id) const {
  check(id >= 0 && id < node_count(), "predecessors: bad id");
  return pred_[static_cast<size_t>(id)];
}

void DistGraph::add_static_param_bytes(DeviceId device, int64_t bytes) {
  check(device >= 0 && device < resources_.device_count(), "add_static_param_bytes: bad device");
  check(bytes >= 0, "add_static_param_bytes: negative bytes");
  if (static_params_.empty()) {
    static_params_.assign(static_cast<size_t>(resources_.device_count()), 0);
  }
  static_params_[static_cast<size_t>(device)] += bytes;
}

std::vector<DistNodeId> DistGraph::topological_order() const {
  std::vector<int> in_degree(static_cast<size_t>(node_count()), 0);
  for (DistNodeId id = 0; id < node_count(); ++id) {
    in_degree[static_cast<size_t>(id)] = static_cast<int>(pred_[static_cast<size_t>(id)].size());
  }
  std::deque<DistNodeId> ready;
  for (DistNodeId id = 0; id < node_count(); ++id) {
    if (in_degree[static_cast<size_t>(id)] == 0) ready.push_back(id);
  }
  std::vector<DistNodeId> order;
  order.reserve(static_cast<size_t>(node_count()));
  while (!ready.empty()) {
    DistNodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (DistNodeId s : succ_[static_cast<size_t>(id)]) {
      if (--in_degree[static_cast<size_t>(s)] == 0) ready.push_back(s);
    }
  }
  check(static_cast<int>(order.size()) == node_count(), "DistGraph has a cycle");
  return order;
}

bool DistGraph::validate(std::string* error) const {
  for (DistNodeId id = 0; id < node_count(); ++id) {
    if (nodes_[static_cast<size_t>(id)].id != id) {
      if (error) *error = "node id mismatch";
      return false;
    }
  }
  std::vector<int> in_degree(static_cast<size_t>(node_count()), 0);
  for (DistNodeId id = 0; id < node_count(); ++id) {
    in_degree[static_cast<size_t>(id)] = static_cast<int>(pred_[static_cast<size_t>(id)].size());
  }
  std::deque<DistNodeId> ready;
  for (DistNodeId id = 0; id < node_count(); ++id) {
    if (in_degree[static_cast<size_t>(id)] == 0) ready.push_back(id);
  }
  int visited = 0;
  while (!ready.empty()) {
    DistNodeId id = ready.front();
    ready.pop_front();
    ++visited;
    for (DistNodeId s : succ_[static_cast<size_t>(id)]) {
      if (--in_degree[static_cast<size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (visited != node_count()) {
    if (error) *error = "dist graph has a cycle";
    return false;
  }
  return true;
}

double DistGraph::total_communication_ms() const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    if (n.is_communication()) total += n.duration_ms;
  }
  return total;
}

}  // namespace heterog::compile
