#include "compile/dist_graph.h"

#include <algorithm>
#include <numeric>

namespace heterog::compile {

namespace {

/// First-touch numbering of the ResourceModel ids a graph occupies: an
/// open-addressing table, since a 1000-GPU model has a million ids of which
/// a graph touches a few thousand.
class ResourceNumbering {
 public:
  int32_t slot(int32_t resource) {
    if (2 * (ids_.size() + 1) > table_.size()) grow();
    size_t i = home(resource);
    while (table_[i] >= 0) {
      if (ids_[static_cast<size_t>(table_[i])] == resource) return table_[i];
      i = (i + 1) & (table_.size() - 1);
    }
    table_[i] = static_cast<int32_t>(ids_.size());
    ids_.push_back(resource);
    return table_[i];
  }
  /// Resource id per slot, in first-touch order.
  const std::vector<int32_t>& ids() const { return ids_; }

 private:
  size_t home(int32_t resource) const {
    return static_cast<size_t>((static_cast<uint64_t>(resource) * 0x9E3779B97F4A7C15ULL) >>
                               (64 - bits_));
  }
  void grow() {
    bits_ = std::max(bits_ + 1, 6);
    table_.assign(size_t{1} << bits_, -1);
    for (size_t k = 0; k < ids_.size(); ++k) {
      size_t i = home(ids_[k]);
      while (table_[i] >= 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = static_cast<int32_t>(k);
    }
  }

  int bits_ = 0;
  std::vector<int32_t> table_;  // slot per bucket, -1 when empty
  std::vector<int32_t> ids_;
};

}  // namespace

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

int ResourceModel::occupied(NodeKind kind, DeviceId device, DeviceId link_from,
                            DeviceId link_to, int out[3]) const {
  switch (kind) {
    case NodeKind::kCompute:
      out[0] = gpu_resource(device);
      return 1;
    case NodeKind::kCollective:
      out[0] = nccl_resource();
      return 1;
    case NodeKind::kTransfer:
      break;
  }
  out[0] = link_resource(link_from, link_to);
  if (host_of_.empty()) return 1;
  const int src_host = host_of_[static_cast<size_t>(link_from)];
  const int dst_host = host_of_[static_cast<size_t>(link_to)];
  if (src_host == dst_host) return 1;
  out[1] = nic_egress_resource(src_host);
  out[2] = nic_ingress_resource(dst_host);
  return 3;
}

int ResourceModel::resource_of(const DistNode& node) const {
  int out[3];
  occupied(node.kind, node.device, node.link_from, node.link_to, out);
  return out[0];
}

void ResourceModel::resources_of(const DistNode& node, std::vector<int>& out) const {
  int ids[3];
  const int count = occupied(node.kind, node.device, node.link_from, node.link_to, ids);
  out.assign(ids, ids + count);
}

ResourceModel DistGraph::make_resource_model(const cluster::ClusterSpec& cluster) {
  std::vector<int> host_of;
  host_of.reserve(static_cast<size_t>(cluster.device_count()));
  for (const auto& d : cluster.devices()) host_of.push_back(d.host);
  return ResourceModel(cluster.device_count(), std::move(host_of), cluster.host_count());
}

DistGraph::DistGraph(int device_count)
    : s_(std::make_shared<Structure>(ResourceModel(device_count))) {}

DistGraph::DistGraph(const cluster::ClusterSpec& cluster)
    : s_(std::make_shared<Structure>(make_resource_model(cluster))) {}

DistGraph::DistGraph(const DistGraph& other)
    : s_(other.finalized() ? other.s_ : std::make_shared<Structure>(*other.s_)),
      duration_(other.duration_) {}

DistGraph& DistGraph::operator=(const DistGraph& other) {
  if (this != &other) *this = DistGraph(other);
  return *this;
}

DistGraph::Structure& DistGraph::building(const char* what) {
  check_lazy(!s_->finalized,
             [&] { return std::string(what) + ": graph is finalized"; });
  return *s_;
}

DistNodeId DistGraph::append_node(const NodeFields& fields, std::string name,
                                  std::span<const DeviceId> participants) {
  Structure& s = building("add_node");
  switch (fields.kind) {
    case NodeKind::kCompute:
      check(fields.device >= 0 && fields.device < s.resources.device_count(),
            "add_node: compute node without valid device");
      break;
    case NodeKind::kTransfer:
      check(fields.link_from >= 0 && fields.link_to >= 0 &&
                fields.link_from != fields.link_to,
            "add_node: transfer node without valid link");
      break;
    case NodeKind::kCollective:
      check(participants.size() >= 2, "add_node: collective needs >= 2 participants");
      break;
  }
  check(fields.duration_ms >= 0.0, "add_node: negative duration");
  const auto id = static_cast<DistNodeId>(duration_.size());
  s.kind.push_back(fields.kind);
  s.device.push_back(fields.device);
  s.link_from.push_back(fields.link_from);
  s.link_to.push_back(fields.link_to);
  s.output_bytes.push_back(fields.output_bytes);
  s.origin.push_back(fields.origin);
  s.op_kind.push_back(fields.op_kind);
  s.role.push_back(fields.role);
  s.replica_index.push_back(fields.replica_index);
  s.participants.dat.insert(s.participants.dat.end(), participants.begin(),
                            participants.end());
  s.participants.off.push_back(static_cast<int32_t>(s.participants.dat.size()));
  if (!name.empty()) {
    s.names.resize(static_cast<size_t>(id));
    s.names.push_back(std::move(name));
  }
  duration_.push_back(fields.duration_ms);
  return id;
}

void DistGraph::add_edge(DistNodeId from, DistNodeId to) {
  Structure& s = building("add_edge");
  check(from >= 0 && from < node_count(), "add_edge: bad from");
  check(to >= 0 && to < node_count(), "add_edge: bad to");
  check(from != to, "add_edge: self loop");
  s.edges.emplace_back(from, to);
}

void DistGraph::reserve_nodes(size_t expected) {
  Structure& s = building("reserve_nodes");
  s.kind.reserve(expected);
  s.device.reserve(expected);
  s.link_from.reserve(expected);
  s.link_to.reserve(expected);
  s.output_bytes.reserve(expected);
  s.origin.reserve(expected);
  s.op_kind.reserve(expected);
  s.role.reserve(expected);
  s.replica_index.reserve(expected);
  s.participants.off.reserve(expected + 1);
  duration_.reserve(expected);
}

void DistGraph::add_static_param_bytes(DeviceId device, int64_t bytes) {
  Structure& s = building("add_static_param_bytes");
  check(device >= 0 && device < s.resources.device_count(),
        "add_static_param_bytes: bad device");
  check(bytes >= 0, "add_static_param_bytes: negative bytes");
  if (s.static_params.empty()) {
    s.static_params.assign(static_cast<size_t>(s.resources.device_count()), 0);
  }
  s.static_params[static_cast<size_t>(device)] += bytes;
}

DistNode DistGraph::node(DistNodeId id) const {
  const size_t v = at(id);
  const Structure& s = *s_;
  DistNode n;
  n.id = id;
  if (v < s.names.size()) n.name = s.names[v];
  n.kind = s.kind[v];
  n.device = s.device[v];
  n.link_from = s.link_from[v];
  n.link_to = s.link_to[v];
  const auto participants = s.participants.row(id);
  n.participants.assign(participants.begin(), participants.end());
  n.duration_ms = duration_[v];
  n.output_bytes = s.output_bytes[v];
  n.origin = s.origin[v];
  n.op_kind = s.op_kind[v];
  n.role = s.role[v];
  n.replica_index = s.replica_index[v];
  return n;
}

DistGraph DistGraph::with_durations(std::vector<double> durations) const {
  check(finalized(), "with_durations: graph not finalized");
  check(durations.size() == duration_.size(), "with_durations: size mismatch");
  return DistGraph(s_, std::move(durations));
}

void DistGraph::finalize() {
  Structure& s = building("finalize");
  const int devices = s.resources.device_count();
  for (DistNodeId id = 0; id < node_count(); ++id) {
    const auto v = static_cast<size_t>(id);
    if (s.kind[v] == NodeKind::kTransfer) {
      check(s.link_from[v] < devices && s.link_to[v] < devices,
            "finalize: transfer node link endpoint out of range");
    } else if (s.kind[v] == NodeKind::kCollective) {
      for (const DeviceId d : s.participants.row(id)) {
        check(d >= 0 && d < devices, "finalize: collective participant out of range");
      }
    }
  }
  build_adjacency();
  build_resources();

  // Memory targets: where each node's output lives while it is live.
  const auto n = static_cast<size_t>(node_count());
  s.mem.off.resize(n + 1);
  s.mem.dat.clear();
  s.mem.dat.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    s.mem.off[v] = static_cast<int32_t>(s.mem.dat.size());
    if (s.output_bytes[v] <= 0) continue;
    switch (s.kind[v]) {
      case NodeKind::kCompute:
        s.mem.dat.push_back(s.device[v]);
        break;
      case NodeKind::kTransfer:
        s.mem.dat.push_back(s.link_to[v]);
        break;
      case NodeKind::kCollective: {
        const auto row = s.participants.row(static_cast<int32_t>(v));
        s.mem.dat.insert(s.mem.dat.end(), row.begin(), row.end());
        break;
      }
    }
  }
  s.mem.off[n] = static_cast<int32_t>(s.mem.dat.size());
  s.finalized = true;
}

void DistGraph::build_adjacency() {
  Structure& s = *s_;
  const auto n = static_cast<size_t>(node_count());
  const auto& edges = s.edges;
  const size_t m = edges.size();

  // Edge ids grouped by source, each group in insertion order.
  std::vector<int32_t> source_off(n + 1, 0);
  for (const auto& [from, to] : edges) ++source_off[static_cast<size_t>(from) + 1];
  std::partial_sum(source_off.begin(), source_off.end(), source_off.begin());
  std::vector<int32_t> by_source(m);
  std::vector<int32_t> next(source_off.begin(), source_off.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    by_source[static_cast<size_t>(next[static_cast<size_t>(edges[e].first)]++)] =
        static_cast<int32_t>(e);
  }

  // A repeated (from, to) keeps its first occurrence: within a source's
  // group, `last_source` remembers which source last reached each target.
  std::vector<uint8_t> kept(m, 0);
  std::vector<int32_t> last_source(n, -1);
  s.succ.off.resize(n + 1);
  s.succ.dat.clear();
  s.succ.dat.reserve(m);
  for (size_t u = 0; u < n; ++u) {
    s.succ.off[u] = static_cast<int32_t>(s.succ.dat.size());
    for (int32_t k = source_off[u]; k < source_off[u + 1]; ++k) {
      const auto e = static_cast<size_t>(by_source[static_cast<size_t>(k)]);
      const DistNodeId to = edges[e].second;
      auto& last = last_source[static_cast<size_t>(to)];
      if (last == static_cast<int32_t>(u)) continue;
      last = static_cast<int32_t>(u);
      kept[e] = 1;
      s.succ.dat.push_back(to);
    }
  }
  s.succ.off[n] = static_cast<int32_t>(s.succ.dat.size());

  // Predecessors: the kept edges in insertion order, grouped by target.
  s.pred.off.assign(n + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    if (kept[e]) ++s.pred.off[static_cast<size_t>(edges[e].second) + 1];
  }
  std::partial_sum(s.pred.off.begin(), s.pred.off.end(), s.pred.off.begin());
  s.pred.dat.resize(s.succ.dat.size());
  next.assign(s.pred.off.begin(), s.pred.off.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    if (!kept[e]) continue;
    s.pred.dat[static_cast<size_t>(next[static_cast<size_t>(edges[e].second)]++)] =
        edges[e].first;
  }
  std::vector<std::pair<DistNodeId, DistNodeId>>().swap(s.edges);
}

void DistGraph::build_resources() {
  Structure& s = *s_;
  const auto n = static_cast<size_t>(node_count());
  ResourceNumbering numbering;
  s.res.off.resize(n + 1);
  s.res.dat.clear();
  s.res.dat.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    s.res.off[v] = static_cast<int32_t>(s.res.dat.size());
    int ids[3];
    const int count =
        s.resources.occupied(s.kind[v], s.device[v], s.link_from[v], s.link_to[v], ids);
    for (int k = 0; k < count; ++k) s.res.dat.push_back(numbering.slot(ids[k]));
  }
  s.res.off[n] = static_cast<int32_t>(s.res.dat.size());

  // Dense ids follow ascending ResourceModel order, so the simulator visits
  // resources in the reference simulator's order.
  const std::vector<int32_t>& touched = numbering.ids();
  std::vector<int32_t> by_id(touched.size());
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [&](int32_t a, int32_t b) {
    return touched[static_cast<size_t>(a)] < touched[static_cast<size_t>(b)];
  });
  std::vector<int32_t> dense_of_slot(touched.size());
  s.used_resources.resize(touched.size());
  for (size_t rank = 0; rank < by_id.size(); ++rank) {
    const auto slot = static_cast<size_t>(by_id[rank]);
    dense_of_slot[slot] = static_cast<int32_t>(rank);
    s.used_resources[rank] = touched[slot];
  }
  for (int32_t& r : s.res.dat) r = dense_of_slot[static_cast<size_t>(r)];
  s.queue_res.resize(n);
  for (size_t v = 0; v < n; ++v) {
    s.queue_res[v] = s.res.dat[static_cast<size_t>(s.res.off[v])];
  }
}

bool DistGraph::kahn_order(std::vector<DistNodeId>& order) const {
  const Csr& succ = successor_rows();
  const Csr& pred = predecessor_rows();
  const auto n = static_cast<size_t>(node_count());
  std::vector<int32_t> in_degree(n);
  for (size_t v = 0; v < n; ++v) in_degree[v] = pred.off[v + 1] - pred.off[v];
  // A FIFO queue of ready nodes: `order` itself, read from `head`.
  order.clear();
  order.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) order.push_back(static_cast<DistNodeId>(v));
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (const DistNodeId t : succ.row(order[head])) {
      if (--in_degree[static_cast<size_t>(t)] == 0) order.push_back(t);
    }
  }
  return order.size() == n;
}

std::vector<DistNodeId> DistGraph::topological_order() const {
  std::vector<DistNodeId> order;
  check(kahn_order(order), "DistGraph has a cycle");
  return order;
}

bool DistGraph::validate(std::string* error) const {
  std::vector<DistNodeId> order;
  if (kahn_order(order)) return true;
  if (error) *error = "dist graph has a cycle";
  return false;
}

double DistGraph::total_communication_ms() const {
  double total = 0.0;
  for (size_t v = 0; v < duration_.size(); ++v) {
    if (s_->kind[v] != NodeKind::kCompute) total += duration_[v];
  }
  return total;
}

}  // namespace heterog::compile
