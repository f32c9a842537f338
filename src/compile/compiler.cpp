#include "compile/compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

#include "common/check.h"
#include "compile/collective.h"

namespace heterog::compile {

namespace {

using cluster::DeviceId;
using graph::GraphDef;
using graph::OpDef;
using graph::OpId;
using graph::OpKind;
using graph::OpRole;
using strategy::Action;

/// Builder-side view of where one base op runs.
struct OpPlacement {
  struct Slot {
    DeviceId device = -1;
    double batch = 0.0;
    DistNodeId node = -1;
  };
  std::vector<Slot> slots;
  bool replicated() const { return slots.size() > 1; }
  bool aligned_with(const OpPlacement& other) const {
    if (slots.size() != other.slots.size()) return false;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].device != other.slots[i].device) return false;
      if (std::abs(slots[i].batch - other.slots[i].batch) > 1e-9) return false;
    }
    return true;
  }
  std::vector<DeviceId> distinct_devices() const {
    std::set<DeviceId> s;
    for (const auto& slot : slots) s.insert(slot.device);
    return {s.begin(), s.end()};
  }
};

/// The device used for Concat/Split staging: the one carrying the largest
/// batch share (fastest device under proportional replication).
DeviceId primary_device(const OpPlacement& p, const cluster::ClusterSpec& cluster) {
  std::map<DeviceId, double> share;
  for (const auto& slot : p.slots) share[slot.device] += slot.batch;
  DeviceId best = p.slots.front().device;
  double best_key = -1.0;
  for (const auto& [dev, s] : share) {
    const double key = s * 1e6 + cluster.device(dev).gflops_per_ms;
    if (key > best_key) {
      best_key = key;
      best = dev;
    }
  }
  return best;
}

/// Synthesised structural op (Split / Concat / aggregation add): a single
/// memory-bound pass over `bytes`.
OpDef make_structural_op(OpKind kind, const std::string& name, int64_t bytes) {
  OpDef op;
  op.id = graph::kInvalidOp;
  op.name = name;
  op.kind = kind;
  op.role = OpRole::kForward;
  op.flops_fixed = static_cast<double>(bytes) / 4.0;
  op.out_bytes_fixed = bytes;
  op.batch_divisible = false;
  return op;
}

class CompilerPass {
 public:
  CompilerPass(const profiler::CostProvider& costs, const GraphDef& graph,
               const strategy::Grouping& grouping, const strategy::StrategyMap& strategy,
               const GraphCompiler& compiler)
      : costs_(costs),
        cluster_(costs.cluster()),
        graph_(graph),
        grouping_(grouping),
        strategy_(strategy),
        compiler_(compiler),
        names_(compiler.options().emit_node_names),
        result_(cluster_) {}

  CompileResult run() {
    // Rough upper bound: one replica per device per op plus structural nodes.
    result_.graph.reserve_nodes(static_cast<size_t>(graph_.op_count()) *
                                (static_cast<size_t>(cluster_.device_count()) + 2));
    place_ops();
    wire_activation_edges();
    wire_gradient_aggregation();
    wire_parameter_consumers();
    finalize();
    return std::move(result_);
  }

 private:
  static void append_part(std::string& out, const std::string& s) { out += s; }
  static void append_part(std::string& out, const char* s) { out += s; }
  static void append_part(std::string& out, int64_t v) { out += std::to_string(v); }

  /// Builds a node name from the parts — or nothing when names are disabled
  /// (CompilerOptions::emit_node_names): the hot search loop never reads
  /// them, and the string construction is measurable at scale.
  template <typename... Parts>
  std::string node_name(const Parts&... parts) const {
    std::string out;
    if (names_) (append_part(out, parts), ...);
    return out;
  }

  DistNodeId add_transfer(const std::string& name, int64_t bytes, DeviceId from,
                          DeviceId to, double overhead_ms = 0.0) {
    check(from != to, "add_transfer: same device");
    DistNode n;
    n.name = name;
    n.kind = NodeKind::kTransfer;
    n.link_from = from;
    n.link_to = to;
    n.output_bytes = bytes;
    n.duration_ms = costs_.transfer_time_ms(bytes, from, to) + overhead_ms;
    n.op_kind = OpKind::kIdentity;
    ++result_.stats.transfers;
    return result_.graph.add_node(std::move(n));
  }

  DistNodeId add_structural(OpKind kind, const std::string& name, int64_t bytes,
                            DeviceId device) {
    const OpDef op = make_structural_op(kind, name, bytes);
    DistNode n;
    n.name = name;
    n.kind = NodeKind::kCompute;
    n.device = device;
    n.output_bytes = bytes;
    n.duration_ms = costs_.op_time_ms(op, 0.0, device);
    n.op_kind = kind;
    if (kind == OpKind::kSplit) ++result_.stats.splits;
    if (kind == OpKind::kConcat) ++result_.stats.concats;
    return result_.graph.add_node(std::move(n));
  }

  /// Ensures a copy of `producer_slot`'s output is available on `device`;
  /// returns the node the consumer should depend on.
  DistNodeId materialize_on(DistNodeId source_node, int64_t bytes, DeviceId source_dev,
                            DeviceId device, const std::string& name) {
    if (source_dev == device) return source_node;
    // Packed (node, device) key; the cache is only probed, never iterated,
    // so hash order cannot leak into edge-insertion order.
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(source_node)) << 32) |
                         static_cast<uint32_t>(device);
    auto it = transfer_cache_.find(key);
    if (it != transfer_cache_.end()) return it->second;
    const DistNodeId t = add_transfer(name, bytes, source_dev, device);
    result_.graph.add_edge(source_node, t);
    transfer_cache_[key] = t;
    return t;
  }

  // Pass 1: create compute replicas for every base op except apply ops
  // (those are created by the gradient-aggregation pass).
  void place_ops() {
    placements_.resize(static_cast<size_t>(graph_.op_count()));
    result_.nodes_of_op.resize(static_cast<size_t>(graph_.op_count()));
    for (OpId id = 0; id < graph_.op_count(); ++id) {
      const OpDef& op = graph_.op(id);
      const Action& action = strategy_.action_for(grouping_, id);
      auto& placement = placements_[static_cast<size_t>(id)];
      const auto slots = compiler_.placement_slots(op, action, graph_.global_batch());
      placement.slots.reserve(slots.size());
      for (const auto& [dev, batch] : slots) {
        OpPlacement::Slot slot;
        slot.device = dev;
        slot.batch = batch;
        placement.slots.push_back(slot);
      }
      if (op.role == OpRole::kApply) continue;  // realised by GA pass

      for (size_t r = 0; r < placement.slots.size(); ++r) {
        auto& slot = placement.slots[r];
        DistNode n;
        n.name = placement.replicated()
                         ? node_name(op.name, "/r", static_cast<int64_t>(r))
                         : node_name(op.name);
        n.kind = NodeKind::kCompute;
        n.device = slot.device;
        n.duration_ms = costs_.op_time_ms(op, slot.batch, slot.device);
        n.output_bytes = op.out_bytes(slot.batch);
        n.origin = id;
        n.op_kind = op.kind;
        n.role = op.role;
        n.replica_index = static_cast<int>(r);
        slot.node = result_.graph.add_node(std::move(n));
        result_.nodes_of_op[static_cast<size_t>(id)].push_back(slot.node);
        ++result_.stats.compute_replicas;
      }
    }
  }

  // Pass 2: base activation edges. Edges into apply ops are realised by the
  // GA pass; all other edges connect producer replicas to consumer replicas,
  // inserting Concat/Split/transfers as needed.
  void wire_activation_edges() {
    for (OpId u = 0; u < graph_.op_count(); ++u) {
      const OpDef& u_op = graph_.op(u);
      if (u_op.role == OpRole::kApply) continue;
      for (OpId v : graph_.successors(u)) {
        const OpDef& v_op = graph_.op(v);
        if (v_op.role == OpRole::kApply) continue;  // GA pass
        wire_edge(u, v);
      }
    }
  }

  void wire_edge(OpId u, OpId v) {
    const OpDef& u_op = graph_.op(u);
    auto& pu = placements_[static_cast<size_t>(u)];
    auto& pv = placements_[static_cast<size_t>(v)];

    if (pu.aligned_with(pv)) {
      for (size_t i = 0; i < pu.slots.size(); ++i) {
        result_.graph.add_edge(pu.slots[i].node, pv.slots[i].node);
      }
      return;
    }

    if (pu.slots.size() == 1) {
      const auto& src = pu.slots.front();
      if (pv.slots.size() == 1) {
        const auto& dst = pv.slots.front();
        const DistNodeId feed = materialize_on(src.node, result_.graph.output_bytes(src.node),
                                               src.device, dst.device,
                                               node_name(u_op.name, "/send"));
        result_.graph.add_edge(feed, pv.slots.front().node);
        return;
      }
      // Single producer, replicated consumer.
      if (u_op.batch_divisible) {
        // Output carries the batch dimension: Split then scatter shards.
        const DistNodeId split = add_structural(
            OpKind::kSplit, node_name(u_op.name, "/split"), result_.graph.output_bytes(src.node),
            src.device);
        result_.graph.add_edge(src.node, split);
        for (const auto& dst : pv.slots) {
          const int64_t shard = u_op.out_bytes(dst.batch);
          if (dst.device == src.device) {
            result_.graph.add_edge(split, dst.node);
          } else {
            const DistNodeId t =
                add_transfer(node_name(u_op.name, "/shard"), shard, src.device, dst.device);
            result_.graph.add_edge(split, t);
            result_.graph.add_edge(t, dst.node);
          }
        }
      } else {
        // Batch-independent tensor: broadcast the full payload per device.
        for (const auto& dst : pv.slots) {
          const DistNodeId feed =
              materialize_on(src.node, result_.graph.output_bytes(src.node), src.device,
                             dst.device, node_name(u_op.name, "/bcast"));
          if (feed == src.node && dst.device == src.device) {
            result_.graph.add_edge(src.node, dst.node);
          } else {
            result_.graph.add_edge(feed, dst.node);
          }
        }
      }
      return;
    }

    // Replicated producer. Gather replica outputs on the primary device.
    const DeviceId stage = primary_device(pu, cluster_);
    double total_batch = 0.0;
    for (const auto& s : pu.slots) total_batch += s.batch;
    const int64_t full_bytes = u_op.out_bytes(total_batch);
    const DistNodeId concat = add_structural(OpKind::kConcat, node_name(u_op.name, "/concat"),
                                             full_bytes, stage);
    for (const auto& s : pu.slots) {
      const DistNodeId feed = materialize_on(
          s.node, result_.graph.output_bytes(s.node), s.device, stage,
          node_name(u_op.name, "/gather"));
      result_.graph.add_edge(feed, concat);
    }

    if (pv.slots.size() == 1) {
      const auto& dst = pv.slots.front();
      const DistNodeId feed =
          materialize_on(concat, full_bytes, stage, dst.device, node_name(u_op.name, "/send"));
      result_.graph.add_edge(feed, dst.node);
      return;
    }

    // Replicated consumer with a different distribution: Split and scatter.
    const DistNodeId split =
        add_structural(OpKind::kSplit, node_name(u_op.name, "/resplit"), full_bytes, stage);
    result_.graph.add_edge(concat, split);
    for (const auto& dst : pv.slots) {
      const int64_t shard = u_op.out_bytes(dst.batch);
      if (dst.device == stage) {
        result_.graph.add_edge(split, dst.node);
      } else {
        const DistNodeId t = add_transfer(node_name(u_op.name, "/shard"), shard, stage, dst.device);
        result_.graph.add_edge(split, t);
        result_.graph.add_edge(t, dst.node);
      }
    }
  }

  DistNodeId add_apply_node(OpId apply, const OpDef& apply_op, DeviceId dev,
                            DistNodeId dep) {
    DistNode n;
    n.name = node_name(apply_op.name, "@G", static_cast<int64_t>(dev));
    n.kind = NodeKind::kCompute;
    n.device = dev;
    n.duration_ms = costs_.op_time_ms(apply_op, 0.0, dev);
    n.output_bytes = 0;
    n.origin = apply;
    n.op_kind = apply_op.kind;
    n.role = OpRole::kApply;
    const DistNodeId id = result_.graph.add_node(std::move(n));
    result_.graph.add_edge(dep, id);
    result_.nodes_of_op[static_cast<size_t>(apply)].push_back(id);
    ++result_.stats.compute_replicas;
    param_ready_[apply][dev] = id;
    return id;
  }

  /// AllReduce work item collected during the gradient pass; fused into
  /// bucketed collectives afterwards.
  struct ArRequest {
    OpId fw = graph::kInvalidOp;
    OpId grad = graph::kInvalidOp;
    OpId apply = graph::kInvalidOp;
    int64_t bytes = 0;
    std::map<DeviceId, DistNodeId> partial;
    std::vector<DeviceId> devices;
  };

  /// Effective serial ingest rate of a host NIC in our exclusive-resource
  /// model: each transfer runs at the path-min bandwidth, so a fast NIC fed
  /// by slower peers cannot exceed the peers' line rate.
  double effective_nic_rate(int host) const {
    double peer_max = 0.0;
    for (int h = 0; h < cluster_.host_count(); ++h) {
      if (h == host) continue;
      peer_max = std::max(peer_max, cluster_.host(h).nic_gbps);
    }
    const double gbps = std::min({cluster_.host(host).nic_gbps,
                                  peer_max > 0.0 ? peer_max : cluster_.host(host).nic_gbps,
                                  cluster_.switch_gbps()});
    return cluster::gbps_to_bytes_per_ms(gbps);
  }

  // Pass 3: gradient aggregation + apply + static parameter residency.
  void wire_gradient_aggregation() {
    // Index grad and apply ops by the forward op they serve.
    std::unordered_map<OpId, OpId> grad_of_fw, apply_of_fw;  // probed only, never iterated
    for (OpId id = 0; id < graph_.op_count(); ++id) {
      const OpDef& op = graph_.op(id);
      if (op.grad_of != graph::kInvalidOp) grad_of_fw[op.grad_of] = id;
      if (op.role == OpRole::kApply) {
        check(op.mirror_of != graph::kInvalidOp, "apply op without mirror");
        apply_of_fw[op.mirror_of] = id;
      }
    }

    for (OpId fw = 0; fw < graph_.op_count(); ++fw) {
      const OpDef& fw_op = graph_.op(fw);
      if (fw_op.param_bytes <= 0) continue;
      const auto git = grad_of_fw.find(fw);
      const auto ait = apply_of_fw.find(fw);
      check(git != grad_of_fw.end(), "param op without grad op");
      check(ait != apply_of_fw.end(), "param op without apply op");
      const OpId grad = git->second;
      const OpId apply = ait->second;
      const OpDef& apply_op = graph_.op(apply);
      const auto& pg = placements_[static_cast<size_t>(grad)];
      const Action& action = strategy_.action_for(grouping_, grad);
      const int64_t bytes = fw_op.param_bytes;

      // Parameters are resident on every device that computes with them,
      // together with the optimiser's slot variable (momentum) of equal size.
      constexpr int64_t kOptimizerSlots = 1;  // SGD-with-momentum
      for (DeviceId d : placements_[static_cast<size_t>(fw)].distinct_devices()) {
        result_.graph.add_static_param_bytes(d, bytes * (1 + kOptimizerSlots));
      }

      // Per-device partial gradient (local aggregation if several replicas
      // of the grad op share a device).
      std::map<DeviceId, std::vector<DistNodeId>> by_device;
      for (const auto& s : pg.slots) by_device[s.device].push_back(s.node);
      std::map<DeviceId, DistNodeId> partial;
      for (const auto& [dev, nodes] : by_device) {
        if (nodes.size() == 1) {
          partial[dev] = nodes.front();
        } else {
          const DistNodeId agg = add_structural(
              OpKind::kAdd, node_name(fw_op.name, "/local_agg"), bytes, dev);
          for (DistNodeId n : nodes) result_.graph.add_edge(n, agg);
          partial[dev] = agg;
          ++result_.stats.local_aggregations;
        }
      }

      if (partial.size() == 1) {
        // Single-device parameters (MP or non-replicated): plain apply.
        const auto& [dev, node] = *partial.begin();
        add_apply_node(apply, apply_op, dev, node);
        continue;
      }

      std::vector<DeviceId> devices;
      for (const auto& [dev, node] : partial) {
        (void)node;
        devices.push_back(dev);
      }

      if (action.comm == strategy::CommMethod::kAllReduce) {
        ArRequest request;
        request.fw = fw;
        request.grad = grad;
        request.apply = apply;
        request.bytes = bytes;
        request.partial = partial;
        request.devices = devices;
        ar_requests_.push_back(std::move(request));
      } else {
        // PS with host-level pre-aggregation: gradients of the devices on
        // one host are first reduced onto a host chief over the intra-host
        // fabric, the chief pushes once to the PS, and after the update the
        // chief pulls once and re-broadcasts locally. This halves NIC
        // traffic versus per-GPU push/pull and mirrors production PS setups.
        const double rpc_ms = compiler_.options().ps_rpc_overhead_ms;

        // 1. Per-host chiefs and host-level partial gradients.
        std::map<int, std::vector<std::pair<DeviceId, DistNodeId>>> by_host;
        for (const auto& [dev, node] : partial) {
          by_host[cluster_.device(dev).host].emplace_back(dev, node);
        }
        std::map<int, std::pair<DeviceId, DistNodeId>> host_partial;  // chief, node
        for (const auto& [host, members] : by_host) {
          const DeviceId chief = members.front().first;
          if (members.size() == 1) {
            host_partial[host] = {chief, members.front().second};
            continue;
          }
          const DistNodeId agg =
              add_structural(OpKind::kAdd, node_name(fw_op.name, "/host_agg"), bytes, chief);
          for (const auto& [dev, node] : members) {
            if (dev == chief) {
              result_.graph.add_edge(node, agg);
            } else {
              const DistNodeId t =
                  add_transfer(node_name(fw_op.name, "/local_push"), bytes, dev, chief);
              result_.graph.add_edge(node, t);
              result_.graph.add_edge(t, agg);
            }
          }
          ++result_.stats.local_aggregations;
          host_partial[host] = {chief, agg};
        }

        // 2. PS placement among chiefs: minimise push + pull completion,
        //    including the gradient backlog already routed through the
        //    candidate's host NIC (otherwise every group elects the same
        //    fast host and its links bottleneck — paper Sec. 2.3).
        DeviceId ps = host_partial.begin()->second.first;
        const int forced = compiler_.options().forced_ps_device;
        if (forced >= 0) {
          // Honour the forced device when it holds a replica (its host chief
          // otherwise).
          for (const auto& [host, chief_node] : host_partial) {
            (void)host;
            if (chief_node.first == forced) ps = forced;
          }
          if (ps != forced) {
            const int want_host = cluster_.device(forced).host;
            const auto it = host_partial.find(want_host);
            if (it != host_partial.end()) ps = it->second.first;
          }
        }
        double best = 1e300;
        for (const auto& [host, chief_node] : host_partial) {
          if (forced >= 0) break;
          const DeviceId cand = chief_node.first;
          double push = 0.0, pull = 0.0;
          for (const auto& [other_host, other] : host_partial) {
            if (other_host == host) continue;
            push = std::max(push, costs_.transfer_time_ms(bytes, other.first, cand));
            pull = std::max(pull, costs_.transfer_time_ms(bytes, cand, other.first));
          }
          const double backlog_ms =
              2.0 * ps_bytes_per_host_[static_cast<size_t>(host)] / effective_nic_rate(host);
          if (push + pull + backlog_ms < best) {
            best = push + pull + backlog_ms;
            ps = cand;
          }
        }
        const int ps_host = cluster_.device(ps).host;
        ps_bytes_per_host_[static_cast<size_t>(ps_host)] +=
            static_cast<double>(bytes) *
            static_cast<double>(host_partial.size() > 1 ? host_partial.size() - 1 : 1);

        // 3. Chief pushes, PS aggregation, apply.
        const DistNodeId agg =
            add_structural(OpKind::kAdd, node_name(fw_op.name, "/ps_agg"), bytes, ps);
        ++result_.stats.ps_aggregations;
        for (const auto& [host, chief_node] : by_host) {
          const auto& [chief, node] = host_partial[host];
          (void)chief_node;
          if (chief == ps) {
            result_.graph.add_edge(node, agg);
          } else {
            const DistNodeId push =
                add_transfer(node_name(fw_op.name, "/push"), bytes, chief, ps, rpc_ms);
            result_.graph.add_edge(node, push);
            result_.graph.add_edge(push, agg);
          }
        }
        const DistNodeId apply_node = add_apply_node(apply, apply_op, ps, agg);

        // 4. Chiefs pull, then re-broadcast intra-host.
        for (const auto& [host, members] : by_host) {
          const DeviceId chief = host_partial[host].first;
          DistNodeId chief_ready = apply_node;
          if (chief != ps) {
            chief_ready = add_transfer(node_name(fw_op.name, "/pull"), bytes, ps, chief, rpc_ms);
            result_.graph.add_edge(apply_node, chief_ready);
            param_ready_[apply][chief] = chief_ready;
          }
          for (const auto& [dev, node] : members) {
            (void)node;
            if (dev == chief || dev == ps) continue;
            const DistNodeId bcast =
                add_transfer(node_name(fw_op.name, "/local_pull"), bytes, chief, dev);
            result_.graph.add_edge(chief_ready, bcast);
            param_ready_[apply][dev] = bcast;
          }
        }
      }
    }

    emit_fused_collectives();
  }

  /// Emits one collective realising the given AllReduce requests, plus the
  /// per-device apply nodes it gates.
  void emit_bucket(const std::vector<size_t>& members,
                   const std::vector<DeviceId>& devices) {
    int64_t total = 0;
    for (size_t idx : members) total += ar_requests_[idx].bytes;
    DistNode coll;
    coll.name =
        members.size() == 1
            ? node_name(graph_.op(ar_requests_[members.front()].fw).name, "/allreduce")
            : node_name("fused_allreduce[", static_cast<int64_t>(members.size()), "]");
    coll.kind = NodeKind::kCollective;
    coll.participants = devices;
    coll.output_bytes = total;
    coll.duration_ms = estimate_allreduce(total, devices, costs_).time_ms;
    coll.origin = ar_requests_[members.front()].grad;
    coll.op_kind = OpKind::kAdd;
    coll.role = OpRole::kBackward;
    const DistNodeId coll_id = result_.graph.add_node(std::move(coll));
    ++result_.stats.collectives;
    for (size_t idx : members) {
      const ArRequest& request = ar_requests_[idx];
      for (const auto& [dev, node] : request.partial) {
        (void)dev;
        result_.graph.add_edge(node, coll_id);
      }
      const OpDef& apply_op = graph_.op(request.apply);
      for (DeviceId dev : devices) {
        add_apply_node(request.apply, apply_op, dev, coll_id);
      }
    }
  }

  // Emits the collected AllReduce requests as fused collectives: requests
  // sharing a device set are packed, in backward-completion order, into
  // buckets of up to allreduce_fusion_bytes (Horovod-style tensor fusion).
  void emit_fused_collectives() {
    if (ar_requests_.empty()) return;
    std::sort(ar_requests_.begin(), ar_requests_.end(),
              [](const ArRequest& a, const ArRequest& b) { return a.grad < b.grad; });

    const int64_t fusion_limit = compiler_.options().allreduce_fusion_bytes;
    if (fusion_limit <= 0) {
      // Fusion disabled (the default): the bucketed path below would flush
      // every request by itself immediately, so emit directly in backward
      // order — identical output, without the bucket maps or the phase
      // (topological-order) computation their keys need.
      std::vector<size_t> one(1);
      for (size_t i = 0; i < ar_requests_.size(); ++i) {
        one[0] = i;
        emit_bucket(one, ar_requests_[i].devices);
      }
      return;
    }

    // Training-step phase of every op: the number of apply ops on the
    // deepest path above it. Fusing gradients across phases (iterations of
    // an unrolled graph) would close a cycle through the applies, so the
    // phase is part of the bucket key.
    std::vector<int> phase(static_cast<size_t>(graph_.op_count()), 0);
    for (const OpId id : graph_.topological_order()) {
      for (const OpId p : graph_.predecessors(id)) {
        const int contribution =
            phase[static_cast<size_t>(p)] +
            (graph_.op(p).role == OpRole::kApply ? 1 : 0);
        phase[static_cast<size_t>(id)] =
            std::max(phase[static_cast<size_t>(id)], contribution);
      }
    }

    using BucketKey = std::pair<int, std::vector<DeviceId>>;
    std::map<BucketKey, std::vector<size_t>> open_bucket;  // key -> request idx
    std::map<BucketKey, int64_t> open_bytes;

    auto flush = [&](const BucketKey& key) {
      auto& members = open_bucket[key];
      if (members.empty()) return;
      emit_bucket(members, key.second);
      members.clear();
      open_bytes[key] = 0;
    };

    for (size_t i = 0; i < ar_requests_.size(); ++i) {
      const auto& request = ar_requests_[i];
      const BucketKey key{phase[static_cast<size_t>(request.grad)], request.devices};
      auto& bytes_acc = open_bytes[key];
      if (!open_bucket[key].empty() && bytes_acc + request.bytes > fusion_limit) {
        flush(key);
      }
      open_bucket[key].push_back(i);
      bytes_acc += request.bytes;
    }
    std::vector<BucketKey> keys;
    for (const auto& [key, members] : open_bucket) {
      (void)members;
      keys.push_back(key);
    }
    for (const auto& key : keys) flush(key);
  }

  // Pass 4: edges leaving apply ops (only present in unrolled multi-
  // iteration graphs: apply of iteration k gates the mirrored forward op of
  // iteration k+1). Each consumer replica waits for its own device's
  // parameter copy to refresh (the apply itself, or the pull from the PS).
  void wire_parameter_consumers() {
    for (OpId u = 0; u < graph_.op_count(); ++u) {
      if (graph_.op(u).role != OpRole::kApply) continue;
      const auto ready_it = param_ready_.find(u);
      check(ready_it != param_ready_.end(), "apply op without param_ready entry");
      const auto& ready = ready_it->second;
      for (OpId v : graph_.successors(u)) {
        for (const auto& slot : placements_[static_cast<size_t>(v)].slots) {
          if (slot.node < 0) continue;  // apply consumer (not expected)
          const auto dep = ready.find(slot.device);
          if (dep != ready.end()) {
            result_.graph.add_edge(dep->second, slot.node);
          } else {
            // Consumer on a device without a parameter copy (placement
            // changed across iterations is not expected, but stay safe):
            // gate on every refresh point.
            for (const auto& [dev, node] : ready) {
              (void)dev;
              result_.graph.add_edge(node, slot.node);
            }
          }
        }
      }
    }
  }

  void finalize() {
    // Ensure the static-param vector exists even for parameter-free graphs.
    if (result_.graph.static_param_bytes().empty()) {
      result_.graph.add_static_param_bytes(0, 0);
    }
    result_.graph.finalize();
    if (compiler_.options().validate_output) {
      std::string error;
      check_lazy(result_.graph.validate(&error),
                 [&] { return "compiled graph invalid: " + error; });
    }
  }

  const profiler::CostProvider& costs_;
  const cluster::ClusterSpec& cluster_;
  const GraphDef& graph_;
  const strategy::Grouping& grouping_;
  const strategy::StrategyMap& strategy_;
  const GraphCompiler& compiler_;
  const bool names_;  // CompilerOptions::emit_node_names
  CompileResult result_;
  std::unordered_map<uint64_t, DistNodeId> transfer_cache_;
  std::vector<OpPlacement> placements_;
  /// Bytes of gradient traffic already routed to each host's PS devices
  /// (load-aware PS placement).
  std::vector<double> ps_bytes_per_host_ =
      std::vector<double>(static_cast<size_t>(cluster_.host_count()), 0.0);
  /// For each apply op: the node on each device after which that device's
  /// parameter copy is up to date (apply itself, or the pull from the PS).
  std::map<OpId, std::map<DeviceId, DistNodeId>> param_ready_;
  /// AllReduce requests awaiting fusion (emit_fused_collectives).
  std::vector<ArRequest> ar_requests_;
};

}  // namespace

std::vector<std::pair<DeviceId, double>> GraphCompiler::placement_slots(
    const OpDef& op, const Action& action, double global_batch) const {
  const auto& cluster = costs_->cluster();
  std::vector<std::pair<DeviceId, double>> slots;

  if (action.is_mp) {
    slots.emplace_back(action.mp_device, global_batch);
    return slots;
  }

  // Replica counts per device.
  std::vector<int> counts(static_cast<size_t>(cluster.device_count()), 1);
  if (action.replication == strategy::ReplicationMode::kProportional) {
    for (const auto& d : cluster.devices()) {
      counts[static_cast<size_t>(d.id)] =
          std::max(1, static_cast<int>(std::lround(cluster.relative_power(d.id))));
    }
  }

  if (!op.batch_divisible) {
    // Not replicable: a single copy on the device carrying the largest
    // replica count (fastest on ties).
    DeviceId best = 0;
    double best_key = -1.0;
    for (const auto& d : cluster.devices()) {
      const double key = counts[static_cast<size_t>(d.id)] * 1e6 + d.gflops_per_ms;
      if (key > best_key) {
        best_key = key;
        best = d.id;
      }
    }
    slots.emplace_back(best, global_batch);
    return slots;
  }

  int total = 0;
  for (int c : counts) total += c;
  const double share = global_batch / static_cast<double>(total);
  for (const auto& d : cluster.devices()) {
    for (int r = 0; r < counts[static_cast<size_t>(d.id)]; ++r) {
      slots.emplace_back(d.id, share);
    }
  }
  return slots;
}

CompileResult GraphCompiler::compile(const GraphDef& graph,
                                     const strategy::Grouping& grouping,
                                     const strategy::StrategyMap& strategy) const {
  check(static_cast<int>(grouping.assignment().size()) == graph.op_count(),
        "compile: grouping does not match graph");
  check(static_cast<int>(strategy.group_actions.size()) == grouping.group_count(),
        "compile: strategy does not match grouping");
  CompilerPass pass(*costs_, graph, grouping, strategy, *this);
  return pass.run();
}

}  // namespace heterog::compile
