#include "compile/compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>

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

/// One replica: the device it runs on and the batch share it processes.
struct Slot {
  DeviceId device = -1;
  double batch = 0.0;
};

/// The replica slots of every op sharing one placement key, and what the
/// passes derive from them; computed once per compile and key.
struct Layout {
  /// CompilerPass::slots_[begin, begin + count), in replica order. The same
  /// range of CompilerPass::by_device_ holds the replica indices
  /// stable-sorted by device.
  int32_t begin = 0;
  int32_t count = 0;
  /// The device used for Concat/Split staging: the one carrying the largest
  /// batch share (fastest device under proportional replication).
  DeviceId primary = -1;
};

/// Builder-side view of where one base op runs: its layout, and the node of
/// its first replica (place_ops appends an op's replicas consecutively, so
/// replica r is node first + r). Apply ops, realised by the gradient pass,
/// have no replicas here: first is -1.
struct OpPlacement {
  int32_t layout = -1;
  DistNodeId first = -1;
};

/// (source node, device) -> the transfer that copied the node's output
/// there. Open addressing with linear probing; only probed, never iterated,
/// so its layout cannot reach node order.
class TransferCache {
 public:
  /// The cached transfer, or -1.
  DistNodeId find(uint64_t key) const {
    if (table_.empty()) return -1;
    for (size_t i = home(key);; i = (i + 1) & (table_.size() - 1)) {
      if (table_[i].second < 0) return -1;
      if (table_[i].first == key) return table_[i].second;
    }
  }
  /// Caches a transfer for a key find() missed.
  void insert(uint64_t key, DistNodeId transfer) {
    if (2 * (size_ + 1) > table_.size()) grow();
    size_t i = home(key);
    while (table_[i].second >= 0) i = (i + 1) & (table_.size() - 1);
    table_[i] = {key, transfer};
    ++size_;
  }

 private:
  size_t home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }
  void grow() {
    bits_ = std::max(bits_ + 1, 6);
    std::vector<std::pair<uint64_t, DistNodeId>> old(size_t{1} << bits_, {0, -1});
    old.swap(table_);
    for (const auto& [key, transfer] : old) {
      if (transfer < 0) continue;
      size_t i = home(key);
      while (table_[i].second >= 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = {key, transfer};
    }
  }

  int bits_ = 0;
  size_t size_ = 0;
  std::vector<std::pair<uint64_t, DistNodeId>> table_;  // transfer -1 when empty
};

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
        result_(cluster_),
        layout_of_key_(static_cast<size_t>(cluster_.device_count()) + 4, -1),
        ps_bytes_per_host_(static_cast<size_t>(cluster_.host_count()), 0.0) {
    structural_op_.role = OpRole::kForward;
    structural_op_.batch_divisible = false;
  }

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

  // -- Layouts ----------------------------------------------------------------

  /// The layout of `op` under `action`, made on first use. placement_slots
  /// reads is_mp plus mp_device (MP) or replication (DP), and the op's
  /// batch_divisible, so those are the key.
  int32_t layout_of(const OpDef& op, const Action& action) {
    const int devices = cluster_.device_count();
    size_t key = 0;
    if (action.is_mp) {
      check(action.mp_device >= 0 && action.mp_device < devices,
            "compile: MP device out of range");
      key = static_cast<size_t>(action.mp_device);
    } else {
      const bool proportional = action.replication == strategy::ReplicationMode::kProportional;
      key = static_cast<size_t>(devices) + (proportional ? 2 : 0) + (op.batch_divisible ? 1 : 0);
    }
    int32_t& index = layout_of_key_[key];
    if (index < 0) index = make_layout(op, action);
    return index;
  }

  int32_t make_layout(const OpDef& op, const Action& action) {
    Layout layout;
    layout.begin = static_cast<int32_t>(slots_.size());
    for (const auto& [device, batch] :
         compiler_.placement_slots(op, action, graph_.global_batch())) {
      slots_.push_back({device, batch});
    }
    layout.count = static_cast<int32_t>(slots_.size()) - layout.begin;
    by_device_.resize(slots_.size());
    const Slot* slots = slots_.data() + layout.begin;
    const auto order = by_device_.begin() + layout.begin;
    std::iota(order, by_device_.end(), 0);
    std::stable_sort(order, by_device_.end(), [&](int32_t a, int32_t b) {
      return slots[a].device < slots[b].device;
    });
    // Each device's share summed in replica order, devices ascending.
    layout.primary = slots[0].device;
    double best_key = -1.0;
    for_each_device(layout, [&](DeviceId device, std::span<const int32_t> replicas) {
      double share = 0.0;
      for (const int32_t r : replicas) share += slots[r].batch;
      const double key = share * 1e6 + cluster_.device(device).gflops_per_ms;
      if (key > best_key) {
        best_key = key;
        layout.primary = device;
      }
    });
    layouts_.push_back(layout);
    return static_cast<int32_t>(layouts_.size()) - 1;
  }

  /// Calls `visit(device, replicas)` for each device of `layout` in
  /// ascending order, with its replica indices in replica order.
  template <typename Visit>
  void for_each_device(const Layout& layout, Visit visit) const {
    const Slot* slots = slots_.data() + layout.begin;
    const int32_t* order = by_device_.data() + layout.begin;
    for (int32_t i = 0; i < layout.count;) {
      const DeviceId device = slots[order[i]].device;
      int32_t j = i + 1;
      while (j < layout.count && slots[order[j]].device == device) ++j;
      visit(device, std::span<const int32_t>(order + i, order + j));
      i = j;
    }
  }

  std::span<const Slot> slots_of(const OpPlacement& p) const {
    const Layout& layout = layouts_[static_cast<size_t>(p.layout)];
    return {slots_.data() + layout.begin, static_cast<size_t>(layout.count)};
  }

  bool aligned(const OpPlacement& a, const OpPlacement& b) const {
    if (a.layout == b.layout) return true;
    const auto sa = slots_of(a);
    const auto sb = slots_of(b);
    if (sa.size() != sb.size()) return false;
    for (size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].device != sb[i].device) return false;
      if (std::abs(sa[i].batch - sb[i].batch) > 1e-9) return false;
    }
    return true;
  }

  // -- Nodes ------------------------------------------------------------------

  DistNodeId add_transfer(std::string name, int64_t bytes, DeviceId from, DeviceId to,
                          double overhead_ms = 0.0) {
    check(from != to, "add_transfer: same device");
    NodeFields n;
    n.kind = NodeKind::kTransfer;
    n.link_from = from;
    n.link_to = to;
    n.output_bytes = bytes;
    n.duration_ms = costs_.transfer_time_ms(bytes, from, to) + overhead_ms;
    n.op_kind = OpKind::kIdentity;
    ++result_.stats.transfers;
    return result_.graph.append_node(n, std::move(name));
  }

  /// Synthesised structural op (Split / Concat / aggregation add): a single
  /// memory-bound pass over `bytes`, priced through one reused OpDef.
  DistNodeId add_structural(OpKind kind, std::string name, int64_t bytes, DeviceId device) {
    structural_op_.kind = kind;
    structural_op_.flops_fixed = static_cast<double>(bytes) / 4.0;
    structural_op_.out_bytes_fixed = bytes;
    NodeFields n;
    n.device = device;
    n.output_bytes = bytes;
    n.duration_ms = costs_.op_time_ms(structural_op_, 0.0, device);
    n.op_kind = kind;
    if (kind == OpKind::kSplit) ++result_.stats.splits;
    if (kind == OpKind::kConcat) ++result_.stats.concats;
    return result_.graph.append_node(n, std::move(name));
  }

  /// Ensures a copy of `source_node`'s output is available on `device`;
  /// returns the node the consumer should depend on.
  DistNodeId materialize_on(DistNodeId source_node, int64_t bytes, DeviceId source_dev,
                            DeviceId device, std::string name) {
    if (source_dev == device) return source_node;
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(source_node)) << 32) |
                         static_cast<uint32_t>(device);
    if (const DistNodeId cached = transfer_cache_.find(key); cached >= 0) return cached;
    const DistNodeId t = add_transfer(std::move(name), bytes, source_dev, device);
    result_.graph.add_edge(source_node, t);
    transfer_cache_.insert(key, t);
    return t;
  }

  // Pass 1: create compute replicas for every base op except apply ops
  // (those are created by the gradient-aggregation pass).
  void place_ops() {
    placements_.resize(static_cast<size_t>(graph_.op_count()));
    for (OpId id = 0; id < graph_.op_count(); ++id) {
      const OpDef& op = graph_.op(id);
      OpPlacement& placement = placements_[static_cast<size_t>(id)];
      placement.layout = layout_of(op, strategy_.action_for(grouping_, id));
      if (op.role == OpRole::kApply) continue;  // realised by GA pass

      const auto slots = slots_of(placement);
      placement.first = result_.graph.node_count();
      NodeFields n;
      n.origin = id;
      n.op_kind = op.kind;
      n.role = op.role;
      for (size_t r = 0; r < slots.size(); ++r) {
        n.device = slots[r].device;
        n.duration_ms = costs_.op_time_ms(op, slots[r].batch, n.device);
        n.output_bytes = op.out_bytes(slots[r].batch);
        n.replica_index = static_cast<int>(r);
        result_.graph.append_node(n, slots.size() > 1
                                         ? node_name(op.name, "/r", static_cast<int64_t>(r))
                                         : node_name(op.name));
      }
      result_.stats.compute_replicas += static_cast<int>(slots.size());
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
    const OpPlacement& pu = placements_[static_cast<size_t>(u)];
    const OpPlacement& pv = placements_[static_cast<size_t>(v)];
    const auto su = slots_of(pu);
    const auto sv = slots_of(pv);
    DistGraph& g = result_.graph;

    if (aligned(pu, pv)) {
      for (int32_t i = 0; i < static_cast<int32_t>(su.size()); ++i) {
        g.add_edge(pu.first + i, pv.first + i);
      }
      return;
    }

    if (su.size() == 1) {
      const DistNodeId src = pu.first;
      const DeviceId src_dev = su.front().device;
      if (sv.size() == 1) {
        const DistNodeId feed = materialize_on(src, g.output_bytes(src), src_dev,
                                               sv.front().device, node_name(u_op.name, "/send"));
        g.add_edge(feed, pv.first);
        return;
      }
      // Single producer, replicated consumer.
      if (u_op.batch_divisible) {
        // Output carries the batch dimension: Split then scatter shards.
        const DistNodeId split = add_structural(OpKind::kSplit, node_name(u_op.name, "/split"),
                                                g.output_bytes(src), src_dev);
        g.add_edge(src, split);
        for (int32_t i = 0; i < static_cast<int32_t>(sv.size()); ++i) {
          const Slot& dst = sv[static_cast<size_t>(i)];
          if (dst.device == src_dev) {
            g.add_edge(split, pv.first + i);
          } else {
            const DistNodeId t = add_transfer(node_name(u_op.name, "/shard"),
                                              u_op.out_bytes(dst.batch), src_dev, dst.device);
            g.add_edge(split, t);
            g.add_edge(t, pv.first + i);
          }
        }
      } else {
        // Batch-independent tensor: broadcast the full payload per device.
        for (int32_t i = 0; i < static_cast<int32_t>(sv.size()); ++i) {
          const DistNodeId feed =
              materialize_on(src, g.output_bytes(src), src_dev, sv[static_cast<size_t>(i)].device,
                             node_name(u_op.name, "/bcast"));
          g.add_edge(feed, pv.first + i);
        }
      }
      return;
    }

    // Replicated producer. Gather replica outputs on the primary device.
    const DeviceId stage = layouts_[static_cast<size_t>(pu.layout)].primary;
    double total_batch = 0.0;
    for (const Slot& s : su) total_batch += s.batch;
    const int64_t full_bytes = u_op.out_bytes(total_batch);
    const DistNodeId concat = add_structural(OpKind::kConcat, node_name(u_op.name, "/concat"),
                                             full_bytes, stage);
    for (int32_t i = 0; i < static_cast<int32_t>(su.size()); ++i) {
      const DistNodeId replica = pu.first + i;
      const DistNodeId feed =
          materialize_on(replica, g.output_bytes(replica), su[static_cast<size_t>(i)].device,
                         stage, node_name(u_op.name, "/gather"));
      g.add_edge(feed, concat);
    }

    if (sv.size() == 1) {
      const DistNodeId feed = materialize_on(concat, full_bytes, stage, sv.front().device,
                                             node_name(u_op.name, "/send"));
      g.add_edge(feed, pv.first);
      return;
    }

    // Replicated consumer with a different distribution: Split and scatter.
    const DistNodeId split =
        add_structural(OpKind::kSplit, node_name(u_op.name, "/resplit"), full_bytes, stage);
    g.add_edge(concat, split);
    for (int32_t i = 0; i < static_cast<int32_t>(sv.size()); ++i) {
      const Slot& dst = sv[static_cast<size_t>(i)];
      if (dst.device == stage) {
        g.add_edge(split, pv.first + i);
      } else {
        const DistNodeId t = add_transfer(node_name(u_op.name, "/shard"),
                                          u_op.out_bytes(dst.batch), stage, dst.device);
        g.add_edge(split, t);
        g.add_edge(t, pv.first + i);
      }
    }
  }

  // -- Gradient aggregation ---------------------------------------------------

  /// Records that `device`'s copy of `apply`'s parameters is up to date
  /// after `node`, replacing an earlier record for the device.
  void set_ready(OpId apply, DeviceId device, DistNodeId node) {
    auto& [begin, end] = ready_range_[static_cast<size_t>(apply)];
    const auto tail = static_cast<int32_t>(ready_.size());
    if (begin < 0) begin = end = tail;
    check(end == tail, "compile: an apply op's refresh points must be recorded together");
    int32_t i = end;
    while (i > begin && ready_[static_cast<size_t>(i - 1)].device > device) --i;
    if (i > begin && ready_[static_cast<size_t>(i - 1)].device == device) {
      ready_[static_cast<size_t>(i - 1)].node = node;
      return;
    }
    ready_.insert(ready_.begin() + i, {device, node});
    ++end;
  }

  DistNodeId add_apply_node(OpId apply, const OpDef& apply_op, DeviceId dev,
                            DistNodeId dep) {
    NodeFields n;
    n.device = dev;
    n.duration_ms = costs_.op_time_ms(apply_op, 0.0, dev);
    n.output_bytes = 0;
    n.origin = apply;
    n.op_kind = apply_op.kind;
    n.role = OpRole::kApply;
    const DistNodeId id =
        result_.graph.append_node(n, node_name(apply_op.name, "@G", static_cast<int64_t>(dev)));
    result_.graph.add_edge(dep, id);
    ++result_.stats.compute_replicas;
    set_ready(apply, dev, id);
    return id;
  }

  /// AllReduce work item collected during the gradient pass; fused into
  /// bucketed collectives afterwards.
  struct ArRequest {
    OpId fw = graph::kInvalidOp;
    OpId grad = graph::kInvalidOp;
    OpId apply = graph::kInvalidOp;
    int64_t bytes = 0;
    /// ar_devices_ / ar_partials_ [begin, begin + count): each participant
    /// and its partial gradient, devices ascending.
    int32_t begin = 0;
    int32_t count = 0;
  };

  std::span<const DeviceId> devices_of(const ArRequest& request) const {
    return {ar_devices_.data() + request.begin, static_cast<size_t>(request.count)};
  }

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
    const auto op_count = static_cast<size_t>(graph_.op_count());
    const auto in_range = [&](OpId id) { return id >= 0 && static_cast<size_t>(id) < op_count; };
    std::vector<OpId> grad_of_fw(op_count, graph::kInvalidOp);
    std::vector<OpId> apply_of_fw(op_count, graph::kInvalidOp);
    for (OpId id = 0; id < graph_.op_count(); ++id) {
      const OpDef& op = graph_.op(id);
      if (in_range(op.grad_of)) grad_of_fw[static_cast<size_t>(op.grad_of)] = id;
      if (op.role == OpRole::kApply) {
        check(op.mirror_of != graph::kInvalidOp, "apply op without mirror");
        if (in_range(op.mirror_of)) apply_of_fw[static_cast<size_t>(op.mirror_of)] = id;
      }
    }
    ready_range_.assign(op_count, {-1, -1});

    DistGraph& g = result_.graph;
    for (OpId fw = 0; fw < graph_.op_count(); ++fw) {
      const OpDef& fw_op = graph_.op(fw);
      if (fw_op.param_bytes <= 0) continue;
      const OpId grad = grad_of_fw[static_cast<size_t>(fw)];
      const OpId apply = apply_of_fw[static_cast<size_t>(fw)];
      check(grad != graph::kInvalidOp, "param op without grad op");
      check(apply != graph::kInvalidOp, "param op without apply op");
      const OpDef& apply_op = graph_.op(apply);
      const OpPlacement& pg = placements_[static_cast<size_t>(grad)];
      const Action& action = strategy_.action_for(grouping_, grad);
      const int64_t bytes = fw_op.param_bytes;

      // Parameters are resident on every device that computes with them,
      // together with the optimiser's slot variable (momentum) of equal size.
      constexpr int64_t kOptimizerSlots = 1;  // SGD-with-momentum
      for_each_device(layouts_[static_cast<size_t>(placements_[static_cast<size_t>(fw)].layout)],
                      [&](DeviceId d, std::span<const int32_t>) {
                        g.add_static_param_bytes(d, bytes * (1 + kOptimizerSlots));
                      });

      // Per-device partial gradient (local aggregation if several replicas
      // of the grad op share a device), devices ascending.
      partial_.clear();
      for_each_device(layouts_[static_cast<size_t>(pg.layout)],
                      [&](DeviceId dev, std::span<const int32_t> replicas) {
                        if (replicas.size() == 1) {
                          partial_.emplace_back(dev, pg.first + replicas.front());
                          return;
                        }
                        const DistNodeId agg = add_structural(
                            OpKind::kAdd, node_name(fw_op.name, "/local_agg"), bytes, dev);
                        for (const int32_t r : replicas) g.add_edge(pg.first + r, agg);
                        partial_.emplace_back(dev, agg);
                        ++result_.stats.local_aggregations;
                      });

      if (partial_.size() == 1) {
        // Single-device parameters (MP or non-replicated): plain apply.
        add_apply_node(apply, apply_op, partial_.front().first, partial_.front().second);
        continue;
      }

      if (action.comm == strategy::CommMethod::kAllReduce) {
        ArRequest request;
        request.fw = fw;
        request.grad = grad;
        request.apply = apply;
        request.bytes = bytes;
        request.begin = static_cast<int32_t>(ar_devices_.size());
        request.count = static_cast<int32_t>(partial_.size());
        for (const auto& [dev, node] : partial_) {
          ar_devices_.push_back(dev);
          ar_partials_.push_back(node);
        }
        ar_requests_.push_back(request);
      } else {
        aggregate_via_ps(fw_op, apply, apply_op, bytes);
      }
    }

    emit_fused_collectives();
  }

  /// PS with host-level pre-aggregation over partial_: gradients of the
  /// devices on one host are first reduced onto a host chief over the
  /// intra-host fabric, the chief pushes once to the PS, and after the update
  /// the chief pulls once and re-broadcasts locally. This halves NIC traffic
  /// versus per-GPU push/pull and mirrors production PS setups.
  void aggregate_via_ps(const OpDef& fw_op, OpId apply, const OpDef& apply_op, int64_t bytes) {
    DistGraph& g = result_.graph;
    const double rpc_ms = compiler_.options().ps_rpc_overhead_ms;

    // 1. Per-host chiefs and host-level partial gradients: the members
    //    stable-sorted by host keep each host's devices ascending.
    members_.clear();
    for (const auto& [dev, node] : partial_) {
      members_.push_back({cluster_.device(dev).host, dev, node});
    }
    std::stable_sort(members_.begin(), members_.end(),
                     [](const Member& a, const Member& b) { return a.host < b.host; });
    hosts_.clear();  // hosts ascending
    for (size_t begin = 0; begin < members_.size();) {
      size_t end = begin + 1;
      while (end < members_.size() && members_[end].host == members_[begin].host) ++end;
      const DeviceId chief = members_[begin].device;
      HostPartial host{members_[begin].host, chief, members_[begin].node, begin, end};
      if (end - begin > 1) {
        host.node =
            add_structural(OpKind::kAdd, node_name(fw_op.name, "/host_agg"), bytes, chief);
        for (size_t i = begin; i < end; ++i) {
          if (members_[i].device == chief) {
            g.add_edge(members_[i].node, host.node);
          } else {
            const DistNodeId t = add_transfer(node_name(fw_op.name, "/local_push"), bytes,
                                              members_[i].device, chief);
            g.add_edge(members_[i].node, t);
            g.add_edge(t, host.node);
          }
        }
        ++result_.stats.local_aggregations;
      }
      hosts_.push_back(host);
      begin = end;
    }

    // 2. PS placement among chiefs: minimise push + pull completion,
    //    including the gradient backlog already routed through the
    //    candidate's host NIC (otherwise every group elects the same
    //    fast host and its links bottleneck — paper Sec. 2.3).
    DeviceId ps = hosts_.front().chief;
    const int forced = compiler_.options().forced_ps_device;
    if (forced >= 0) {
      // Honour the forced device when it holds a replica (its host chief
      // otherwise).
      for (const HostPartial& host : hosts_) {
        if (host.chief == forced) ps = forced;
      }
      if (ps != forced) {
        const int want_host = cluster_.device(forced).host;
        for (const HostPartial& host : hosts_) {
          if (host.host == want_host) ps = host.chief;
        }
      }
    }
    double best = 1e300;
    for (const HostPartial& host : hosts_) {
      if (forced >= 0) break;
      const DeviceId cand = host.chief;
      double push = 0.0, pull = 0.0;
      for (const HostPartial& other : hosts_) {
        if (other.host == host.host) continue;
        push = std::max(push, costs_.transfer_time_ms(bytes, other.chief, cand));
        pull = std::max(pull, costs_.transfer_time_ms(bytes, cand, other.chief));
      }
      const double backlog_ms =
          2.0 * ps_bytes_per_host_[static_cast<size_t>(host.host)] / effective_nic_rate(host.host);
      if (push + pull + backlog_ms < best) {
        best = push + pull + backlog_ms;
        ps = cand;
      }
    }
    const int ps_host = cluster_.device(ps).host;
    ps_bytes_per_host_[static_cast<size_t>(ps_host)] +=
        static_cast<double>(bytes) *
        static_cast<double>(hosts_.size() > 1 ? hosts_.size() - 1 : 1);

    // 3. Chief pushes, PS aggregation, apply.
    const DistNodeId agg = add_structural(OpKind::kAdd, node_name(fw_op.name, "/ps_agg"), bytes, ps);
    ++result_.stats.ps_aggregations;
    for (const HostPartial& host : hosts_) {
      if (host.chief == ps) {
        g.add_edge(host.node, agg);
      } else {
        const DistNodeId push =
            add_transfer(node_name(fw_op.name, "/push"), bytes, host.chief, ps, rpc_ms);
        g.add_edge(host.node, push);
        g.add_edge(push, agg);
      }
    }
    const DistNodeId apply_node = add_apply_node(apply, apply_op, ps, agg);

    // 4. Chiefs pull, then re-broadcast intra-host.
    for (const HostPartial& host : hosts_) {
      DistNodeId chief_ready = apply_node;
      if (host.chief != ps) {
        chief_ready = add_transfer(node_name(fw_op.name, "/pull"), bytes, ps, host.chief, rpc_ms);
        g.add_edge(apply_node, chief_ready);
        set_ready(apply, host.chief, chief_ready);
      }
      for (size_t i = host.begin; i < host.end; ++i) {
        const DeviceId dev = members_[i].device;
        if (dev == host.chief || dev == ps) continue;
        const DistNodeId bcast =
            add_transfer(node_name(fw_op.name, "/local_pull"), bytes, host.chief, dev);
        g.add_edge(chief_ready, bcast);
        set_ready(apply, dev, bcast);
      }
    }
  }

  /// Emits one collective realising the given AllReduce requests, plus the
  /// per-device apply nodes it gates.
  void emit_bucket(std::span<const size_t> members, std::span<const DeviceId> devices) {
    int64_t total = 0;
    for (size_t idx : members) total += ar_requests_[idx].bytes;
    NodeFields coll;
    coll.kind = NodeKind::kCollective;
    coll.output_bytes = total;
    coll.duration_ms = estimate_allreduce(total, devices, costs_).time_ms;
    coll.origin = ar_requests_[members.front()].grad;
    coll.op_kind = OpKind::kAdd;
    coll.role = OpRole::kBackward;
    const DistNodeId coll_id = result_.graph.append_node(
        coll,
        members.size() == 1
            ? node_name(graph_.op(ar_requests_[members.front()].fw).name, "/allreduce")
            : node_name("fused_allreduce[", static_cast<int64_t>(members.size()), "]"),
        devices);
    ++result_.stats.collectives;
    for (size_t idx : members) {
      const ArRequest& request = ar_requests_[idx];
      for (int32_t i = 0; i < request.count; ++i) {
        result_.graph.add_edge(ar_partials_[static_cast<size_t>(request.begin + i)], coll_id);
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
      for (size_t i = 0; i < ar_requests_.size(); ++i) {
        emit_bucket({&i, 1}, devices_of(ar_requests_[i]));
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
      const auto devices = devices_of(request);
      const BucketKey key{phase[static_cast<size_t>(request.grad)],
                          std::vector<DeviceId>(devices.begin(), devices.end())};
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
      const auto [begin, end] = ready_range_[static_cast<size_t>(u)];
      check(begin >= 0, "apply op without param_ready entry");
      const std::span<const Ready> ready(ready_.data() + begin, ready_.data() + end);
      for (OpId v : graph_.successors(u)) {
        const OpPlacement& pv = placements_[static_cast<size_t>(v)];
        if (pv.first < 0) continue;  // apply consumer (not expected)
        const auto slots = slots_of(pv);
        for (int32_t r = 0; r < static_cast<int32_t>(slots.size()); ++r) {
          const DeviceId device = slots[static_cast<size_t>(r)].device;
          const auto dep = std::lower_bound(
              ready.begin(), ready.end(), device,
              [](const Ready& entry, DeviceId d) { return entry.device < d; });
          if (dep != ready.end() && dep->device == device) {
            result_.graph.add_edge(dep->node, pv.first + r);
          } else {
            // Consumer on a device without a parameter copy (placement
            // changed across iterations is not expected, but stay safe):
            // gate on every refresh point, devices ascending.
            for (const Ready& entry : ready) result_.graph.add_edge(entry.node, pv.first + r);
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

  /// Layout index per placement key: MP device d -> d; DP -> D + 2 *
  /// proportional + batch_divisible. -1 until first used.
  std::vector<int32_t> layout_of_key_;
  std::vector<Layout> layouts_;
  std::vector<Slot> slots_;
  std::vector<int32_t> by_device_;
  std::vector<OpPlacement> placements_;
  TransferCache transfer_cache_;
  /// Split, Concat and Add ops are priced through this one op.
  OpDef structural_op_;

  /// Bytes of gradient traffic already routed to each host's PS devices
  /// (load-aware PS placement).
  std::vector<double> ps_bytes_per_host_;
  /// For each apply op: the node on each device after which that device's
  /// parameter copy is up to date (apply itself, or the pull from the PS).
  /// An apply op's entries are ready_[range.first, range.second), devices
  /// ascending; they are recorded together, so the range is the tail while
  /// they are.
  struct Ready {
    DeviceId device;
    DistNodeId node;
  };
  std::vector<Ready> ready_;
  std::vector<std::pair<int32_t, int32_t>> ready_range_;  // by op id; -1 = none

  /// The current parameter's partial gradient per device, devices ascending.
  std::vector<std::pair<DeviceId, DistNodeId>> partial_;
  /// aggregate_via_ps scratch: partial_ grouped by host, and per host its
  /// chief, its host-level partial and its range of members_.
  struct Member {
    int host;
    DeviceId device;
    DistNodeId node;
  };
  struct HostPartial {
    int host;
    DeviceId chief;
    DistNodeId node;
    size_t begin;
    size_t end;
  };
  std::vector<Member> members_;
  std::vector<HostPartial> hosts_;

  /// AllReduce requests awaiting fusion (emit_fused_collectives), and their
  /// participants and partial gradients.
  std::vector<ArRequest> ar_requests_;
  std::vector<DeviceId> ar_devices_;
  std::vector<DistNodeId> ar_partials_;
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
