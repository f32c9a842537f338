// Graph Compiler (paper Sec. 3.4 / Sec. 5): applies Part-I decisions to the
// single-GPU training DAG and emits the distributed execution graph.
//
//   * Operation replication — DP ops are copied once per assigned device
//     slot, each replica processing an even share of the global batch; ops
//     whose output lacks the batch dimension are not replicated.
//   * Split/Concat insertion — when adjacent ops have mismatched replica
//     distributions, a Concat on the producer's primary device gathers the
//     replica outputs and a Split redistributes them (Fig. 7).
//   * Gradient aggregation — parameter gradients of replicated ops are
//     synchronised via PS (push / aggregate / apply / pull; the PS device is
//     the replica device minimising aggregation completion time) or via an
//     NCCL-style collective (ring or hierarchical, whichever is faster).
//   * Cross-device tensors become transfer nodes occupying link resources.
#pragma once

#include <vector>

#include "compile/dist_graph.h"
#include "profiler/cost_provider.h"
#include "strategy/strategy.h"

namespace heterog::compile {

struct CompileStats {
  int compute_replicas = 0;
  int transfers = 0;
  int collectives = 0;
  int splits = 0;
  int concats = 0;
  int ps_aggregations = 0;
  int local_aggregations = 0;
};

struct CompileResult {
  DistGraph graph;
  CompileStats stats;
  /// For every base op, the dist nodes realising it (replicas; empty for
  /// apply ops of PS groups realised on the PS device only).
  std::vector<std::vector<DistNodeId>> nodes_of_op;

  explicit CompileResult(const cluster::ClusterSpec& cluster) : graph(cluster) {}
};

struct CompilerOptions {
  /// Gradient-fusion threshold for AllReduce: parameter gradients sharing a
  /// device set are fused into collectives of up to this many bytes, in
  /// backward-completion order (Horovod-style tensor fusion). The default is
  /// 0 — one collective per gradient tensor — because that is what the
  /// paper's Graph Compiler emits ("we add collective NCCL primitive
  /// operations into the training graph"); per-tensor collectives on the
  /// serialised NCCL channel are exactly why its hybrid PS/AllReduce plans
  /// pay off. The Horovod baseline (and the fusion ablation) set this to
  /// 64 MB.
  int64_t allreduce_fusion_bytes = 0;
  /// Per-transfer RPC overhead of the parameter-server path (gRPC-style
  /// stack on push/pull; NCCL avoids it via fused kernels).
  double ps_rpc_overhead_ms = 1.0;
  /// Force every PS group onto this device (-1 = pick the completion-time
  /// minimiser per group, the paper's default). Used to study PS placement
  /// (Fig. 2(a): colocate the PS with the slowest worker).
  int forced_ps_device = -1;
  /// Emit human-readable node names ("conv1/r3", "fc/allreduce", ...) into
  /// the graph's side table of names. Nothing downstream of the simulator
  /// reads them, so the search hot loop (sim::evaluate_plan) disables them
  /// to skip the per-node string construction. Structure, durations and
  /// edge order are identical either way; traces and deployment tooling
  /// compile with names on.
  bool emit_node_names = true;
  /// Run DistGraph::validate over the compiled graph (an O(V+E) internal
  /// consistency assert; it never alters the output). The search hot loop
  /// disables it — at 1000 GPUs the pass costs real milliseconds per
  /// candidate — while every other caller keeps the safety net.
  bool validate_output = true;
};

/// Thread-safety: compile() only reads costs_/options_ and builds its output
/// locally, and CostProvider implementations are immutable after
/// construction — concurrent compiles (rl::EvalEngine's worker pool) are
/// safe without external locking.
class GraphCompiler {
 public:
  explicit GraphCompiler(const profiler::CostProvider& costs) : costs_(&costs) {}
  GraphCompiler(const profiler::CostProvider& costs, CompilerOptions options)
      : costs_(&costs), options_(options) {}

  const CompilerOptions& options() const { return options_; }

  /// Compiles `graph` under the given grouping + strategy. The graph must be
  /// a training graph (build_training_graph output): every parameter op has
  /// exactly one grad op (grad_of) and one apply op.
  CompileResult compile(const graph::GraphDef& graph, const strategy::Grouping& grouping,
                        const strategy::StrategyMap& strategy) const;

  /// Replica device slots for an op under an action: (device, batch) pairs.
  /// Exposed for tests; deterministic in (op, action, cluster).
  std::vector<std::pair<cluster::DeviceId, double>> placement_slots(
      const graph::OpDef& op, const strategy::Action& action, double global_batch) const;

 private:
  const profiler::CostProvider* costs_;
  CompilerOptions options_;
};

}  // namespace heterog::compile
