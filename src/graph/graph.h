// The single-GPU training DAG (the Graph Analyzer's output in the paper).
#pragma once

#include <string>
#include <vector>

#include "graph/op.h"

namespace heterog::graph {

/// A directed acyclic computation graph with a global batch size.
///
/// Node ids are dense [0, op_count). Edges carry the producer's output
/// tensor; the tensor size is derived from the producer op and the batch.
class GraphDef {
 public:
  GraphDef() = default;
  GraphDef(std::string name, double global_batch)
      : name_(std::move(name)), global_batch_(global_batch) {}

  /// Adds an op; fills in its id and returns it.
  OpId add_op(OpDef op);

  /// Adds edge producer -> consumer. Duplicate edges are ignored.
  void add_edge(OpId producer, OpId consumer);

  const std::string& name() const { return name_; }
  double global_batch() const { return global_batch_; }

  int op_count() const { return static_cast<int>(ops_.size()); }
  const OpDef& op(OpId id) const;
  OpDef& mutable_op(OpId id);
  const std::vector<OpDef>& ops() const { return ops_; }

  const std::vector<OpId>& successors(OpId id) const;
  const std::vector<OpId>& predecessors(OpId id) const;

  bool has_edge(OpId producer, OpId consumer) const;
  int edge_count() const { return edge_count_; }

  /// Topological order; throws CheckError if the graph has a cycle.
  std::vector<OpId> topological_order() const;

  /// True iff the graph is acyclic and all edges reference valid ops.
  bool validate(std::string* error = nullptr) const;

  /// Total parameter bytes over all ops.
  int64_t total_param_bytes() const;

  /// Total forward+backward flops at the graph's global batch.
  double total_flops() const;

  /// Undirected hop distances from a set of source nodes (multi-source BFS).
  /// Returns for every node the index (into `sources`) of the nearest source
  /// and its hop distance; used by the paper's nearest-neighbour grouping.
  struct NearestSource {
    int source_index = -1;
    int hops = -1;
  };
  std::vector<NearestSource> nearest_sources(const std::vector<OpId>& sources) const;

 private:
  std::string name_;
  double global_batch_ = 1.0;
  std::vector<OpDef> ops_;
  std::vector<std::vector<OpId>> succ_;
  std::vector<std::vector<OpId>> pred_;
  int edge_count_ = 0;
};

}  // namespace heterog::graph
