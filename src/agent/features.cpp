#include "agent/features.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/check.h"

namespace heterog::agent {

int feature_dim(int device_count) { return device_count + 8; }

EncodedGraph encode_graph(const graph::GraphDef& graph,
                          const profiler::CostProvider& costs, int max_groups) {
  const auto& cluster = costs.cluster();
  const int m = cluster.device_count();
  const int n = graph.op_count();
  const int dim = feature_dim(m);

  EncodedGraph encoded;
  encoded.graph = &graph;
  encoded.features = nn::Matrix(n, dim);
  encoded.grouping = strategy::Grouping::build(graph, costs, max_groups);

  // Mean transfer bandwidth proxy: average over all ordered pairs of the
  // time to ship this op's output. The mean depends on the output size
  // alone, so each distinct size is averaged once (a model has a few dozen).
  std::unordered_map<int64_t, double> mean_transfer_ms;
  for (graph::OpId id = 0; id < n; ++id) {
    const auto& op = graph.op(id);
    int col = 0;
    for (const auto& dev : cluster.devices()) {
      encoded.features.at(id, col++) =
          std::log1p(costs.op_time_ms(op, graph.global_batch(), dev.id));
    }
    const int64_t out_bytes = op.out_bytes(graph.global_batch());
    const auto [mean, fresh] = mean_transfer_ms.try_emplace(out_bytes, 0.0);
    if (fresh) {
      double transfer_total = 0.0;
      int pairs = 0;
      for (const auto& a : cluster.devices()) {
        for (const auto& b : cluster.devices()) {
          if (a.id == b.id) continue;
          transfer_total += costs.transfer_time_ms(out_bytes, a.id, b.id);
          ++pairs;
        }
      }
      mean->second = transfer_total / std::max(pairs, 1);
    }
    encoded.features.at(id, col++) = std::log1p(mean->second);
    encoded.features.at(id, col++) = std::log1p(static_cast<double>(out_bytes));
    encoded.features.at(id, col++) = std::log1p(static_cast<double>(op.param_bytes));
    encoded.features.at(id, col++) = op.batch_divisible ? 1.0 : 0.0;
    encoded.features.at(id, col++) = graph::is_compute_intensive(op.kind) ? 1.0 : 0.0;
    encoded.features.at(id, col++) = op.role == graph::OpRole::kForward ? 1.0 : 0.0;
    encoded.features.at(id, col++) = op.role == graph::OpRole::kBackward ? 1.0 : 0.0;
    encoded.features.at(id, col++) = op.role == graph::OpRole::kApply ? 1.0 : 0.0;
    check(col == dim, "encode_graph: feature width mismatch");
  }

  // Column normalisation to [0, 1] (max-abs), keeping flags intact.
  for (int c = 0; c < dim; ++c) {
    double max_abs = 0.0;
    for (int r = 0; r < n; ++r) {
      max_abs = std::max(max_abs, std::abs(encoded.features.at(r, c)));
    }
    if (max_abs > 1.0) {
      for (int r = 0; r < n; ++r) encoded.features.at(r, c) /= max_abs;
    }
  }

  // Edge list: both directions plus self loops (paper: N_o includes o).
  encoded.edge_src.reserve(static_cast<size_t>(graph.edge_count()) * 2 + n);
  encoded.edge_dst.reserve(encoded.edge_src.capacity());
  for (graph::OpId id = 0; id < n; ++id) {
    for (graph::OpId s : graph.successors(id)) {
      encoded.edge_src.push_back(id);
      encoded.edge_dst.push_back(s);
      encoded.edge_src.push_back(s);
      encoded.edge_dst.push_back(id);
    }
    encoded.edge_src.push_back(id);
    encoded.edge_dst.push_back(id);
  }
  return encoded;
}

}  // namespace heterog::agent
