// Synthetic hardware ground truth.
//
// Substitution for the real testbed (see DESIGN.md): the paper profiles op
// kernel times with TensorFlow's tracer on real GPUs; we generate them from
// a parametric model calibrated to the paper's published heterogeneity
// measurements (Fig. 3(b)): the V100 / 1080Ti speed-up varies by op type
// from ~1.1 to ~1.9 and additionally varies with input size (small kernels
// under-utilise the faster GPU).
//
// This model plays the role of "the cluster": the Profiler takes noisy
// measurements from it, and a ground-truth simulation evaluates final plans
// against it.
#pragma once

#include "cluster/cluster.h"
#include "graph/op.h"

namespace heterog::profiler {

/// Ground-truth cost oracle for a given cluster.
class HardwareModel {
 public:
  explicit HardwareModel(const cluster::ClusterSpec& cluster) : cluster_(&cluster) {}

  /// Execution time of `op` processing `batch` samples on device `dev`.
  double op_time_ms(const graph::OpDef& op, double batch, cluster::DeviceId dev) const;

  /// Time to move `bytes` over the (from -> to) link.
  double transfer_time_ms(int64_t bytes, cluster::DeviceId from,
                          cluster::DeviceId to) const;

  const cluster::ClusterSpec& cluster() const { return *cluster_; }

 private:
  const cluster::ClusterSpec* cluster_;
};

}  // namespace heterog::profiler
