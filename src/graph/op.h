// Operation definitions for the single-GPU training DAG.
//
// Mirrors the paper's Graph Analyzer view of a TensorFlow graphdef: nodes are
// operations (Conv2D, MatMul, ...), edges are tensors. Costs are stored in a
// batch-parameterised form (per-sample + fixed) so that replicas processing a
// fraction of the global batch can be costed exactly, matching the paper's
// linear-regression cost models ("build a linear regression model to predict
// computation time of a specific operation at other batch sizes").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace heterog::graph {

using OpId = int32_t;
inline constexpr OpId kInvalidOp = -1;

/// Operation kinds. The set covers the op mix of the paper's 8 benchmark
/// models plus the structural ops HeteroG's Graph Compiler inserts.
enum class OpKind : uint8_t {
  // Forward compute.
  kConv2D,
  kDepthwiseConv2D,
  kConv1D,
  kMatMul,
  kBatchNorm,
  kLayerNorm,
  kRelu,
  kPool,
  kSoftmax,
  kEmbeddingLookup,
  kAttentionScore,   // QK^T + softmax portion of self-attention
  kAttentionContext, // attention-weighted value aggregation
  kAdd,              // residual adds etc.
  kLoss,
  // Backward compute (paper profiles e.g. Conv2DBpFilter / Conv2DBpInput).
  kConv2DBpFilter,
  kConv2DBpInput,
  kGenericBackward,
  // Optimiser.
  kApplyGradient,
  // Structural ops inserted by the Graph Compiler.
  kSplit,
  kConcat,
  kIdentity,
};

const char* op_kind_name(OpKind kind);

/// Whether ops of this kind are dominated by dense math (used by the
/// synthetic hardware model for device-efficiency factors).
bool is_compute_intensive(OpKind kind);

/// Role of an op within one training iteration.
enum class OpRole : uint8_t {
  kForward,
  kBackward,
  kApply,  // parameter update
};

/// A single operation of the single-GPU training DAG.
///
/// Cost fields are *hardware-independent* workload descriptions; the profiler
/// and cost models translate them into per-device times.
struct OpDef {
  OpId id = kInvalidOp;
  std::string name;
  OpKind kind = OpKind::kIdentity;
  OpRole role = OpRole::kForward;

  // Workload. flops(batch) = flops_per_sample * batch + flops_fixed.
  double flops_per_sample = 0.0;
  double flops_fixed = 0.0;

  // Output tensor size. bytes(batch) = out_bytes_per_sample * batch + fixed.
  int64_t out_bytes_per_sample = 0;
  int64_t out_bytes_fixed = 0;

  /// Parameter bytes owned by this op (weights); 0 for stateless ops.
  int64_t param_bytes = 0;

  /// True when the output carries the batch dimension; only such ops may be
  /// replicated under data parallelism (paper Sec. 5, Operation replication).
  bool batch_divisible = true;

  /// For backward ops that produce the gradient of some forward op's
  /// parameters: the forward op id. kInvalidOp otherwise.
  OpId grad_of = kInvalidOp;

  /// For apply ops: the forward op whose parameters they update; for backward
  /// ops: the mirrored forward op. kInvalidOp otherwise.
  OpId mirror_of = kInvalidOp;

  double flops(double batch) const { return flops_per_sample * batch + flops_fixed; }
  int64_t out_bytes(double batch) const {
    return static_cast<int64_t>(static_cast<double>(out_bytes_per_sample) * batch) +
           out_bytes_fixed;
  }
};

}  // namespace heterog::graph
