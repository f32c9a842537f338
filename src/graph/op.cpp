#include "graph/op.h"

namespace heterog::graph {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2D:
      return "Conv2D";
    case OpKind::kDepthwiseConv2D:
      return "DepthwiseConv2D";
    case OpKind::kConv1D:
      return "Conv1D";
    case OpKind::kMatMul:
      return "MatMul";
    case OpKind::kBatchNorm:
      return "BatchNorm";
    case OpKind::kLayerNorm:
      return "LayerNorm";
    case OpKind::kRelu:
      return "Relu";
    case OpKind::kPool:
      return "Pool";
    case OpKind::kSoftmax:
      return "Softmax";
    case OpKind::kEmbeddingLookup:
      return "EmbeddingLookup";
    case OpKind::kAttentionScore:
      return "AttentionScore";
    case OpKind::kAttentionContext:
      return "AttentionContext";
    case OpKind::kAdd:
      return "Add";
    case OpKind::kLoss:
      return "Loss";
    case OpKind::kConv2DBpFilter:
      return "Conv2DBpFilter";
    case OpKind::kConv2DBpInput:
      return "Conv2DBpInput";
    case OpKind::kGenericBackward:
      return "GenericBackward";
    case OpKind::kApplyGradient:
      return "ApplyGradient";
    case OpKind::kSplit:
      return "Split";
    case OpKind::kConcat:
      return "Concat";
    case OpKind::kIdentity:
      return "Identity";
  }
  return "Unknown";
}

bool is_compute_intensive(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2D:
    case OpKind::kDepthwiseConv2D:
    case OpKind::kConv1D:
    case OpKind::kMatMul:
    case OpKind::kAttentionScore:
    case OpKind::kAttentionContext:
    case OpKind::kConv2DBpFilter:
    case OpKind::kConv2DBpInput:
      return true;
    default:
      return false;
  }
}

}  // namespace heterog::graph
