// Reverse-mode automatic differentiation over Matrix.
//
// A Tape records operations as they execute; Tape::backward replays them in
// reverse, accumulating gradients into every Var with requires_grad. The op
// set is exactly what HeteroG's policy networks need: dense algebra,
// activations, row softmaxes, layer norm, concat/slice, and the
// gather/segment ops that realise sparse graph attention over edge lists.
//
// Every op's gradient is exercised by numerical-difference property tests in
// tests/nn_test.cpp, and every op's value and input gradients are compared
// bitwise with naive reference loops in tests/nn_kernel_test.cpp.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace heterog::nn {

class Tape;

struct VarData {
  Matrix value;
  Matrix grad;  // lazily allocated, same shape as value
  bool requires_grad = false;

  /// Propagates this node's grad into its inputs' grads. Null for leaves.
  std::function<void()> backward;

  /// Keeps input nodes alive and reachable for the reverse sweep.
  std::vector<std::shared_ptr<VarData>> inputs;

  Matrix& ensure_grad() {
    if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
      grad = Matrix::zeros(value.rows(), value.cols());
    }
    return grad;
  }
};

/// Value handle. Cheap to copy; all state lives in the shared VarData.
class Var {
 public:
  Var() = default;
  explicit Var(std::shared_ptr<VarData> data) : data_(std::move(data)) {}

  bool defined() const { return data_ != nullptr; }
  const Matrix& value() const { return data_->value; }
  Matrix& mutable_value() { return data_->value; }
  const Matrix& grad() const { return data_->grad; }
  Matrix& ensure_grad() { return data_->ensure_grad(); }
  bool requires_grad() const { return data_->requires_grad; }
  std::shared_ptr<VarData> data() const { return data_; }

  int rows() const { return data_->value.rows(); }
  int cols() const { return data_->value.cols(); }
  double scalar() const;  // requires 1x1

 private:
  std::shared_ptr<VarData> data_;
};

class Tape {
 public:
  /// Creates a leaf. Parameters pass requires_grad = true.
  Var leaf(Matrix value, bool requires_grad = false);

  // --- dense algebra -----------------------------------------------------
  Var matmul(const Var& a, const Var& b);
  Var add(const Var& a, const Var& b);
  Var subtract(const Var& a, const Var& b);
  /// a [n x d] + row [1 x d] broadcast over rows.
  Var add_row_broadcast(const Var& a, const Var& row);
  Var hadamard(const Var& a, const Var& b);
  Var scale(const Var& a, double factor);
  /// a [n x d] * col [n x 1] broadcast over columns.
  Var mul_col_broadcast(const Var& a, const Var& col);

  // --- activations -------------------------------------------------------
  Var relu(const Var& a);
  Var leaky_relu(const Var& a, double slope = 0.2);
  Var elu(const Var& a);
  Var tanh_act(const Var& a);

  // --- normalisation / softmax -------------------------------------------
  Var softmax_rows(const Var& a);
  Var log_softmax_rows(const Var& a);
  Var layer_norm_rows(const Var& a, const Var& gain, const Var& bias,
                      double epsilon = 1e-5);

  // --- shape ops ----------------------------------------------------------
  Var transpose(const Var& a);
  Var concat_cols(const std::vector<Var>& parts);
  Var slice_cols(const Var& a, int start, int count);

  // --- graph / segment ops ------------------------------------------------
  /// out[i] = a[indices[i]].
  Var gather_rows(const Var& a, const std::vector<int>& indices);
  /// out[s] = sum over rows e with segments[e] == s. segments values in
  /// [0, segment_count).
  Var segment_sum_rows(const Var& a, const std::vector<int>& segments,
                       int segment_count);
  /// out[s] = mean over rows e with segments[e] == s (empty segments -> 0).
  Var segment_mean_rows(const Var& a, const std::vector<int>& segments,
                        int segment_count);
  /// Column-wise softmax within each segment: for every column h and segment
  /// s, out[e,h] = exp(a[e,h]) / sum over e' in s of exp(a[e',h]).
  Var segment_softmax(const Var& a, const std::vector<int>& segments,
                      int segment_count);

  // --- reductions / selections ---------------------------------------------
  Var sum_all(const Var& a);   // 1x1
  Var mean_all(const Var& a);  // 1x1
  /// out[i] = a[i, columns[i]] as an [n x 1] matrix.
  Var pick_per_row(const Var& a, const std::vector<int>& columns);

  /// Back-propagates from a 1x1 loss through every recorded op, once per
  /// tape. As the sweep passes an op it drops the op's links to its inputs
  /// and, when no caller holds the op's Var, the op's value and gradient.
  void backward(const Var& loss);

  /// Number of recorded non-leaf ops (diagnostics).
  size_t op_count() const { return order_.size(); }

 private:
  Var record(Matrix value, std::vector<Var> inputs,
             std::function<void(VarData&)> backward_body);

  std::vector<std::shared_ptr<VarData>> order_;
};

}  // namespace heterog::nn
