#include "nn/autograd.h"

#include <algorithm>
#include <cmath>

#include "nn/simd.h"

namespace heterog::nn {

namespace {

/// g += a (elementwise *) b, each product formed before it is added.
void add_product(const Matrix& a, const Matrix& b, Matrix& g) {
  check(a.same_shape(b) && a.same_shape(g), "hadamard: shape mismatch");
  simd::add_product(g.data(), a.data(), b.data(), static_cast<size_t>(g.size()));
}

}  // namespace

double Var::scalar() const {
  check(rows() == 1 && cols() == 1, "Var::scalar: not 1x1");
  return value().at(0, 0);
}

Var Tape::leaf(Matrix value, bool requires_grad) {
  auto data = std::make_shared<VarData>();
  data->value = std::move(value);
  data->requires_grad = requires_grad;
  return Var(std::move(data));
}

Var Tape::record(Matrix value, std::vector<Var> inputs,
                 std::function<void(VarData&)> backward_body) {
  auto data = std::make_shared<VarData>();
  data->value = std::move(value);
  data->requires_grad = false;
  for (const Var& v : inputs) {
    check(v.defined(), "record: undefined input");
    data->inputs.push_back(v.data());
    data->requires_grad = data->requires_grad || v.data()->requires_grad;
  }
  if (data->requires_grad) {
    VarData* raw = data.get();
    data->backward = [raw, body = std::move(backward_body)]() { body(*raw); };
    order_.push_back(data);
  }
  return Var(std::move(data));
}

Var Tape::matmul(const Var& a, const Var& b) {
  Matrix out = nn::matmul(a.value(), b.value());
  return record(std::move(out), {a, b}, [a, b](VarData& node) {
    if (a.data()->requires_grad) {
      matmul_nt_add(node.grad, b.value(), a.data()->ensure_grad());
    }
    if (b.data()->requires_grad) {
      matmul_tn_add(a.value(), node.grad, b.data()->ensure_grad());
    }
  });
}

Var Tape::add(const Var& a, const Var& b) {
  return record(nn::add(a.value(), b.value()), {a, b}, [a, b](VarData& node) {
    if (a.data()->requires_grad) a.data()->ensure_grad().add_in_place(node.grad);
    if (b.data()->requires_grad) b.data()->ensure_grad().add_in_place(node.grad);
  });
}

Var Tape::subtract(const Var& a, const Var& b) {
  return record(nn::subtract(a.value(), b.value()), {a, b}, [a, b](VarData& node) {
    if (a.data()->requires_grad) a.data()->ensure_grad().add_in_place(node.grad);
    if (b.data()->requires_grad) {
      b.data()->ensure_grad().add_scaled_in_place(node.grad, -1.0);
    }
  });
}

Var Tape::add_row_broadcast(const Var& a, const Var& row) {
  check(row.rows() == 1 && row.cols() == a.cols(), "add_row_broadcast: bad row shape");
  const int n = a.rows(), d = a.cols();
  const double* bias = row.value().data();
  Matrix out = Matrix::uninitialized(n, d);
  for (int r = 0; r < n; ++r) simd::sum(out.row(r), a.value().row(r), bias, d);
  return record(std::move(out), {a, row}, [a, row](VarData& node) {
    if (a.data()->requires_grad) a.data()->ensure_grad().add_in_place(node.grad);
    if (row.data()->requires_grad) {
      double* g = row.data()->ensure_grad().data();
      for (int r = 0; r < node.grad.rows(); ++r) {
        simd::add(g, node.grad.row(r), node.grad.cols());
      }
    }
  });
}

Var Tape::hadamard(const Var& a, const Var& b) {
  return record(nn::hadamard(a.value(), b.value()), {a, b}, [a, b](VarData& node) {
    if (a.data()->requires_grad) {
      add_product(node.grad, b.value(), a.data()->ensure_grad());
    }
    if (b.data()->requires_grad) {
      add_product(node.grad, a.value(), b.data()->ensure_grad());
    }
  });
}

Var Tape::scale(const Var& a, double factor) {
  return record(nn::scale(a.value(), factor), {a}, [a, factor](VarData& node) {
    if (a.data()->requires_grad) {
      a.data()->ensure_grad().add_scaled_in_place(node.grad, factor);
    }
  });
}

Var Tape::mul_col_broadcast(const Var& a, const Var& col) {
  check(col.cols() == 1 && col.rows() == a.rows(), "mul_col_broadcast: bad col shape");
  const int n = a.rows(), d = a.cols();
  const double* weights = col.value().data();
  Matrix out = Matrix::uninitialized(n, d);
  for (int r = 0; r < n; ++r) simd::scaled(out.row(r), a.value().row(r), weights[r], d);
  return record(std::move(out), {a, col}, [a, col](VarData& node) {
    const int n2 = node.grad.rows(), d2 = node.grad.cols();
    const double* w = col.value().data();
    if (a.data()->requires_grad) {
      Matrix& g = a.data()->ensure_grad();
      for (int r = 0; r < n2; ++r) simd::add_scaled(g.row(r), node.grad.row(r), w[r], d2);
    }
    if (col.data()->requires_grad) {
      double* g = col.data()->ensure_grad().data();
      for (int r = 0; r < n2; ++r) {
        const double* grad = node.grad.row(r);
        const double* src = a.value().row(r);
        double dot = 0.0;
        for (int c = 0; c < d2; ++c) dot += grad[c] * src[c];
        g[r] += dot;
      }
    }
  });
}

Var Tape::relu(const Var& a) {
  const double* x = a.value().data();
  Matrix out = Matrix::uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = std::max(x[i], 0.0);
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (a.data()->value.data()[i] > 0.0) g.data()[i] += node.grad.data()[i];
    }
  });
}

Var Tape::leaky_relu(const Var& a, double slope) {
  const double* x = a.value().data();
  Matrix out = Matrix::uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = x[i] < 0.0 ? x[i] * slope : x[i];
  }
  return record(std::move(out), {a}, [a, slope](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      const double factor = a.data()->value.data()[i] > 0.0 ? 1.0 : slope;
      g.data()[i] += factor * node.grad.data()[i];
    }
  });
}

Var Tape::elu(const Var& a) {
  const double* x = a.value().data();
  Matrix out = Matrix::uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = x[i] < 0.0 ? std::exp(x[i]) - 1.0 : x[i];
  }
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      const double x = a.data()->value.data()[i];
      const double factor = x > 0.0 ? 1.0 : std::exp(x);
      g.data()[i] += factor * node.grad.data()[i];
    }
  });
}

Var Tape::tanh_act(const Var& a) {
  const double* x = a.value().data();
  Matrix out = Matrix::uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(x[i]);
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      const double y = node.value.data()[i];
      g.data()[i] += (1.0 - y * y) * node.grad.data()[i];
    }
  });
}

Var Tape::softmax_rows(const Var& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out = Matrix::uninitialized(n, d);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* p = out.row(r);
    double row_max = -1e300;
    for (int c = 0; c < d; ++c) row_max = std::max(row_max, x[c]);
    double total = 0.0;
    for (int c = 0; c < d; ++c) {
      p[c] = std::exp(x[c] - row_max);
      total += p[c];
    }
    for (int c = 0; c < d; ++c) p[c] /= total;
  }
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int r = 0; r < node.value.rows(); ++r) {
      const double* p = node.value.row(r);
      const double* grad = node.grad.row(r);
      double* dst = g.row(r);
      double dot = 0.0;
      for (int c = 0; c < node.value.cols(); ++c) dot += grad[c] * p[c];
      for (int c = 0; c < node.value.cols(); ++c) dst[c] += p[c] * (grad[c] - dot);
    }
  });
}

Var Tape::log_softmax_rows(const Var& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out = Matrix::uninitialized(n, d);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double row_max = -1e300;
    for (int c = 0; c < d; ++c) row_max = std::max(row_max, x[c]);
    double total = 0.0;
    for (int c = 0; c < d; ++c) total += std::exp(x[c] - row_max);
    const double log_z = row_max + std::log(total);
    double* y = out.row(r);
    for (int c = 0; c < d; ++c) y[c] = x[c] - log_z;
  }
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int r = 0; r < node.value.rows(); ++r) {
      const double* y = node.value.row(r);
      const double* grad = node.grad.row(r);
      double* dst = g.row(r);
      double grad_sum = 0.0;
      for (int c = 0; c < node.value.cols(); ++c) grad_sum += grad[c];
      for (int c = 0; c < node.value.cols(); ++c) {
        dst[c] += grad[c] - std::exp(y[c]) * grad_sum;
      }
    }
  });
}

Var Tape::layer_norm_rows(const Var& a, const Var& gain, const Var& bias,
                          double epsilon) {
  const int n = a.rows(), d = a.cols();
  check(gain.rows() == 1 && gain.cols() == d, "layer_norm: bad gain shape");
  check(bias.rows() == 1 && bias.cols() == d, "layer_norm: bad bias shape");

  // Cache normalised activations and inverse stddevs for the backward pass.
  auto xhat = std::make_shared<Matrix>(Matrix::uninitialized(n, d));
  auto inv_std = std::make_shared<std::vector<double>>(static_cast<size_t>(n));
  const double* gamma = gain.value().data();
  const double* beta = bias.value().data();
  Matrix out = Matrix::uninitialized(n, d);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double mean = 0.0;
    for (int c = 0; c < d; ++c) mean += x[c];
    mean /= d;
    double var = 0.0;
    for (int c = 0; c < d; ++c) {
      const double diff = x[c] - mean;
      var += diff * diff;
    }
    var /= d;
    const double istd = 1.0 / std::sqrt(var + epsilon);
    (*inv_std)[static_cast<size_t>(r)] = istd;
    double* xh = xhat->row(r);
    double* y = out.row(r);
    for (int c = 0; c < d; ++c) {
      const double norm = (x[c] - mean) * istd;
      xh[c] = norm;
      y[c] = gamma[c] * norm + beta[c];
    }
  }

  return record(std::move(out), {a, gain, bias},
                [a, gain, bias, xhat, inv_std](VarData& node) {
                  const int n2 = node.value.rows(), d2 = node.value.cols();
                  const double* gamma2 = gain.value().data();
                  if (gain.data()->requires_grad) {
                    double* gg = gain.data()->ensure_grad().data();
                    for (int r = 0; r < n2; ++r) {
                      const double* grad = node.grad.row(r);
                      const double* xh = xhat->row(r);
                      for (int c = 0; c < d2; ++c) gg[c] += grad[c] * xh[c];
                    }
                  }
                  if (bias.data()->requires_grad) {
                    double* bg = bias.data()->ensure_grad().data();
                    for (int r = 0; r < n2; ++r) simd::add(bg, node.grad.row(r), d2);
                  }
                  if (a.data()->requires_grad) {
                    Matrix& ag = a.data()->ensure_grad();
                    for (int r = 0; r < n2; ++r) {
                      const double* grad = node.grad.row(r);
                      const double* xh = xhat->row(r);
                      double* dst = ag.row(r);
                      // dxhat = dy * gain
                      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
                      for (int c = 0; c < d2; ++c) {
                        const double dxh = grad[c] * gamma2[c];
                        sum_dxhat += dxh;
                        sum_dxhat_xhat += dxh * xh[c];
                      }
                      const double istd = (*inv_std)[static_cast<size_t>(r)];
                      for (int c = 0; c < d2; ++c) {
                        const double dxh = grad[c] * gamma2[c];
                        dst[c] += istd * (dxh - sum_dxhat / d2 -
                                          xh[c] * sum_dxhat_xhat / d2);
                      }
                    }
                  }
                });
}

Var Tape::transpose(const Var& a) {
  return record(a.value().transpose(), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    // g += grad^T, element by element.
    Matrix& g = a.data()->ensure_grad();
    const int n = g.rows(), d = g.cols();
    for (int r = 0; r < n; ++r) {
      double* dst = g.row(r);
      for (int c = 0; c < d; ++c) {
        dst[c] += node.grad.data()[static_cast<size_t>(c) * n + r];
      }
    }
  });
}

Var Tape::concat_cols(const std::vector<Var>& parts) {
  check(!parts.empty(), "concat_cols: empty");
  const int n = parts.front().rows();
  int total_cols = 0;
  for (const Var& p : parts) {
    check(p.rows() == n, "concat_cols: row mismatch");
    total_cols += p.cols();
  }
  Matrix out = Matrix::uninitialized(n, total_cols);
  for (int r = 0; r < n; ++r) {
    double* dst = out.row(r);
    for (const Var& p : parts) {
      simd::copy(dst, p.value().row(r), p.cols());
      dst += p.cols();
    }
  }
  return record(std::move(out), parts, [parts](VarData& node) {
    int off = 0;
    for (const Var& p : parts) {
      if (p.data()->requires_grad) {
        Matrix& g = p.data()->ensure_grad();
        for (int r = 0; r < g.rows(); ++r) {
          simd::add(g.row(r), node.grad.row(r) + off, g.cols());
        }
      }
      off += p.cols();
    }
  });
}

Var Tape::slice_cols(const Var& a, int start, int count) {
  check(start >= 0 && count > 0 && start + count <= a.cols(), "slice_cols: bad range");
  Matrix out = Matrix::uninitialized(a.rows(), count);
  for (int r = 0; r < a.rows(); ++r) {
    simd::copy(out.row(r), a.value().row(r) + start, count);
  }
  return record(std::move(out), {a}, [a, start](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int r = 0; r < node.grad.rows(); ++r) {
      simd::add(g.row(r) + start, node.grad.row(r), node.grad.cols());
    }
  });
}

Var Tape::gather_rows(const Var& a, const std::vector<int>& indices) {
  const int n = static_cast<int>(indices.size()), d = a.cols();
  Matrix out = Matrix::uninitialized(n, d);
  for (int i = 0; i < n; ++i) {
    const int src = indices[static_cast<size_t>(i)];
    check(src >= 0 && src < a.rows(), "gather_rows: index out of range");
    simd::copy(out.row(i), a.value().row(src), d);
  }
  return record(std::move(out), {a}, [a, indices](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (size_t i = 0; i < indices.size(); ++i) {
      simd::add(g.row(indices[i]), node.grad.row(static_cast<int>(i)), g.cols());
    }
  });
}

Var Tape::segment_sum_rows(const Var& a, const std::vector<int>& segments,
                           int segment_count) {
  check(static_cast<int>(segments.size()) == a.rows(), "segment_sum_rows: size mismatch");
  const int d = a.cols();
  Matrix out(segment_count, d);
  for (size_t e = 0; e < segments.size(); ++e) {
    const int s = segments[e];
    check(s >= 0 && s < segment_count, "segment_sum_rows: bad segment");
    simd::add(out.row(s), a.value().row(static_cast<int>(e)), d);
  }
  return record(std::move(out), {a}, [a, segments](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (size_t e = 0; e < segments.size(); ++e) {
      simd::add(g.row(static_cast<int>(e)), node.grad.row(segments[e]), g.cols());
    }
  });
}

Var Tape::segment_mean_rows(const Var& a, const std::vector<int>& segments,
                            int segment_count) {
  std::vector<double> counts(static_cast<size_t>(segment_count), 0.0);
  for (int s : segments) {
    check(s >= 0 && s < segment_count, "segment_mean_rows: bad segment");
    counts[static_cast<size_t>(s)] += 1.0;
  }
  const Var sums = segment_sum_rows(a, segments, segment_count);
  // Scale each row by 1/count using mul_col_broadcast with a constant column.
  Matrix inv = Matrix::uninitialized(segment_count, 1);
  for (int s = 0; s < segment_count; ++s) {
    const double count = counts[static_cast<size_t>(s)];
    inv.data()[s] = count > 0.0 ? 1.0 / count : 0.0;
  }
  return mul_col_broadcast(sums, leaf(std::move(inv), false));
}

Var Tape::segment_softmax(const Var& a, const std::vector<int>& segments,
                          int segment_count) {
  check(static_cast<int>(segments.size()) == a.rows(), "segment_softmax: size mismatch");
  const int h = a.cols();
  // Max per (segment, column) for numerical stability.
  Matrix seg_max(segment_count, h, -1e300);
  for (size_t e = 0; e < segments.size(); ++e) {
    const int s = segments[e];
    check(s >= 0 && s < segment_count, "segment_softmax: bad segment");
    const double* x = a.value().row(static_cast<int>(e));
    double* m = seg_max.row(s);
    for (int c = 0; c < h; ++c) m[c] = std::max(m[c], x[c]);
  }
  Matrix out = Matrix::uninitialized(a.rows(), h);
  Matrix seg_sum(segment_count, h);
  for (size_t e = 0; e < segments.size(); ++e) {
    const double* x = a.value().row(static_cast<int>(e));
    const double* m = seg_max.row(segments[e]);
    double* total = seg_sum.row(segments[e]);
    double* p = out.row(static_cast<int>(e));
    for (int c = 0; c < h; ++c) {
      p[c] = std::exp(x[c] - m[c]);
      total[c] += p[c];
    }
  }
  for (size_t e = 0; e < segments.size(); ++e) {
    const double* total = seg_sum.row(segments[e]);
    double* p = out.row(static_cast<int>(e));
    for (int c = 0; c < h; ++c) p[c] /= total[c];
  }
  return record(std::move(out), {a}, [a, segments, segment_count](VarData& node) {
    if (!a.data()->requires_grad) return;
    const int cols = node.value.cols();
    // dot[s, c] = sum over e in s of grad * p
    Matrix dot(segment_count, cols);
    for (size_t e = 0; e < segments.size(); ++e) {
      const double* grad = node.grad.row(static_cast<int>(e));
      const double* p = node.value.row(static_cast<int>(e));
      double* acc = dot.row(segments[e]);
      for (int c = 0; c < cols; ++c) acc[c] += grad[c] * p[c];
    }
    Matrix& g = a.data()->ensure_grad();
    for (size_t e = 0; e < segments.size(); ++e) {
      const double* grad = node.grad.row(static_cast<int>(e));
      const double* p = node.value.row(static_cast<int>(e));
      const double* acc = dot.row(segments[e]);
      double* dst = g.row(static_cast<int>(e));
      for (int c = 0; c < cols; ++c) dst[c] += p[c] * (grad[c] - acc[c]);
    }
  });
}

Var Tape::sum_all(const Var& a) {
  Matrix out = Matrix::uninitialized(1, 1);
  out.data()[0] = a.value().sum();
  return record(std::move(out), {a}, [a](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    const double d = node.grad.data()[0];
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] += d;
  });
}

Var Tape::mean_all(const Var& a) {
  const double inv = 1.0 / static_cast<double>(a.value().size());
  return scale(sum_all(a), inv);
}

Var Tape::pick_per_row(const Var& a, const std::vector<int>& columns) {
  check(static_cast<int>(columns.size()) == a.rows(), "pick_per_row: size mismatch");
  Matrix out = Matrix::uninitialized(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    const int c = columns[static_cast<size_t>(r)];
    check(c >= 0 && c < a.cols(), "pick_per_row: column out of range");
    out.data()[r] = a.value().row(r)[c];
  }
  return record(std::move(out), {a}, [a, columns](VarData& node) {
    if (!a.data()->requires_grad) return;
    Matrix& g = a.data()->ensure_grad();
    for (int r = 0; r < g.rows(); ++r) {
      g.row(r)[columns[static_cast<size_t>(r)]] += node.grad.data()[r];
    }
  });
}

void Tape::backward(const Var& loss) {
  check(loss.defined(), "backward: undefined loss");
  check(loss.rows() == 1 && loss.cols() == 1, "backward: loss must be 1x1");
  loss.data()->ensure_grad().at(0, 0) = 1.0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    VarData& node = **it;
    if (node.backward && node.grad.rows() == node.value.rows() &&
        node.grad.cols() == node.value.cols()) {
      node.backward();
    }
    // Every consumer of this node came later on the tape and is done, so
    // the sweep needs nothing more from it: drop its links to its inputs,
    // and, unless a caller still holds it, its buffers, which the ops
    // still ahead of the sweep then reuse instead of fresh pages.
    node.backward = nullptr;
    node.inputs.clear();
    if (it->use_count() == 1) {
      node.value = Matrix();
      node.grad = Matrix();
    }
  }
}

}  // namespace heterog::nn
