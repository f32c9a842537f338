// Differential wall for the nn kernels.
//
// Every Matrix kernel and every Tape op's value and input gradients are
// compared bytewise (memcmp) with a naive at()-indexed reference that adds
// each element's terms in the documented order (matrix.h). Shapes are drawn
// from 1..70 rows and columns, so 1-row, 1-column and widths that are not a
// multiple of any blocking factor all occur, and exact zeros and negative
// zeros are sprinkled into the data. Input gradients are seeded with random
// values before backward, so the tests also pin that each op's contribution
// is formed in full before it is added to an existing gradient.
//
// This binary carries the `nn` ctest label and runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"

namespace heterog::nn {
namespace {

constexpr int kMaxDim = 70;

/// Uniform values in [-1, 1) with about one element in six an exact zero
/// and one in twenty a negative zero.
Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double u = rng.uniform(0.0, 1.0);
      m.at(r, c) = u < 1.0 / 6.0 ? 0.0 : u < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0);
    }
  }
  return m;
}

int random_dim(Rng& rng) { return 1 + static_cast<int>(rng.uniform(0.0, kMaxDim)); }

/// Shapes every test visits: the edges, widths around the blocking factors,
/// then random ones.
std::vector<std::pair<int, int>> shapes(Rng& rng) {
  std::vector<std::pair<int, int>> out = {{1, 1},  {1, kMaxDim}, {kMaxDim, 1}, {3, 7},
                                          {5, 9},  {2, 15},      {17, 3},      {4, 8},
                                          {11, 2}, {kMaxDim, kMaxDim}};
  for (int i = 0; i < 20; ++i) out.emplace_back(random_dim(rng), random_dim(rng));
  return out;
}

std::string shape(const Matrix& m) { return m.shape_string(); }

void expect_bitwise(const Matrix& actual, const Matrix& expected,
                    const std::string& what) {
  ASSERT_TRUE(actual.same_shape(expected))
      << what << ": " << shape(actual) << " vs " << shape(expected);
  if (actual.size() == 0) return;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        static_cast<size_t>(actual.size()) * sizeof(double)),
            0)
      << what << " differs bitwise at shape " << shape(actual);
}

// --- naive references ------------------------------------------------------

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) {
        if (a.at(i, k) != 0.0) s += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = s;
    }
  }
  return c;
}

Matrix ref_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.rows(); ++k) {
        if (a.at(k, i) != 0.0) s += a.at(k, i) * b.at(k, j);
      }
      c.at(i, j) = s;
    }
  }
  return c;
}

Matrix ref_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(j, k);
      c.at(i, j) = s;
    }
  }
  return c;
}

Matrix ref_map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = f(a.at(r, c));
  }
  return out;
}

Matrix ref_zip(const Matrix& a, const Matrix& b,
               const std::function<double(double, double)>& f) {
  Matrix out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = f(a.at(r, c), b.at(r, c));
  }
  return out;
}

Matrix ref_transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  }
  return t;
}

/// seed + contribution, element by element: how a gradient accumulates.
Matrix plus(const Matrix& seed, const Matrix& contribution) {
  return ref_zip(seed, contribution, [](double s, double t) { return s + t; });
}

// --- Matrix kernels ----------------------------------------------------------

TEST(NnKernels, MatmulFamilyMatchesNaiveLoops) {
  Rng rng(101);
  for (const auto& [n, k] : shapes(rng)) {
    for (const int m : {1, 2, 3, 7, 8, 9, 16, random_dim(rng)}) {
      const Matrix a = random_matrix(n, k, rng);
      const Matrix b = random_matrix(k, m, rng);
      expect_bitwise(matmul(a, b), ref_matmul(a, b), "matmul");

      const Matrix at = random_matrix(k, n, rng);  // A^T * B with A [k x n]
      const Matrix bt = random_matrix(k, m, rng);
      expect_bitwise(matmul_tn(at, bt), ref_matmul_tn(at, bt), "matmul_tn");
      Matrix tn_acc = random_matrix(n, m, rng);
      const Matrix tn_expected = plus(tn_acc, ref_matmul_tn(at, bt));
      matmul_tn_add(at, bt, tn_acc);
      expect_bitwise(tn_acc, tn_expected, "matmul_tn_add");

      const Matrix bn = random_matrix(m, k, rng);  // A * B^T with B [m x k]
      expect_bitwise(matmul_nt(a, bn), ref_matmul_nt(a, bn), "matmul_nt");
      Matrix nt_acc = random_matrix(n, m, rng);
      const Matrix nt_expected = plus(nt_acc, ref_matmul_nt(a, bn));
      matmul_nt_add(a, bn, nt_acc);
      expect_bitwise(nt_acc, nt_expected, "matmul_nt_add");
    }
  }
}

TEST(NnKernels, MatmulSkipsZeroTermsAgainstInfinities) {
  // 0 * inf is NaN: a kernel that multiplies a skipped term instead of
  // skipping it poisons the element. Every fourth value of A is an exact
  // zero and every fifth value of B is infinite.
  Rng rng(103);
  for (const auto& [n, k] : shapes(rng)) {
    for (const int m : {1, 3, 8, 11}) {
      Matrix a = random_matrix(n, k, rng);
      Matrix b = random_matrix(k, m, rng);
      for (int64_t i = 0; i < a.size(); i += 4) a.data()[i] = 0.0;
      for (int64_t i = 0; i < b.size(); i += 5) {
        b.data()[i] = (i / 5) % 2 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
      }
      expect_bitwise(matmul(a, b), ref_matmul(a, b), "matmul with infinities");
      const Matrix at = ref_transpose(a);
      expect_bitwise(matmul_tn(at, b), ref_matmul_tn(at, b), "matmul_tn with infinities");
    }
  }
}

TEST(NnKernels, MatmulWithEmptyInnerDimension) {
  const Matrix a(3, 0), b(0, 5);
  expect_bitwise(matmul(a, b), Matrix(3, 5), "matmul 3x0 * 0x5");
  Matrix acc(3, 5, -0.0);
  matmul_nt_add(a, Matrix(5, 0), acc);
  expect_bitwise(acc, Matrix(3, 5, 0.0), "-0.0 + empty sum");
  Matrix tn_acc(3, 5, -0.0);
  matmul_tn_add(Matrix(0, 3), b, tn_acc);
  expect_bitwise(tn_acc, Matrix(3, 5, 0.0), "-0.0 + empty sum (tn)");
}

TEST(NnKernels, ElementwiseKernelsMatchNaiveLoops) {
  Rng rng(107);
  for (const auto& [n, d] : shapes(rng)) {
    const Matrix a = random_matrix(n, d, rng);
    const Matrix b = random_matrix(n, d, rng);
    const double f = rng.uniform(-2.0, 2.0);
    expect_bitwise(add(a, b), ref_zip(a, b, [](double x, double y) { return x + y; }),
                   "add");
    expect_bitwise(subtract(a, b),
                   ref_zip(a, b, [](double x, double y) { return x + -1.0 * y; }),
                   "subtract");
    expect_bitwise(hadamard(a, b),
                   ref_zip(a, b, [](double x, double y) { return x * y; }), "hadamard");
    expect_bitwise(scale(a, f), ref_map(a, [f](double x) { return x * f; }), "scale");
    expect_bitwise(a.transpose(), ref_transpose(a), "transpose");

    Matrix acc = a;
    acc.add_in_place(b);
    expect_bitwise(acc, ref_zip(a, b, [](double x, double y) { return x + y; }),
                   "add_in_place");
    acc = a;
    acc.add_scaled_in_place(b, f);
    expect_bitwise(acc, ref_zip(a, b, [f](double x, double y) { return x + f * y; }),
                   "add_scaled_in_place");
    acc = a;
    acc.scale_in_place(f);
    expect_bitwise(acc, ref_map(a, [f](double x) { return x * f; }), "scale_in_place");

    double total = 0.0, best = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < d; ++c) {
        total += a.at(r, c);
        best = std::max(best, std::abs(a.at(r, c)));
      }
    }
    const double sum = a.sum(), max_abs = a.max_abs();
    EXPECT_EQ(std::memcmp(&sum, &total, sizeof sum), 0) << "sum";
    EXPECT_EQ(std::memcmp(&max_abs, &best, sizeof best), 0) << "max_abs";
  }
}

TEST(NnKernels, ConstructorsFillEveryElement) {
  for (const double v : {0.0, -0.0, 1.5}) {
    const Matrix m(kMaxDim, 3, v);
    for (int64_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(std::memcmp(m.data() + i, &v, sizeof v), 0);
    }
  }
  EXPECT_THROW(Matrix(2, 2).at(2, 0), CheckError);
  EXPECT_THROW(Matrix(2, 2).at(0, -1), CheckError);
}

// --- Tape ops ---------------------------------------------------------------

/// One op under test: inputs become leaves with seeded gradients, the output
/// gets a random upstream gradient, and after backward each input gradient
/// must equal seed + the reference's contribution.
struct OpCase {
  Tape tape;
  std::vector<Var> inputs;
  std::vector<Matrix> seeds;

  Var input(Matrix value, Rng& rng) {
    Var v = tape.leaf(std::move(value), /*requires_grad=*/true);
    Matrix& g = v.ensure_grad();
    g = random_matrix(v.rows(), v.cols(), rng);
    seeds.push_back(g);
    inputs.push_back(v);
    return v;
  }

  /// Runs backward from `out` with a random upstream gradient; returns it.
  Matrix backward(const Var& out, Rng& rng) {
    const Matrix upstream = random_matrix(out.rows(), out.cols(), rng);
    // d(sum(out * upstream))/d(out) = 1.0 * upstream, which is upstream.
    tape.backward(tape.sum_all(tape.hadamard(out, tape.leaf(upstream))));
    EXPECT_TRUE(out.data()->grad.same_shape(upstream));
    return out.data()->grad;
  }

  void expect_grad(size_t i, const Matrix& contribution, const std::string& what) {
    expect_bitwise(inputs[i].grad(), plus(seeds[i], contribution), what);
  }
};

TEST(NnTapeOps, DenseAlgebraMatchesNaiveLoops) {
  Rng rng(201);
  for (const auto& [n, d] : shapes(rng)) {
    {
      OpCase op;
      const int m = random_dim(rng);
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var b = op.input(random_matrix(d, m, rng), rng);
      const Var out = op.tape.matmul(a, b);
      expect_bitwise(out.value(), ref_matmul(a.value(), b.value()), "matmul value");
      const Matrix g = op.backward(out, rng);
      op.expect_grad(0, ref_matmul_nt(g, b.value()), "matmul grad a");
      op.expect_grad(1, ref_matmul_tn(a.value(), g), "matmul grad b");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var b = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.hadamard(a, b);
      expect_bitwise(out.value(), hadamard(a.value(), b.value()), "hadamard value");
      const Matrix g = op.backward(out, rng);
      op.expect_grad(0, ref_zip(g, b.value(), [](double x, double y) { return x * y; }),
                     "hadamard grad a");
      op.expect_grad(1, ref_zip(g, a.value(), [](double x, double y) { return x * y; }),
                     "hadamard grad b");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var b = op.input(random_matrix(n, d, rng), rng);
      const Var sum = op.tape.add(a, b);
      const Var diff = op.tape.subtract(a, b);
      expect_bitwise(sum.value(), add(a.value(), b.value()), "add value");
      expect_bitwise(diff.value(), subtract(a.value(), b.value()), "subtract value");
      const Matrix g = op.backward(op.tape.scale(op.tape.add(sum, diff), 0.75), rng);
      // Both inputs flow through add then subtract (reverse tape order:
      // subtract's contribution lands first, then add's).
      const Matrix up = ref_map(g, [](double x) { return 0.0 + (0.0 + 0.75 * x); });
      const Matrix ga = plus(plus(op.seeds[0], up), up);
      const Matrix gb =
          plus(plus(op.seeds[1], ref_map(up, [](double x) { return -1.0 * x; })), up);
      expect_bitwise(a.grad(), ga, "add/subtract grad a");
      expect_bitwise(b.grad(), gb, "add/subtract grad b");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var row = op.input(random_matrix(1, d, rng), rng);
      const Var col = op.input(random_matrix(n, 1, rng), rng);
      const Var biased = op.tape.add_row_broadcast(a, row);
      Matrix biased_ref(n, d);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) {
          biased_ref.at(r, c) = a.value().at(r, c) + row.value().at(0, c);
        }
      }
      expect_bitwise(biased.value(), biased_ref, "add_row_broadcast value");
      const Var scaled = op.tape.mul_col_broadcast(biased, col);
      Matrix scaled_ref(n, d);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) {
          scaled_ref.at(r, c) = biased_ref.at(r, c) * col.value().at(r, 0);
        }
      }
      expect_bitwise(scaled.value(), scaled_ref, "mul_col_broadcast value");
      const Matrix g = op.backward(scaled, rng);
      // mul_col_broadcast backward: biased gets g * w; col gets the row dots.
      Matrix g_biased(n, d), g_col(n, 1);
      for (int r = 0; r < n; ++r) {
        double dot = 0.0;
        for (int c = 0; c < d; ++c) {
          g_biased.at(r, c) = 0.0 + g.at(r, c) * col.value().at(r, 0);
          dot += g.at(r, c) * biased_ref.at(r, c);
        }
        g_col.at(r, 0) = dot;
      }
      expect_bitwise(biased.grad(), g_biased, "mul_col_broadcast grad a");
      op.expect_grad(2, g_col, "mul_col_broadcast grad col");
      op.expect_grad(0, g_biased, "add_row_broadcast grad a");
      Matrix g_row = op.seeds[1];
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) g_row.at(0, c) += g_biased.at(r, c);
      }
      expect_bitwise(row.grad(), g_row, "add_row_broadcast grad row");
    }
  }
}

TEST(NnTapeOps, ActivationsMatchNaiveLoops) {
  Rng rng(211);
  for (const auto& [n, d] : shapes(rng)) {
    const double slope = 0.2;
    struct Act {
      const char* name;
      std::function<Var(Tape&, const Var&)> op;
      std::function<double(double)> value;
      std::function<double(double x, double y, double g)> grad;  // x in, y out
    };
    const Act acts[] = {
        {"relu", [](Tape& t, const Var& v) { return t.relu(v); },
         [](double x) { return std::max(x, 0.0); },
         [](double x, double, double g) { return x > 0.0 ? g : 0.0; }},
        {"leaky_relu", [slope](Tape& t, const Var& v) { return t.leaky_relu(v, slope); },
         [slope](double x) { return x < 0.0 ? x * slope : x; },
         [slope](double x, double, double g) { return (x > 0.0 ? 1.0 : slope) * g; }},
        {"elu", [](Tape& t, const Var& v) { return t.elu(v); },
         [](double x) { return x < 0.0 ? std::exp(x) - 1.0 : x; },
         [](double x, double, double g) { return (x > 0.0 ? 1.0 : std::exp(x)) * g; }},
        {"tanh", [](Tape& t, const Var& v) { return t.tanh_act(v); },
         [](double x) { return std::tanh(x); },
         [](double, double y, double g) { return (1.0 - y * y) * g; }},
    };
    for (const Act& act : acts) {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = act.op(op.tape, a);
      expect_bitwise(out.value(), ref_map(a.value(), act.value),
                     std::string(act.name) + " value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) {
          const double x = a.value().at(r, c);
          // relu only adds where x > 0; the others always add.
          if (std::string(act.name) == "relu") {
            if (x > 0.0) expected.at(r, c) += g.at(r, c);
          } else {
            expected.at(r, c) += act.grad(x, out.value().at(r, c), g.at(r, c));
          }
        }
      }
      expect_bitwise(a.grad(), expected, std::string(act.name) + " grad");
    }
  }
}

TEST(NnTapeOps, RowSoftmaxesAndLayerNormMatchNaiveLoops) {
  Rng rng(223);
  for (const auto& [n, d] : shapes(rng)) {
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.softmax_rows(a);
      Matrix p(n, d);
      for (int r = 0; r < n; ++r) {
        double row_max = -1e300, total = 0.0;
        for (int c = 0; c < d; ++c) row_max = std::max(row_max, a.value().at(r, c));
        for (int c = 0; c < d; ++c) {
          p.at(r, c) = std::exp(a.value().at(r, c) - row_max);
          total += p.at(r, c);
        }
        for (int c = 0; c < d; ++c) p.at(r, c) /= total;
      }
      expect_bitwise(out.value(), p, "softmax_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];
      for (int r = 0; r < n; ++r) {
        double dot = 0.0;
        for (int c = 0; c < d; ++c) dot += g.at(r, c) * p.at(r, c);
        for (int c = 0; c < d; ++c) expected.at(r, c) += p.at(r, c) * (g.at(r, c) - dot);
      }
      expect_bitwise(a.grad(), expected, "softmax_rows grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.log_softmax_rows(a);
      Matrix y(n, d);
      for (int r = 0; r < n; ++r) {
        double row_max = -1e300, total = 0.0;
        for (int c = 0; c < d; ++c) row_max = std::max(row_max, a.value().at(r, c));
        for (int c = 0; c < d; ++c) total += std::exp(a.value().at(r, c) - row_max);
        const double log_z = row_max + std::log(total);
        for (int c = 0; c < d; ++c) y.at(r, c) = a.value().at(r, c) - log_z;
      }
      expect_bitwise(out.value(), y, "log_softmax_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];
      for (int r = 0; r < n; ++r) {
        double grad_sum = 0.0;
        for (int c = 0; c < d; ++c) grad_sum += g.at(r, c);
        for (int c = 0; c < d; ++c) {
          expected.at(r, c) += g.at(r, c) - std::exp(y.at(r, c)) * grad_sum;
        }
      }
      expect_bitwise(a.grad(), expected, "log_softmax_rows grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var gain = op.input(random_matrix(1, d, rng), rng);
      const Var bias = op.input(random_matrix(1, d, rng), rng);
      const double eps = 1e-5;
      const Var out = op.tape.layer_norm_rows(a, gain, bias, eps);
      Matrix xhat(n, d), y(n, d);
      std::vector<double> inv_std(static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        double mean = 0.0, var = 0.0;
        for (int c = 0; c < d; ++c) mean += a.value().at(r, c);
        mean /= d;
        for (int c = 0; c < d; ++c) {
          const double diff = a.value().at(r, c) - mean;
          var += diff * diff;
        }
        var /= d;
        inv_std[static_cast<size_t>(r)] = 1.0 / std::sqrt(var + eps);
        for (int c = 0; c < d; ++c) {
          xhat.at(r, c) = (a.value().at(r, c) - mean) * inv_std[static_cast<size_t>(r)];
          y.at(r, c) = gain.value().at(0, c) * xhat.at(r, c) + bias.value().at(0, c);
        }
      }
      expect_bitwise(out.value(), y, "layer_norm_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix ga = op.seeds[0], gg = op.seeds[1], gb = op.seeds[2];
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) gg.at(0, c) += g.at(r, c) * xhat.at(r, c);
      }
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) gb.at(0, c) += g.at(r, c);
      }
      for (int r = 0; r < n; ++r) {
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (int c = 0; c < d; ++c) {
          const double dxh = g.at(r, c) * gain.value().at(0, c);
          sum_dxhat += dxh;
          sum_dxhat_xhat += dxh * xhat.at(r, c);
        }
        const double istd = inv_std[static_cast<size_t>(r)];
        for (int c = 0; c < d; ++c) {
          const double dxh = g.at(r, c) * gain.value().at(0, c);
          ga.at(r, c) +=
              istd * (dxh - sum_dxhat / d - xhat.at(r, c) * sum_dxhat_xhat / d);
        }
      }
      expect_bitwise(a.grad(), ga, "layer_norm_rows grad a");
      expect_bitwise(gain.grad(), gg, "layer_norm_rows grad gain");
      expect_bitwise(bias.grad(), gb, "layer_norm_rows grad bias");
    }
  }
}

TEST(NnTapeOps, ShapeOpsMatchNaiveLoops) {
  Rng rng(227);
  for (const auto& [n, d] : shapes(rng)) {
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.transpose(a);
      expect_bitwise(out.value(), ref_transpose(a.value()), "transpose value");
      const Matrix g = op.backward(out, rng);
      op.expect_grad(0, ref_transpose(g), "transpose grad");
    }
    {
      OpCase op;
      const int widths[] = {d, random_dim(rng), 1};
      std::vector<Var> parts;
      for (const int w : widths) parts.push_back(op.input(random_matrix(n, w, rng), rng));
      const Var out = op.tape.concat_cols(parts);
      Matrix ref(n, widths[0] + widths[1] + widths[2]);
      int off = 0;
      for (const Var& p : parts) {
        for (int r = 0; r < n; ++r) {
          for (int c = 0; c < p.cols(); ++c) ref.at(r, off + c) = p.value().at(r, c);
        }
        off += p.cols();
      }
      expect_bitwise(out.value(), ref, "concat_cols value");
      const Matrix g = op.backward(out, rng);
      off = 0;
      for (size_t i = 0; i < parts.size(); ++i) {
        Matrix slice(n, parts[i].cols());
        for (int r = 0; r < n; ++r) {
          for (int c = 0; c < slice.cols(); ++c) slice.at(r, c) = g.at(r, off + c);
        }
        op.expect_grad(i, slice, "concat_cols grad");
        off += parts[i].cols();
      }
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const int start = static_cast<int>(rng.uniform(0.0, d));
      const int count = 1 + static_cast<int>(rng.uniform(0.0, d - start));
      const Var out = op.tape.slice_cols(a, start, count);
      Matrix ref(n, count);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < count; ++c) ref.at(r, c) = a.value().at(r, start + c);
      }
      expect_bitwise(out.value(), ref, "slice_cols value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];  // columns outside the slice stay as seeded
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < count; ++c) expected.at(r, start + c) += g.at(r, c);
      }
      expect_bitwise(a.grad(), expected, "slice_cols grad");
    }
  }
}

TEST(NnTapeOps, GraphOpsMatchNaiveLoops) {
  Rng rng(229);
  for (const auto& [n, d] : shapes(rng)) {
    const int rows = random_dim(rng);  // edges
    std::vector<int> index(static_cast<size_t>(rows)), segment(static_cast<size_t>(rows));
    for (size_t e = 0; e < index.size(); ++e) {
      index[e] = static_cast<int>(rng.uniform(0.0, n));
      // Segments draw from n + 2 ids, so some stay empty.
      segment[e] = static_cast<int>(rng.uniform(0.0, n + 2));
    }
    const int segments = n + 2;
    const auto idx = [&](int e) { return index[static_cast<size_t>(e)]; };
    const auto seg = [&](int e) { return segment[static_cast<size_t>(e)]; };
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.gather_rows(a, index);
      Matrix ref(rows, d);
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) ref.at(e, c) = a.value().at(idx(e), c);
      }
      expect_bitwise(out.value(), ref, "gather_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) expected.at(idx(e), c) += g.at(e, c);
      }
      expect_bitwise(a.grad(), expected, "gather_rows grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(rows, d, rng), rng);
      const Var out = op.tape.segment_sum_rows(a, segment, segments);
      Matrix ref(segments, d);
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) ref.at(seg(e), c) += a.value().at(e, c);
      }
      expect_bitwise(out.value(), ref, "segment_sum_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix contribution(rows, d);
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) contribution.at(e, c) = g.at(seg(e), c);
      }
      op.expect_grad(0, contribution, "segment_sum_rows grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(rows, d, rng), rng);
      const Var out = op.tape.segment_mean_rows(a, segment, segments);
      std::vector<double> counts(static_cast<size_t>(segments), 0.0);
      for (const int s : segment) counts[static_cast<size_t>(s)] += 1.0;
      Matrix sums(segments, d), ref(segments, d);
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) sums.at(seg(e), c) += a.value().at(e, c);
      }
      for (int s = 0; s < segments; ++s) {
        const double count = counts[static_cast<size_t>(s)];
        const double inv = count > 0.0 ? 1.0 / count : 0.0;
        for (int c = 0; c < d; ++c) ref.at(s, c) = sums.at(s, c) * inv;
      }
      expect_bitwise(out.value(), ref, "segment_mean_rows value");
      const Matrix g = op.backward(out, rng);
      Matrix contribution(rows, d);
      for (int e = 0; e < rows; ++e) {
        const int s = seg(e);
        const double inv = 1.0 / counts[static_cast<size_t>(s)];
        // mul_col_broadcast's grad (0.0 + g * inv), then segment_sum's.
        for (int c = 0; c < d; ++c) contribution.at(e, c) = 0.0 + g.at(s, c) * inv;
      }
      op.expect_grad(0, contribution, "segment_mean_rows grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(rows, d, rng), rng);
      const Var out = op.tape.segment_softmax(a, segment, segments);
      Matrix seg_max(segments, d, -1e300), seg_sum(segments, d), p(rows, d);
      for (int e = 0; e < rows; ++e) {
        const int s = seg(e);
        for (int c = 0; c < d; ++c) {
          seg_max.at(s, c) = std::max(seg_max.at(s, c), a.value().at(e, c));
        }
      }
      for (int e = 0; e < rows; ++e) {
        const int s = seg(e);
        for (int c = 0; c < d; ++c) {
          p.at(e, c) = std::exp(a.value().at(e, c) - seg_max.at(s, c));
          seg_sum.at(s, c) += p.at(e, c);
        }
      }
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) p.at(e, c) /= seg_sum.at(seg(e), c);
      }
      expect_bitwise(out.value(), p, "segment_softmax value");
      const Matrix g = op.backward(out, rng);
      Matrix dot(segments, d);
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) dot.at(seg(e), c) += g.at(e, c) * p.at(e, c);
      }
      Matrix expected = op.seeds[0];
      for (int e = 0; e < rows; ++e) {
        for (int c = 0; c < d; ++c) {
          expected.at(e, c) += p.at(e, c) * (g.at(e, c) - dot.at(seg(e), c));
        }
      }
      expect_bitwise(a.grad(), expected, "segment_softmax grad");
    }
  }
}

TEST(NnTapeOps, ReductionsAndSelectionsMatchNaiveLoops) {
  Rng rng(233);
  for (const auto& [n, d] : shapes(rng)) {
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      const Var out = op.tape.mean_all(a);
      double total = 0.0;
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) total += a.value().at(r, c);
      }
      const double inv = 1.0 / static_cast<double>(n * d);
      expect_bitwise(out.value(), Matrix(1, 1, total * inv), "mean_all value");
      const Matrix g = op.backward(out, rng);
      // scale's grad (0.0 + inv * g), broadcast by sum_all.
      const double each = 0.0 + inv * g.at(0, 0);
      op.expect_grad(0, Matrix(n, d, each), "mean_all grad");
    }
    {
      OpCase op;
      const Var a = op.input(random_matrix(n, d, rng), rng);
      std::vector<int> columns(static_cast<size_t>(n));
      for (int& c : columns) c = static_cast<int>(rng.uniform(0.0, d));
      const Var out = op.tape.pick_per_row(a, columns);
      Matrix ref(n, 1);
      const auto col = [&](int r) { return columns[static_cast<size_t>(r)]; };
      for (int r = 0; r < n; ++r) ref.at(r, 0) = a.value().at(r, col(r));
      expect_bitwise(out.value(), ref, "pick_per_row value");
      const Matrix g = op.backward(out, rng);
      Matrix expected = op.seeds[0];  // unpicked columns stay as seeded
      for (int r = 0; r < n; ++r) expected.at(r, col(r)) += g.at(r, 0);
      expect_bitwise(a.grad(), expected, "pick_per_row grad");
    }
  }
}

TEST(NnTapeOps, DataDependentIndicesAreChecked) {
  Tape tape;
  const Var a = tape.leaf(Matrix(3, 2), true);
  EXPECT_THROW(tape.gather_rows(a, {0, 3}), CheckError);
  EXPECT_THROW(tape.gather_rows(a, {-1}), CheckError);
  EXPECT_THROW(tape.segment_sum_rows(a, {0, 1, 2}, 2), CheckError);
  EXPECT_THROW(tape.segment_softmax(a, {0, -1, 1}, 2), CheckError);
  EXPECT_THROW(tape.pick_per_row(a, {0, 2, 1}), CheckError);
  EXPECT_THROW(tape.matmul(a, a), CheckError);
}

}  // namespace
}  // namespace heterog::nn
