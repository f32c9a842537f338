#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/simd.h"

namespace heterog::nn {

namespace {

using simd::Pair;

template <bool kAdd>
inline void put(double* out, double value) {
  if constexpr (kAdd) {
    *out += value;
  } else {
    *out = value;
  }
}

template <bool kAdd>
inline void put(double* out, Pair value) {
  if constexpr (kAdd) value = simd::load(out) + value;
  simd::store(out, value);
}

// The row kernels below fill out[0..w) of one output row:
//   out[j] (+)= sum over k ascending from 0.0 of x[k * x_step] * b[k * m + j]
// skipping k where x[k * x_step] == 0.0 when kSkipZeros. x is a row of A
// (x_step 1) for matmul, a column of A for matmul_tn, and a row of A for
// matmul_nt against B transposed; b points at the block's first column.

template <bool kAdd, bool kSkipZeros>
void row_block8(const double* x, size_t x_step, int inner, const double* b, size_t m,
                double* out) {
  Pair s0{}, s1{}, s2{}, s3{};
  for (int k = 0; k < inner; ++k) {
    const double v = x[k * x_step];
    if (kSkipZeros && v == 0.0) continue;
    const Pair vv = simd::splat(v);
    const double* bk = b + k * m;
    s0 += vv * simd::load(bk);
    s1 += vv * simd::load(bk + 2);
    s2 += vv * simd::load(bk + 4);
    s3 += vv * simd::load(bk + 6);
  }
  put<kAdd>(out, s0);
  put<kAdd>(out + 2, s1);
  put<kAdd>(out + 4, s2);
  put<kAdd>(out + 6, s3);
}

template <bool kAdd, bool kSkipZeros>
void row_block2(const double* x, size_t x_step, int inner, const double* b, size_t m,
                double* out) {
  Pair s{};
  for (int k = 0; k < inner; ++k) {
    const double v = x[k * x_step];
    if (kSkipZeros && v == 0.0) continue;
    s += simd::splat(v) * simd::load(b + k * m);
  }
  put<kAdd>(out, s);
}

template <bool kAdd, bool kSkipZeros>
void row_block1(const double* x, size_t x_step, int inner, const double* b, size_t m,
                double* out) {
  double s = 0.0;
  for (int k = 0; k < inner; ++k) {
    const double v = x[k * x_step];
    if (kSkipZeros && v == 0.0) continue;
    s += v * b[k * m];
  }
  put<kAdd>(out, s);
}

/// One column of four output rows (row r's terms start at x + r * row_step):
/// four independent sums in flight where a single column would leave one.
/// A skipped term adds +0.0 instead, branch-free, which leaves the sum as it
/// was: the sum starts at +0.0, and a round-to-nearest sum that starts there
/// never becomes -0.0, the one value that adding +0.0 changes.
template <bool kAdd, bool kSkipZeros>
void rows4_block1(const double* x, size_t row_step, size_t x_step, int inner,
                  const double* b, size_t m, double* out, size_t out_step) {
  const auto term = [](double v, double bk) {
    return kSkipZeros && v == 0.0 ? 0.0 : v * bk;
  };
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int k = 0; k < inner; ++k) {
    const double* xk = x + k * x_step;
    const double bk = b[k * m];
    s0 += term(xk[0], bk);
    s1 += term(xk[row_step], bk);
    s2 += term(xk[2 * row_step], bk);
    s3 += term(xk[3 * row_step], bk);
  }
  put<kAdd>(out, s0);
  put<kAdd>(out + out_step, s1);
  put<kAdd>(out + 2 * out_step, s2);
  put<kAdd>(out + 3 * out_step, s3);
}

/// C (+)= X * B for row-major B [inner x c.cols()], with
/// X[i][k] = x[i * row_step + k * k_step]: X is A for matmul, A^T for
/// matmul_tn, and A for matmul_nt (B then holds the transpose).
template <bool kAdd, bool kSkipZeros>
void gemm_into(const double* x, size_t row_step, size_t k_step, int inner,
               const double* b, Matrix& c) {
  if (inner == 0) {  // every element is the empty sum, and B has no rows
    for (int64_t i = 0; i < c.size(); ++i) put<kAdd>(c.data() + i, 0.0);
    return;
  }
  const int n = c.rows();
  const size_t m = static_cast<size_t>(c.cols());
  const size_t paired = m & ~size_t{1};
  for (int i = 0; i < n; ++i) {
    const double* xi = x + i * row_step;
    double* out = c.row(i);
    size_t j = 0;
    for (; j + 8 <= paired; j += 8) {
      row_block8<kAdd, kSkipZeros>(xi, k_step, inner, b + j, m, out + j);
    }
    for (; j < paired; j += 2) {
      row_block2<kAdd, kSkipZeros>(xi, k_step, inner, b + j, m, out + j);
    }
  }
  if (paired == m) return;
  // The odd last column, four rows at a time.
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    rows4_block1<kAdd, kSkipZeros>(x + i * row_step, row_step, k_step, inner, b + paired,
                                   m, c.row(i) + paired, m);
  }
  for (; i < n; ++i) {
    row_block1<kAdd, kSkipZeros>(x + i * row_step, k_step, inner, b + paired, m,
                                 c.row(i) + paired);
  }
}

template <bool kAdd>
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_into<kAdd, true>(a.data(), 1, static_cast<size_t>(a.cols()), a.rows(), b.data(),
                        c);
}

/// matmul_nt's dot products c[i][j] = sum over k ascending of a[i][k] * b[j][k]
/// run as A * B^T with B^T laid out row-major, so that the output columns
/// can be blocked like matmul's.
template <bool kAdd>
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  const Matrix bt = b.transpose();
  gemm_into<kAdd, false>(a.data(), static_cast<size_t>(a.cols()), 1, a.cols(), bt.data(),
                         c);
}

}  // namespace

Matrix::Matrix(int rows, int cols, double value) : Matrix(uninitialized(rows, cols)) {
  fill(value);
}

Matrix Matrix::uninitialized(int rows, int cols) {
  check(rows >= 0 && cols >= 0, "Matrix: negative shape");
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<size_t>(rows) * cols);
  return m;
}

Matrix Matrix::glorot(int rows, int cols, Rng& rng) {
  Matrix m = uninitialized(rows, cols);
  const double limit = std::sqrt(6.0 / (rows + cols));
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t = uninitialized(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (int c = 0; c < cols_; ++c) t.data()[static_cast<size_t>(c) * rows_ + r] = src[c];
  }
  return t;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::add_in_place(const Matrix& other) {
  check(same_shape(other), "add_in_place: shape mismatch");
  simd::add(data_.data(), other.data_.data(), data_.size());
}

void Matrix::add_scaled_in_place(const Matrix& other, double factor) {
  check(same_shape(other), "add_scaled_in_place: shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += factor * other.data_[i];
}

void Matrix::scale_in_place(double factor) {
  for (double& v : data_) v *= factor;
}

double Matrix::sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

std::string Matrix::shape_string() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c = Matrix::uninitialized(a.rows(), b.cols());
  gemm_into<false, true>(a.data(), static_cast<size_t>(a.cols()), 1, a.cols(), b.data(),
                         c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn: dimension mismatch");
  Matrix c = Matrix::uninitialized(a.cols(), b.cols());
  matmul_tn_into<false>(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt: dimension mismatch");
  Matrix c = Matrix::uninitialized(a.rows(), b.rows());
  matmul_nt_into<false>(a, b, c);
  return c;
}

void matmul_tn_add(const Matrix& a, const Matrix& b, Matrix& c) {
  check(a.rows() == b.rows(), "matmul_tn_add: dimension mismatch");
  check(c.rows() == a.cols() && c.cols() == b.cols(), "matmul_tn_add: output shape");
  matmul_tn_into<true>(a, b, c);
}

void matmul_nt_add(const Matrix& a, const Matrix& b, Matrix& c) {
  check(a.cols() == b.cols(), "matmul_nt_add: dimension mismatch");
  check(c.rows() == a.rows() && c.cols() == b.rows(), "matmul_nt_add: output shape");
  matmul_nt_into<true>(a, b, c);
}

Matrix add(const Matrix& a, const Matrix& b) {
  check(a.same_shape(b), "add_in_place: shape mismatch");
  Matrix c = Matrix::uninitialized(a.rows(), a.cols());
  simd::sum(c.data(), a.data(), b.data(), static_cast<size_t>(c.size()));
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  check(a.same_shape(b), "add_scaled_in_place: shape mismatch");
  Matrix c = Matrix::uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < c.size(); ++i) c.data()[i] = a.data()[i] + -1.0 * b.data()[i];
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  check(a.same_shape(b), "hadamard: shape mismatch");
  Matrix c = Matrix::uninitialized(a.rows(), a.cols());
  simd::product(c.data(), a.data(), b.data(), static_cast<size_t>(c.size()));
  return c;
}

Matrix scale(const Matrix& a, double factor) {
  Matrix c = Matrix::uninitialized(a.rows(), a.cols());
  simd::scaled(c.data(), a.data(), factor, static_cast<size_t>(c.size()));
  return c;
}

}  // namespace heterog::nn
