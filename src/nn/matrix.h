// Dense row-major matrix and the kernels of HeteroG's policy networks.
//
// Kernel contract: every output element adds the same terms in the same
// fixed order as the naive loop it replaces, so results are bit-identical to
// those loops. matmul and matmul_tn sum a[i][k] * b[k][j] over k ascending
// from 0.0, skipping terms whose a[i][k] == 0.0; matmul_nt's dot products
// run over k ascending from 0.0. Kernels block only across independent
// output elements (up to eight columns of a row, or one column of four rows,
// share a pass over k), never inside one element's sum. The *_add forms
// compute each element's full product before adding it, so they equal
// add_in_place of the product bit for bit. Shapes are checked once at op
// entry; inner loops then index raw row pointers. at() stays bounds-checked
// for callers outside the kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace heterog::nn {

namespace detail {

/// std::allocator whose no-argument construct() default-initialises, so a
/// sized std::vector<double> leaves its elements unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0);

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols, 0.0); }
  /// A rows x cols matrix whose elements are unspecified until written, for
  /// outputs a kernel overwrites in full (like make_unique_for_overwrite).
  static Matrix uninitialized(int rows, int cols);
  /// Glorot-uniform initialisation.
  static Matrix glorot(int rows, int cols, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }

  double& at(int r, int c) {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  /// First element of row r. Unchecked: kernels check shapes at entry.
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  Matrix transpose() const;

  void fill(double value);
  void add_in_place(const Matrix& other);        // this += other
  void add_scaled_in_place(const Matrix& other, double scale);
  void scale_in_place(double factor);

  double sum() const;
  double max_abs() const;

  std::string shape_string() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (avoids materialising the transpose).
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// C += A^T * B, equal to c.add_in_place(matmul_tn(a, b)).
void matmul_tn_add(const Matrix& a, const Matrix& b, Matrix& c);
/// C += A * B^T, equal to c.add_in_place(matmul_nt(a, b)).
void matmul_nt_add(const Matrix& a, const Matrix& b, Matrix& c);

Matrix add(const Matrix& a, const Matrix& b);
Matrix subtract(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
Matrix scale(const Matrix& a, double factor);

}  // namespace heterog::nn
