#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace topil::nn {

/// Dense row-major 2-D float tensor. The NN stack is deliberately small and
/// dependency-free: the policy network is a 21-input MLP, so a simple
/// cache-friendly matrix type outperforms any heavyweight framework here.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  float* row(std::size_t r);
  const float* row(std::size_t r) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float value);

  /// Reshape in place, reusing the existing allocation when it is large
  /// enough. Contents are unspecified afterwards (callers overwrite).
  void resize(std::size_t rows, std::size_t cols);

  /// out = this * other  (rows x other.cols).
  Matrix matmul(const Matrix& other) const;
  /// out = this * other, written into a caller-owned output matrix with a
  /// caller-owned scratch buffer for the transposed right operand. Reusing
  /// both across calls (see nn::InferenceWorkspace) removes the per-call
  /// allocations from the inference hot path. Accumulation order is
  /// identical to `matmul`, so results match bit-for-bit.
  void matmul_into(const Matrix& other, Matrix& out,
                   std::vector<float>& bt_scratch) const;
  /// out = this^T * other, through the training weight-gradient kernel
  /// (dense_weight_grad_simd: ascending-k, terms whose element of `this`
  /// is an exact zero skipped).
  Matrix matmul_transposed_self(const Matrix& other) const;
  /// out = this * other^T, through the no-bias dense_forward_simd kernel.
  Matrix matmul_transposed_other(const Matrix& other) const;
  /// out = this^T (cols x rows), reusing out's allocation.
  void transpose_into(Matrix& out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace topil::nn
