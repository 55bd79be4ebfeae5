#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace topil::nn {

/// Reusable buffers of DenseLayer::backward: the transposed layer input
/// (for dW), the transposed weights (for dX) and the dW staging buffer used
/// when the gradients already hold values.
struct DenseBackwardScratch {
  Matrix input_t;
  Matrix weights_t;
  Matrix dw;
};

/// Fully-connected layer: y = x * W + b, with cached activations for
/// backprop and accumulated parameter gradients.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_features, std::size_t out_features);

  /// Glorot/Xavier uniform initialization with the given generator.
  void init(Rng& rng);

  /// Forward pass over a batch (batch x in) -> (batch x out) through
  /// dense_forward_simd. Caches the input for the subsequent backward pass.
  Matrix forward(const Matrix& input);

  /// Inference-only forward pass (no caching, usable on const layers).
  Matrix forward_inference(const Matrix& input) const;

  /// Inference forward pass into a caller-owned output, with a caller-owned
  /// transpose scratch buffer (see Matrix::matmul_into). The governor's
  /// per-tick inference loop reuses one workspace instead of allocating an
  /// activation matrix and a transpose buffer per layer per call.
  void forward_inference_into(const Matrix& input, Matrix& out,
                              std::vector<float>& bt_scratch) const;

  /// Backward pass: given dL/dy, accumulates dL/dW and dL/db and returns
  /// dL/dx for the upstream layer.
  Matrix backward(const Matrix& grad_output);

  /// Backward pass over one batch: `input` is the batch x this layer saw
  /// in forward and `grad_output` is dL/dy for it. Adds x^T * dy to dL/dW
  /// and the column sums of dy to dL/db, and writes dL/dx = dy * W^T into
  /// `grad_input` unless it is null. dW is computed first and then added
  /// (a non-zero gradient gets g + sum, never a reassociated sum); right
  /// after zero_grad() the kernel writes straight into the gradient, which
  /// is bit-identical because a +0.0f-seeded sum is never -0.0 (DESIGN.md
  /// §12.5). `grad_input` must not alias `input` or `grad_output`.
  void backward(const Matrix& input, const Matrix& grad_output,
                DenseBackwardScratch& scratch, Matrix* grad_input);

  void zero_grad();

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }
  const Matrix& weight_grad() const { return dw_; }
  const std::vector<float>& bias_grad() const { return db_; }

  /// Flat views over all parameters / gradients for the optimizer.
  std::size_t num_params() const { return w_.size() + b_.size(); }
  float* param(std::size_t i);
  float grad(std::size_t i) const;

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;   ///< in x out
  std::vector<float> b_;
  Matrix dw_;
  std::vector<float> db_;
  bool grad_zeroed_ = true;  ///< dw_ is all +0.0f (set by zero_grad())
  Matrix cached_input_;
};

/// Element-wise ReLU with cached mask.
class ReluLayer {
 public:
  Matrix forward(const Matrix& input);
  static Matrix forward_inference(const Matrix& input);
  Matrix backward(const Matrix& grad_output) const;

 private:
  Matrix cached_input_;
};

}  // namespace topil::nn
