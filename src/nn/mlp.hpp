#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/simd_kernels.hpp"

namespace topil::nn {

/// Network shape: input width, hidden widths, output width. The paper's
/// NAS selects {21, 64, 64, 64, 64, 8}.
struct Topology {
  std::size_t inputs = 0;
  std::vector<std::size_t> hidden;
  std::size_t outputs = 0;

  std::size_t num_layers() const { return hidden.size() + 1; }
};

/// Reusable buffers for the inference forward pass: two ping-pong
/// activation matrices plus the matmul transpose scratch. A caller that
/// runs inference repeatedly (governor tick, training validation) keeps
/// one workspace alive so the whole pass allocates nothing in steady
/// state. Workspaces must not be shared between threads.
struct InferenceWorkspace {
  Matrix a;
  Matrix b;
  std::vector<float> bt;
};

/// Reusable buffers of one training step: the batch input, every layer's
/// output (post-ReLU for hidden layers, which is all backward needs: a <= 0
/// exactly when the pre-activation v <= 0, -0.0 and NaN included), the
/// ping-pong dL/dx buffers and the dense-layer backward scratch. A trainer
/// keeps one workspace per fit, so a step allocates nothing once the
/// buffers reach the batch size. Workspaces must not be shared between
/// threads.
struct TrainWorkspace {
  Matrix input;  ///< batch rows, filled by the caller before forward()
  std::vector<Matrix> activations;
  Matrix grad_a;
  Matrix grad_b;
  DenseBackwardScratch scratch;
};

/// Fully-connected multi-layer perceptron: ReLU on hidden layers, linear
/// output (the paper's regression head over per-core mapping ratings).
class Mlp {
 public:
  explicit Mlp(const Topology& topology);

  /// (Re-)initialize all weights with the given seed.
  void init(std::uint64_t seed);

  /// Training forward pass over ws.input through dense_forward_simd with
  /// fused ReLU; every layer's output stays in `ws` for backward(). Returns
  /// the network output, which lives in `ws`.
  const Matrix& forward(TrainWorkspace& ws) const;
  /// Training forward pass over a batch (caches activations in the model's
  /// own workspace).
  Matrix forward(const Matrix& input);
  /// Inference forward pass (no caches; thread-safe on a const model).
  Matrix predict(const Matrix& input) const;
  /// Inference into a caller-owned output with reusable buffers; `out`
  /// must not alias `input`. Bit-identical to `predict`.
  void predict_into(const Matrix& input, Matrix& out,
                    InferenceWorkspace& ws) const;
  /// Same forward pass through an explicit compute engine. Both kernels
  /// are bit-identical by contract (see nn/simd_kernels.hpp); `Simd` runs
  /// the fused j-blocked kernel directly off the layer weights (no
  /// transpose scratch), `Scalar` is the reference path above.
  void predict_into(const Matrix& input, Matrix& out, InferenceWorkspace& ws,
                    InferenceKernel kernel) const;

  /// Backprop from dL/d(output) through the activations the last
  /// forward(ws) left in `ws`; accumulates parameter gradients.
  void backward(const Matrix& grad_output, TrainWorkspace& ws);
  /// Backprop after forward(const Matrix&); accumulates parameter gradients.
  void backward(const Matrix& grad_output);
  void zero_grad();

  const Topology& topology() const { return topology_; }
  std::size_t num_params() const;

  std::vector<DenseLayer>& layers() { return dense_; }
  const std::vector<DenseLayer>& layers() const { return dense_; }

  /// Deep snapshot/restore of all weights (used by early stopping).
  std::vector<float> save_weights() const;
  void load_weights(const std::vector<float>& weights);

 private:
  Topology topology_;
  std::vector<DenseLayer> dense_;
  TrainWorkspace train_ws_;  ///< backs forward(const Matrix&)/backward
};

}  // namespace topil::nn
