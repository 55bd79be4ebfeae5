#include "nn/mlp.hpp"

namespace topil::nn {

Mlp::Mlp(const Topology& topology) : topology_(topology) {
  TOPIL_REQUIRE(topology.inputs > 0, "topology needs inputs");
  TOPIL_REQUIRE(topology.outputs > 0, "topology needs outputs");
  std::size_t prev = topology.inputs;
  for (std::size_t width : topology.hidden) {
    TOPIL_REQUIRE(width > 0, "hidden width must be positive");
    dense_.emplace_back(prev, width);
    prev = width;
  }
  dense_.emplace_back(prev, topology.outputs);
}

void Mlp::init(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& layer : dense_) layer.init(rng);
}

const Matrix& Mlp::forward(TrainWorkspace& ws) const {
  TOPIL_REQUIRE(ws.input.cols() == topology_.inputs,
                "input width does not match topology");
  ws.activations.resize(dense_.size());
  const Matrix* x = &ws.input;
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    const DenseLayer& layer = dense_[i];
    Matrix& activation = ws.activations[i];
    activation.resize(x->rows(), layer.out_features());
    dense_forward_simd(x->data(), x->rows(), layer.in_features(),
                       layer.weights().data(), layer.bias().data(),
                       layer.out_features(), activation.data(),
                       /*relu=*/i + 1 < dense_.size());
    x = &activation;
  }
  return ws.activations.back();
}

Matrix Mlp::forward(const Matrix& input) {
  train_ws_.input = input;
  return forward(train_ws_);
}

Matrix Mlp::predict(const Matrix& input) const {
  Matrix out;
  InferenceWorkspace ws;
  predict_into(input, out, ws);
  return out;
}

void Mlp::predict_into(const Matrix& input, Matrix& out,
                       InferenceWorkspace& ws) const {
  const Matrix* x = &input;
  for (std::size_t i = 0; i < topology_.hidden.size(); ++i) {
    Matrix& activation = (i % 2 == 0) ? ws.a : ws.b;
    dense_[i].forward_inference_into(*x, activation, ws.bt);
    float* data = activation.data();
    for (std::size_t k = 0; k < activation.size(); ++k) {
      if (data[k] < 0.0f) data[k] = 0.0f;
    }
    x = &activation;
  }
  dense_.back().forward_inference_into(*x, out, ws.bt);
}

void Mlp::predict_into(const Matrix& input, Matrix& out,
                       InferenceWorkspace& ws, InferenceKernel kernel) const {
  if (kernel == InferenceKernel::Scalar) {
    predict_into(input, out, ws);
    return;
  }
  TOPIL_REQUIRE(input.cols() == topology_.inputs,
                "input width does not match topology");
  const Matrix* x = &input;
  for (std::size_t i = 0; i < topology_.hidden.size(); ++i) {
    Matrix& activation = (i % 2 == 0) ? ws.a : ws.b;
    const DenseLayer& layer = dense_[i];
    activation.resize(x->rows(), layer.out_features());
    dense_forward_simd(x->data(), x->rows(), layer.in_features(),
                       layer.weights().data(), layer.bias().data(),
                       layer.out_features(), activation.data(),
                       /*relu=*/true);
    x = &activation;
  }
  const DenseLayer& last = dense_.back();
  out.resize(x->rows(), last.out_features());
  dense_forward_simd(x->data(), x->rows(), last.in_features(),
                     last.weights().data(), last.bias().data(),
                     last.out_features(), out.data(), /*relu=*/false);
}

void Mlp::backward(const Matrix& grad_output, TrainWorkspace& ws) {
  TOPIL_REQUIRE(ws.activations.size() == dense_.size(),
                "backward before forward");
  const Matrix* grad = &grad_output;
  for (std::size_t i = dense_.size() - 1; i > 0; --i) {
    // dL/dx of layer i is dL/d(output) of ReLU layer i-1; it masks to
    // +0.0f wherever that layer's post-activation is <= 0.
    const Matrix& hidden = ws.activations[i - 1];
    Matrix& grad_input = (i % 2 == 0) ? ws.grad_a : ws.grad_b;
    dense_[i].backward(hidden, *grad, ws.scratch, &grad_input);
    float* g = grad_input.data();
    const float* a = hidden.data();
    for (std::size_t k = 0; k < grad_input.size(); ++k) {
      if (a[k] <= 0.0f) g[k] = 0.0f;
    }
    grad = &grad_input;
  }
  dense_[0].backward(ws.input, *grad, ws.scratch, /*grad_input=*/nullptr);
}

void Mlp::backward(const Matrix& grad_output) {
  backward(grad_output, train_ws_);
}

void Mlp::zero_grad() {
  for (auto& layer : dense_) layer.zero_grad();
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : dense_) n += layer.num_params();
  return n;
}

std::vector<float> Mlp::save_weights() const {
  std::vector<float> out;
  out.reserve(num_params());
  for (const auto& layer : dense_) {
    const Matrix& w = layer.weights();
    out.insert(out.end(), w.data(), w.data() + w.size());
    out.insert(out.end(), layer.bias().begin(), layer.bias().end());
  }
  return out;
}

void Mlp::load_weights(const std::vector<float>& weights) {
  TOPIL_REQUIRE(weights.size() == num_params(),
                "weight vector size does not match topology");
  std::size_t pos = 0;
  for (auto& layer : dense_) {
    Matrix& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = weights[pos++];
    for (float& b : layer.bias()) b = weights[pos++];
  }
}

}  // namespace topil::nn
