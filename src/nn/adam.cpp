#include "nn/adam.hpp"

#include <cmath>

namespace topil::nn {

Adam::Adam(Mlp& model, Config config) : model_(&model), config_(config) {
  TOPIL_REQUIRE(config.beta1 > 0.0 && config.beta1 < 1.0, "beta1 range");
  TOPIL_REQUIRE(config.beta2 > 0.0 && config.beta2 < 1.0, "beta2 range");
  m_.assign(model.num_params(), 0.0f);
  v_.assign(model.num_params(), 0.0f);
}

namespace {

// One Adam update over a contiguous parameter array. The double-precision
// sequence per element (float moments widened, updated, narrowed back;
// float parameter minus the narrowed step) is the optimizer's numerics
// contract: keep it expression for expression.
void adam_update(float* param, const float* grad, float* m, float* v,
                 std::size_t n, const Adam::Config& config,
                 double learning_rate, double bc1, double bc2) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    m[i] = static_cast<float>(config.beta1 * m[i] + (1.0 - config.beta1) * g);
    v[i] = static_cast<float>(config.beta2 * v[i] +
                              (1.0 - config.beta2) * g * g);
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    param[i] -= static_cast<float>(
        learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon));
  }
}

}  // namespace

void Adam::step(double learning_rate) {
  TOPIL_REQUIRE(learning_rate > 0.0, "learning rate must be positive");
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  TOPIL_ASSERT(m_.size() == model_->num_params(),
               "optimizer/model parameter count mismatch");

  // Each layer's weights, then its bias: the same flat order as
  // DenseLayer::param(i) and Mlp::save_weights().
  std::size_t idx = 0;
  for (auto& layer : model_->layers()) {
    Matrix& w = layer.weights();
    adam_update(w.data(), layer.weight_grad().data(), m_.data() + idx,
                v_.data() + idx, w.size(), config_, learning_rate, bc1, bc2);
    idx += w.size();
    std::vector<float>& b = layer.bias();
    adam_update(b.data(), layer.bias_grad().data(), m_.data() + idx,
                v_.data() + idx, b.size(), config_, learning_rate, bc1, bc2);
    idx += b.size();
  }
}

void Adam::reset() {
  std::fill(m_.begin(), m_.end(), 0.0f);
  std::fill(v_.begin(), v_.end(), 0.0f);
  t_ = 0;
}

}  // namespace topil::nn
