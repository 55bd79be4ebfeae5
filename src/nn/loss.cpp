#include "nn/loss.hpp"

namespace topil::nn {

namespace {
void check_shapes(const Matrix& a, const Matrix& b) {
  TOPIL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "loss shape mismatch");
  TOPIL_REQUIRE(a.size() > 0, "loss over empty batch");
}
}  // namespace

double mse(const Matrix& prediction, const Matrix& target) {
  return add_squared_errors(prediction, target, 0.0) /
         static_cast<double>(prediction.size());
}

double add_squared_errors(const Matrix& prediction, const Matrix& target,
                          double acc) {
  check_shapes(prediction, target);
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = static_cast<double>(prediction.data()[i]) -
                     static_cast<double>(target.data()[i]);
    acc += d * d;
  }
  return acc;
}

Matrix mse_gradient(const Matrix& prediction, const Matrix& target) {
  Matrix grad;
  mse_gradient_into(prediction, target, grad);
  return grad;
}

void mse_gradient_into(const Matrix& prediction, const Matrix& target,
                       Matrix& grad) {
  check_shapes(prediction, target);
  grad.resize(prediction.rows(), prediction.cols());
  const float scale = 2.0f / static_cast<float>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    grad.data()[i] =
        scale * (prediction.data()[i] - target.data()[i]);
  }
}

}  // namespace topil::nn
