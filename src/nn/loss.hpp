#pragma once

#include "nn/tensor.hpp"

namespace topil::nn {

/// Mean-squared-error loss over a batch, averaged over all elements.
double mse(const Matrix& prediction, const Matrix& target);

/// `acc` plus the squared errors of the batch, added one element at a time
/// in row-major order. Chaining it over row chunks of a dataset and
/// dividing by the element count gives exactly mse() over the whole set.
double add_squared_errors(const Matrix& prediction, const Matrix& target,
                          double acc);

/// Gradient of the MSE loss w.r.t. the prediction: 2*(pred-target)/N.
Matrix mse_gradient(const Matrix& prediction, const Matrix& target);
/// mse_gradient into a caller-owned matrix (reusing its allocation).
void mse_gradient_into(const Matrix& prediction, const Matrix& target,
                       Matrix& grad);

}  // namespace topil::nn
