// Byte-identity tests for the training kernels behind nn::Trainer::fit.
// Every kernel is compared against a naive loop written here, in the
// operation order DESIGN.md §12.5 fixes, over ragged widths and row counts
// and over inputs holding exact zeros, -0.0 and subnormals. A golden pin
// then fixes the weights and loss histories of one whole fit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/simd_kernels.hpp"
#include "nn/trainer.hpp"

namespace topil::nn {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 3, 5, 17, 33, 64, 67};
constexpr std::size_t kRows[] = {1, 5, 128, 129};

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Gaussian values with about 15% exact +0.0, 5% -0.0 and 5% subnormals
// of either sign mixed in.
void fill_adversarial(float* data, std::size_t n, Rng& rng, double scale) {
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.15) {
      data[i] = 0.0f;
    } else if (u < 0.20) {
      data[i] = -0.0f;
    } else if (u < 0.25) {
      const float tiny = rng.uniform(0.0, 1.0) < 0.5
                             ? std::numeric_limits<float>::denorm_min()
                             : 3e-39f;
      data[i] = rng.uniform(0.0, 1.0) < 0.5 ? tiny : -tiny;
    } else {
      data[i] = static_cast<float>(rng.gaussian(0.0, scale));
    }
  }
}

void expect_same_bits(const float* got, const float* want, std::size_t n,
                      const std::string& label) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << label << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::string shape_label(const char* what, std::size_t rows, std::size_t in,
                        std::size_t out) {
  return std::string(what) + " rows " + std::to_string(rows) + " in " +
         std::to_string(in) + " out " + std::to_string(out);
}

TEST(TrainKernels, ForwardMatchesNaiveLoop) {
  Rng rng(101);
  for (const std::size_t rows : kRows) {
    for (const std::size_t in : kWidths) {
      for (const std::size_t out : kWidths) {
        std::vector<float> x(rows * in);
        std::vector<float> w(in * out);
        std::vector<float> bias(out);
        fill_adversarial(x.data(), x.size(), rng, 1.0);
        fill_adversarial(w.data(), w.size(), rng, 0.5);
        fill_adversarial(bias.data(), bias.size(), rng, 0.5);
        for (const bool relu : {false, true}) {
          std::vector<float> want(rows * out);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t j = 0; j < out; ++j) {
              float acc = 0.0f;
              for (std::size_t k = 0; k < in; ++k) {
                acc += x[r * in + k] * w[k * out + j];
              }
              const float v = acc + bias[j];
              want[r * out + j] = (relu && v < 0.0f) ? 0.0f : v;
            }
          }
          std::vector<float> got(rows * out);
          dense_forward_simd(x.data(), rows, in, w.data(), bias.data(), out,
                             got.data(), relu);
          expect_same_bits(got.data(), want.data(), got.size(),
                           shape_label(relu ? "relu" : "linear", rows, in,
                                       out));
        }
      }
    }
  }
}

// DenseLayer::backward against naive dW, db and dX loops: once right after
// zero_grad() (the kernel writes dW straight into the gradient) and once
// more on top of those values (compute-then-add: g + sum, db accumulated
// row by row as before).
TEST(TrainKernels, DenseBackwardMatchesNaiveLoops) {
  Rng rng(202);
  for (const std::size_t rows : kRows) {
    for (const std::size_t in : kWidths) {
      for (const std::size_t out : kWidths) {
        DenseLayer layer(in, out);
        fill_adversarial(layer.weights().data(), in * out, rng, 0.5);
        Matrix x(rows, in);
        Matrix dy(rows, out);
        fill_adversarial(x.data(), x.size(), rng, 1.0);
        fill_adversarial(dy.data(), dy.size(), rng, 0.1);
        // Signed zero inputs against infinite gradients: only the zero-input
        // skip keeps 0 * inf = NaN out of dW.
        for (std::size_t i = 0; i < in; ++i) x.at(0, i) = i % 2 ? -0.0f : 0.0f;
        for (std::size_t j = 0; j < out; ++j) {
          dy.at(0, j) = (j % 2 ? -1.0f : 1.0f) *
                        std::numeric_limits<float>::infinity();
        }

        std::vector<float> dw_once(in * out);
        std::vector<float> db_want(out, 0.0f);
        for (std::size_t i = 0; i < in; ++i) {
          for (std::size_t j = 0; j < out; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < rows; ++k) {
              const float xki = x.data()[k * in + i];
              if (xki == 0.0f) continue;
              acc += xki * dy.data()[k * out + j];
            }
            dw_once[i * out + j] = acc;
          }
        }
        const float* w = layer.weights().data();
        std::vector<float> dx_want(rows * in);
        for (std::size_t k = 0; k < rows; ++k) {
          for (std::size_t i = 0; i < in; ++i) {
            float acc = 0.0f;
            for (std::size_t j = 0; j < out; ++j) {
              acc += dy.data()[k * out + j] * w[i * out + j];
            }
            dx_want[k * in + i] = acc;
          }
        }

        DenseBackwardScratch scratch;
        Matrix dx;
        layer.zero_grad();
        layer.backward(x, dy, scratch, &dx);
        for (std::size_t k = 0; k < rows; ++k) {
          for (std::size_t j = 0; j < out; ++j) {
            db_want[j] += dy.data()[k * out + j];
          }
        }
        const std::string label = shape_label("backward", rows, in, out);
        expect_same_bits(layer.weight_grad().data(), dw_once.data(),
                         dw_once.size(), label + " dW");
        expect_same_bits(layer.bias_grad().data(), db_want.data(), out,
                         label + " db");
        ASSERT_EQ(dx.rows(), rows);
        ASSERT_EQ(dx.cols(), in);
        expect_same_bits(dx.data(), dx_want.data(), dx_want.size(),
                         label + " dX");

        layer.backward(x, dy, scratch, nullptr);
        std::vector<float> dw_twice(in * out);
        for (std::size_t i = 0; i < dw_twice.size(); ++i) {
          dw_twice[i] = dw_once[i] + dw_once[i];
        }
        for (std::size_t k = 0; k < rows; ++k) {
          for (std::size_t j = 0; j < out; ++j) {
            db_want[j] += dy.data()[k * out + j];
          }
        }
        expect_same_bits(layer.weight_grad().data(), dw_twice.data(),
                         dw_twice.size(), label + " dW accumulated");
        expect_same_bits(layer.bias_grad().data(), db_want.data(), out,
                         label + " db accumulated");
      }
    }
  }
}

TEST(TrainKernels, ReluMaskFromPostActivationEqualsPreActivation) {
  const float values[] = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          1.0f,
                          -1.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
  for (const float v : values) {
    const float a = (v < 0.0f) ? 0.0f : v;
    EXPECT_EQ(a <= 0.0f, v <= 0.0f) << v;
  }
}

// Mlp::backward (post-activation masks, workspace buffers) against a
// layer-by-layer DenseLayer + ReluLayer chain, whose ReLU mask reads the
// cached pre-activation.
TEST(TrainKernels, MlpBackwardMatchesLayerChain) {
  Rng rng(303);
  for (const std::size_t rows : kRows) {
    Topology topology;
    topology.inputs = 21;
    topology.hidden = {67, 33, 5};
    topology.outputs = 8;
    Mlp model(topology);
    model.init(rows);
    TrainWorkspace ws;
    ws.input = Matrix(rows, topology.inputs);
    fill_adversarial(ws.input.data(), ws.input.size(), rng, 1.0);
    Matrix dy(rows, topology.outputs);
    fill_adversarial(dy.data(), dy.size(), rng, 0.1);

    std::vector<DenseLayer> chain = model.layers();
    std::vector<ReluLayer> relus(topology.hidden.size());
    Matrix h = ws.input;
    for (std::size_t i = 0; i < relus.size(); ++i) {
      h = relus[i].forward(chain[i].forward(h));
    }
    const Matrix chain_out = chain.back().forward(h);
    for (auto& layer : chain) layer.zero_grad();
    Matrix g = chain.back().backward(dy);
    for (std::size_t i = relus.size(); i-- > 0;) {
      g = chain[i].backward(relus[i].backward(g));
    }

    model.zero_grad();
    const Matrix& out = model.forward(ws);
    expect_same_bits(out.data(), chain_out.data(), out.size(),
                     "forward rows " + std::to_string(rows));
    model.backward(dy, ws);
    for (std::size_t l = 0; l < chain.size(); ++l) {
      const std::string label =
          "rows " + std::to_string(rows) + " layer " + std::to_string(l);
      expect_same_bits(model.layers()[l].weight_grad().data(),
                       chain[l].weight_grad().data(),
                       chain[l].weight_grad().size(), label + " dW");
      expect_same_bits(model.layers()[l].bias_grad().data(),
                       chain[l].bias_grad().data(),
                       chain[l].bias_grad().size(), label + " db");
    }
  }
}

// Two Adam steps against the per-element double-precision sequence over
// the flat parameter order (each layer's weights, then its bias).
TEST(TrainKernels, AdamStepsMatchNaiveLoop) {
  Rng rng(404);
  for (const std::size_t in : kWidths) {
    for (const std::size_t out : kWidths) {
      Topology topology;
      topology.inputs = in;
      topology.hidden = {17};
      topology.outputs = out;
      Mlp model(topology);
      model.init(in * 100 + out);
      std::vector<float> params = model.save_weights();
      std::vector<float> m(params.size(), 0.0f);
      std::vector<float> v(params.size(), 0.0f);
      Adam adam(model);
      const Adam::Config config;
      for (int t = 1; t <= 2; ++t) {
        const std::size_t rows = kRows[static_cast<std::size_t>(t)];
        Matrix x(rows, in);
        Matrix dy(rows, out);
        fill_adversarial(x.data(), x.size(), rng, 1.0);
        fill_adversarial(dy.data(), dy.size(), rng, 0.1);
        model.zero_grad();
        model.forward(x);
        model.backward(dy);
        std::vector<float> grads;
        for (const auto& layer : model.layers()) {
          for (std::size_t i = 0; i < layer.num_params(); ++i) {
            grads.push_back(layer.grad(i));
          }
        }
        const double lr = 0.01 / t;
        const double bc1 = 1.0 - std::pow(config.beta1, static_cast<double>(t));
        const double bc2 = 1.0 - std::pow(config.beta2, static_cast<double>(t));
        for (std::size_t i = 0; i < params.size(); ++i) {
          const double g = grads[i];
          m[i] = static_cast<float>(config.beta1 * m[i] +
                                    (1.0 - config.beta1) * g);
          v[i] = static_cast<float>(config.beta2 * v[i] +
                                    (1.0 - config.beta2) * g * g);
          const double m_hat = m[i] / bc1;
          const double v_hat = v[i] / bc2;
          params[i] -= static_cast<float>(
              lr * m_hat / (std::sqrt(v_hat) + config.epsilon));
        }
        adam.step(lr);
        const std::vector<float> got = model.save_weights();
        expect_same_bits(got.data(), params.data(), params.size(),
                         shape_label("adam step", rows, in, out));
      }
    }
  }
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The golden fit: 21 -> 4x64 -> 8 (the NAS winner), 1000 rows so the 800
// training rows end in a ragged 32-row batch, 3 epochs, seed 7. About a
// fifth of the inputs are exact zeros, as in the IL features. The pinned
// values come from the scalar training loops (matmul_transposed_* and the
// per-parameter Adam loop) and must not move: any change to a training
// operation order breaks them.
TEST(TrainKernels, GoldenFitPinsWeightsAndLossHistories) {
  constexpr std::size_t kFitRows = 1000;
  Matrix x(kFitRows, 21);
  Matrix y(kFitRows, 8);
  Rng rng(7);
  for (std::size_t r = 0; r < kFitRows; ++r) {
    for (std::size_t c = 0; c < 21; ++c) {
      const double v = rng.uniform(-1.0, 1.0);
      x.at(r, c) = rng.uniform(0.0, 1.0) < 0.2 ? 0.0f : static_cast<float>(v);
    }
    for (std::size_t c = 0; c < 8; ++c) {
      y.at(r, c) = static_cast<float>(
          std::sin(x.at(r, c) + 0.5 * x.at(r, c + 8)) + 0.1 * x.at(r, 20));
    }
  }
  Topology topology;
  topology.inputs = 21;
  topology.hidden = {64, 64, 64, 64};
  topology.outputs = 8;
  Mlp model(topology);
  TrainerConfig config;
  config.max_epochs = 3;
  config.seed = 7;
  const TrainResult result = Trainer(config).fit(model, x, y);

  const std::vector<float> weights = model.save_weights();
  EXPECT_EQ(fnv1a(weights.data(), weights.size() * sizeof(float)),
            0x9f7e421b7ad72735ull);
  const std::vector<std::uint64_t> train_want = {
      0x3fcbe123d9704f45ull, 0x3fbe36477f4f3b01ull, 0x3fb154bef0fa5856ull};
  const std::vector<std::uint64_t> val_want = {
      0x3fc4772a8735db8full, 0x3fb6fae799dcf185ull, 0x3fae2100ac43b2d1ull};
  ASSERT_EQ(result.train_loss_history.size(), train_want.size());
  ASSERT_EQ(result.validation_loss_history.size(), val_want.size());
  for (std::size_t e = 0; e < train_want.size(); ++e) {
    EXPECT_EQ(bits_of(result.train_loss_history[e]), train_want[e])
        << "epoch " << e << " train " << result.train_loss_history[e];
    EXPECT_EQ(bits_of(result.validation_loss_history[e]), val_want[e])
        << "epoch " << e << " val " << result.validation_loss_history[e];
  }
}

}  // namespace
}  // namespace topil::nn
