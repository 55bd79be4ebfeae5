#include "nn/simd_kernels.hpp"

#include "common/error.hpp"

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define TOPIL_SIMD_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef TOPIL_SIMD_CLONES
#define TOPIL_SIMD_CLONES
#endif

namespace topil::nn {
namespace {

// Processes every row for one block of kJBlock output channels starting at
// j0. The accumulator block lives in registers; the k loop broadcasts one
// input element and streams kJBlock contiguous weights, which the compiler
// turns into broadcast + vmulps + vaddps lanes (no FMA: -ffp-contract=off).
// Per (row, channel) the float operation sequence is identical to the
// scalar reference, so the result is bit-identical lane count regardless.
// kSkipZero drops the terms whose input element is an exact zero, as the
// scalar weight-gradient reference does.
template <std::size_t kJBlock, bool kSkipZero>
[[gnu::always_inline]] inline void dense_rows_jblock(
    const float* x, std::size_t rows, std::size_t in, const float* w,
    const float* bias, std::size_t out_cols, float* out, bool relu,
    std::size_t j0) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* xi = x + i * in;
    float* oi = out + i * out_cols + j0;
    float acc[kJBlock];
    for (std::size_t t = 0; t < kJBlock; ++t) acc[t] = 0.0f;
    const float* wk = w + j0;
    for (std::size_t k = 0; k < in; ++k, wk += out_cols) {
      const float xk = xi[k];
      if constexpr (kSkipZero) {
        if (xk == 0.0f) continue;
      }
      for (std::size_t t = 0; t < kJBlock; ++t) acc[t] += xk * wk[t];
    }
    if (bias != nullptr) {
      for (std::size_t t = 0; t < kJBlock; ++t) acc[t] += bias[j0 + t];
    }
    if (relu) {
      for (std::size_t t = 0; t < kJBlock; ++t) {
        // Keep the reference's exact branch semantics: -0.0 and NaN pass
        // through ((v < 0) is false for both), so no max() substitution.
        oi[t] = (acc[t] < 0.0f) ? 0.0f : acc[t];
      }
    } else {
      for (std::size_t t = 0; t < kJBlock; ++t) oi[t] = acc[t];
    }
  }
}

// Descending block tiers over the output channels: wide blocks fill the
// vector lanes, narrow tail tiers finish ragged widths without a
// scalar-remainder loop of different numerics (every tier runs the same
// per-element operation sequence).
template <bool kSkipZero>
[[gnu::always_inline]] inline void dense_all_jblocks(
    const float* x, std::size_t rows, std::size_t in, const float* w,
    const float* bias, std::size_t out_cols, float* out, bool relu) {
  std::size_t j0 = 0;
  while (out_cols - j0 >= 32) {
    dense_rows_jblock<32, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                     relu, j0);
    j0 += 32;
  }
  if (out_cols - j0 >= 16) {
    dense_rows_jblock<16, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                     relu, j0);
    j0 += 16;
  }
  if (out_cols - j0 >= 8) {
    dense_rows_jblock<8, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                    relu, j0);
    j0 += 8;
  }
  if (out_cols - j0 >= 4) {
    dense_rows_jblock<4, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                    relu, j0);
    j0 += 4;
  }
  if (out_cols - j0 >= 2) {
    dense_rows_jblock<2, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                    relu, j0);
    j0 += 2;
  }
  if (out_cols - j0 >= 1) {
    dense_rows_jblock<1, kSkipZero>(x, rows, in, w, bias, out_cols, out,
                                    relu, j0);
  }
}

TOPIL_SIMD_CLONES
void dense_forward_dispatch(const float* x, std::size_t rows, std::size_t in,
                            const float* w, const float* bias,
                            std::size_t out_cols, float* out, bool relu) {
  dense_all_jblocks<false>(x, rows, in, w, bias, out_cols, out, relu);
}

TOPIL_SIMD_CLONES
void dense_weight_grad_dispatch(const float* xt, std::size_t in,
                                std::size_t rows, const float* dy,
                                std::size_t out_cols, float* dw) {
  dense_all_jblocks<true>(xt, in, rows, dy, /*bias=*/nullptr, out_cols, dw,
                          /*relu=*/false);
}

}  // namespace

void dense_forward_simd(const float* x, std::size_t rows, std::size_t in,
                        const float* w, const float* bias,
                        std::size_t out_cols, float* out, bool relu) {
  TOPIL_REQUIRE(rows > 0, "dense_forward_simd: empty batch");
  TOPIL_REQUIRE(in > 0 && out_cols > 0, "dense_forward_simd: empty layer");
  dense_forward_dispatch(x, rows, in, w, bias, out_cols, out, relu);
}

void dense_weight_grad_simd(const float* xt, std::size_t in, std::size_t rows,
                            const float* dy, std::size_t out_cols, float* dw) {
  TOPIL_REQUIRE(rows > 0, "dense_weight_grad_simd: empty batch");
  TOPIL_REQUIRE(in > 0 && out_cols > 0,
                "dense_weight_grad_simd: empty layer");
  dense_weight_grad_dispatch(xt, in, rows, dy, out_cols, dw);
}

}  // namespace topil::nn
