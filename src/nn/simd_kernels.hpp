#pragma once

#include <cstddef>

namespace topil::nn {

/// Which loops compute an inference result. Simd is the host inference
/// engine; Scalar is the reference that tests compare it against. The two
/// are bit-identical by contract (same fp32 accumulation order, ascending-k,
/// fused bias add, branch-preserving ReLU).
enum class InferenceKernel {
  Scalar,  ///< reference path: Matrix::matmul_into + separate bias pass
  Simd,    ///< fused j-blocked kernel, target_clones AVX2/AVX-512 dispatch
};

/// Fused dense-layer forward pass: out = x * w + bias, optional ReLU.
///
///   x    rows x in, row-major
///   w    in x out_cols, row-major (output channel j contiguous at fixed k,
///        so the kernel vectorizes over j with NO transpose while keeping
///        the ascending-k per-element accumulation order of the scalar
///        reference — the linchpin of the bit-identity contract)
///   bias out_cols, or nullptr for no bias add (the training dX = dY * W^T
///        product runs through here over a transposed copy of W)
///   out  rows x out_cols, row-major; must not alias x or w
///
/// Per output element the operation sequence is exactly the scalar
/// reference's: acc = 0.0f; acc += x[k]*w[k] for k ascending; v = acc +
/// bias; if relu and v < 0.0f then 0.0f. With -ffp-contract=off (repo-wide)
/// no FMA fusion can reassociate, so results are bit-identical across the
/// scalar path and every target_clones variant.
void dense_forward_simd(const float* x, std::size_t rows, std::size_t in,
                        const float* w, const float* bias,
                        std::size_t out_cols, float* out, bool relu);

/// Weight gradient of a dense layer: dw = x^T * dy, overwriting dw.
///
///   xt   in x rows, row-major: the layer input, transposed
///   dy   rows x out_cols, row-major: dL/d(layer output)
///   dw   in x out_cols, row-major; must not alias xt or dy
///
/// Same j-blocked kernel as dense_forward_simd, with no bias and no ReLU,
/// plus the zero-input skip of the scalar reference: per element, acc =
/// 0.0f; for each row k ascending with xt[i][k] != 0, acc += xt[i][k] *
/// dy[k][j]. Skipping exact zeros (both signs) keeps 0 * inf = NaN out of
/// the gradient, exactly like the reference.
void dense_weight_grad_simd(const float* xt, std::size_t in, std::size_t rows,
                            const float* dy, std::size_t out_cols, float* dw);

}  // namespace topil::nn
