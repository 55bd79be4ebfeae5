#pragma once

#include <cstdint>

#include "nn/mlp.hpp"

namespace topil::npu {

/// Convert an IEEE-754 binary32 to binary16 (round-to-nearest-even) and
/// back. Exposed for tests of the quantization path.
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

/// A model compiled for the NPU.
///
/// The Kirin 970 NPU executes in half precision: compiling converts all
/// weights fp32 -> fp16 -> fp32, so NPU inference results differ slightly
/// from host inference. The compiled model also knows its MAC count, which
/// drives the device latency model.
class CompiledModel {
 public:
  static CompiledModel compile(const nn::Mlp& model);

  /// Scalar reference inference with the quantized weights (batch x in)
  /// -> (batch x out). Tests compare the host engine against it.
  nn::Matrix infer(const nn::Matrix& input) const;

  /// The host inference engine: the fused SIMD dense kernel
  /// (nn::InferenceKernel::Simd) over the quantized weights, into a
  /// caller-owned output with reusable buffers (zero allocations in steady
  /// state). `out` must not alias `input`. Bit-identical to `infer`, row by
  /// row and at every batch size. NpuDevice::submit and
  /// InferenceAggregator::flush both compute their results here.
  void infer_batched_into(const nn::Matrix& input, nn::Matrix& out,
                          nn::InferenceWorkspace& ws) const;

  const nn::Topology& topology() const { return quantized_.topology(); }
  /// The quantized network itself (every weight is fp16-exact).
  const nn::Mlp& network() const { return quantized_; }
  std::size_t num_params() const { return quantized_.num_params(); }
  /// Multiply-accumulate operations per input row.
  double macs_per_row() const { return macs_per_row_; }

  /// FNV-1a hash over the topology and the quantized weight bits. Two
  /// compiled models with equal fingerprints compute the same function, so
  /// the fleet inference aggregator may concatenate their batches into one
  /// device call (row-independent inference keeps results bit-identical).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  explicit CompiledModel(nn::Mlp quantized);
  nn::Mlp quantized_;
  double macs_per_row_ = 0.0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace topil::npu
