#include "npu/compiled_model.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace topil::npu {

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));

  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xffu) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7fffffu;

  if (exponent >= 31) {
    if (((bits >> 23) & 0xffu) == 0xffu && mantissa != 0) {
      // NaN: keep the top ten payload bits and force the quiet bit so the
      // mantissa stays non-zero (signaling NaNs are quieted).
      return static_cast<std::uint16_t>(sign | 0x7c00u | (mantissa >> 13) |
                                        0x200u);
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow to inf
  }
  if (exponent <= 0) {
    if (exponent < -10) return static_cast<std::uint16_t>(sign);  // -> 0
    // Subnormal half.
    mantissa |= 0x800000u;
    const int shift = 14 - exponent;
    std::uint32_t half_mant = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t rem = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }

  std::uint32_t half = sign | (static_cast<std::uint32_t>(exponent) << 10) |
                       (mantissa >> 13);
  // Round to nearest even on the 13 dropped bits.
  const std::uint32_t rem = mantissa & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u)
                             << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1fu;
  std::uint32_t mantissa = half & 0x3ffu;

  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // zero
    } else {
      // Subnormal half -> normalized float.
      int e = -1;
      do {
        ++e;
        mantissa <<= 1;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3ffu;
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             (mantissa << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7f800000u | (mantissa << 13);  // inf / nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

CompiledModel::CompiledModel(nn::Mlp quantized)
    : quantized_(std::move(quantized)) {
  const auto& topo = quantized_.topology();
  double macs = 0.0;
  std::size_t prev = topo.inputs;
  for (std::size_t h : topo.hidden) {
    macs += static_cast<double>(prev) * static_cast<double>(h);
    prev = h;
  }
  macs += static_cast<double>(prev) * static_cast<double>(topo.outputs);
  macs_per_row_ = macs;

  // FNV-1a over shape and weight bit patterns.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(topo.inputs);
  for (std::size_t width : topo.hidden) mix(width);
  mix(topo.outputs);
  for (float w : quantized_.save_weights()) {
    std::uint32_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    mix(bits);
  }
  fingerprint_ = h;
}

CompiledModel CompiledModel::compile(const nn::Mlp& model) {
  nn::Mlp quantized(model.topology());
  std::vector<float> weights = model.save_weights();
  for (float& w : weights) w = half_to_float(float_to_half(w));
  quantized.load_weights(weights);
  return CompiledModel(std::move(quantized));
}

nn::Matrix CompiledModel::infer(const nn::Matrix& input) const {
  return quantized_.predict(input);
}

void CompiledModel::infer_batched_into(const nn::Matrix& input,
                                       nn::Matrix& out,
                                       nn::InferenceWorkspace& ws) const {
  TOPIL_REQUIRE(input.rows() > 0, "empty inference batch");
  quantized_.predict_into(input, out, ws, nn::InferenceKernel::Simd);
}

}  // namespace topil::npu
