#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "npu/batch_aggregator.hpp"
#include "npu/compiled_model.hpp"
#include "npu/npu_device.hpp"

// The host inference engine (CompiledModel::infer_batched_into, the fused
// SIMD kernel) against the scalar reference (CompiledModel::infer, i.e.
// Mlp::predict_into with InferenceKernel::Scalar): every output bit must
// agree, at every batch size and layer shape, through the aggregated
// flush, and through an NpuDevice round trip.
namespace topil::npu {
namespace {

const nn::Topology kPolicyTopology{21, {64, 64, 64, 64}, 8};

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void expect_bit_identical(const nn::Matrix& got, const nn::Matrix& want,
                          const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
        << label << " element " << i;
  }
}

nn::Mlp make_model(const nn::Topology& topology, std::uint64_t seed) {
  nn::Mlp model(topology);
  model.init(seed);
  return model;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  nn::Matrix batch(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return batch;
}

/// Engine output vs the scalar reference for one input batch.
void expect_engine_matches_reference(const CompiledModel& compiled,
                                     const nn::Matrix& input,
                                     const std::string& label) {
  nn::Matrix got;
  nn::InferenceWorkspace ws;
  compiled.infer_batched_into(input, got, ws);
  expect_bit_identical(got, compiled.infer(input), label);
}

TEST(InferenceEngine, BitIdenticalToScalarReference) {
  // Random topologies: 1-row batches are the urgent-single-query case;
  // the rest are random.
  Rng shapes(42);
  for (int trial = 0; trial < 10; ++trial) {
    nn::Topology topology;
    topology.inputs = static_cast<std::size_t>(shapes.uniform_int(1, 30));
    const int depth = shapes.uniform_int(1, 4);
    for (int d = 0; d < depth; ++d) {
      topology.hidden.push_back(
          static_cast<std::size_t>(shapes.uniform_int(1, 64)));
    }
    topology.outputs = static_cast<std::size_t>(shapes.uniform_int(1, 16));
    const CompiledModel compiled =
        CompiledModel::compile(make_model(topology, 100 + trial));
    for (const std::size_t rows :
         {std::size_t{1},
          static_cast<std::size_t>(shapes.uniform_int(2, 70))}) {
      expect_engine_matches_reference(
          compiled, random_batch(rows, topology.inputs, 7000 + trial),
          "trial " + std::to_string(trial) + " rows " + std::to_string(rows));
    }
  }

  // The paper's policy net over the governor's and the fleet's batch
  // range: every size up to 32, then both sides of each SIMD block edge.
  const CompiledModel policy =
      CompiledModel::compile(make_model(kPolicyTopology, 4242));
  std::vector<std::size_t> batches;
  for (std::size_t b = 1; b <= 32; ++b) batches.push_back(b);
  for (const std::size_t b : {33, 48, 63, 64, 65, 96, 127, 128, 129, 192,
                              255, 256}) {
    batches.push_back(b);
  }
  for (const std::size_t batch : batches) {
    expect_engine_matches_reference(
        policy, random_batch(batch, kPolicyTopology.inputs, 1000 + batch),
        "policy net batch " + std::to_string(batch));
  }

  // One dense layer whose widths leave tail rows and tail columns in the
  // fused kernel's register tiles.
  struct Shape {
    std::size_t in;
    std::size_t out;
  };
  for (const Shape shape : {Shape{21, 8}, Shape{64, 64}, Shape{33, 17},
                            Shape{61, 3}}) {
    const nn::Topology topology{shape.in, {}, shape.out};
    const CompiledModel layer = CompiledModel::compile(
        make_model(topology, 7 + shape.in * 131 + shape.out));
    for (const std::size_t batch : {1, 16, 64}) {
      expect_engine_matches_reference(
          layer, random_batch(batch, shape.in, 9000 + shape.in + batch),
          std::to_string(shape.in) + "x" + std::to_string(shape.out) +
              " batch " + std::to_string(batch));
    }
  }
}

TEST(InferenceEngine, AdversarialFp16InputsMatchBitwise) {
  // Subnormal, signed-zero and fp16-saturating inputs through a compiled
  // model: the fused path must agree with the scalar reference on every
  // bit.
  const nn::Topology topology{13, {32, 24}, 5};
  const CompiledModel compiled = CompiledModel::compile(make_model(topology, 3));
  const float specials[] = {0.0f,      -0.0f,   5.96e-8f, -5.96e-8f,
                            6.1e-5f,   -6.1e-5f, 65504.0f, -65504.0f,
                            65520.0f,  1e-40f,  -1e-40f,  1.0f};
  nn::Matrix input(9, topology.inputs);
  Rng rng(11);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = specials[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(specials)) - 1))];
  }
  expect_engine_matches_reference(compiled, input, "adversarial inputs");
}

TEST(InferenceEngine, RejectsEmptyBatch) {
  const nn::Topology topology{4, {8}, 2};
  const CompiledModel compiled = CompiledModel::compile(make_model(topology, 1));
  nn::Matrix empty;
  nn::Matrix out;
  nn::InferenceWorkspace ws;
  EXPECT_THROW(compiled.infer_batched_into(empty, out, ws), InvalidArgument);
}

TEST(DispatchInference, DeviceResultsIdenticalAcrossBackends) {
  // An NpuDevice submit/take_result round trip — the governor's path —
  // must agree bit for bit with both host paths (the fused engine and the
  // scalar reference), and two devices given the same job must report the
  // same completion time (digest safety at the device level).
  const CompiledModel compiled =
      CompiledModel::compile(make_model(kPolicyTopology, 21));
  const nn::Matrix input = random_batch(20, kPolicyTopology.inputs, 404);

  nn::Matrix engine;
  nn::InferenceWorkspace ws;
  compiled.infer_batched_into(input, engine, ws);
  const nn::Matrix reference = compiled.infer(input);

  double first_done = 0.0;
  for (int run = 0; run < 2; ++run) {
    NpuDevice device;
    const auto job = device.submit(compiled, input, 1.0);
    const double done = device.completion_time(job);
    const nn::Matrix result = device.take_result(job, done);
    const std::string label = "device run " + std::to_string(run);
    expect_bit_identical(result, reference, label + " vs scalar reference");
    expect_bit_identical(result, engine, label + " vs engine");
    if (run == 0) {
      first_done = done;
    } else {
      EXPECT_EQ(done, first_done);
    }
  }
}

TEST(InferenceEngine, AggregatedFlushMatchesScalarReference) {
  // Two requests concatenated into one engine call and scattered back —
  // the fleet and server path. (The solo NpuDevice path is
  // DispatchInference.DeviceResultsIdenticalAcrossBackends.)
  const nn::Topology topology{11, {32, 32}, 6};
  const CompiledModel compiled = CompiledModel::compile(make_model(topology, 77));
  const nn::Matrix in_a = random_batch(5, topology.inputs, 1);
  const nn::Matrix in_b = random_batch(9, topology.inputs, 2);
  InferenceAggregator aggregator;
  nn::Matrix out_a;
  nn::Matrix out_b;
  aggregator.enqueue(compiled, in_a, &out_a);
  aggregator.enqueue(compiled, in_b, &out_b);
  aggregator.flush();
  EXPECT_EQ(aggregator.device_calls(), 1u);
  expect_bit_identical(out_a, compiled.infer(in_a), "slot a");
  expect_bit_identical(out_b, compiled.infer(in_b), "slot b");
}

}  // namespace
}  // namespace topil::npu
