#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "npu/batch_aggregator.hpp"

namespace topil::fleet {

/// One simulation of a fleet run: the scalar `run_experiment` inputs, with
/// the governor supplied as a factory so every lane gets its own instance
/// and can attach to the batch's shared inference aggregator.
struct FleetJob {
  const PlatformSpec* platform = nullptr;
  const Workload* workload = nullptr;
  /// Construct the lane's governor. `aggregator` is the batch's shared
  /// NPU inference aggregator (never null while the fleet runs the job);
  /// NPU-backed governors pass it through their config (e.g.
  /// TopIlGovernor::Config::aggregator) so their device calls batch
  /// across lanes. Governors without NPU use may ignore it.
  std::function<std::unique_ptr<Governor>(npu::InferenceAggregator*)>
      make_governor;
  ExperimentConfig config;
};

struct FleetOptions {
  /// Lanes stepped in SoA lockstep per worker. 0 derives the value from
  /// the first job's `config.sim.fleet_batch` (the flag of record that
  /// DAgger / campaign configs forward); 1 degenerates to scalar-order
  /// stepping through the same engine.
  std::size_t batch = 0;
  /// Worker threads across batches (0 = hardware concurrency). Each batch
  /// is stepped by exactly one worker, so per-batch state (the inference
  /// aggregator, the SoA slabs) needs no locking.
  std::size_t jobs = 1;
};

/// Run every job and return results in input order — each element equal in
/// every field to what `run_experiment` returns for the same job (fleet
/// lanes are bit-identical to scalar runs; DESIGN.md §10). Jobs are
/// partitioned into consecutive batches of `batch` lanes; each batch is
/// driven through one FleetEngine with a shared inference aggregator
/// flushed once per lockstep tick.
std::vector<ExperimentResult> run_experiments(
    const std::vector<FleetJob>& jobs, const FleetOptions& options = {});

}  // namespace topil::fleet
