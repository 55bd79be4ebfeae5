#include "il/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel_for.hpp"

namespace topil::il {

PipelineConfig::PipelineConfig() {
  trainer.max_epochs = 150;
  trainer.patience = 20;  // the paper's early-stopping patience
  trainer.batch_size = 128;
}

double ModelEvalResult::within_one_degree_fraction() const {
  if (num_cases == 0) return 0.0;
  return static_cast<double>(within_one_degree) /
         static_cast<double>(num_cases);
}

ModelEvalResult evaluate_policy_model(const nn::Mlp& model,
                                      const Dataset& test_set,
                                      const PlatformSpec& platform,
                                      double alpha) {
  TOPIL_REQUIRE(!test_set.empty(), "empty test set");
  TOPIL_REQUIRE(alpha > 0.0, "alpha must be positive");
  const FeatureExtractor features(platform);
  const std::size_t n_cores = platform.num_cores();
  // Utilization features occupy the tail of the feature vector.
  const std::size_t util_offset = features.num_features() - n_cores;

  // One batched pass over the whole test set with reusable buffers
  // on the fused SIMD kernel (bit-identical to predict, allocation-free in
  // steady state).
  nn::Matrix predictions;
  nn::InferenceWorkspace eval_ws;
  model.predict_into(test_set.features_matrix(), predictions, eval_ws,
                     nn::InferenceKernel::Simd);

  ModelEvalResult result;
  double excess_sum = 0.0;
  std::size_t excess_count = 0;
  for (std::size_t i = 0; i < test_set.size(); ++i) {
    const TrainingExample& ex = test_set.at(i);

    // Candidate targets: cores not occupied by background applications.
    CoreId choice = n_cores;
    float best_rating = 0.0f;
    for (CoreId c = 0; c < n_cores; ++c) {
      if (ex.features[util_offset + c] > 0.5f) continue;  // occupied
      const float rating = predictions.at(i, c);
      if (choice == n_cores || rating > best_rating) {
        best_rating = rating;
        choice = c;
      }
    }
    if (choice == n_cores) continue;  // no free core: not a decision case

    ++result.num_cases;
    const float label = ex.labels[choice];
    if (label < 0.0f) {
      ++result.infeasible_choices;
      continue;
    }
    // l = exp(-alpha dT)  =>  dT = -ln(l) / alpha.
    const double excess =
        -std::log(std::max(static_cast<double>(label), 1e-9)) / alpha;
    excess_sum += excess;
    ++excess_count;
    if (excess <= 1.0) ++result.within_one_degree;
  }
  result.mean_excess_temp_c =
      excess_count > 0 ? excess_sum / static_cast<double>(excess_count) : 0.0;
  return result;
}

IlPipeline::IlPipeline(const PlatformSpec& platform,
                       const CoolingConfig& cooling)
    : platform_(&platform), cooling_(cooling) {}

std::vector<Scenario> IlPipeline::generate_scenarios(
    const PipelineConfig& config, const std::vector<const AppSpec*>& aoi_pool,
    const std::vector<const AppSpec*>& background_pool) const {
  TOPIL_REQUIRE(!aoi_pool.empty(), "empty AoI pool");
  TOPIL_REQUIRE(!background_pool.empty(), "empty background pool");
  Rng rng(config.seed);

  const std::size_t n_cores = platform_->num_cores();
  const std::size_t max_bg =
      std::min(config.max_background_apps, n_cores - 1);

  std::vector<Scenario> scenarios;
  scenarios.reserve(config.num_scenarios);
  for (std::size_t s = 0; s < config.num_scenarios; ++s) {
    Scenario scenario;
    scenario.aoi = aoi_pool[rng.index(aoi_pool.size())];

    const auto n_bg = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(max_bg)));
    std::vector<CoreId> cores(n_cores);
    std::iota(cores.begin(), cores.end(), 0);
    rng.shuffle(cores);
    for (std::size_t i = 0; i < n_bg; ++i) {
      scenario.background[cores[i]] =
          background_pool[rng.index(background_pool.size())];
    }
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

Dataset IlPipeline::build_dataset(
    const PipelineConfig& config, const std::vector<const AppSpec*>& aoi_pool,
    const std::vector<const AppSpec*>& background_pool) const {
  const TraceCollector collector(*platform_, cooling_, config.traces);
  const OracleExtractor extractor(*platform_, config.oracle);
  const FeatureExtractor features(*platform_);

  Dataset dataset(features.num_features(), platform_->num_cores());
  const std::vector<Scenario> scenarios =
      generate_scenarios(config, aoi_pool, background_pool);
  // Scenarios are independent: collect + extract each on the pool, then
  // merge in scenario order. Output is bit-identical to the serial loop
  // for any job count (see parallel_for.hpp's determinism contract).
  std::vector<std::vector<TrainingExample>> per_scenario =
      parallel_map(scenarios.size(), config.jobs, [&](std::size_t i) {
        return extractor.extract(collector.collect(scenarios[i]));
      });
  for (std::vector<TrainingExample>& examples : per_scenario) {
    dataset.add_all(std::move(examples));
  }
  Rng rng(config.seed ^ 0xda7a5e7ull);
  return dataset.sample(config.max_examples, rng);
}

Dataset IlPipeline::build_dataset(const PipelineConfig& config) const {
  const auto pool = AppDatabase::instance().training_apps();
  return build_dataset(config, pool, pool);
}

PipelineResult IlPipeline::train_on(const PipelineConfig& config,
                                    const Dataset& dataset) const {
  TOPIL_REQUIRE(!dataset.empty(), "cannot train on an empty dataset");
  nn::Topology topo;
  topo.inputs = dataset.feature_width();
  topo.outputs = dataset.label_width();
  topo.hidden = config.hidden;

  nn::Mlp model(topo);
  nn::TrainerConfig trainer_config = config.trainer;
  trainer_config.seed = config.trainer.seed;
  nn::Trainer trainer(trainer_config);
  PipelineResult result{std::move(model), {}, dataset.size(),
                        config.num_scenarios};
  result.train_result = trainer.fit(result.model, dataset.features_matrix(),
                                    dataset.labels_matrix());
  return result;
}

PipelineResult IlPipeline::train(const PipelineConfig& config) const {
  return train_on(config, build_dataset(config));
}

}  // namespace topil::il
