// design_train: the IL design-time pipeline, as in tab_model_eval.
//
// A job goes from scenarios to trained, evaluated policies:
// IlPipeline::build_dataset over the training AoIs (jobs = nproc), then,
// for each of tab_model_eval's three trainer seeds on its own worker,
// nn::Trainer::fit for a fixed number of epochs (never stopping early)
// and il::evaluate_policy_model on a held-out-AoI test split, which is
// built during set-up. Training the seeds side by side also keeps the job
// time steady on a shared host, where one thread's speed drifts more than
// the machine's. Traced jobs run the same dataset build through the
// benchmark's own loop over TraceCollector::collect and
// OracleExtractor::extract, so both calls get spans.

#include <cmath>
#include <optional>
#include <string>

#include "common/parallel_for.hpp"
#include "core/training.hpp"
#include "il/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace topil;

namespace {

constexpr std::size_t kScenarios = 16;  ///< training scenarios per job
/// Examples kept from a job's dataset (IlPipeline's own cap). Sixteen
/// scenarios yield more for every seed tried (at least 4554 over seeds
/// 1-300), so jobs train on the same amount of data whatever the seed.
constexpr std::size_t kExamples = 4000;
constexpr std::size_t kTestScenarios = 12;
constexpr std::size_t kEpochs = 6;     ///< fit always runs exactly these
constexpr std::size_t kSeeds = 3;      ///< policies per job (3 seeds)
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinJobs = 3;

struct Pools {
  std::vector<const AppSpec*> train_aoi;
  std::vector<const AppSpec*> test_aoi;
  std::vector<const AppSpec*> background;
};

/// tab_model_eval's split: two kernels are held out as unseen AoIs.
Pools make_pools() {
  Pools p;
  const auto& db = AppDatabase::instance();
  for (const AppSpec* app : db.training_apps()) {
    if (app->name == "seidel-2d" || app->name == "heat-3d") {
      p.test_aoi.push_back(app);
    } else {
      p.train_aoi.push_back(app);
    }
  }
  p.background = db.training_apps();
  return p;
}

il::PipelineConfig pipeline_config(const Options& options) {
  il::PipelineConfig config;
  config.num_scenarios = kScenarios;
  config.max_examples = kExamples;
  config.seed = options.seed;
  config.jobs = options.nproc;
  config.trainer.max_epochs = kEpochs;
  config.trainer.patience = kEpochs;  // never reached: no early stop
  config.trainer.seed = options.seed;
  return config;
}

struct Setup {
  Pools pools;
  il::PipelineConfig config;
  std::optional<il::Dataset> test_set;
};

bool same_dataset(const il::Dataset& a, const il::Dataset& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.at(i).features != b.at(i).features ||
        a.at(i).labels != b.at(i).labels) {
      return false;
    }
  }
  return true;
}

/// IlPipeline::build_dataset's loop with a span around each layer call.
il::Dataset traced_build(const il::IlPipeline& pipeline, const Setup& s,
                         double& busy_s) {
  const PlatformSpec& platform = pipeline.platform();
  const il::TraceCollector collector(platform, CoolingConfig::fan(),
                                     s.config.traces);
  const il::OracleExtractor extractor(platform, s.config.oracle);
  const il::FeatureExtractor features(platform);
  il::Dataset dataset(features.num_features(), platform.num_cores());
  const std::vector<il::Scenario> scenarios = pipeline.generate_scenarios(
      s.config, s.pools.train_aoi, s.pools.background);
  const std::uint64_t parent = Tracer::instance().current();
  std::vector<double> busy(scenarios.size(), 0.0);
  auto per_scenario =
      parallel_map(scenarios.size(), s.config.jobs, [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        Scope worker(Site::kWorker, i, parent);
        std::optional<il::ScenarioTraces> traces;
        {
          Scope span(Site::kIlCollect, i);
          traces.emplace(collector.collect(scenarios[i]));
        }
        Scope span(Site::kIlExtract, i);
        auto examples = extractor.extract(*traces);
        busy[i] = seconds_since(t0);
        return examples;
      });
  for (auto& examples : per_scenario) dataset.add_all(std::move(examples));
  for (const double b : busy) busy_s += b;
  Rng rng(s.config.seed ^ 0xda7a5e7ull);  // as IlPipeline::build_dataset
  return dataset.sample(s.config.max_examples, rng);
}

}  // namespace

void run_design_train(const Options& options, Report& report) {
  report_threads(options, options.nproc, 0, report);
  report.info("scenarios", static_cast<double>(kScenarios));
  report.info("examples", static_cast<double>(kExamples));
  report.info("test_scenarios", static_cast<double>(kTestScenarios));
  report.info("epochs", static_cast<double>(kEpochs));
  report.info("trainer_seeds", static_cast<double>(kSeeds));
  const PlatformSpec& platform = hikey970_platform();
  const il::IlPipeline pipeline(platform, CoolingConfig::fan());

  const Setup setup = timed_setup(kSetups, report, [&] {
    Setup s;
    s.pools = make_pools();
    s.config = pipeline_config(options);
    il::PipelineConfig test_config = s.config;
    test_config.seed = s.config.seed + 99;  // independent scenarios
    test_config.num_scenarios = kTestScenarios;
    test_config.oracle.hard_labels = false;
    s.test_set.emplace(pipeline.build_dataset(test_config, s.pools.test_aoi,
                                              s.pools.background));
    return s;
  });

  std::optional<il::Dataset> library_set;
  std::optional<il::Dataset> traced_set;
  std::vector<double> within;
  std::size_t eval_cases = 0;
  bool epochs_ok = true;
  bool loss_finite = true;
  std::size_t traced_jobs = 0;
  double traced_region_s = 0.0;  ///< wall of the parallel regions
  double traced_busy_s = 0.0;
  double traced_fit_s = 0.0;
  double traced_example_epochs = 0.0;
  std::size_t examples = 0;

  const JobTimes times = run_jobs(options, kMinJobs, [&](std::size_t) {
    const bool traced = Tracer::instance().enabled();
    const auto b0 = std::chrono::steady_clock::now();
    il::Dataset dataset =
        traced ? traced_build(pipeline, setup, traced_busy_s)
               : pipeline.build_dataset(setup.config, setup.pools.train_aoi,
                                        setup.pools.background);
    const double build_s = seconds_since(b0);
    examples = dataset.size();

    // tab_model_eval's protocol: one policy per trainer seed, each trained
    // and evaluated on its own worker.
    nn::Topology topology;
    topology.inputs = dataset.feature_width();
    topology.outputs = dataset.label_width();
    topology.hidden = setup.config.hidden;
    const nn::Matrix inputs = dataset.features_matrix();
    const nn::Matrix targets = dataset.labels_matrix();
    const std::uint64_t parent = Tracer::instance().current();
    std::vector<nn::TrainResult> fits(kSeeds);
    std::vector<il::ModelEvalResult> evals(kSeeds);
    std::vector<double> fit_s(kSeeds, 0.0);
    std::vector<double> busy_s(kSeeds, 0.0);
    const auto r0 = std::chrono::steady_clock::now();
    parallel_for_indexed(kSeeds, options.nproc, [&](std::size_t k) {
      const auto w0 = std::chrono::steady_clock::now();
      Scope worker(Site::kWorker, k, parent);
      nn::Mlp model(topology);
      nn::TrainerConfig trainer = setup.config.trainer;
      trainer.seed += k;
      const auto f0 = std::chrono::steady_clock::now();
      {
        Scope span(Site::kNnFit, k);
        fits[k] = nn::Trainer(trainer).fit(model, inputs, targets);
      }
      fit_s[k] = seconds_since(f0);
      Scope span(Site::kIlEval, k);
      evals[k] = il::evaluate_policy_model(model, *setup.test_set, platform);
      busy_s[k] = seconds_since(w0);
    });
    const double train_s = seconds_since(r0);
    double within_sum = 0.0;
    for (std::size_t k = 0; k < kSeeds; ++k) {
      epochs_ok = epochs_ok && fits[k].epochs_run == kEpochs;
      loss_finite = loss_finite && std::isfinite(fits[k].final_train_loss) &&
                    std::isfinite(fits[k].best_validation_loss);
      within_sum += evals[k].within_one_degree_fraction();
      eval_cases = evals[k].num_cases;
    }
    within.push_back(within_sum / static_cast<double>(kSeeds));

    if (traced) {
      ++traced_jobs;
      traced_region_s += build_s + train_s;
      for (std::size_t k = 0; k < kSeeds; ++k) {
        traced_busy_s += busy_s[k];
        traced_fit_s += fit_s[k];
        traced_example_epochs += static_cast<double>(dataset.size()) *
                                 static_cast<double>(fits[k].epochs_run);
      }
      if (!traced_set) traced_set.emplace(std::move(dataset));
    } else if (!library_set) {
      library_set.emplace(std::move(dataset));
    }
  });
  report_jobs(times, "wall ms from scenarios to a trained, evaluated policy",
              report);
  const std::vector<double>& job_ms =
      times.untraced_ms.empty() ? times.traced_ms : times.untraced_ms;
  report.metric("design_s", 1e-3 * median(job_ms), "s", job_ms.size(),
                "median job");
  report.metric("policy_within_1c_frac", median(within), "frac", eval_cases,
                "held-out cases within 1 degC of the oracle, mean of the "
                "seeds");
  report.work(times.jobs(), 0);

  if (traced_jobs > 0) {
    const Totals totals = Tracer::instance().totals();
    report.layer("il.collect_ms",
                 site_ms_per_job(totals, Site::kIlCollect, traced_jobs));
    report.layer("il.extract_ms",
                 site_ms_per_job(totals, Site::kIlExtract, traced_jobs));
    report.layer("il.examples", static_cast<double>(examples));
    report.layer("il.eval_ms",
                 site_ms_per_job(totals, Site::kIlEval, traced_jobs));
    report.layer("nn.fit_ms",
                 site_ms_per_job(totals, Site::kNnFit, traced_jobs));
    report.layer("nn.epochs", static_cast<double>(kEpochs));
    report.layer("nn.example_epochs_per_s",
                 traced_example_epochs / traced_fit_s);
    report.layer("common.worker_idle_frac",
                 1.0 - traced_busy_s / (static_cast<double>(options.nproc) *
                                        traced_region_s));
  }

  // --- output checks (outside the timed window) ---
  il::PipelineConfig serial = setup.config;
  serial.jobs = 1;
  const il::Dataset reference = pipeline.build_dataset(
      serial, setup.pools.train_aoi, setup.pools.background);
  const il::Dataset& built = library_set ? *library_set : *traced_set;
  bool same = same_dataset(built, reference);
  if (traced_set) same = same && same_dataset(*traced_set, reference);
  report.check("dataset_jobs_independent", same,
               std::to_string(reference.size()) + " examples at jobs " +
                   std::to_string(options.nproc) + " vs jobs 1");
  report.info("examples_kept", static_cast<double>(reference.size()));
  report.check("fit_epochs", epochs_ok,
               "every fit ran " + std::to_string(kEpochs) + " epochs");
  report.check("fit_loss_finite", loss_finite, "train and validation loss");
  if (!same || !epochs_ok || !loss_finite) report.work(0, times.jobs());
}

}  // namespace perfbench
