// fleet_grid: the paper's design-time and evaluation shape — many seeded
// scenarios on one chip model, stepped in SoA lockstep.
//
// Platform hikey970 with a 12x12 package grid (156 thermal nodes) and the
// exponential integrator; every lane runs TOP-IL with the paper's 4x64
// NAS-winner net shape and seeded (untrained) weights, so the NPU batches
// are as large as a trained policy's without the on-disk policy cache.
// Lanes are driven through FleetEngine with the hooks of
// fleet::run_experiments, one batch of kBatch lanes per worker, at
// jobs = nproc. A job is one pass over the whole fleet.

#include <deque>
#include <memory>
#include <string>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/training.hpp"
#include "governors/topil_governor.hpp"
#include "nn/mlp.hpp"
#include "npu/batch_aggregator.hpp"
#include "platform/floorplan.hpp"
#include "sim/fleet/fleet_engine.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_propagator.hpp"
#include "validate/digest_monitor.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace perfbench {

using namespace topil;

namespace {

constexpr std::size_t kPackageGrid = 12;
constexpr std::size_t kBatch = 64;            ///< lanes per FleetEngine
constexpr double kHorizonS = 4.0;             ///< simulated s per lane
constexpr std::size_t kAppsPerLane = 6;
constexpr double kArrivalsPerS = 2.0;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kCheckedLanes = 4;      ///< scalar reruns per run
constexpr std::size_t kMinPasses = 3;

/// The benchmark's governor wrapper: times Governor::tick / place.
class TimedGovernor : public Governor {
 public:
  TimedGovernor(std::unique_ptr<Governor> inner, std::uint64_t lane)
      : inner_(std::move(inner)), lane_(lane) {}
  std::string name() const override { return inner_->name(); }
  void reset(SystemSim& sim) override { inner_->reset(sim); }
  CoreId place(SystemSim& sim, const AppSpec& app,
               double qos_target_ips) override {
    Scope span(Site::kGovernorPlace, lane_);
    return inner_->place(sim, app, qos_target_ips);
  }
  void tick(SystemSim& sim) override {
    Scope span(Site::kGovernorTick, lane_);
    inner_->tick(sim);
  }

 private:
  std::unique_ptr<Governor> inner_;
  std::uint64_t lane_;
};

/// SimMonitor wrapper around DigestMonitor: times the per-tick digest.
class TimedDigest : public SimMonitor {
 public:
  explicit TimedDigest(std::uint64_t lane) : lane_(lane) {}
  void on_attach(const SystemSim& sim) override { inner_.on_attach(sim); }
  void on_tick(const SystemSim& sim) override {
    Scope span(Site::kValidateDigest, lane_);
    inner_.on_tick(sim);
  }
  void on_migration_epoch(const SystemSim& sim, double scheduled_time_s,
                          double period_s) override {
    inner_.on_migration_epoch(sim, scheduled_time_s, period_s);
  }
  std::uint64_t digest() const { return inner_.digest(); }

 private:
  validate::DigestMonitor inner_;
  std::uint64_t lane_;
};

struct Fixture {
  const PlatformSpec* platform = &hikey970_platform();
  std::deque<Workload> workloads;
  std::vector<ExperimentConfig> configs;
  std::unique_ptr<il::IlPolicyModel> model;
  double propagator_ms = 0.0;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  Rng stream = Rng::stream(seed, index);
  return stream.engine()();
}

ExperimentConfig lane_config(std::uint64_t seed, std::size_t lane) {
  ExperimentConfig config;
  config.max_duration_s = kHorizonS;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.sim.floorplan.package_grid = kPackageGrid;
  config.sim.seed = derive_seed(seed, 1'000'000 + lane);
  return config;
}

Fixture make_fixture(std::uint64_t seed, std::size_t lanes) {
  Fixture fx;
  // Cold start: the first ThermalPropagator::shared call for the grid
  // network pays the eigendecomposition, as every fresh process does.
  ThermalPropagator::clear_shared_cache();
  const WorkloadGenerator generator(*fx.platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = kAppsPerLane;
  mixed.arrival_rate_per_s = kArrivalsPerS;
  const auto pool = AppDatabase::instance().mixed_pool();
  for (std::size_t i = 0; i < lanes; ++i) {
    mixed.seed = derive_seed(seed, i);
    fx.workloads.push_back(generator.mixed(mixed, pool));
    fx.configs.push_back(lane_config(seed, i));
  }

  const il::FeatureExtractor features(*fx.platform);
  nn::Topology topology;
  topology.inputs = features.num_features();
  topology.hidden = {64, 64, 64, 64};  // the paper's NAS winner
  topology.outputs = features.num_outputs();
  nn::Mlp net(topology);
  net.init(seed);
  fx.model = std::make_unique<il::IlPolicyModel>(std::move(net), *fx.platform);

  const SimConfig& sim = fx.configs.front().sim;
  const Floorplan floorplan =
      Floorplan::for_platform(*fx.platform, sim.floorplan);
  const RCNetwork network =
      ThermalModel::build_network(floorplan, fx.configs.front().cooling);
  const auto t0 = now_ns();
  {
    Scope span(Site::kThermalPropagator);
    ThermalPropagator::shared(network, sim.tick_s);
  }
  fx.propagator_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  return fx;
}

std::unique_ptr<Governor> make_topil(const Fixture& fx,
                                     npu::InferenceAggregator* aggregator) {
  TopIlGovernor::Config config;
  config.aggregator = aggregator;
  return std::make_unique<TopIlGovernor>(*fx.model, config);
}

/// One lane: run_experiment's loop head as a pre_tick hook, exactly as
/// fleet::run_experiments drives it.
struct LaneDriver {
  std::size_t index;
  const Workload* workload;
  const ExperimentConfig* config;
  SystemSim sim;
  TimedDigest digest;
  std::unique_ptr<Governor> governor;
  std::size_t next_arrival = 0;

  LaneDriver(const Fixture& fx, std::size_t i,
             npu::InferenceAggregator* aggregator)
      : index(i),
        workload(&fx.workloads[i]),
        config(&fx.configs[i]),
        sim(*fx.platform, config->cooling, config->sim),
        digest(i),
        governor(std::make_unique<TimedGovernor>(make_topil(fx, aggregator),
                                                 i)) {
    sim.attach_monitor(&digest);
    governor->reset(sim);
  }

  bool pre_tick() {
    Scope span(Site::kFleetPreTick, index);
    if (sim.now() >= config->max_duration_s) return false;
    const auto& items = workload->items();
    while (next_arrival < items.size() &&
           items[next_arrival].arrival_time <= sim.now() + 1e-9) {
      const WorkloadItem& item = items[next_arrival];
      const AppSpec& app = Workload::app_of(item);
      const CoreId core = governor->place(sim, app, item.qos_target_ips);
      sim.spawn(app, item.qos_target_ips, core);
      ++next_arrival;
    }
    if (next_arrival == items.size() && sim.num_running() == 0) return false;
    governor->tick(sim);
    return true;
  }
};

struct BatchOutcome {
  std::vector<std::uint64_t> digests;
  double sim_s = 0.0;
  std::uint64_t lane_ticks = 0;
  std::uint64_t batched_ticks = 0;
  std::uint64_t npu_rows = 0;
  std::uint64_t npu_calls = 0;
  double busy_s = 0.0;
};

BatchOutcome run_batch(const Fixture& fx, std::size_t begin, std::size_t end,
                       std::uint64_t parent_span) {
  const auto t0 = std::chrono::steady_clock::now();
  Scope worker(Site::kWorker, begin / kBatch, parent_span);
  npu::InferenceAggregator aggregator;
  std::vector<std::unique_ptr<LaneDriver>> drivers;
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t i = begin; i < end; ++i) {
    drivers.push_back(std::make_unique<LaneDriver>(fx, i, &aggregator));
    fleet::FleetEngine::Lane lane;
    lane.sim = &drivers.back()->sim;
    lane.pre_tick = [drv = drivers.back().get()](SystemSim&) {
      return drv->pre_tick();
    };
    lanes.push_back(std::move(lane));
  }
  fleet::FleetEngine engine(std::move(lanes));
  engine.set_tick_barrier([&aggregator, begin] {
    Scope flush(Site::kNpuFlush, begin / kBatch);
    aggregator.flush();
  });
  for (;;) {
    Scope step(Site::kFleetStep, begin / kBatch);
    if (engine.step() == 0) break;
  }

  BatchOutcome out;
  for (const auto& d : drivers) {
    out.digests.push_back(d->digest.digest());
    out.sim_s += d->sim.now();
  }
  out.batched_ticks = engine.batched_thermal_lane_ticks();
  out.lane_ticks = out.batched_ticks + engine.scalar_thermal_lane_ticks();
  out.npu_rows = aggregator.rows_inferred();
  out.npu_calls = aggregator.device_calls();
  out.busy_s = seconds_since(t0);
  return out;
}

}  // namespace

void run_fleet_grid(const Options& options, Report& report) {
  const std::size_t workers = options.nproc;
  const std::size_t lanes = workers * kBatch;
  report_threads(options, workers, 0, report);
  report.info("lanes", static_cast<double>(lanes));
  report.info("batch", static_cast<double>(kBatch));
  report.info("horizon_s", kHorizonS);

  std::vector<double> propagator_ms;
  const Fixture fx = timed_setup(kSetups, report, [&] {
    Fixture f = make_fixture(options.seed, lanes);
    propagator_ms.push_back(f.propagator_ms);
    return f;
  });
  report.layer("thermal.propagator_setup_ms", median(propagator_ms));

  std::vector<std::uint64_t> first_digests;
  bool passes_agree = true;
  std::vector<double> sim_rate;
  BatchOutcome traced_sum;
  std::size_t traced_passes = 0;
  double traced_region_s = 0.0;

  const JobTimes times = run_jobs(options, kMinPasses, [&](std::size_t) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t pass_span = Tracer::instance().enabled()
                                        ? Tracer::instance().current()
                                        : 0;
    std::vector<BatchOutcome> batches(workers);
    topil::parallel_for_indexed(workers, workers, [&](std::size_t b) {
      batches[b] = run_batch(fx, b * kBatch, (b + 1) * kBatch, pass_span);
    });
    const double wall = seconds_since(t0);

    std::vector<std::uint64_t> digests;
    double sim_s = 0.0;
    for (const BatchOutcome& b : batches) {
      digests.insert(digests.end(), b.digests.begin(), b.digests.end());
      sim_s += b.sim_s;
    }
    if (!Tracer::instance().enabled()) sim_rate.push_back(sim_s / wall);
    if (first_digests.empty()) {
      first_digests = digests;
    } else if (digests != first_digests) {
      passes_agree = false;
    }
    if (Tracer::instance().enabled()) {
      ++traced_passes;
      traced_region_s += wall;
      for (const BatchOutcome& b : batches) {
        traced_sum.lane_ticks += b.lane_ticks;
        traced_sum.batched_ticks += b.batched_ticks;
        traced_sum.npu_rows += b.npu_rows;
        traced_sum.npu_calls += b.npu_calls;
        traced_sum.busy_s += b.busy_s;
      }
    }
  });
  report_jobs(times, "wall ms of one pass over every lane", report);
  report.metric("sim_s_per_s", median(sim_rate), "s/s", sim_rate.size(),
                "simulated device-seconds per host second, median untraced "
                "pass");
  report.work(lanes, 0);

  if (traced_passes > 0) {
    const Totals totals = Tracer::instance().totals();
    const double n = static_cast<double>(traced_passes);
    report.layer("fleet.step_ms",
                 site_ms_per_job(totals, Site::kFleetStep, traced_passes));
    // Step time minus its hook spans (pre_tick, the flush barrier, the
    // digest): the lane tick, power and the thermal slab step.
    report.layer("fleet.step_self_ms", site_ms_per_job(totals, Site::kFleetStep,
                                                       traced_passes, true));
    report.layer("fleet.lane_ticks",
                 static_cast<double>(traced_sum.lane_ticks) / n);
    report.layer("fleet.batched_thermal_frac",
                 static_cast<double>(traced_sum.batched_ticks) /
                     static_cast<double>(traced_sum.lane_ticks));
    report.layer("governors.tick_ms",
                 site_ms_per_job(totals, Site::kGovernorTick, traced_passes));
    report.layer("governors.place_ms",
                 site_ms_per_job(totals, Site::kGovernorPlace, traced_passes));
    report.layer("npu.flush_ms",
                 site_ms_per_job(totals, Site::kNpuFlush, traced_passes));
    report.layer("npu.rows", static_cast<double>(traced_sum.npu_rows) / n);
    report.layer("npu.device_calls",
                 static_cast<double>(traced_sum.npu_calls) / n);
    report.layer("npu.rows_per_call",
                 traced_sum.npu_calls == 0
                     ? 0.0
                     : static_cast<double>(traced_sum.npu_rows) /
                           static_cast<double>(traced_sum.npu_calls));
    report.layer("validate.digest_ms",
                 site_ms_per_job(totals, Site::kValidateDigest,
                                 traced_passes));
    report.layer("common.worker_idle_frac",
                 1.0 - traced_sum.busy_s /
                           (static_cast<double>(workers) * traced_region_s));
  }

  // --- output checks (outside the timed window) ---
  report.check("passes_agree", passes_agree,
               std::to_string(times.jobs()) + " passes, " +
                   std::to_string(lanes) + " lane digests each");
  Rng pick(options.seed ^ 0x5eedc4ecull);
  std::size_t mismatches = 0;
  std::string checked;
  for (std::size_t k = 0; k < kCheckedLanes; ++k) {
    const std::size_t lane = pick.index(lanes);
    ExperimentConfig config = fx.configs[lane];
    validate::DigestMonitor monitor;
    config.monitor = &monitor;
    const auto governor = make_topil(fx, nullptr);
    run_experiment(*fx.platform, *governor, fx.workloads[lane], config);
    if (monitor.digest() != first_digests[lane]) ++mismatches;
    if (k > 0) checked += ",";
    checked += std::to_string(lane);
  }
  report.check("lanes_match_scalar", mismatches == 0,
               "lanes " + checked + " rerun through run_experiment: " +
                   std::to_string(mismatches) + " digest mismatches");
  if (mismatches != 0 || !passes_agree) report.work(0, lanes);
}

}  // namespace perfbench
