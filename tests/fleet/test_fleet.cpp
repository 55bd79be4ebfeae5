// Fleet-engine determinism contract (DESIGN.md §10): every lane of a
// batched lockstep run must be bit-identical — same per-tick state digest,
// same tick count, same results — to the same simulation run alone through
// the scalar run_experiment path, for any batch size and composition.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app_database.hpp"
#include "governors/powersave.hpp"
#include "governors/topil_governor.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/fleet/batch_runner.hpp"
#include "sim/fleet/fleet_engine.hpp"
#include "validate/digest_monitor.hpp"
#include "validate/state_digest.hpp"
#include "workloads/generator.hpp"

namespace topil {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TOPIL_SCENARIO_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
  ExperimentResult result;
};

ExperimentConfig scenario_run_config(const scenario::MaterializedScenario& m) {
  ExperimentConfig config;
  config.cooling = m.cooling;
  config.sim = m.sim;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = m.max_duration_s;
  return config;
}

RunOutcome scalar_run(const scenario::ScenarioSpec& spec) {
  const scenario::MaterializedScenario m = scenario::materialize(spec);
  validate::DigestMonitor monitor;
  ExperimentConfig config = scenario_run_config(m);
  config.monitor = &monitor;
  auto governor =
      scenario::make_scenario_governor(spec.governor, m.platform, spec.sim_seed);
  RunOutcome out;
  out.result = run_experiment(m.platform, *governor, m.workload, config);
  out.digest = monitor.digest();
  out.ticks = monitor.ticks();
  return out;
}

std::vector<RunOutcome> fleet_run(
    const std::vector<scenario::ScenarioSpec>& specs, std::size_t batch,
    std::size_t jobs = 1) {
  std::vector<scenario::MaterializedScenario> ms;
  ms.reserve(specs.size());
  for (const auto& spec : specs) ms.push_back(scenario::materialize(spec));

  std::deque<validate::DigestMonitor> monitors(specs.size());
  std::vector<fleet::FleetJob> fleet_jobs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fleet::FleetJob& job = fleet_jobs[i];
    job.platform = &ms[i].platform;
    job.workload = &ms[i].workload;
    job.config = scenario_run_config(ms[i]);
    job.config.monitor = &monitors[i];
    job.make_governor = [&specs, &ms, i](npu::InferenceAggregator*) {
      return scenario::make_scenario_governor(specs[i].governor,
                                              ms[i].platform,
                                              specs[i].sim_seed);
    };
  }

  fleet::FleetOptions options;
  options.batch = batch;
  options.jobs = jobs;
  const std::vector<ExperimentResult> results =
      fleet::run_experiments(fleet_jobs, options);

  std::vector<RunOutcome> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out[i].result = results[i];
    out[i].digest = monitors[i].digest();
    out[i].ticks = monitors[i].ticks();
  }
  return out;
}

void expect_equal_outcome(const RunOutcome& fleet, const RunOutcome& scalar,
                          const std::string& label) {
  EXPECT_EQ(fleet.digest, scalar.digest) << label;
  EXPECT_EQ(fleet.ticks, scalar.ticks) << label;
  EXPECT_DOUBLE_EQ(fleet.result.avg_temp_c, scalar.result.avg_temp_c)
      << label;
  EXPECT_DOUBLE_EQ(fleet.result.peak_temp_c, scalar.result.peak_temp_c)
      << label;
  EXPECT_EQ(fleet.result.qos_violations, scalar.result.qos_violations)
      << label;
  EXPECT_EQ(fleet.result.apps_completed, scalar.result.apps_completed)
      << label;
  EXPECT_DOUBLE_EQ(fleet.result.duration_s, scalar.result.duration_s)
      << label;
}

// --- corpus bit-identity at batch sizes 1, 7 (ragged tail), 64 ---------

TEST(FleetCorpus, BitIdenticalToScalarAcrossBatchSizes) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& path : corpus_files()) {
    specs.push_back(scenario::ScenarioSpec::load(path));
  }
  ASSERT_GE(specs.size(), 10u);

  std::vector<RunOutcome> scalar;
  scalar.reserve(specs.size());
  for (const auto& spec : specs) scalar.push_back(scalar_run(spec));

  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const std::vector<RunOutcome> fleet = fleet_run(specs, batch);
    ASSERT_EQ(fleet.size(), scalar.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_equal_outcome(fleet[i], scalar[i],
                           "batch " + std::to_string(batch) + " scenario " +
                               std::to_string(specs[i].id));
    }
  }
}

TEST(FleetCorpus, WorkerCountDoesNotChangeResults) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& path : corpus_files()) {
    specs.push_back(scenario::ScenarioSpec::load(path));
  }
  const std::vector<RunOutcome> serial = fleet_run(specs, 4, 1);
  const std::vector<RunOutcome> threaded = fleet_run(specs, 4, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].digest, threaded[i].digest) << i;
    EXPECT_EQ(serial[i].ticks, threaded[i].ticks) << i;
  }
}

// --- homogeneous fleet: one propagator group, batched thermal path -----

TEST(FleetCorpus, HomogeneousFleetFillsWideBatch) {
  // The corpus scenarios carry distinct jittered RC networks, so they
  // exercise the ragged/singleton-group paths. Replicating one spec with
  // varied sensor seeds builds a 64-lane batch that shares a single
  // propagator group — the wide SoA path the engine exists for.
  const scenario::ScenarioSpec base =
      scenario::ScenarioSpec::load(corpus_files().front());
  std::vector<scenario::ScenarioSpec> specs;
  for (std::uint64_t s = 0; s < 64; ++s) {
    scenario::ScenarioSpec spec = base;
    spec.sim_seed = base.sim_seed + s;
    specs.push_back(spec);
  }

  // Scalar reference for a sample of lanes (all 64 would dominate test
  // time without adding coverage: lanes only differ in sensor seed).
  const std::vector<RunOutcome> fleet = fleet_run(specs, 64);
  for (std::size_t i : {std::size_t{0}, std::size_t{13}, std::size_t{63}}) {
    const RunOutcome scalar = scalar_run(specs[i]);
    expect_equal_outcome(fleet[i], scalar, "lane " + std::to_string(i));
  }
  // Different sensor seeds must actually diverge (the lanes are distinct
  // simulations, not copies).
  EXPECT_NE(fleet[0].digest, fleet[63].digest);
}

// --- engine-level: batched thermal really runs, bit-equal states -------

TEST(FleetEngine, BatchedThermalMatchesScalarStep) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;

  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kTicks = 500;

  // Twin scalar sims, stepped the ordinary way.
  std::deque<SystemSim> scalar;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 100 + s;
    scalar.emplace_back(platform, CoolingConfig::fan(), c);
    scalar.back().spawn(app, 1e8, s % platform.num_cores());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (auto& sim : scalar) sim.step();
  }

  // Fleet lanes with identical construction.
  std::deque<SystemSim> fleet_sims;
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 100 + s;
    fleet_sims.emplace_back(platform, CoolingConfig::fan(), c);
    fleet_sims.back().spawn(app, 1e8, s % platform.num_cores());
    fleet::FleetEngine::Lane lane;
    lane.sim = &fleet_sims.back();
    lane.pre_tick = [](SystemSim&) { return true; };
    lanes.push_back(std::move(lane));
  }
  fleet::FleetEngine engine(std::move(lanes));
  for (std::size_t t = 0; t < kTicks; ++t) {
    ASSERT_EQ(engine.step(), kLanes);
  }

  // All lanes share one (network, dt) → every lane-tick went batched.
  EXPECT_EQ(engine.batched_thermal_lane_ticks(), kLanes * kTicks);
  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), 0u);

  for (std::size_t s = 0; s < kLanes; ++s) {
    const auto& a = scalar[s].thermal().node_temps_c();
    const auto& b = fleet_sims[s].thermal().node_temps_c();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "lane " << s << " node " << i;
    }
    EXPECT_EQ(scalar[s].sensor_temp_c(), fleet_sims[s].sensor_temp_c()) << s;
  }
}

// Same contract on the grid-refined spreader floorplan: 37 thermal nodes
// (grid 5), mostly-zero power rows, so the batched kernel's zero-row skip
// and the scalar path must still agree bit for bit.
TEST(FleetEngine, GridFloorplanStaysBitExact) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;
  config.floorplan.package_grid = 5;

  constexpr std::size_t kLanes = 5;
  constexpr std::size_t kTicks = 400;

  std::deque<SystemSim> scalar;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 300 + s;
    scalar.emplace_back(platform, CoolingConfig::fan(), c);
    scalar.back().spawn(app, 1e8, s % platform.num_cores());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (auto& sim : scalar) sim.step();
  }

  std::deque<SystemSim> fleet_sims;
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 300 + s;
    fleet_sims.emplace_back(platform, CoolingConfig::fan(), c);
    fleet_sims.back().spawn(app, 1e8, s % platform.num_cores());
    fleet::FleetEngine::Lane lane;
    lane.sim = &fleet_sims.back();
    lane.pre_tick = [](SystemSim&) { return true; };
    lanes.push_back(std::move(lane));
  }
  fleet::FleetEngine engine(std::move(lanes));
  for (std::size_t t = 0; t < kTicks; ++t) {
    ASSERT_EQ(engine.step(), kLanes);
  }
  EXPECT_EQ(engine.batched_thermal_lane_ticks(), kLanes * kTicks);
  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), 0u);

  for (std::size_t s = 0; s < kLanes; ++s) {
    const auto& a = scalar[s].thermal().node_temps_c();
    const auto& b = fleet_sims[s].thermal().node_temps_c();
    ASSERT_EQ(a.size(), b.size());
    // 25 spreader cells + 8 cores + 2 clusters + NPU + heatsink.
    ASSERT_EQ(a.size(), 5u * 5u + 12u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "lane " << s << " node " << i;
    }
    EXPECT_EQ(scalar[s].sensor_temp_c(), fleet_sims[s].sensor_temp_c()) << s;
  }
}

// --- mixed integrators: Heun and slab lanes in one engine ---------------

// Deterministic per-simulation driver: short apps that finish within a
// few dozen ticks (so retirement runs mid-run), DVFS requests, governor
// overhead and a migration, all keyed on the simulation's own tick.
void drive_mixed_lane(SystemSim& sim, const AppSpec& short_app) {
  const std::uint64_t t = sim.tick_index();
  if (t % 25 == 0) {
    sim.spawn(short_app, 1e8, static_cast<CoreId>((t / 25) % 8));
  }
  if (t % 40 == 10) {
    sim.request_vf_level(kBigCluster, (t / 40) % 5);
    sim.request_vf_level(kLittleCluster, (t / 40 + 2) % 5);
  }
  if (t % 60 == 30) sim.charge_overhead("mixed", 0.004, 3);
  if (t % 50 == 20 && sim.num_running() > 0) {
    sim.migrate(sim.running_pids().front(), static_cast<CoreId>(t % 8));
  }
}

TEST(FleetEngine, MixedIntegratorLanesMatchSoloTwins) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec short_app = make_single_phase_app(
      "short", 4e7, {2.0, 0.1, 0.9}, {1.0, 0.05, 1.0}, 0.02, false);
  const AppSpec& long_app = AppDatabase::instance().by_name("swaptions");

  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kTicks = 300;
  constexpr std::size_t kAttachAt = 100;  // lane 3 joins mid-run
  const auto make_config = [](std::size_t s) {
    SimConfig c;
    c.seed = 500 + s;
    c.integrator = s == 0 ? ThermalIntegrator::Heun
                          : ThermalIntegrator::Exponential;
    return c;
  };
  const auto ticks_of = [](std::size_t s) {
    return s == 3 ? kTicks - kAttachAt : kTicks;
  };

  std::deque<SystemSim> solo;
  for (std::size_t s = 0; s < kLanes; ++s) {
    solo.emplace_back(platform, CoolingConfig::fan(), make_config(s));
    solo.back().spawn(long_app, 1e8, 4 + s);
    for (std::size_t t = 0; t < ticks_of(s); ++t) {
      drive_mixed_lane(solo.back(), short_app);
      solo.back().step();
    }
  }

  std::deque<SystemSim> sims;
  const auto make_lane = [&](std::size_t s) {
    sims.emplace_back(platform, CoolingConfig::fan(), make_config(s));
    sims.back().spawn(long_app, 1e8, 4 + s);
    fleet::FleetEngine::Lane lane;
    lane.sim = &sims.back();
    lane.pre_tick = [&short_app](SystemSim& sim) {
      drive_mixed_lane(sim, short_app);
      return true;
    };
    return lane;
  };
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t s = 0; s < 3; ++s) lanes.push_back(make_lane(s));
  fleet::FleetEngine engine(std::move(lanes));
  for (std::size_t t = 0; t < kTicks; ++t) {
    if (t == kAttachAt) engine.attach_lane(make_lane(3));
    engine.step();
  }

  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), kTicks);
  EXPECT_EQ(engine.batched_thermal_lane_ticks(),
            2 * kTicks + (kTicks - kAttachAt));
  for (std::size_t s = 0; s < kLanes; ++s) {
    const SystemSim& a = solo[s];
    const SystemSim& b = sims[s];
    const std::string label = "lane " + std::to_string(s);
    EXPECT_EQ(a.tick_index(), ticks_of(s)) << label;
    EXPECT_EQ(b.tick_index(), a.tick_index()) << label;
    ASSERT_EQ(a.thermal().node_temps_c().size(),
              b.thermal().node_temps_c().size());
    for (std::size_t i = 0; i < a.thermal().node_temps_c().size(); ++i) {
      EXPECT_EQ(a.thermal().node_temps_c()[i], b.thermal().node_temps_c()[i])
          << label << " node " << i;
    }
    EXPECT_EQ(a.sensor_temp_c(), b.sensor_temp_c()) << label;
    EXPECT_EQ(validate::tick_state_digest(a), validate::tick_state_digest(b))
        << label;

    const Metrics& ma = a.metrics();
    const Metrics& mb = b.metrics();
    // Every lane must really have retired processes mid-run.
    EXPECT_GE(ma.completed().size(), 3u) << label;
    ASSERT_EQ(ma.completed().size(), mb.completed().size()) << label;
    for (std::size_t k = 0; k < ma.completed().size(); ++k) {
      EXPECT_EQ(ma.completed()[k].pid, mb.completed()[k].pid) << label;
      EXPECT_EQ(ma.completed()[k].finish_time, mb.completed()[k].finish_time)
          << label;
      EXPECT_EQ(ma.completed()[k].average_ips, mb.completed()[k].average_ips)
          << label;
      EXPECT_EQ(ma.completed()[k].below_target_fraction,
                mb.completed()[k].below_target_fraction)
          << label;
    }
    EXPECT_EQ(ma.average_temp_c(), mb.average_temp_c()) << label;
    EXPECT_EQ(ma.peak_temp_c(), mb.peak_temp_c()) << label;
    EXPECT_EQ(ma.total_cpu_time_s(), mb.total_cpu_time_s()) << label;
    EXPECT_EQ(ma.average_utilization(), mb.average_utilization()) << label;
    EXPECT_EQ(ma.throttle_events(), mb.throttle_events()) << label;
    EXPECT_EQ(ma.overhead_s("mixed"), mb.overhead_s("mixed")) << label;
    EXPECT_EQ(ma.duration_s(), mb.duration_s()) << label;
  }
}

// --- NPU aggregation: TOP-IL lanes batched through one device ----------

il::IlPolicyModel tiny_policy(const PlatformSpec& platform) {
  nn::Topology topo;
  topo.inputs = 21;
  topo.hidden = {16};
  topo.outputs = 8;
  nn::Mlp net(topo);
  net.init(7);
  return il::IlPolicyModel(std::move(net), platform);
}

TEST(FleetAggregator, TopIlLanesMatchScalarRuns) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  WorkloadGenerator generator(platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 4;
  mixed.arrival_rate_per_s = 0.2;

  constexpr std::size_t kLanes = 3;
  std::vector<Workload> workloads;
  for (std::size_t i = 0; i < kLanes; ++i) {
    mixed.seed = 40 + i;
    workloads.push_back(
        generator.mixed(mixed, AppDatabase::instance().mixed_pool()));
  }

  ExperimentConfig config;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = 120.0;

  // Scalar reference: each lane alone, self-contained NPU device.
  std::vector<RunOutcome> scalar(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    validate::DigestMonitor monitor;
    ExperimentConfig c = config;
    c.monitor = &monitor;
    TopIlGovernor governor(tiny_policy(platform));
    scalar[i].result = run_experiment(platform, governor, workloads[i], c);
    scalar[i].digest = monitor.digest();
    scalar[i].ticks = monitor.ticks();
  }

  // Fleet: same lanes, inference funneled through the shared aggregator.
  std::deque<validate::DigestMonitor> monitors(kLanes);
  std::vector<fleet::FleetJob> jobs(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    jobs[i].platform = &platform;
    jobs[i].workload = &workloads[i];
    jobs[i].config = config;
    jobs[i].config.monitor = &monitors[i];
    jobs[i].make_governor =
        [&platform](npu::InferenceAggregator* aggregator) {
          TopIlGovernor::Config c;
          c.aggregator = aggregator;
          return std::make_unique<TopIlGovernor>(tiny_policy(platform), c);
        };
  }
  fleet::FleetOptions options;
  options.batch = kLanes;
  const std::vector<ExperimentResult> results =
      fleet::run_experiments(jobs, options);

  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(monitors[i].digest(), scalar[i].digest) << "lane " << i;
    EXPECT_EQ(monitors[i].ticks(), scalar[i].ticks) << "lane " << i;
    EXPECT_DOUBLE_EQ(results[i].avg_temp_c, scalar[i].result.avg_temp_c)
        << i;
    EXPECT_EQ(results[i].apps_completed, scalar[i].result.apps_completed)
        << i;
  }
}

// --- option plumbing ---------------------------------------------------

TEST(FleetOptions, BatchZeroDerivesFromSimConfig) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  WorkloadGenerator generator(platform);
  const Workload w =
      generator.single(AppDatabase::instance().by_name("swaptions"));

  std::deque<validate::DigestMonitor> monitors(2);
  std::vector<fleet::FleetJob> jobs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    jobs[i].platform = &platform;
    jobs[i].workload = &w;
    jobs[i].config.sim.integrator = ThermalIntegrator::Exponential;
    jobs[i].config.sim.fleet_batch = 2;  // the flag of record
    jobs[i].config.max_duration_s = 600.0;
    jobs[i].config.monitor = &monitors[i];
    jobs[i].make_governor = [](npu::InferenceAggregator*) {
      return make_gts_ondemand();
    };
  }
  const std::vector<ExperimentResult> results =
      fleet::run_experiments(jobs, {});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].apps_completed, 1u);
  EXPECT_EQ(monitors[0].digest(), monitors[1].digest());
}

}  // namespace
}  // namespace topil
