#include "sim/migration.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "apps/app_database.hpp"
#include "common/error.hpp"
#include "sim/system_sim.hpp"

namespace topil {
namespace {

TEST(MigrationPenalty, ScalesWithL2dIntensity) {
  const MigrationConfig config;
  const double light = migration_penalty(config, 0.004, false);
  const double heavy = migration_penalty(config, 0.04, false);
  EXPECT_GT(heavy, light);
  EXPECT_NEAR(light, 0.004 * config.penalty_per_l2d, 1e-12);
}

TEST(MigrationPenalty, CapsAtMaxPenalty) {
  const MigrationConfig config;
  EXPECT_DOUBLE_EQ(migration_penalty(config, 10.0, false),
                   config.max_penalty);
}

TEST(MigrationPenalty, SameClusterIsCheaper) {
  const MigrationConfig config;
  const double cross = migration_penalty(config, 0.02, false);
  const double same = migration_penalty(config, 0.02, true);
  EXPECT_NEAR(same, cross * config.same_cluster_factor, 1e-12);
}

TEST(MigrationPenalty, RejectsNegativeIntensity) {
  EXPECT_THROW(migration_penalty(MigrationConfig{}, -1.0, false),
               InvalidArgument);
}

// The paper's worst-case experiment: periodically migrating between the
// clusters every 500 ms costs compute-bound apps well under 1% and
// memory-bound apps a few percent. The app name is held as a std::string so
// that the printed parameter, and with it the registered test name, does not
// carry a load address.
class WorstCaseMigration : public ::testing::TestWithParam<
                               std::pair<std::string, double>> {};

TEST_P(WorstCaseMigration, OverheadWithinPaperBallpark) {
  const auto [app_name, max_overhead] = GetParam();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec& app = AppDatabase::instance().by_name(app_name);

  SimConfig config;
  config.sensor.noise_stddev_c = 0.0;

  auto run = [&](bool ping_pong) {
    SystemSim sim(platform, CoolingConfig::fan(), config);
    sim.request_vf_level(kLittleCluster,
                         platform.cluster(kLittleCluster).vf.num_levels() - 1);
    sim.request_vf_level(kBigCluster,
                         platform.cluster(kBigCluster).vf.num_levels() - 1);
    const Pid pid = sim.spawn(app, 1.0, ping_pong ? 0 : 4);
    double next_migration = 0.5;
    CoreId target = 4;
    while (sim.now() < 10.0) {
      if (ping_pong && sim.now() >= next_migration) {
        sim.migrate(pid, target);
        target = (target == 4) ? 0 : 4;
        next_migration += 0.5;
      }
      sim.step();
    }
    return sim.process(pid).instructions_retired();
  };

  // Stationary runs on each cluster for the averaged reference.
  SystemSim little_sim(platform, CoolingConfig::fan(), config);
  little_sim.request_vf_level(
      kLittleCluster, platform.cluster(kLittleCluster).vf.num_levels() - 1);
  const Pid lp = little_sim.spawn(app, 1.0, 0);
  little_sim.run_for(10.0);
  const double insts_little = little_sim.process(lp).instructions_retired();

  SystemSim big_sim(platform, CoolingConfig::fan(), config);
  big_sim.request_vf_level(
      kBigCluster, platform.cluster(kBigCluster).vf.num_levels() - 1);
  const Pid bp = big_sim.spawn(app, 1.0, 4);
  big_sim.run_for(10.0);
  const double insts_big = big_sim.process(bp).instructions_retired();

  const double migrated = run(true);
  // Paper Eq.: m = avg(1/t_big, 1/t_little) / (1/t_migrate) - 1; with a
  // fixed horizon instruction counts stand in for rates.
  const double overhead =
      0.5 * (insts_little + insts_big) / migrated - 1.0;
  EXPECT_LT(overhead, max_overhead) << app_name;
  EXPECT_GT(overhead, -0.05) << app_name;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, WorstCaseMigration,
    ::testing::Values(std::make_pair("swaptions", 0.01),
                      std::make_pair("blackscholes", 0.05),
                      std::make_pair("canneal", 0.06),
                      std::make_pair("heat-3d", 0.04)),
    [](const auto& info) {
      std::string name = info.param.first;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace topil
