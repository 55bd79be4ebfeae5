#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "platform/topology.hpp"

namespace topil {
namespace {

class PowerModelTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();
  PowerModel model_{platform_};

  std::vector<std::size_t> levels(std::size_t l, std::size_t b) const {
    return {l, b};
  }
  std::vector<double> uniform_activity(double a) const {
    return std::vector<double>(platform_.num_cores(), a);
  }
  std::vector<double> uniform_temp(double t) const {
    return std::vector<double>(platform_.num_cores(), t);
  }
};

TEST_F(PowerModelTest, DynamicPowerScalesWithFrequencyAndVoltageSquared) {
  const auto& vf = platform_.cluster(kBigCluster).vf;
  const double p_low = model_.core_dynamic_w(kBigCluster, 0, 1.0);
  const double p_high =
      model_.core_dynamic_w(kBigCluster, vf.num_levels() - 1, 1.0);
  const double expected_ratio =
      (vf.at(vf.num_levels() - 1).voltage_v * vf.at(vf.num_levels() - 1).voltage_v *
       vf.at(vf.num_levels() - 1).freq_ghz) /
      (vf.at(0).voltage_v * vf.at(0).voltage_v * vf.at(0).freq_ghz);
  EXPECT_NEAR(p_high / p_low, expected_ratio, 1e-9);
}

TEST_F(PowerModelTest, DynamicPowerLinearInActivity) {
  const double half = model_.core_dynamic_w(kBigCluster, 3, 0.5);
  const double full = model_.core_dynamic_w(kBigCluster, 3, 1.0);
  EXPECT_NEAR(full / half, 2.0, 1e-9);
}

TEST_F(PowerModelTest, IdleCoreKeepsResidualDynamicPower) {
  const double idle = model_.core_dynamic_w(kLittleCluster, 2, 0.0);
  const double floor =
      model_.core_dynamic_w(kLittleCluster, 2, PowerModel::kIdleActivityFloor);
  EXPECT_DOUBLE_EQ(idle, floor);
  EXPECT_GT(idle, 0.0);
}

TEST_F(PowerModelTest, LeakageGrowsWithTemperature) {
  const double cool = model_.core_leakage_w(kBigCluster, 4, 30.0);
  const double hot = model_.core_leakage_w(kBigCluster, 4, 80.0);
  EXPECT_GT(hot, cool);
  // Linear slope: g1 * V per degree.
  const auto& spec = platform_.cluster(kBigCluster);
  const double expected_slope =
      spec.power.leak_g1_w_per_v_k * spec.vf.at(4).voltage_v;
  EXPECT_NEAR((hot - cool) / 50.0, expected_slope, 1e-9);
}

TEST_F(PowerModelTest, LeakageNeverNegative) {
  EXPECT_GE(model_.core_leakage_w(kLittleCluster, 0, -40.0), 0.0);
}

TEST_F(PowerModelTest, BigClusterAtPeakRealisticPowerRange) {
  // All four big cores fully active at peak should land in the mobile-SoC
  // ballpark: several watts, not tens.
  const std::size_t top = platform_.cluster(kBigCluster).vf.num_levels() - 1;
  std::vector<double> activity(8, 0.0);
  for (CoreId c = 4; c < 8; ++c) activity[c] = 1.0;
  const PowerBreakdown p = model_.compute(levels(0, top), activity,
                                          uniform_temp(60.0), false);
  double big_total = 0.0;
  for (CoreId c = 4; c < 8; ++c) big_total += p.core_w[c];
  EXPECT_GT(big_total, 4.0);
  EXPECT_LT(big_total, 12.0);
}

TEST_F(PowerModelTest, BreakdownShapesAndTotal) {
  const PowerBreakdown p = model_.compute(
      levels(2, 3), uniform_activity(0.5), uniform_temp(45.0), true);
  EXPECT_EQ(p.core_w.size(), 8u);
  EXPECT_EQ(p.uncore_w.size(), 2u);
  EXPECT_DOUBLE_EQ(p.npu_w, platform_.npu().power_active_w);
  double manual = p.npu_w;
  for (double w : p.core_w) manual += w;
  for (double w : p.uncore_w) manual += w;
  EXPECT_NEAR(p.total_w(), manual, 1e-12);
}

TEST_F(PowerModelTest, NpuIdleVsActive) {
  const PowerBreakdown idle = model_.compute(
      levels(0, 0), uniform_activity(0.0), uniform_temp(25.0), false);
  const PowerBreakdown active = model_.compute(
      levels(0, 0), uniform_activity(0.0), uniform_temp(25.0), true);
  EXPECT_DOUBLE_EQ(idle.npu_w, platform_.npu().power_idle_w);
  EXPECT_GT(active.npu_w, idle.npu_w);
}

TEST_F(PowerModelTest, UncorePowerTracksClusterActivity) {
  std::vector<double> one_busy(8, 0.0);
  one_busy[4] = 1.0;
  std::vector<double> all_busy(8, 0.0);
  for (CoreId c = 4; c < 8; ++c) all_busy[c] = 1.0;
  const PowerBreakdown p1 = model_.compute(levels(0, 5), one_busy,
                                           uniform_temp(45.0), false);
  const PowerBreakdown p4 = model_.compute(levels(0, 5), all_busy,
                                           uniform_temp(45.0), false);
  EXPECT_GT(p4.uncore_w[kBigCluster], p1.uncore_w[kBigCluster]);
}

TEST_F(PowerModelTest, ValidatesInputSizes) {
  EXPECT_THROW(model_.compute({0}, uniform_activity(0.0),
                              uniform_temp(25.0), false),
               InvalidArgument);
  EXPECT_THROW(model_.compute(levels(0, 0), {1.0}, uniform_temp(25.0),
                              false),
               InvalidArgument);
  EXPECT_THROW(model_.compute(levels(0, 0), uniform_activity(0.0), {25.0},
                              false),
               InvalidArgument);
  std::vector<double> negative = uniform_activity(0.0);
  negative[0] = -0.1;
  EXPECT_THROW(model_.compute(levels(0, 0), negative, uniform_temp(25.0),
                              false),
               InvalidArgument);
}

// compute_into reads per-level coefficients precomputed by the
// constructor; it must agree bit for bit with the per-core reference
// formulas for every cluster and VF level, including activities below the
// idle floor and temperatures cold enough to clamp leakage to zero.
TEST(PowerModelCoefficients, ComputeIntoMatchesReferenceFormulas) {
  const std::vector<std::pair<std::string, PlatformSpec>> platforms = {
      {"hikey970", PlatformSpec::hikey970()},
      {"three_tier", TopologySpec::three_tier().build()},
      {"many_core_grid", TopologySpec::many_core_grid(4, 4, 3).build()}};
  const double activities[] = {0.0, 0.005, PowerModel::kIdleActivityFloor,
                               0.3, 1.0, 1.2};
  for (const auto& [name, platform] : platforms) {
    const PowerModel model(platform);
    std::size_t max_levels = 0;
    for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
      max_levels = std::max(max_levels, platform.cluster(c).vf.num_levels());
    }
    for (std::size_t step = 0; step < max_levels; ++step) {
      std::vector<std::size_t> levels(platform.num_clusters());
      for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
        levels[c] = std::min(step, platform.cluster(c).vf.num_levels() - 1);
      }
      for (const std::size_t cold_parity : {0u, 1u}) {
        std::vector<double> activity(platform.num_cores());
        std::vector<double> temp(platform.num_cores());
        for (CoreId core = 0; core < platform.num_cores(); ++core) {
          const PowerCoefficients& p =
              platform.cluster(platform.cluster_of_core(core)).power;
          activity[core] = activities[(core + step) % std::size(activities)];
          // Every other core (alternating between the two passes) sits far
          // enough below the leakage reference that the linear leakage
          // term goes negative and clamps to 0.
          const double cold_c = p.leak_tref_c -
                                2.0 * p.leak_g0_w_per_v / p.leak_g1_w_per_v_k -
                                10.0;
          temp[core] = (core + step) % 2 == cold_parity
                           ? cold_c
                           : 25.0 + 7.0 * static_cast<double>(core % 10);
        }
        const PowerBreakdown out =
            model.compute(levels, activity, temp, false);
        bool saw_clamp = false;
        for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
          const ClusterSpec& spec = platform.cluster(c);
          const VFPoint& vf = spec.vf.at(levels[c]);
          double activity_sum = 0.0;
          for (CoreId core : platform.cores_of_cluster(c)) {
            const double leak = model.core_leakage_w(c, levels[c], temp[core]);
            saw_clamp |= leak == 0.0;
            EXPECT_EQ(out.core_w[core],
                      model.core_dynamic_w(c, levels[c], activity[core]) +
                          leak)
                << name << " core " << core << " level " << levels[c];
            activity_sum += activity[core];
          }
          const double uncore_activity = std::min(
              1.0,
              std::max(activity_sum / static_cast<double>(spec.num_cores),
                       PowerModel::kIdleActivityFloor));
          EXPECT_EQ(out.uncore_w[c], spec.power.uncore_coeff_w * vf.voltage_v *
                                         vf.voltage_v * vf.freq_ghz *
                                         uncore_activity)
              << name << " cluster " << c << " level " << levels[c];
        }
        EXPECT_TRUE(saw_clamp) << name;
      }
    }
  }
}

}  // namespace
}  // namespace topil
