#include "power/power_model.hpp"

#include <algorithm>

namespace topil {

double PowerBreakdown::total_w() const {
  double total = npu_w;
  for (double w : core_w) total += w;
  for (double w : uncore_w) total += w;
  return total;
}

PowerModel::PowerModel(const PlatformSpec& platform) : platform_(&platform) {
  clusters_.resize(platform.num_clusters());
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    const ClusterSpec& spec = platform.cluster(c);
    ClusterCoeffs& cc = clusters_[c];
    cc.first_core = platform.core_id(c, 0);
    cc.num_cores = spec.num_cores;
    cc.leak_g0 = spec.power.leak_g0_w_per_v;
    cc.leak_g1 = spec.power.leak_g1_w_per_v_k;
    cc.leak_tref = spec.power.leak_tref_c;
    cc.levels.resize(spec.vf.num_levels());
    for (std::size_t l = 0; l < spec.vf.num_levels(); ++l) {
      const VFPoint& vf = spec.vf.at(l);
      LevelCoeffs& lc = cc.levels[l];
      lc.voltage_v = vf.voltage_v;
      lc.dyn_vvf =
          spec.power.dyn_coeff_w * vf.voltage_v * vf.voltage_v * vf.freq_ghz;
      lc.uncore_vvf = spec.power.uncore_coeff_w * vf.voltage_v *
                      vf.voltage_v * vf.freq_ghz;
    }
  }
}

double PowerModel::core_dynamic_w(ClusterId cluster, std::size_t vf_level,
                                  double activity) const {
  const auto& spec = platform_->cluster(cluster);
  const VFPoint& vf = spec.vf.at(vf_level);
  const double effective = std::max(activity, kIdleActivityFloor);
  return spec.power.dyn_coeff_w * vf.voltage_v * vf.voltage_v * vf.freq_ghz *
         effective;
}

double PowerModel::core_leakage_w(ClusterId cluster, std::size_t vf_level,
                                  double temp_c) const {
  const auto& spec = platform_->cluster(cluster);
  const VFPoint& vf = spec.vf.at(vf_level);
  const double leak =
      vf.voltage_v * (spec.power.leak_g0_w_per_v +
                      spec.power.leak_g1_w_per_v_k *
                          (temp_c - spec.power.leak_tref_c));
  return std::max(leak, 0.0);
}

PowerBreakdown PowerModel::compute(const std::vector<std::size_t>& vf_levels,
                                   const std::vector<double>& core_activity,
                                   const std::vector<double>& core_temp_c,
                                   bool npu_active) const {
  PowerBreakdown out;
  compute_into(vf_levels, core_activity, core_temp_c, npu_active, out);
  return out;
}

void PowerModel::compute_into(const std::vector<std::size_t>& vf_levels,
                              const std::vector<double>& core_activity,
                              const std::vector<double>& core_temp_c,
                              bool npu_active, PowerBreakdown& out) const {
  TOPIL_REQUIRE(vf_levels.size() == platform_->num_clusters(),
                "one VF level per cluster required");
  TOPIL_REQUIRE(core_activity.size() == platform_->num_cores(),
                "one activity per core required");
  TOPIL_REQUIRE(core_temp_c.size() == platform_->num_cores(),
                "one temperature per core required");

  out.core_w.resize(platform_->num_cores());
  out.uncore_w.resize(platform_->num_clusters());
  out.npu_w = 0.0;

  for (ClusterId c = 0; c < platform_->num_clusters(); ++c) {
    const ClusterCoeffs& cc = clusters_[c];
    TOPIL_REQUIRE(vf_levels[c] < cc.levels.size(), "VF level out of range");
    const LevelCoeffs& lc = cc.levels[vf_levels[c]];

    double activity_sum = 0.0;
    for (CoreId core = cc.first_core; core < cc.first_core + cc.num_cores;
         ++core) {
      const double act = core_activity[core];
      TOPIL_REQUIRE(act >= 0.0, "activity must be non-negative");
      // core_dynamic_w + core_leakage_w, on the precomputed coefficients.
      const double leak =
          lc.voltage_v *
          (cc.leak_g0 + cc.leak_g1 * (core_temp_c[core] - cc.leak_tref));
      out.core_w[core] = lc.dyn_vvf * std::max(act, kIdleActivityFloor) +
                         std::max(leak, 0.0);
      activity_sum += act;
    }

    // Uncore switching tracks the busiest-core share of the cluster: the L2
    // and interconnect are active whenever any core issues traffic.
    const double uncore_activity = std::min(
        1.0, std::max(activity_sum / static_cast<double>(cc.num_cores),
                      kIdleActivityFloor));
    out.uncore_w[c] = lc.uncore_vvf * uncore_activity;
  }

  const auto& npu = platform_->npu();
  if (npu.present) {
    out.npu_w = npu_active ? npu.power_active_w : npu.power_idle_w;
  }
}

}  // namespace topil
