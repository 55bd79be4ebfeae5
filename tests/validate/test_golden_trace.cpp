#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "core/experiment.hpp"
#include "governors/powersave.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "validate/state_digest.hpp"
#include "workloads/generator.hpp"

namespace topil::validate {
namespace {

// Golden trace digests for two small fixed scenarios. These pin the
// simulator's observable behavior bit-for-bit: any change to the thermal
// solver, performance model, RNG consumption order, or accounting shows up
// as a digest mismatch here before it silently shifts paper figures.
//
// Regenerating after an *intended* behavior change: run this test, copy the
// printed actual digests, and update the constants together with a note in
// the commit message (see DESIGN.md §8).
constexpr const char* kGoldenOndemand = "fd86f0fd9a2ce475";
constexpr const char* kGoldenPowersave = "a282addbfaa0a585";

std::string run_digest(const std::string& governor_name) {
  const PlatformSpec& platform = PlatformSpec::hikey970();
  const WorkloadGenerator generator(platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 2;
  mixed.arrival_rate_per_s = 0.2;
  mixed.seed = 5;
  const Workload workload =
      generator.mixed(mixed, AppDatabase::instance().mixed_pool());

  ExperimentConfig config;
  config.max_duration_s = 30.0;
  config.sim.seed = 42;
  config.sim.validate = true;
  // The golden constants were generated with the Heun reference
  // integrator; pin it so a future default flip cannot shift them.
  config.sim.integrator = ThermalIntegrator::Heun;

  const auto governor = governor_name == "gts-ondemand"
                            ? make_gts_ondemand()
                            : make_gts_powersave();
  const ExperimentResult result =
      run_experiment(platform, *governor, workload, config);
  EXPECT_TRUE(result.validation->clean()) << result.validation->summary();
  return digest_hex(result.validation->trace_digest);
}

TEST(GoldenTraceTest, OndemandScenarioMatchesGolden) {
  const std::string actual = run_digest("gts-ondemand");
  EXPECT_EQ(actual, kGoldenOndemand)
      << "behavior changed; if intended, update kGoldenOndemand to "
      << actual;
}

TEST(GoldenTraceTest, PowersaveScenarioMatchesGolden) {
  const std::string actual = run_digest("gts-powersave");
  EXPECT_EQ(actual, kGoldenPowersave)
      << "behavior changed; if intended, update kGoldenPowersave to "
      << actual;
}

TEST(GoldenTraceTest, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(run_digest("gts-ondemand"), run_digest("gts-ondemand"));
}

// TOP-IL devices: every migration epoch runs the served policy through the
// host inference engine, so these pins cover the NPU path that the GTS
// scenarios above never reach. The solo pins run each device through its
// own NpuDevice (run_reference_device); the server pin runs the same
// devices through a GovernorServer whose shards answer every epoch with
// one aggregated InferenceAggregator flush. Both must land on the same
// bits.
constexpr std::uint64_t kDeviceSeed = 99;
constexpr std::uint64_t kPolicySeed = 5;
constexpr std::size_t kEpochTicks = 25;

struct DevicePin {
  std::uint64_t device_id;
  const char* digest;
  const char* action_digest;
};
constexpr std::array<DevicePin, 3> kGoldenTopIlDevices = {{
    {0, "9bff9010894ac08d", "70fff1fe2b817ff8"},
    {1, "51b3177db72f9b08", "79d119f3624dc5c1"},
    {2, "245be84a8a7b9694", "e257d4813b3fcfe6"},
}};

server::DeviceScenarioOptions topil_device() {
  server::DeviceScenarioOptions opts;
  opts.max_duration_s = 4.0;
  opts.num_apps = 3;
  return opts;
}

TEST(GoldenTraceTest, TopIlSoloDevicesMatchGolden) {
  for (const DevicePin& pin : kGoldenTopIlDevices) {
    const server::DeviceRunSummary run = server::run_reference_device(
        server::make_device_scenario(kDeviceSeed, pin.device_id,
                                     topil_device()),
        pin.device_id, kPolicySeed, kEpochTicks);
    EXPECT_GT(run.actions, 0u) << "device " << pin.device_id;
    EXPECT_EQ(digest_hex(run.digest), pin.digest)
        << "device " << pin.device_id;
    EXPECT_EQ(digest_hex(run.action_digest), pin.action_digest)
        << "device " << pin.device_id;
  }
}

TEST(GoldenTraceTest, TopIlAggregatedServerRunMatchesGolden) {
  server::ServerConfig config;
  config.nshards = 2;
  config.policy_seed = kPolicySeed;
  config.epoch_ticks = kEpochTicks;
  server::GovernorServer server(config);
  server.start();
  server::ServiceClient client(server.connect_local());
  for (const DevicePin& pin : kGoldenTopIlDevices) {
    client.register_device(
        pin.device_id,
        server::make_device_scenario(kDeviceSeed, pin.device_id,
                                     topil_device())
            .serialize());
  }
  std::map<std::uint64_t, server::RetireMsg> retired;
  std::vector<server::ClientEvent> events;
  while (retired.size() < kGoldenTopIlDevices.size()) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    for (const server::ClientEvent& ev : events) {
      ASSERT_NE(ev.type, server::MsgType::kError) << ev.error.message;
      if (ev.type == server::MsgType::kRetire) {
        retired[ev.retire.device_id] = ev.retire;
      }
    }
  }
  server.wait_drained();
  server.stop();
  EXPECT_GT(server.stats().npu_rows, server.stats().npu_device_calls);
  for (const DevicePin& pin : kGoldenTopIlDevices) {
    const server::RetireMsg& got = retired.at(pin.device_id);
    EXPECT_EQ(digest_hex(got.digest), pin.digest)
        << "device " << pin.device_id;
    EXPECT_EQ(digest_hex(got.action_digest), pin.action_digest)
        << "device " << pin.device_id;
  }
}

}  // namespace
}  // namespace topil::validate
