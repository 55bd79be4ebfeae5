// serve_open: GovernorServer as deployed, under an open-loop load.
//
// The server listens on 127.0.0.1 over TCP with nproc - 2 shards, a state
// dir (WAL plus periodic checkpoints) and validation off (the topil_serve
// default). One generator thread — this one — opens at most nproc
// connections and registers make_device_scenario devices with a 10 s
// simulated horizon at a fixed rate, regardless of how fast the server
// answers. Every latency is timed from when its request was due to be
// sent, so a stall also counts against the requests queued behind it.
// A job is one device: due register time to its Retire frame.

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/device_scenario.hpp"
#include "server/server.hpp"
#include "server/shard.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace topil;
using namespace topil::server;

namespace {

/// Offered load, devices per second: about 60% of the rate at which the
/// seed commit's backlog starts to grow on a 4-thread host (2 shards).
constexpr double kRatePerS = 450.0;
constexpr double kHorizonS = 10.0;       ///< simulated s per device
constexpr std::size_t kCheckpointEvery = 1000;  ///< fleet ticks per shard
constexpr std::size_t kSetups = 5;
constexpr std::size_t kCheckedDevices = 8;  ///< solo reference rollouts
constexpr double kDrainTimeoutS = 60.0;
constexpr std::uint64_t kStatsEveryNs = 20'000'000;
constexpr auto kIdleWait = std::chrono::microseconds(50);

struct Service {
  std::string state_dir;
  std::vector<std::string> scenarios;  ///< register text per device id
  std::unique_ptr<GovernorServer> server;
  std::vector<std::unique_ptr<ServiceClient>> clients;  ///< closed first
};

DeviceScenarioOptions device_options() {
  DeviceScenarioOptions opts;
  opts.max_duration_s = kHorizonS;
  return opts;
}

Service make_service(const Options& options, std::size_t devices,
                     std::size_t shards, const std::string& state_dir) {
  Service s;
  s.state_dir = state_dir;
  std::filesystem::remove_all(state_dir);
  const DeviceScenarioOptions opts = device_options();
  s.scenarios.reserve(devices);
  for (std::size_t id = 0; id < devices; ++id) {
    s.scenarios.push_back(
        make_device_scenario(options.seed, id, opts).serialize());
  }
  ServerConfig config;
  config.nshards = shards;
  config.tcp = true;
  config.state_dir = state_dir;
  config.checkpoint_every_ticks = kCheckpointEvery;
  s.server = std::make_unique<GovernorServer>(config);
  s.server->start();
  const std::size_t connections = std::min(options.nproc, devices);
  for (std::size_t c = 0; c < connections; ++c) {
    s.clients.push_back(std::make_unique<ServiceClient>(
        connect_tcp("127.0.0.1", s.server->tcp_port())));
  }
  return s;
}

bool has_suffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& suffix) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (has_suffix(entry.path().filename().string(), suffix)) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// Checkpoint files seen in the state dir while the server runs: each
/// shard rewrites its own file, so a new modification time is a new
/// checkpoint. Sampled, so it sees a subset of them.
struct CheckpointSampler {
  std::map<std::string, std::filesystem::file_time_type> seen;
  std::uint64_t observed = 0;
  std::uint64_t bytes = 0;

  void sample(const std::string& dir) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (!has_suffix(name, ".ckpt")) continue;
      const auto mtime = entry.last_write_time(ec);
      const auto size = entry.file_size(ec);
      if (ec) continue;  // renamed over while we looked
      auto [it, fresh] = seen.emplace(name, mtime);
      if (!fresh && it->second == mtime) continue;
      it->second = mtime;
      ++observed;
      bytes += size;
    }
  }
};

struct Device {
  std::uint64_t due_ns = 0;
  std::uint64_t ack_ns = 0;
  std::uint64_t retire_ns = 0;
  RetireMsg retire;
  bool traced = false;  ///< due in a traced block (traced runs)
};

double mean_over(const std::vector<std::pair<double, double>>& samples,
                 double from, double to) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [t, v] : samples) {
    if (t >= from && t < to) {
      sum += v;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Median and p99 of one latency distribution; a percentile is reported
/// only with ten samples beyond it.
void report_latency(Report& report, const std::string& stem,
                    const std::vector<double>& samples,
                    const std::string& unit, const std::string& note) {
  if (const auto p50 = reportable_percentile(samples, 50.0)) {
    report.metric(stem + "_p50_" + unit, *p50, unit, samples.size(), note);
  }
  if (const auto p99 = reportable_percentile(samples, 99.0)) {
    report.metric(stem + "_p99_" + unit, *p99, unit, samples.size(), note);
  }
}

}  // namespace

void run_serve_open(const Options& options, Report& report) {
  const std::size_t shards = options.nproc > 2 ? options.nproc - 2 : 1;
  const auto devices = static_cast<std::size_t>(
      std::ceil(kRatePerS * options.seconds));
  const std::string state_root = options.out_dir + "/serve_open-state";
  std::filesystem::remove_all(state_root);

  std::size_t rep = 0;
  Service svc = timed_setup(kSetups, report, [&] {
    return make_service(options, devices, shards,
                        state_root + "/setup" + std::to_string(rep++));
  });
  // Server IO thread + shard workers + this generator thread.
  report_threads(options, shards + 2, svc.clients.size(), report);
  report.info("shards", static_cast<double>(shards));
  report.info("rate_per_s", kRatePerS);
  report.info("devices", static_cast<double>(devices));
  report.info("horizon_s", kHorizonS);
  report.info("checkpoint_every_ticks", static_cast<double>(kCheckpointEvery));

  Tracer& tracer = Tracer::instance();
  const double interval_ns = 1e9 / kRatePerS;
  const std::uint64_t t0 = now_ns() + 5'000'000;
  const auto window_end = t0 + static_cast<std::uint64_t>(
                                    interval_ns * static_cast<double>(devices));
  // A traced run traces every other second of the schedule.
  const auto traced_block = [&](std::uint64_t t) {
    return options.trace && t >= t0 && ((t - t0) / 1'000'000'000) % 2 == 1;
  };
  std::vector<Device> dev(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    dev[i].due_ns = t0 + static_cast<std::uint64_t>(
                             interval_ns * static_cast<double>(i));
    dev[i].traced = traced_block(dev[i].due_ns);
  }

  std::vector<double> lag_ms;
  std::vector<double> action_us;
  std::vector<std::pair<double, double>> live;  ///< (s since t0, devices)
  double live_max = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t errors = 0;
  std::size_t retired = 0;
  std::size_t next = 0;
  std::uint64_t next_stats = t0;
  std::vector<ClientEvent> events;
  CheckpointSampler checkpoints;
  const double cpu0 = process_cpu_s();

  bool timed_out = false;
  while (retired < devices) {
    std::uint64_t now = now_ns();
    tracer.set_enabled(traced_block(now));
    bool progressed = false;
    while (next < devices && dev[next].due_ns <= now) {
      {
        Scope span(Site::kClientRegister, next);
        svc.clients[next % svc.clients.size()]->register_device(
            next, svc.scenarios[next]);
      }
      now = now_ns();
      lag_ms.push_back(1e-6 * static_cast<double>(now - dev[next].due_ns));
      ++next;
      progressed = true;
    }
    for (auto& client : svc.clients) {
      events.clear();
      std::size_t n = 0;
      {
        Scope span(Site::kClientPoll);
        n = client->poll(events);
      }
      frames += n;
      progressed = progressed || n > 0;
      for (const ClientEvent& ev : events) {
        const std::uint64_t id = ev.type == MsgType::kRegisterAck
                                     ? ev.ack.device_id
                                     : ev.type == MsgType::kAction
                                           ? ev.action.device_id
                                           : ev.retire.device_id;
        if (id >= devices) {
          ++errors;
          continue;
        }
        switch (ev.type) {
          case MsgType::kRegisterAck:
            dev[id].ack_ns = ev.recv_ns;
            break;
          case MsgType::kAction:
            action_us.push_back(
                1e-3 * static_cast<double>(ev.recv_ns - ev.action.sent_ns));
            break;
          case MsgType::kRetire:
            dev[id].retire = ev.retire;
            dev[id].retire_ns = ev.recv_ns;
            ++retired;
            break;
          default:
            ++errors;
        }
      }
    }
    now = now_ns();
    if (now >= next_stats) {
      StatsReplyMsg st;
      {
        Scope span(Site::kServerStats);
        st = svc.server->stats();
      }
      const double t = 1e-9 * static_cast<double>(now - t0);
      live.emplace_back(t, static_cast<double>(st.devices_live));
      live_max = std::max(live_max, static_cast<double>(st.devices_live));
      checkpoints.sample(svc.state_dir);
      next_stats = now + kStatsEveryNs;
    }
    if (errors > 0) break;
    if (now > window_end &&
        1e-9 * static_cast<double>(now - window_end) > kDrainTimeoutS) {
      timed_out = true;
      break;
    }
    if (!progressed) std::this_thread::sleep_for(kIdleWait);
  }
  tracer.set_enabled(false);
  const double wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  const double cpu_s = process_cpu_s() - cpu0;
  const StatsReplyMsg final_stats = svc.server->stats();
  svc.clients.clear();
  svc.server->stop();

  // --- end-to-end metrics ---
  std::vector<double> ack_ms;
  std::vector<double> turnaround_ms;
  std::vector<double> turnaround_traced;
  std::vector<double> turnaround_untraced;
  for (const Device& d : dev) {
    if (d.ack_ns != 0) {
      ack_ms.push_back(1e-6 * static_cast<double>(d.ack_ns - d.due_ns));
    }
    if (d.retire_ns != 0) {
      const double ms = 1e-6 * static_cast<double>(d.retire_ns - d.due_ns);
      turnaround_ms.push_back(ms);
      (d.traced ? turnaround_traced : turnaround_untraced).push_back(ms);
    }
  }
  const std::vector<double>& job_base =
      options.trace ? turnaround_untraced : turnaround_ms;
  if (!job_base.empty()) {
    report.metric("job_p50_ms", median(job_base), "ms", job_base.size(),
                  "turnaround: due register time to Retire received" +
                      std::string(options.trace ? "; untraced blocks" : ""));
  }
  report.metric("cpu_ms_per_job", 1e3 * cpu_s / static_cast<double>(devices),
                "ms", devices, "process CPU (server and generator) per device");
  report_latency(report, "ack", ack_ms, "ms",
                 "due register time to RegisterAck received");
  report_latency(report, "action", action_us, "us",
                 "ActionMsg.sent_ns to client receive");
  report_latency(report, "turnaround", turnaround_ms, "ms",
                 "due register time to Retire received");
  if (!turnaround_traced.empty() && !turnaround_untraced.empty()) {
    report.layer("trace.overhead_frac",
                 median(turnaround_traced) / median(turnaround_untraced) -
                     1.0);
  }

  // Backlog over the send window: the live-device level in its last
  // quarter against its second quarter.
  const double window_s = 1e-9 * static_cast<double>(window_end - t0);
  const double early = mean_over(live, 0.25 * window_s, 0.5 * window_s);
  const double late = mean_over(live, 0.75 * window_s, window_s);
  const bool saturated = late > 1.25 * early + 10.0;
  report.info("backlog_q2_mean", early);
  report.info("backlog_q4_mean", late);
  report.info("wall_s", wall_s);

  // --- per-layer metrics ---
  const Totals totals = tracer.totals();
  const auto mean_us = [&](Site site) {
    const SiteTotals& t = totals[static_cast<std::size_t>(site)];
    return t.count == 0 ? 0.0
                        : 1e-3 * static_cast<double>(t.total_ns) /
                              static_cast<double>(t.count);
  };
  report.layer("server.client.register_us", mean_us(Site::kClientRegister));
  report.layer("server.client.poll_us", mean_us(Site::kClientPoll));
  report.layer("server.client.frames", static_cast<double>(frames));
  report.layer("server.live_devices_mean",
               mean_over(live, 0.0, window_s));
  report.layer("server.live_devices_max", live_max);
  report.layer("server.fleet_ticks",
               static_cast<double>(final_stats.fleet_ticks));
  report.layer("server.actions_sent",
               static_cast<double>(final_stats.actions_sent));
  report.layer("npu.rows", static_cast<double>(final_stats.npu_rows));
  report.layer("npu.device_calls",
               static_cast<double>(final_stats.npu_device_calls));
  report.layer("npu.rows_per_call",
               final_stats.npu_device_calls == 0
                   ? 0.0
                   : static_cast<double>(final_stats.npu_rows) /
                         static_cast<double>(final_stats.npu_device_calls));
  report.layer("persist.wal_bytes",
               static_cast<double>(dir_bytes(svc.state_dir, ".wal")));
  // Mean size of the periodic checkpoints seen while serving (the final
  // ones, written after every device retired, are empty).
  report.layer("persist.checkpoint_bytes",
               checkpoints.observed == 0
                   ? 0.0
                   : static_cast<double>(checkpoints.bytes) /
                         static_cast<double>(checkpoints.observed));
  // Each shard checkpoints every kCheckpointEvery of its own fleet ticks
  // while it has devices, and once more at stop.
  report.layer("persist.checkpoints",
               std::floor(static_cast<double>(final_stats.fleet_ticks) /
                          static_cast<double>(kCheckpointEvery)) +
                   static_cast<double>(shards));
  report.layer("loadgen.sent", static_cast<double>(next));
  if (const auto p99 = reportable_percentile(lag_ms, 99.0)) {
    report.layer("loadgen.lag_p99_ms", *p99);
  }

  // --- output checks ---
  report.work(devices, devices - retired);
  report.check("not_saturated", !saturated,
               "live devices q2 mean " + std::to_string(early) +
                   ", q4 mean " + std::to_string(late));
  report.check("all_retired", retired == devices && !timed_out && errors == 0,
               std::to_string(retired) + "/" + std::to_string(devices) +
                   " retired, " + std::to_string(errors) + " errors");
  const std::vector<RetireMsg> wal =
      read_retired_devices(svc.state_dir, shards);
  bool wal_ok = wal.size() == devices;
  for (std::size_t i = 0; wal_ok && i < wal.size(); ++i) {
    const RetireMsg& got = dev[i].retire;
    wal_ok = wal[i].device_id == i && wal[i].digest == got.digest &&
             wal[i].action_digest == got.action_digest;
  }
  report.check("wal_lists_every_device", wal_ok,
               std::to_string(wal.size()) + " retired records in the WALs");
  Rng pick(options.seed ^ 0x5e7e0aedull);
  std::size_t mismatches = 0;
  std::string checked;
  for (std::size_t k = 0; k < kCheckedDevices; ++k) {
    const std::uint64_t id = pick.index(devices);
    const DeviceRunSummary ref = run_reference_device(
        make_device_scenario(options.seed, id, device_options()), id,
        ServerConfig{}.policy_seed, ServerConfig{}.epoch_ticks);
    const RetireMsg& got = dev[id].retire;
    if (ref.digest != got.digest || ref.action_digest != got.action_digest ||
        ref.ticks != got.ticks || ref.actions != got.actions) {
      ++mismatches;
    }
    if (k > 0) checked += ",";
    checked += std::to_string(id);
  }
  report.check("devices_match_reference", mismatches == 0,
               "devices " + checked + " vs run_reference_device: " +
                   std::to_string(mismatches) + " mismatches");
  if (saturated || !wal_ok || mismatches != 0) report.work(0, 1);
}

}  // namespace perfbench
