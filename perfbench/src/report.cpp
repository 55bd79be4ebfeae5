#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Every digit the double carries; non-finite values (never produced by a
/// passing run) print as 0 so the line stays valid JSON.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string value_unit(double value, const std::string& unit) {
  return "{\"value\": " + number(value) + ", \"unit\": " + quote(unit) + "}";
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"fleet.step_ms", "ms"},
      {"fleet.step_self_ms", "ms"},
      {"fleet.lane_ticks", "count"},
      {"fleet.batched_thermal_frac", "frac"},
      {"governors.tick_ms", "ms"},
      {"governors.place_ms", "ms"},
      {"npu.flush_ms", "ms"},
      {"npu.rows", "count"},
      {"npu.device_calls", "count"},
      {"npu.rows_per_call", "rows"},
      {"validate.digest_ms", "ms"},
      {"thermal.propagator_setup_ms", "ms"},
      {"common.worker_idle_frac", "frac"},
      {"server.client.register_us", "us"},
      {"server.client.poll_us", "us"},
      {"server.client.frames", "count"},
      {"server.live_devices_mean", "count"},
      {"server.live_devices_max", "count"},
      {"server.fleet_ticks", "count"},
      {"server.actions_sent", "count"},
      {"persist.wal_bytes", "bytes"},
      {"persist.checkpoint_bytes", "bytes"},
      {"persist.checkpoints", "count"},
      {"loadgen.sent", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      {"il.collect_ms", "ms"},
      {"il.extract_ms", "ms"},
      {"il.examples", "count"},
      {"il.eval_ms", "ms"},
      {"nn.fit_ms", "ms"},
      {"nn.epochs", "count"},
      {"nn.example_epochs_per_s", "1/s"},
      {"trace.overhead_frac", "frac"},
      {"trace.spans", "count"},
  };
  return metrics;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    const std::string& note) {
  if (metrics_.count(name) == 0) metric_order_.push_back(name);
  metrics_[name] = Metric{value, unit, samples, note};
}

void Report::layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, quote(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, number(value));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::work(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::correct() const {
  if (attempted_ == 0 || failed_ != 0 || checks_.empty()) return false;
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  for (const std::string& name : gated_metrics()) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) return false;
  }
  return true;
}

void Report::print(const std::string& workload, std::uint64_t seed,
                   bool trace, const std::string& source_id) const {
  const bool ok = correct();
  // A failed check counts its unit of work as failed even when the work
  // itself completed.
  const std::uint64_t failed = ok ? 0 : std::max<std::uint64_t>(failed_, 1);
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);

  std::ostringstream full;
  full << "{\"perfbench\": {\"workload\": " << quote(workload)
       << ", \"seed\": " << seed << ", \"trace\": " << (trace ? 1 : 0)
       << ", \"source\": " << quote(source_id) << ", \"provenance\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    full << (i ? ", " : "") << quote(info_[i].first) << ": "
         << info_[i].second;
  }
  full << "}, \"end_to_end\": {";
  for (std::size_t i = 0; i < metric_order_.size(); ++i) {
    const Metric& m = metrics_.at(metric_order_[i]);
    full << (i ? ", " : "") << quote(metric_order_[i])
         << ": {\"value\": " << number(m.value)
         << ", \"unit\": " << quote(m.unit) << ", \"samples\": " << m.samples;
    if (!m.note.empty()) full << ", \"note\": " << quote(m.note);
    full << "}";
  }
  // A layer the workload does not reach reads 0.
  const auto layer_value = [&](const std::string& name) {
    const auto it = layers_.find(name);
    return it == layers_.end() ? 0.0 : it->second;
  };
  full << "}, \"per_layer\": {";
  bool first = true;
  for (const auto& [name, unit] : layer_metrics()) {
    full << (first ? "" : ", ") << quote(name) << ": "
         << value_unit(layer_value(name), unit);
    first = false;
  }
  full << "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    full << (i ? ", " : "") << "{\"name\": " << quote(checks_[i].name)
         << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
         << ", \"detail\": " << quote(checks_[i].detail) << "}";
  }
  full << "], \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"failed_frac\": "
       << number(static_cast<double>(failed) / static_cast<double>(attempted))
       << "}}";

  std::ostringstream result;
  result << "{\"correct\": " << (ok ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  first = true;
  if (trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      result << (first ? "" : ", ") << quote(name) << ": "
             << value_unit(layer_value(name), unit);
      first = false;
    }
  } else {
    for (const std::string& name : gated_metrics()) {
      const auto it = metrics_.find(name);
      const Metric m = it == metrics_.end() ? Metric{} : it->second;
      result << (first ? "" : ", ") << quote(name) << ": "
             << value_unit(m.value, m.unit);
      first = false;
    }
  }
  result << "}}";
  std::printf("%s\n%s\n", full.str().c_str(), result.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // program launched from a larger parent would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

}  // namespace perfbench
