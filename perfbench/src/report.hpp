#pragma once

// What one benchmark run reports, and how it is printed.
//
// Standard output ends with two JSON lines:
//   {"perfbench": {...}}  the full record: provenance, every end-to-end
//                         metric of the workload with unit and sample
//                         count, every per-layer metric, every check;
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//                         the result line: with tracing off the gated
//                         end-to-end metrics, with tracing on every
//                         per-layer metric.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string note;         ///< what the value is on this workload
};

/// End-to-end metrics every workload reports in its result line (the ones
/// BENCHMARK.json gates). Each has a meaning on every workload.
inline const std::vector<std::string>& gated_metrics() {
  static const std::vector<std::string> names = {"setup_s", "peak_rss_mb",
                                                 "job_p50_ms",
                                                 "cpu_ms_per_job"};
  return names;
}

/// Per-layer metrics every workload reports in its traced result line, in
/// BENCHMARK.json order. A layer a workload does not reach reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

class Report {
 public:
  /// Workload-specific end-to-end metric (printed in the full record).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, const std::string& note = "");
  /// Per-layer metric; the unit comes from layer_metrics().
  void layer(const std::string& name, double value);
  /// Free-form provenance / context (string or number).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// One output check; a failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Units of work attempted and failed (lanes, devices, pipelines).
  void work(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const;

  /// Print both JSON lines to stdout.
  void print(const std::string& workload, std::uint64_t seed, bool trace,
             const std::string& source_id) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<std::string> metric_order_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
double process_cpu_s();
/// Hardware threads this process may run on.
std::size_t host_threads();

}  // namespace perfbench
