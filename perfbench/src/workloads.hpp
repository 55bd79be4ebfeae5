#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< state dirs and the written trace
  std::string source_id;      ///< commit or source hash, for provenance
  std::size_t nproc = 1;
};

void run_fleet_grid(const Options& options, Report& report);
void run_serve_open(const Options& options, Report& report);
void run_design_train(const Options& options, Report& report);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Set the workload up `reps` times and keep the last result: the median
/// of the set-up times is `setup_s`. `make()` must build everything anew
/// (process-wide caches it fills are cleared by `make` itself).
template <typename Make>
auto timed_setup(std::size_t reps, Report& report, Make&& make) {
  std::vector<double> seconds;
  for (std::size_t r = 0; r + 1 < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto discarded = make();
    seconds.push_back(seconds_since(t0));
  }  // tear-down is not set-up: it runs after the clock stops
  const auto t0 = std::chrono::steady_clock::now();
  auto kept = make();
  seconds.push_back(seconds_since(t0));
  report.metric("setup_s", median(seconds), "s", seconds.size(),
                "median set-up over repeated set-ups in one process");
  return kept;
}

/// Wall times of the jobs of one measurement window.
struct JobTimes {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double cpu_s = 0.0;  ///< process CPU over the window
  std::size_t jobs() const { return untraced_ms.size() + traced_ms.size(); }
};

/// Run `job(index)` back to back until `seconds` have passed and at least
/// `min_jobs` ran. In a traced run jobs alternate between tracing off and
/// on (the first is off), so the run measures its own tracing overhead.
template <typename Job>
JobTimes run_jobs(const Options& options, std::size_t min_jobs, Job&& job) {
  JobTimes times;
  if (options.trace) min_jobs = std::max<std::size_t>(min_jobs, 2);
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0;
       times.jobs() < min_jobs || seconds_since(t0) < options.seconds; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    Tracer::instance().set_enabled(traced);
    const auto j0 = std::chrono::steady_clock::now();
    {
      Scope span(Site::kJob, i);
      job(i);
    }
    const double ms = 1e3 * seconds_since(j0);
    (traced ? times.traced_ms : times.untraced_ms).push_back(ms);
  }
  Tracer::instance().set_enabled(false);
  times.cpu_s = process_cpu_s() - cpu0;
  return times;
}

/// The gated job metrics plus the traced run's overhead estimate.
void report_jobs(const JobTimes& times, const std::string& job_note,
                 Report& report);

/// Per-layer value of a span site: summed duration per traced job in ms.
double site_ms_per_job(const Totals& totals, Site site, std::size_t jobs,
                       bool self = false);

/// Record the workload's thread and connection counts; warns (stderr and
/// the record) when the threads exceed the host's hardware threads.
void report_threads(const Options& options, std::size_t threads,
                    std::size_t connections, Report& report);


}  // namespace perfbench
