// perfbench: one run of one repository benchmark workload.
//
//   perfbench --workload fleet_grid|serve_open|design_train --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]
//
// Builds the workload's inputs from the seed, measures for S seconds,
// checks the outputs, and prints the full record and the result line (see
// report.hpp). Exit status: 0 = every check passed, 1 = a check failed or
// the workload threw, 2 = usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

void report_jobs(const JobTimes& times, const std::string& job_note,
                 Report& report) {
  const std::vector<double>& base =
      times.untraced_ms.empty() ? times.traced_ms : times.untraced_ms;
  std::fprintf(stderr, "job ms:");
  for (const double ms : base) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  report.metric("job_p50_ms", median(base), "ms", base.size(),
                job_note + (times.traced_ms.empty() ? "" : "; untraced jobs"));
  report.metric("cpu_ms_per_job",
                1e3 * times.cpu_s / static_cast<double>(times.jobs()), "ms",
                times.jobs(), "process CPU (user + system) per job");
  if (!times.traced_ms.empty() && !times.untraced_ms.empty()) {
    report.layer("trace.overhead_frac",
                 median(times.traced_ms) / median(times.untraced_ms) - 1.0);
  }
}

double site_ms_per_job(const Totals& totals, Site site, std::size_t jobs,
                       bool self) {
  if (jobs == 0) return 0.0;
  const SiteTotals& t = totals[static_cast<std::size_t>(site)];
  return 1e-6 * static_cast<double>(self ? t.self_ns : t.total_ns) /
         static_cast<double>(jobs);
}

void report_threads(const Options& options, std::size_t threads,
                    std::size_t connections, Report& report) {
  report.info("threads", static_cast<double>(threads));
  report.info("connections", static_cast<double>(connections));
  if (threads > options.nproc) {
    const std::string warning = std::to_string(threads) +
                                " threads exceed the host's " +
                                std::to_string(options.nproc);
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
    report.info("warning", warning);
  }
}

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_grid|serve_open|design_train "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-id ID]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.nproc = host_threads();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage(argv[0]);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage(argv[0]);
        o.trace = value == "1";
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--source-id") {
        o.source_id = value;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    usage(argv[0]);
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) usage(argv[0]);
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Report report;
  report.info("nproc", static_cast<double>(options.nproc));
  report.info("compiler", std::string("g++ ") + __VERSION__);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.info("seconds", options.seconds);
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "fleet_grid") {
      run_fleet_grid(options, report);
    } else if (options.workload == "serve_open") {
      run_serve_open(options, report);
    } else if (options.workload == "design_train") {
      run_design_train(options, report);
    } else {
      usage(argv[0]);
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1,
                  "peak resident set of the whole run");
    if (options.trace) {
      Tracer& tracer = Tracer::instance();
      report.layer("trace.spans",
                   static_cast<double>(tracer.spans_recorded()));
      const std::string path =
          options.out_dir + "/" + options.workload + ".trace.tsv";
      const std::size_t written = tracer.write(path);
      report.info("trace_file", path);
      report.info("trace_spans_written", static_cast<double>(written));
      report.info("trace_spans_dropped",
                  static_cast<double>(tracer.spans_dropped()));
    }
  } catch (const std::exception& e) {
    report.work(1, 1);
    report.check("workload_completed", false, e.what());
  }
  report.print(options.workload, options.seed, options.trace,
               options.source_id);
  return report.correct() ? 0 : 1;
}
