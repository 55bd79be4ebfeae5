#pragma once

// Span recording for the benchmark's traced runs.
//
// Every span is timed by the benchmark itself, around a call into one
// module's public functions (the layer boundary). A span records its site
// (name), start, end, its own id, the id of the span that caused it, and a
// subject id (lane, device or scenario). Spans stay in memory and are
// written out when the run ends.
//
// Self time of a span is its duration minus the time its child spans
// cover. Children recorded on the span's own thread are nested inside it,
// so they never overlap each other and the covered time is the sum of
// their durations; a span opened on another thread (a worker of a
// parallel region) names its parent explicitly and does not reduce the
// parent's self time.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries the benchmark times. The name of a site is
/// "<layer>.<call>", with the layer named after its module in src/.
enum class Site : std::uint8_t {
  kJob,                 ///< one unit of a workload's work (not a layer)
  kFleetStep,           ///< FleetEngine::step
  kFleetPreTick,        ///< the lane driver's pre_tick hook
  kGovernorTick,        ///< Governor::tick
  kGovernorPlace,       ///< Governor::place
  kNpuFlush,            ///< InferenceAggregator::flush (the barrier hook)
  kValidateDigest,      ///< DigestMonitor::on_tick
  kThermalPropagator,   ///< first ThermalPropagator::shared of a network
  kWorker,              ///< one task of a parallel region (common)
  kClientRegister,      ///< ServiceClient::register_device
  kClientPoll,          ///< ServiceClient::poll
  kServerStats,         ///< GovernorServer::stats
  kIlCollect,           ///< TraceCollector::collect
  kIlExtract,           ///< OracleExtractor::extract
  kIlEval,              ///< il::evaluate_policy_model
  kNnFit,               ///< nn::Trainer::fit
  kCount
};

const char* site_name(Site site);

inline constexpr std::size_t kSiteCount =
    static_cast<std::size_t>(Site::kCount);

struct Span {
  Site site = Site::kJob;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t subject = 0;  ///< lane, device or scenario id
};

struct SiteTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;

  SiteTotals& operator+=(const SiteTotals& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

using Totals = std::array<SiteTotals, kSiteCount>;

/// The spans of one thread, with explicit timestamps (the tracer passes
/// the clock; tests pass made-up times). Keeps per-site totals of every
/// span and the first `keep` spans themselves.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep) : keep_(keep) {}

  /// Open a span. `parent` is used only when no span is open on this log
  /// (a cross-thread child); otherwise the innermost open span is the
  /// parent.
  void open(Site site, std::uint64_t t_ns, std::uint64_t id,
            std::uint64_t subject, std::uint64_t parent = 0);
  /// Close the innermost open span; returns its self time. The span is
  /// kept only when `keep_span` is set and the log has room.
  std::uint64_t close(std::uint64_t t_ns, bool keep_span = true);

  std::uint64_t innermost_id() const {
    return stack_.empty() ? 0 : stack_.back().span.id;
  }
  const Totals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    Span span;
    std::uint64_t child_ns = 0;
  };
  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  Totals totals_{};
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide tracer: one SpanLog per thread that ever recorded a span.
/// Off by default; recording costs one branch when off. Toggle only while
/// no span is open (between jobs).
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t open(Site site, std::uint64_t subject, std::uint64_t parent);
  void close();
  /// Id of this thread's innermost open span (0 when none).
  std::uint64_t current() const;

  /// Totals merged over every thread.
  Totals totals() const;
  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;
  /// Write the kept spans as tab-separated lines
  /// (site, start_ns, end_ns, id, parent, subject); returns the count.
  std::size_t write(const std::string& path) const;

 private:
  Tracer() = default;
  SpanLog& log();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  /// Spans kept over all threads for the written trace; totals count
  /// every span.
  static constexpr std::uint64_t kKeep = 1u << 18;
  std::atomic<std::uint64_t> kept_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// RAII span on the process tracer; records nothing while tracing is off.
class Scope {
 public:
  explicit Scope(Site site, std::uint64_t subject = 0,
                 std::uint64_t parent = 0) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      tracer_ = &t;
      id_ = t.open(site, subject, parent);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench
