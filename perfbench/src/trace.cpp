#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* site_name(Site site) {
  switch (site) {
    case Site::kJob: return "job";
    case Site::kFleetStep: return "fleet.step";
    case Site::kFleetPreTick: return "fleet.pre_tick";
    case Site::kGovernorTick: return "governors.tick";
    case Site::kGovernorPlace: return "governors.place";
    case Site::kNpuFlush: return "npu.flush";
    case Site::kValidateDigest: return "validate.digest";
    case Site::kThermalPropagator: return "thermal.propagator_setup";
    case Site::kWorker: return "common.worker";
    case Site::kClientRegister: return "server.client.register";
    case Site::kClientPoll: return "server.client.poll";
    case Site::kServerStats: return "server.stats";
    case Site::kIlCollect: return "il.collect";
    case Site::kIlExtract: return "il.extract";
    case Site::kIlEval: return "il.eval";
    case Site::kNnFit: return "nn.fit";
    case Site::kCount: break;
  }
  return "?";
}

void SpanLog::open(Site site, std::uint64_t t_ns, std::uint64_t id,
                   std::uint64_t subject, std::uint64_t parent) {
  Open o;
  o.span.site = site;
  o.span.start_ns = t_ns;
  o.span.id = id;
  o.span.parent = stack_.empty() ? parent : stack_.back().span.id;
  o.span.subject = subject;
  stack_.push_back(o);
}

std::uint64_t SpanLog::close(std::uint64_t t_ns, bool keep_span) {
  if (stack_.empty()) throw std::logic_error("SpanLog::close without open");
  Open o = stack_.back();
  stack_.pop_back();
  o.span.end_ns = t_ns < o.span.start_ns ? o.span.start_ns : t_ns;
  const std::uint64_t duration = o.span.end_ns - o.span.start_ns;
  // Same-thread children nest inside this span and never overlap each
  // other, so their summed durations are the time they cover.
  const std::uint64_t self =
      o.child_ns < duration ? duration - o.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += duration;

  SiteTotals& t = totals_[static_cast<std::size_t>(o.span.site)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += self;
  if (keep_span && spans_.size() < keep_) {
    spans_.push_back(o.span);
  } else {
    ++dropped_;
  }
  return self;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

SpanLog& Tracer::log() {
  thread_local SpanLog* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<SpanLog>(kKeep));
    mine = logs_.back().get();
  }
  return *mine;
}

std::uint64_t Tracer::open(Site site, std::uint64_t subject,
                           std::uint64_t parent) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  log().open(site, now_ns(), id, subject, parent);
  return id;
}

void Tracer::close() {
  // The shared budget is read before it is claimed, so once it is spent
  // the threads only share a read-only cache line.
  const bool keep = kept_.load(std::memory_order_relaxed) < kKeep &&
                    kept_.fetch_add(1, std::memory_order_relaxed) < kKeep;
  log().close(now_ns(), keep);
}

std::uint64_t Tracer::current() const {
  return const_cast<Tracer*>(this)->log().innermost_id();
}

Totals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals out{};
  for (const auto& log : logs_) {
    for (std::size_t s = 0; s < kSiteCount; ++s) out[s] += log->totals()[s];
  }
  return out;
}

std::uint64_t Tracer::spans_recorded() const {
  std::uint64_t n = 0;
  for (const SiteTotals& t : totals()) n += t.count;
  return n;
}

std::uint64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

std::size_t Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  std::fprintf(f, "site\tstart_ns\tend_ns\tid\tparent\tsubject\n");
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                   site_name(s.site),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.subject));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

}  // namespace perfbench
