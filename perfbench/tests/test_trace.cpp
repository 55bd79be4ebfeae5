// Span self time and totals (perfbench/src/trace.hpp), with made-up clocks.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

const SiteTotals& of(const SpanLog& log, Site site) {
  return log.totals()[static_cast<std::size_t>(site)];
}

TEST(SpanLog, SelfTimeSubtractsNestedChildren) {
  SpanLog log(16);
  log.open(Site::kFleetStep, 100, 1, 0);
  log.open(Site::kFleetPreTick, 110, 2, 0);
  log.open(Site::kGovernorTick, 115, 3, 0);
  EXPECT_EQ(log.close(135), 20u);  // governor: no children
  EXPECT_EQ(log.close(140), 10u);  // pre_tick 30 - governor 20
  log.open(Site::kNpuFlush, 150, 4, 0);
  EXPECT_EQ(log.close(170), 20u);
  EXPECT_EQ(log.close(200), 50u);  // step 100 - pre_tick 30 - flush 20

  const SiteTotals& step = of(log, Site::kFleetStep);
  EXPECT_EQ(step.count, 1u);
  EXPECT_EQ(step.total_ns, 100u);
  EXPECT_EQ(step.self_ns, 50u);
  // Only direct children count: the grandchild is inside pre_tick.
  EXPECT_EQ(of(log, Site::kFleetPreTick).self_ns, 10u);
}

TEST(SpanLog, RecordsParentsAndSubjects) {
  SpanLog log(16);
  log.open(Site::kWorker, 0, 7, 42, /*parent=*/99);  // cross-thread parent
  log.open(Site::kFleetStep, 1, 8, 3, /*parent=*/55);  // ignored: nested
  log.close(2);
  log.close(3);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].id, 8u);
  EXPECT_EQ(log.spans()[0].parent, 7u);
  EXPECT_EQ(log.spans()[0].subject, 3u);
  EXPECT_EQ(log.spans()[1].id, 7u);
  EXPECT_EQ(log.spans()[1].parent, 99u);
  EXPECT_EQ(log.spans()[1].subject, 42u);
}

TEST(SpanLog, TotalsKeepCountingPastTheKeptSpans) {
  SpanLog log(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.open(Site::kClientPoll, 10 * i, i + 1, 0);
    log.close(10 * i + 4);
  }
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_EQ(of(log, Site::kClientPoll).count, 5u);
  EXPECT_EQ(of(log, Site::kClientPoll).total_ns, 20u);
}

TEST(SpanLog, SelfTimeNeverNegative) {
  SpanLog log(4);
  log.open(Site::kJob, 0, 1, 0);
  log.open(Site::kNnFit, 0, 2, 0);
  log.close(10);
  EXPECT_EQ(log.close(10), 0u);
  EXPECT_THROW(log.close(11), std::logic_error);
}

TEST(Tracer, RecordsNothingWhileOff) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);
  const std::uint64_t before = tracer.spans_recorded();
  { Scope s(Site::kIlEval); }
  EXPECT_EQ(tracer.spans_recorded(), before);
  tracer.set_enabled(true);
  { Scope s(Site::kIlEval); }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.spans_recorded(), before + 1);
}

TEST(Tracer, ThreadsRecordIntoTheirOwnLogs) {
  Tracer& tracer = Tracer::instance();
  const std::uint64_t before =
      tracer.totals()[static_cast<std::size_t>(Site::kWorker)].count;
  tracer.set_enabled(true);
  std::uint64_t parent = 0;
  {
    Scope region(Site::kJob);
    parent = region.id();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([parent] {
        for (int i = 0; i < 100; ++i) {
          Scope worker(Site::kWorker, i, parent);
          Scope inner(Site::kNnFit);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  tracer.set_enabled(false);
  EXPECT_NE(parent, 0u);
  EXPECT_EQ(tracer.totals()[static_cast<std::size_t>(Site::kWorker)].count,
            before + 400);
}

}  // namespace
}  // namespace perfbench
