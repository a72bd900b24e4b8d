// Self-tests of the serving benchmark's own logic: the seeded schedules,
// the percentile rule, the ladder's walk and verdict, span self-time
// arithmetic, and the parity checker.
//
//   .bench_build/e2ebench/e2e_selftest
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_core.h"

namespace cqads::e2e {
namespace {

TEST(Schedule, SameSeedSameArrivals) {
  const QuestionPicker picker(500, 0.9, 7);
  const auto a = PoissonSchedule(800.0, 2.0, picker, 42);
  const auto b = PoissonSchedule(800.0, 2.0, QuestionPicker(500, 0.9, 7), 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].item, b[i].item);
  }
}

TEST(Schedule, OtherSeedOtherArrivals) {
  const QuestionPicker picker(500, 0.9, 7);
  const auto a = PoissonSchedule(800.0, 2.0, picker, 42);
  const auto b = PoissonSchedule(800.0, 2.0, picker, 43);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front().at_s, b.front().at_s);
  // A different popularity seed reorders which questions are hot.
  EXPECT_NE(PickStream(QuestionPicker(500, 0.9, 7), 50, 1),
            PickStream(QuestionPicker(500, 0.9, 8), 50, 1));
}

TEST(Schedule, PoissonRateIsAbsolute) {
  const QuestionPicker picker(100, 0.9, 1);
  const auto s = PoissonSchedule(1000.0, 10.0, picker, 9);
  // 10000 expected arrivals; a Poisson count has sd 100.
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 500.0);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LE(s[i - 1].at_s, s[i].at_s);
  }
  EXPECT_LT(s.back().at_s, 10.0);
}

TEST(Schedule, ZipfFavoursLowRanks) {
  const ZipfSampler zipf(1000, 1.0);
  Rng rng(3);
  std::size_t top10 = 0;
  for (int i = 0; i < 10000; ++i) top10 += zipf.Sample(&rng) < 10 ? 1 : 0;
  // H(10)/H(1000) ~= 0.39 of the mass sits on the first ten ranks.
  EXPECT_NEAR(static_cast<double>(top10) / 10000.0, 0.39, 0.03);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(&v, 0.5), 50.0);
  EXPECT_EQ(Quantile(&v, 0.99), 99.0);
  EXPECT_EQ(Quantile(&v, 1.0), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(Quantile(&empty, 0.5), 0.0);
}

TEST(Percentile, HighestWithTenBeyond) {
  // p99 needs 10 samples above rank ceil(0.99 n): n >= 1000.
  EXPECT_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_EQ(SupportedQuantile(999, 0.99), 0.95);
  EXPECT_EQ(SupportedQuantile(200, 0.99), 0.95);
  EXPECT_EQ(SupportedQuantile(199, 0.99), 0.9);
  EXPECT_EQ(SupportedQuantile(100, 0.99), 0.9);
  EXPECT_EQ(SupportedQuantile(40, 0.99), 0.75);
  EXPECT_EQ(SupportedQuantile(20, 0.99), 0.5);
  EXPECT_EQ(SupportedQuantile(5, 0.99), 0.5);
  // Never above what was asked for.
  EXPECT_EQ(SupportedQuantile(100000, 0.99), 0.99);
  EXPECT_EQ(SupportedQuantile(100000, 0.999), 0.999);
}

TEST(Percentile, SummaryReportsTheRuleItUsed) {
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  const Summary s = Summarize(v, 0.99);
  EXPECT_EQ(s.n, 500u);
  EXPECT_EQ(s.p50, 250.0);
  EXPECT_EQ(s.tail_q, 0.95);
  EXPECT_EQ(s.tail, 475.0);
}

TEST(Windows, InterquartileMeanDropsTheOuterQuarters) {
  EXPECT_EQ(InterquartileMean({}), 0.0);
  EXPECT_EQ(InterquartileMean({7.0}), 7.0);
  EXPECT_EQ(InterquartileMean({1.0, 3.0}), 2.0);
  // n = 8: the lowest two and highest two go.
  EXPECT_EQ(InterquartileMean({100, 1, 2, 3, 4, 5, 6, -100}), 3.5);
}

TEST(Windows, OneStallMovesOneWindow) {
  // Four 1 s windows of 100 samples at 1 ms; window 2 also holds a stall
  // where 30 samples took 50 ms.
  std::vector<double> values, at;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 100; ++i) {
      values.push_back(w == 2 && i < 30 ? 50.0 : 1.0);
      at.push_back(w + i / 100.0);
    }
  }
  const WindowedSummary s = SummarizeWindows(values, at, 4.0, 4, 0.99);
  EXPECT_EQ(s.windows, 4u);
  EXPECT_EQ(s.n, 400u);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_EQ(s.tail, 1.0);    // the stalled window's 50 ms is trimmed away
  EXPECT_EQ(s.tail_q, 0.9);  // 100 samples a window support p90
  // Pooled, the stall owns the tail.
  EXPECT_EQ(Summarize(values, 0.99).tail, 50.0);
}

TEST(Windows, RateAveragesTheMiddleWindows) {
  std::vector<double> at;
  for (int i = 0; i < 100; ++i) at.push_back(i * 0.01);         // 100/s
  for (int i = 0; i < 300; ++i) at.push_back(1.0 + i / 300.0);  // 300/s
  for (int i = 0; i < 200; ++i) at.push_back(2.0 + i / 200.0);  // 200/s
  for (int i = 0; i < 900; ++i) at.push_back(3.0 + i / 900.0);  // 900/s
  at.push_back(4.5);  // past the span: dropped
  EXPECT_DOUBLE_EQ(WindowRate(at, 4.0, 4), 250.0);
}

TEST(Ladder, InterpolatesTowardsTheFirstMissAbove) {
  const std::vector<double> rates = {100, 200, 300, 400};
  // Rung 200 met with a 6 ms tail, 300 missed at 16 ms: 10 ms is crossed
  // 40% of the way from 200 to 300.
  const auto r = SloFromLadder(rates, {2, 6, 16, 90}, {true, true, false, false},
                               10.0);
  EXPECT_EQ(r.highest_met, 200.0);
  EXPECT_NEAR(r.slo_qps, 240.0, 1e-9);
}

TEST(Ladder, AnIsolatedMissBelowDoesNotCap) {
  // A stall fails rung 100; 200 and 300 meet the limit; 400 is saturated.
  const auto r = SloFromLadder({100, 200, 300, 400}, {30, 4, 8, 50},
                               {false, true, true, false}, 10.0);
  EXPECT_EQ(r.highest_met, 300.0);
  EXPECT_NEAR(r.slo_qps, 300.0 + 100.0 * 2.0 / 42.0, 1e-9);
}

TEST(Ladder, TopRungOrBacklogMissGivesTheRung) {
  EXPECT_EQ(SloFromLadder({100, 200}, {1, 2}, {true, true}, 10.0).slo_qps,
            200.0);
  // The rung above missed by backlog with its tail inside the limit.
  EXPECT_EQ(SloFromLadder({100, 200}, {1, 9}, {true, false}, 10.0).slo_qps,
            100.0);
  // A stopped ladder: rungs never run do not count.
  EXPECT_EQ(SloFromLadder({100, 200, 300}, {1}, {true}, 10.0).slo_qps, 100.0);
}

TEST(Ladder, NothingMetScalesTheLowestRung) {
  const auto r = SloFromLadder({100, 200}, {40, 80}, {false, false}, 10.0);
  EXPECT_EQ(r.highest_met, 0.0);
  EXPECT_NEAR(r.slo_qps, 25.0, 1e-9);
}

TEST(Ladder, NothingMetSkipsRungsNeverRun) {
  const double never = std::nan("");
  const auto r = SloFromLadder({100, 200, 300}, {never, 20, never},
                               {false, false, false}, 10.0);
  EXPECT_NEAR(r.slo_qps, 100.0, 1e-9);
}

// Walks a ladder whose rungs up to `knee` meet the limit (none when -1).
std::vector<std::size_t> Walk(std::size_t rungs, std::size_t start, int knee) {
  std::vector<std::size_t> visited;
  int direction = 0;
  for (std::size_t i = start; i < rungs;) {
    visited.push_back(i);
    i = NextRung(rungs, i, static_cast<int>(i) <= knee, &direction);
  }
  return visited;
}

TEST(Ladder, WalkClimbsToTheFirstMiss) {
  EXPECT_EQ(Walk(10, 2, 5), (std::vector<std::size_t>{2, 3, 4, 5, 6}));
  // Met to the top: the walk ends with the ladder.
  EXPECT_EQ(Walk(4, 1, 9), (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Ladder, WalkDescendsToTheFirstMeet) {
  EXPECT_EQ(Walk(10, 6, 3), (std::vector<std::size_t>{6, 5, 4, 3}));
  // Nothing meets: down to the bottom rung.
  EXPECT_EQ(Walk(4, 2, -1), (std::vector<std::size_t>{2, 1, 0}));
}

TEST(Ladder, RungMeetsNeedsTailAndDrainableBacklog) {
  Summary tail;
  tail.n = 1000;
  tail.tail = 9.0;
  // 100/s x 10 ms allows a backlog of one request.
  EXPECT_TRUE(RungMeets(tail, 1.0, 100.0, 10.0));
  EXPECT_FALSE(RungMeets(tail, 2.0, 100.0, 10.0));
  tail.tail = 11.0;
  EXPECT_FALSE(RungMeets(tail, 0.0, 100.0, 10.0));
  EXPECT_FALSE(RungMeets(Summary{}, 0.0, 100.0, 10.0));
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanRecorder r;
  const int root = r.Add("root", 0, 100, -1, 1);
  r.Add("a", 10, 30, root, 1);
  r.Add("b", 50, 60, root, 1);
  const auto self = SelfTimesNs(r.spans());
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  SpanRecorder r;
  const int root = r.Add("root", 0, 100, -1, 1);
  r.Add("a", 10, 40, root, 1);
  r.Add("b", 30, 60, root, 1);   // overlaps a: union 10..60
  r.Add("c", 55, 58, root, 1);   // inside b
  r.Add("d", 90, 130, root, 1);  // sticks out: only 90..100 counts
  const auto self = SelfTimesNs(r.spans());
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(Spans, GrandchildrenBelongToTheirParent) {
  SpanRecorder r;
  const int root = r.Add("root", 0, 100, -1, 1);
  const int mid = r.Add("mid", 10, 90, root, 1);
  r.Add("leaf", 20, 30, mid, 1);
  const auto self = SelfTimesNs(r.spans());
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 70);
  EXPECT_EQ(self[2], 10);
}

TEST(Spans, RecorderNestsAndSumsPerRequest) {
  SpanRecorder r;
  {
    ScopedSpan root(&r, "request", 1);
    { ScopedSpan a(&r, "net.frame", 1); }
    { ScopedSpan b(&r, "net.frame", 1); }
  }
  {
    ScopedSpan root(&r, "request", 2);
    { ScopedSpan a(&r, "net.frame", 2); }
  }
  ASSERT_EQ(r.spans().size(), 5u);
  EXPECT_EQ(r.spans()[1].parent, 0);
  EXPECT_EQ(r.spans()[2].parent, 0);
  EXPECT_EQ(r.spans()[3].parent, -1);
  EXPECT_EQ(r.spans()[4].parent, 3);
  const auto by_name = SelfMicrosByName(r.spans());
  // Two net.frame spans of request 1 add into one sample.
  EXPECT_EQ(by_name.at("net.frame").size(), 2u);
  EXPECT_EQ(by_name.at("request").size(), 2u);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder r;
  r.set_enabled(false);
  { ScopedSpan s(&r, "request", 1); }
  EXPECT_TRUE(r.spans().empty());
}

TEST(Parity, MatchingAnswersPass) {
  ParityLog log;
  log.Record(1, "answer one");
  log.Record(2, "answer two");
  log.Record(1, "answer one");
  const auto expected = [](std::uint32_t item) {
    return item == 1 ? std::string("answer one") : std::string("answer two");
  };
  EXPECT_EQ(CountMismatches({&log}, expected), 0u);
}

TEST(Parity, CatchesAnInjectedMismatch) {
  ParityLog a, b;
  a.Record(1, "answer one");
  a.Record(1, "answer one");
  b.Record(1, "answer 0ne");  // a later answer for the same item differs
  b.Record(2, "answer two");
  const auto expected = [](std::uint32_t item) {
    return item == 1 ? std::string("answer one") : std::string("answer two");
  };
  std::vector<std::uint32_t> bad;
  EXPECT_EQ(CountMismatches({&a, &b}, expected, &bad), 1u);
  EXPECT_EQ(bad, std::vector<std::uint32_t>{1});
}

TEST(Parity, ExpectedComputedOncePerItem) {
  ParityLog log;
  log.Record(3, "stale");
  log.Record(3, "stale");
  log.Record(4, "fresh");
  int calls = 0;
  const auto expected = [&calls](std::uint32_t) {
    ++calls;
    return std::string("fresh");
  };
  EXPECT_EQ(CountMismatches({&log}, expected), 2u);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace cqads::e2e
