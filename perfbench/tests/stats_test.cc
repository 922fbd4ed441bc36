// Tests for the benchmark's own arithmetic (perfbench/src/stats.h).

#include "src/stats.h"

#include <vector>

#include "gtest/gtest.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // reversed: Percentile must sort
  }
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 90), 90);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(10), 90), 9);
  EXPECT_EQ(Percentile(OneTo(11), 90), 10);  // rank ceil(9.9) = 10
  EXPECT_EQ(Percentile(OneTo(1), 90), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({3, 1, 2}, 0.1), 1);  // rank clamps to 1
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(HasTail(100, 90));   // rank 90, ten beyond
  EXPECT_FALSE(HasTail(99, 90));   // rank 90, nine beyond
  EXPECT_FALSE(HasTail(100, 99));  // rank 99, one beyond
  EXPECT_TRUE(HasTail(1000, 99));
  EXPECT_FALSE(HasTail(0, 50));
  EXPECT_TRUE(HasTail(20, 50));
}

TEST(PercentileTest, MedianOfEvenCountAveragesMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({}), 0);
}

RequestTimes Req(int64_t id, double arrival, double first, double done,
                 int decoded) {
  RequestTimes r;
  r.id = id;
  r.arrival = arrival;
  r.first_token = first;
  r.completion = done;
  r.decoded_tokens = decoded;
  return r;
}

TEST(SliceMinimaTest, TakesEachSliceFromItsCleanestPass) {
  // Each pass is slowed in a different slice; the minima are the clean
  // times even though no single pass was clean.
  const std::vector<std::vector<double>> passes = {
      {5, 1, 1}, {1, 4, 1}, {1, 1, 3}};
  EXPECT_EQ(SliceMinima(passes), (std::vector<double>{1, 1, 1}));
}

TEST(SliceMinimaTest, EmptyWhenPassesDisagree) {
  EXPECT_TRUE(SliceMinima({}).empty());
  EXPECT_TRUE(SliceMinima({{1, 2}, {1}}).empty());
}

TEST(TpotTest, ExcludesRequestsWithFewerThanTwoTokens) {
  const std::vector<RequestTimes> rs = {
      Req(0, 0, 10, 40, 4),   // (40 - 10) / 3 = 10
      Req(1, 0, 10, 10, 1),   // one token: no TPOT
      Req(2, 0, 10, 10, 0),   // embed stage: no TPOT
      Req(3, 0, 5, 25, 2),    // (25 - 5) / 1 = 20
      Req(4, 0, 0, 0, 8),     // never completed
  };
  const std::vector<double> tpot = TpotSamples(rs);
  ASSERT_EQ(tpot.size(), 2u);
  EXPECT_EQ(tpot[0], 10);
  EXPECT_EQ(tpot[1], 20);
  EXPECT_EQ(TtftSamples(rs).size(), 4u);
}

TEST(LadderTest, RejectsCountAsMisses) {
  const Slo slo{100, 10, 0.9};
  std::vector<RequestTimes> served;
  for (int i = 0; i < 9; ++i) {
    served.push_back(Req(i, 0, 50, 95, 5));  // ttft 50, tpot 11.25: miss
  }
  EXPECT_EQ(AttainedShare(slo, served, 9), 0);
  served.clear();
  for (int i = 0; i < 9; ++i) {
    served.push_back(Req(i, 0, 50, 90, 5));  // tpot 10: meets
  }
  EXPECT_EQ(AttainedShare(slo, served, 9), 1);
  // One more request offered but rejected: 9/10 still meets a 0.9 share,
  // two rejected (9/11) does not.
  EXPECT_DOUBLE_EQ(AttainedShare(slo, served, 10), 0.9);
  EXPECT_LT(AttainedShare(slo, served, 11), 0.9);
}

TEST(LadderTest, FindsHighestPassingRung) {
  // Rungs 0..9 pass while i <= 6.
  std::vector<int> probed;
  const int rung = LadderSearch(10, 0.9, [&](size_t i) {
    probed.push_back(static_cast<int>(i));
    return i <= 6 ? 1.0 : 0.5;
  });
  EXPECT_EQ(rung, 6);
  EXPECT_LE(probed.size(), 4u);  // binary search, not a scan
  EXPECT_EQ(LadderSearch(5, 0.9, [](size_t) { return 0.0; }), -1);
  EXPECT_EQ(LadderSearch(5, 0.9, [](size_t) { return 1.0; }), 4);
}

TEST(LadderTest, RejectedOffersLowerTheRung) {
  // Every served request meets the limits, but rung i rejects i of ten
  // offers: only rungs with at most one rejection reach a 0.9 share.
  const Slo slo{100, 10, 0.9};
  const int rung = LadderSearch(6, slo.share, [&](size_t i) {
    std::vector<RequestTimes> served;
    for (size_t k = 0; k < 10 - i; ++k) {
      served.push_back(Req(static_cast<int64_t>(k), 0, 1, 2, 2));
    }
    return AttainedShare(slo, served, 10);
  });
  EXPECT_EQ(rung, 1);
}

TEST(DigestTest, StableAndSensitive) {
  const std::vector<RequestTimes> a = {Req(0, 0, 10.5, 40, 4),
                                       Req(1, 2, 12.25, 70, 9)};
  std::vector<RequestTimes> b = a;
  EXPECT_EQ(SimDigest(a), SimDigest(b));
  b[1].completion = 70.000000001;
  EXPECT_NE(SimDigest(a), SimDigest(b));
  b = a;
  b[0].decoded_tokens = 5;  // not part of the timeline
  EXPECT_EQ(SimDigest(a), SimDigest(b));
  b = a;
  std::swap(b[0], b[1]);  // order matters
  EXPECT_NE(SimDigest(a), SimDigest(b));
}

TEST(DigestTest, PinnedValue) {
  // Pins the byte layout (FNV-1a over little-endian int64 id and IEEE
  // doubles): a change here changes every recorded sim_digest.
  EXPECT_EQ(SimDigest({}), 1469598103934665603ULL);
  EXPECT_EQ(SimDigest({Req(1, 2.5, 3.5, 10, 4), Req(2, 4, 6.25, 30, 9)}),
            0xeed0155f63cc0d73ULL);
}

TEST(BacklogTest, FlagsGrowingQueue) {
  std::vector<RequestTimes> steady;
  std::vector<RequestTimes> growing;
  for (int i = 0; i < 40; ++i) {
    steady.push_back(Req(i, i * 100.0, i * 100.0 + 20, i * 100.0 + 50, 2));
    growing.push_back(
        Req(i, i * 100.0, i * 100.0 + 20 + i * i, i * 100.0 + 2000, 2));
  }
  const Backlog s = BacklogOf(steady, 3, 5);
  EXPECT_EQ(s.first_quarter_p50_us, 20);
  EXPECT_EQ(s.last_quarter_p50_us, 20);
  EXPECT_FALSE(s.growing);
  const Backlog g = BacklogOf(growing, 3, 5);
  EXPECT_GT(g.last_quarter_p50_us, g.first_quarter_p50_us * 3 + 5);
  EXPECT_TRUE(g.growing);
}

TEST(SpanTest, SelfTimeSubtractsChildrenOnce) {
  // parent [0, 100]; children [10, 30] and [20, 50] overlap on [20, 30];
  // child [90, 120] is clipped to the parent; grandchild [12, 14] belongs
  // to the first child only.
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1},  {"a", 10, 30, 0},   {"b", 20, 50, 0},
      {"c", 90, 120, 0},       {"a.x", 12, 14, 1},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10, 50] and [90, 100] covered
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

}  // namespace
}  // namespace perfbench
