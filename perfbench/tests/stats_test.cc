#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(StatsTest, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, PercentileIsNearestRank) {
  const std::vector<double> v = OneTo(200);
  EXPECT_DOUBLE_EQ(Percentile(v, 95.0), 190.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(10), 1.0), 1.0);
}

TEST(StatsTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 95.0), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95.0), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

// Which percentile job_ms.tail reports for a given sample count: the
// highest ladder step with at least ten samples beyond it.
TEST(StatsTest, TailPickBySampleCount) {
  struct Case {
    int n;
    double percentile;
  };
  for (const Case c : {Case{20, 50.0}, Case{39, 50.0}, Case{40, 75.0},
                       Case{99, 75.0}, Case{100, 90.0}, Case{199, 90.0},
                       Case{200, 95.0}, Case{999, 95.0}, Case{1000, 99.0},
                       Case{9999, 99.0}, Case{10000, 99.9}}) {
    const std::optional<TailPick> pick = PickTail(OneTo(c.n));
    ASSERT_TRUE(pick.has_value()) << c.n;
    EXPECT_EQ(pick->percentile, c.percentile) << c.n;
    EXPECT_GE(pick->beyond, 10u) << c.n;
    EXPECT_EQ(pick->samples, static_cast<std::size_t>(c.n));
  }
  EXPECT_FALSE(PickTail(OneTo(19)).has_value());
  const std::optional<TailPick> p95 = PickTail(OneTo(200));
  EXPECT_DOUBLE_EQ(p95->value, 190.0);
  EXPECT_EQ(p95->beyond, 10u);
}

TEST(TraceTest, SelfTimeSubtractsDirectChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"job", 0.0, 100.0, -1, 0, 0};
  spans[1] = {"io.parse", 10.0, 40.0, 0, 0, 0};
  spans[2] = {"algo.mine", 50.0, 90.0, 0, 0, 0};
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 30.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
  EXPECT_DOUBLE_EQ(self[2], 40.0);

  const Reconciliation r = Reconcile(spans, "job");
  EXPECT_EQ(r.roots, 1u);
  EXPECT_DOUBLE_EQ(r.root_us, 100.0);
  EXPECT_DOUBLE_EQ(r.attributed_us, 70.0);
  EXPECT_DOUBLE_EQ(r.unattributed_share(), 0.3);

  const auto layers = SelfTimeByLayer(spans);
  EXPECT_DOUBLE_EQ(layers.at("bench"), 30.0);
  EXPECT_DOUBLE_EQ(layers.at("io"), 30.0);
  EXPECT_DOUBLE_EQ(layers.at("algo"), 40.0);
}

TEST(TraceTest, LayerNames) {
  EXPECT_EQ(LayerOf("apriori.count"), "algo");
  EXPECT_EQ(LayerOf("uhstruct.build"), "algo");
  EXPECT_EQ(LayerOf("stream.recount"), "core");
  EXPECT_EQ(LayerOf("prob.tail_dp"), "prob");
  EXPECT_EQ(LayerOf("replay"), "bench");
}

TEST(TraceTest, TracerNestsByCallOrder) {
  Tracer tracer;
  {
    ScopedSpan job(&tracer, "job", 7);
    ScopedSpan child(&tracer, "algo.mine", 7);
    child.set_count(3);
  }
  { ScopedSpan next(&tracer, "job", 8); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].count, 3u);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[1].end_us, tracer.spans()[0].end_us);
  ScopedSpan untraced(nullptr, "job", 9);  // no tracer: a no-op
}

}  // namespace
}  // namespace perfbench
