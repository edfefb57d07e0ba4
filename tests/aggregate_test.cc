#include "regcube/regression/aggregate.h"

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/regression/linear_fit.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MustFit;
using testing_util::RandomSeries;

// ---------------------------------------------------------------------------
// Theorem 3.2: aggregation on standard dimensions.
// ---------------------------------------------------------------------------

TEST(StandardDimTest, PaperFigure2Example) {
  // Figure 2 reports ([0,19], 0.540995, 0.0318379) + ([0,19], 0.294875,
  // 0.0493375) = ([0,19], 0.83587, 0.0811754).
  Isb z1{{0, 19}, 0.540995, 0.0318379};
  Isb z2{{0, 19}, 0.294875, 0.0493375};
  auto agg = AggregateStandardDim({z1, z2});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->interval.tb, 0);
  EXPECT_EQ(agg->interval.te, 19);
  EXPECT_NEAR(agg->base, 0.835870, 1e-6);
  EXPECT_NEAR(agg->slope, 0.0811754, 1e-7);
}

TEST(StandardDimTest, RejectsEmptyAndMismatchedIntervals) {
  EXPECT_FALSE(AggregateStandardDim({}).ok());
  Isb a{{0, 9}, 1.0, 0.1};
  Isb b{{0, 8}, 1.0, 0.1};
  EXPECT_FALSE(AggregateStandardDim({a, b}).ok());
}

TEST(StandardDimTest, SingleChildIsIdentity) {
  Isb a{{2, 11}, 3.0, -0.2};
  auto agg = AggregateStandardDim({a});
  ASSERT_TRUE(agg.ok());
  ExpectIsbNear(a, *agg);
}

TEST(StandardDimTest, AccumulateMatchesBatch) {
  Isb a{{0, 9}, 1.0, 0.1};
  Isb b{{0, 9}, 2.0, -0.3};
  Isb c{{0, 9}, -0.5, 0.05};
  Isb acc;  // empty
  AccumulateStandardDim(acc, a);
  AccumulateStandardDim(acc, b);
  AccumulateStandardDim(acc, c);
  auto batch = AggregateStandardDim({a, b, c});
  ASSERT_TRUE(batch.ok());
  ExpectIsbNear(*batch, acc);
}

class StandardDimPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StandardDimPropertyTest, AggregateOfIsbsEqualsFitOfSummedSeries) {
  // Core lossless-compression property: fit(sum of series) equals the
  // Theorem 3.2 aggregate of the per-series fits, with no raw data.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 42);
  const int k = 2 + static_cast<int>(rng.Uniform(5));
  const TimeTick tb = rng.Uniform(20);
  const std::int64_t n = 2 + rng.Uniform(40);

  std::vector<Isb> child_isbs;
  TimeSeries total;
  for (int i = 0; i < k; ++i) {
    TimeSeries s = RandomSeries(rng, tb, n);
    child_isbs.push_back(MustFit(s));
    if (i == 0) {
      total = s;
    } else {
      auto sum = TimeSeries::Add(total, s);
      ASSERT_TRUE(sum.ok());
      total = *sum;
    }
  }
  auto agg = AggregateStandardDim(child_isbs);
  ASSERT_TRUE(agg.ok());
  ExpectIsbNear(MustFit(total), *agg, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomFamilies, StandardDimPropertyTest,
                         ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Theorem 3.3: aggregation on the time dimension.
// ---------------------------------------------------------------------------

TEST(TimeDimTest, PaperFigure3Example) {
  // Figure 3: ([0,9], 0.582995, 0.0240189) ++ ([10,19], 0.459046, 0.047474)
  // = ([0,19], 0.509033, 0.0431806).
  Isb first{{0, 9}, 0.582995, 0.0240189};
  Isb second{{10, 19}, 0.459046, 0.047474};
  auto agg = AggregateTimeDim({first, second});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->interval.tb, 0);
  EXPECT_EQ(agg->interval.te, 19);
  EXPECT_NEAR(agg->base, 0.509033, 1e-5);
  EXPECT_NEAR(agg->slope, 0.0431806, 1e-6);
}

TEST(TimeDimTest, RejectsNonPartitions) {
  Isb a{{0, 9}, 1.0, 0.1};
  Isb gap{{11, 19}, 1.0, 0.1};
  Isb overlap{{9, 19}, 1.0, 0.1};
  EXPECT_FALSE(AggregateTimeDim({}).ok());
  EXPECT_FALSE(AggregateTimeDim({a, gap}).ok());
  EXPECT_FALSE(AggregateTimeDim({a, overlap}).ok());
}

TEST(TimeDimTest, SingleChildIsIdentity) {
  Isb a{{5, 14}, 2.0, 0.3};
  auto agg = AggregateTimeDim({a});
  ASSERT_TRUE(agg.ok());
  ExpectIsbNear(a, *agg, 1e-9);
}

TEST(TimeDimTest, SingleTickChildrenAggregate) {
  // Three single-tick "series" z(0)=1, z(1)=2, z(2)=3: the aggregate must
  // be the exact fit of {1,2,3} (slope 1).
  Isb a{{0, 0}, 1.0, 0.0};
  Isb b{{1, 1}, 2.0, 0.0};
  Isb c{{2, 2}, 3.0, 0.0};
  auto agg = AggregateTimeDim({a, b, c});
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(agg->slope, 1.0, 1e-12);
  EXPECT_NEAR(agg->base, 1.0, 1e-12);
}

struct TimeDimCase {
  int seed;
  int parts;
};

class TimeDimPropertyTest
    : public ::testing::TestWithParam<TimeDimCase> {};

TEST_P(TimeDimPropertyTest, AggregateOfIsbsEqualsFitOfConcatenation) {
  // Core property of Theorem 3.3: fitting the concatenated series directly
  // equals aggregating the per-part fits through the closed form.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam().seed) + 1000);
  const int parts = GetParam().parts;
  TimeTick tb = rng.Uniform(30);

  std::vector<Isb> child_isbs;
  TimeSeries total;
  for (int i = 0; i < parts; ++i) {
    const std::int64_t n = 1 + rng.Uniform(20);
    TimeSeries s = RandomSeries(rng, tb, n);
    tb += n;
    child_isbs.push_back(MustFit(s));
    if (i == 0) {
      total = s;
    } else {
      auto joined = TimeSeries::Concat(total, s);
      ASSERT_TRUE(joined.ok());
      total = *joined;
    }
  }
  auto agg = AggregateTimeDim(child_isbs);
  ASSERT_TRUE(agg.ok());
  ExpectIsbNear(MustFit(total), *agg, 1e-7);

  // The moment-space implementation agrees with the paper's closed form.
  auto via_moments = AggregateTimeDimViaMoments(child_isbs);
  ASSERT_TRUE(via_moments.ok());
  ExpectIsbNear(*agg, *via_moments, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPartitions, TimeDimPropertyTest,
    ::testing::Values(TimeDimCase{0, 2}, TimeDimCase{1, 2}, TimeDimCase{2, 3},
                      TimeDimCase{3, 3}, TimeDimCase{4, 4}, TimeDimCase{5, 5},
                      TimeDimCase{6, 7}, TimeDimCase{7, 10},
                      TimeDimCase{8, 2}, TimeDimCase{9, 4},
                      TimeDimCase{10, 6}, TimeDimCase{11, 8}));

TEST(TimeDimTest, NestedAggregationIsAssociative) {
  // Aggregating quarters -> hours -> day equals quarters -> day directly
  // (what the tilt frame relies on when promoting slots).
  Pcg32 rng(2024);
  std::vector<Isb> quarters;
  TimeTick tb = 0;
  for (int i = 0; i < 8; ++i) {
    TimeSeries s = RandomSeries(rng, tb, 4);
    quarters.push_back(MustFit(s));
    tb += 4;
  }
  // Two "hours" of 4 quarters each.
  auto hour1 = AggregateTimeDim(
      {quarters[0], quarters[1], quarters[2], quarters[3]});
  auto hour2 = AggregateTimeDim(
      {quarters[4], quarters[5], quarters[6], quarters[7]});
  ASSERT_TRUE(hour1.ok());
  ASSERT_TRUE(hour2.ok());
  auto day_nested = AggregateTimeDim({*hour1, *hour2});
  auto day_direct = AggregateTimeDim(quarters);
  ASSERT_TRUE(day_nested.ok());
  ASSERT_TRUE(day_direct.ok());
  ExpectIsbNear(*day_direct, *day_nested, 1e-8);
}

TEST(TimeDimTest, CommutesWithStandardDim) {
  // Aggregating K cells then time equals time then cells — the cube's
  // aggregation lattice is coherent.
  Pcg32 rng(9);
  const int k = 3;
  std::vector<TimeSeries> first_half, second_half;
  for (int i = 0; i < k; ++i) {
    first_half.push_back(RandomSeries(rng, 0, 10));
    second_half.push_back(RandomSeries(rng, 10, 10));
  }
  // Path A: per-cell time aggregation, then standard-dim sum.
  std::vector<Isb> per_cell;
  for (int i = 0; i < k; ++i) {
    auto t = AggregateTimeDim(
        {MustFit(first_half[static_cast<size_t>(i)]),
         MustFit(second_half[static_cast<size_t>(i)])});
    ASSERT_TRUE(t.ok());
    per_cell.push_back(*t);
  }
  auto path_a = AggregateStandardDim(per_cell);
  ASSERT_TRUE(path_a.ok());

  // Path B: standard-dim sum per window, then time aggregation.
  std::vector<Isb> first_fits, second_fits;
  for (int i = 0; i < k; ++i) {
    first_fits.push_back(MustFit(first_half[static_cast<size_t>(i)]));
    second_fits.push_back(MustFit(second_half[static_cast<size_t>(i)]));
  }
  auto sum_first = AggregateStandardDim(first_fits);
  auto sum_second = AggregateStandardDim(second_fits);
  ASSERT_TRUE(sum_first.ok());
  ASSERT_TRUE(sum_second.ok());
  auto path_b = AggregateTimeDim({*sum_first, *sum_second});
  ASSERT_TRUE(path_b.ok());

  ExpectIsbNear(*path_a, *path_b, 1e-8);
}

// ---------------------------------------------------------------------------
// Theorem 3.1(b): minimality of the ISB representation.
// ---------------------------------------------------------------------------

TEST(MinimalityTest, EveryComponentIsNecessary) {
  // Each witness pair agrees on three ISB components and differs on the
  // fourth — reproducing the proof of Theorem 3.1(b).
  {
    auto [a, b] = WitnessTbRequired();
    Isb fa = MustFit(a), fb = MustFit(b);
    EXPECT_EQ(fa.interval.te, fb.interval.te);
    EXPECT_DOUBLE_EQ(fa.base, fb.base);
    EXPECT_DOUBLE_EQ(fa.slope, fb.slope);
    EXPECT_NE(fa.interval.tb, fb.interval.tb);
  }
  {
    auto [a, b] = WitnessTeRequired();
    Isb fa = MustFit(a), fb = MustFit(b);
    EXPECT_EQ(fa.interval.tb, fb.interval.tb);
    EXPECT_DOUBLE_EQ(fa.base, fb.base);
    EXPECT_DOUBLE_EQ(fa.slope, fb.slope);
    EXPECT_NE(fa.interval.te, fb.interval.te);
  }
  {
    auto [a, b] = WitnessBaseRequired();
    Isb fa = MustFit(a), fb = MustFit(b);
    EXPECT_EQ(fa.interval.tb, fb.interval.tb);
    EXPECT_EQ(fa.interval.te, fb.interval.te);
    EXPECT_NEAR(fa.slope, fb.slope, 1e-12);
    EXPECT_NE(fa.base, fb.base);
  }
  {
    auto [a, b] = WitnessSlopeRequired();
    Isb fa = MustFit(a), fb = MustFit(b);
    EXPECT_EQ(fa.interval.tb, fb.interval.tb);
    EXPECT_EQ(fa.interval.te, fb.interval.te);
    EXPECT_NEAR(fa.base, fb.base, 1e-12);
    EXPECT_NE(fa.slope, fb.slope);
  }
}

}  // namespace
}  // namespace regcube
