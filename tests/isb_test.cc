#include "regcube/regression/isb.h"

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/regression/linear_fit.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MustFit;
using testing_util::RandomSeries;

TEST(IsbTest, EvaluateAndMean) {
  Isb isb{{0, 9}, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(isb.Evaluate(0), 1.0);
  EXPECT_DOUBLE_EQ(isb.Evaluate(4), 3.0);
  EXPECT_DOUBLE_EQ(isb.SeriesMean(), 1.0 + 0.5 * 4.5);
  EXPECT_DOUBLE_EQ(isb.SeriesSum(), 10.0 * (1.0 + 0.5 * 4.5));
}

TEST(IsbTest, SeriesSumMatchesRawSumOfFittedSeries) {
  // The ISB recovers the exact raw-data sum (not just the fitted line's sum):
  // both equal n*zbar because the LSE line passes through (tbar, zbar).
  Pcg32 rng(3);
  TimeSeries series = RandomSeries(rng, 5, 20);
  Isb isb = MustFit(series);
  double raw_sum = 0.0;
  for (double v : series.values()) raw_sum += v;
  EXPECT_NEAR(isb.SeriesSum(), raw_sum, 1e-9);
}

TEST(IntValTest, RoundTripsThroughIsb) {
  Isb isb{{3, 12}, -2.0, 0.25};
  IntVal iv = ToIntVal(isb);
  EXPECT_DOUBLE_EQ(iv.zb, isb.Evaluate(3));
  EXPECT_DOUBLE_EQ(iv.ze, isb.Evaluate(12));
  Isb back = FromIntVal(iv);
  ExpectIsbNear(isb, back, 1e-12);
}

TEST(IntValTest, SinglePointRoundTrip) {
  Isb isb{{4, 4}, 7.0, 0.0};
  Isb back = FromIntVal(ToIntVal(isb));
  EXPECT_DOUBLE_EQ(back.Evaluate(4), 7.0);
  EXPECT_DOUBLE_EQ(back.slope, 0.0);
}

class IsbRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(IsbRoundTripTest, MomentsRoundTripIsLossless) {
  // DESIGN.md 4.1: ISB <-> {interval, sum z, sum t z} is a bijection.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  TimeSeries series = RandomSeries(rng, rng.Uniform(100), 1 + rng.Uniform(50));
  Isb isb = MustFit(series);

  MomentSums m = ToMoments(isb);
  Isb back = FitFromMoments(m);
  ExpectIsbNear(isb, back, 1e-9);

  // And the moments themselves match the raw data's moments.
  double sum_z = 0.0, sum_tz = 0.0;
  TimeTick t = series.interval().tb;
  for (double z : series.values()) {
    sum_z += z;
    sum_tz += static_cast<double>(t) * z;
    ++t;
  }
  EXPECT_NEAR(m.sum_z, sum_z, 1e-8);
  EXPECT_NEAR(m.sum_tz, sum_tz, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSeriesSweep, IsbRoundTripTest,
                         ::testing::Range(0, 25));

TEST(MomentSumsTest, AddAccumulates) {
  MomentSums m;
  m.interval = {0, 2};
  m.Add(0, 1.0);
  m.Add(1, 2.0);
  m.Add(2, 3.0);
  EXPECT_DOUBLE_EQ(m.sum_z, 6.0);
  EXPECT_DOUBLE_EQ(m.sum_tz, 8.0);
}

TEST(MomentSumsTest, MergeDisjointExtendsHull) {
  MomentSums a;
  a.interval = {0, 4};
  a.sum_z = 10.0;
  a.sum_tz = 20.0;
  MomentSums b;
  b.interval = {5, 9};
  b.sum_z = 1.0;
  b.sum_tz = 2.0;
  a.MergeDisjoint(b);
  EXPECT_EQ(a.interval.tb, 0);
  EXPECT_EQ(a.interval.te, 9);
  EXPECT_DOUBLE_EQ(a.sum_z, 11.0);
  EXPECT_DOUBLE_EQ(a.sum_tz, 22.0);
}

TEST(MomentSumsTest, MergeWithEmptySideIsIdentity) {
  MomentSums a;
  a.interval = {3, 5};
  a.sum_z = 7.0;
  MomentSums empty;
  a.MergeDisjoint(empty);
  EXPECT_EQ(a.interval.tb, 3);
  EXPECT_DOUBLE_EQ(a.sum_z, 7.0);

  MomentSums target;
  target.MergeDisjoint(a);
  EXPECT_EQ(target.interval.tb, 3);
  EXPECT_DOUBLE_EQ(target.sum_z, 7.0);
}

TEST(FitFromMomentsTest, SinglePointConvention) {
  MomentSums m;
  m.interval = {6, 6};
  m.Add(6, 4.2);
  Isb isb = FitFromMoments(m);
  EXPECT_DOUBLE_EQ(isb.slope, 0.0);
  EXPECT_NEAR(isb.Evaluate(6), 4.2, 1e-12);
}

TEST(FitFromMomentsTest, MatchesDirectFit) {
  // Accumulating raw (t, z) into moments and fitting equals FitLeastSquares.
  Pcg32 rng(77);
  TimeSeries series = RandomSeries(rng, 100, 25);
  MomentSums m;
  m.interval = series.interval();
  TimeTick t = series.interval().tb;
  for (double z : series.values()) m.Add(t++, z);
  ExpectIsbNear(MustFit(series), FitFromMoments(m), 1e-9);
}

}  // namespace
}  // namespace regcube
