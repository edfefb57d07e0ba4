#include "regcube/regression/ncr.h"

#include <cmath>

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/regression/linear_fit.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::MustFit;
using testing_util::RandomSeries;

TEST(BasisTest, LinearTimeBasisShape) {
  auto basis = MakeLinearTimeBasis();
  EXPECT_EQ(basis->num_variables(), 1u);
  EXPECT_EQ(basis->num_features(), 2u);
  std::vector<double> f;
  basis->Eval({3.0}, &f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
}

TEST(BasisTest, PolynomialBasisPowers) {
  auto basis = MakePolynomialTimeBasis(3);
  std::vector<double> f;
  basis->Eval({2.0}, &f);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 4.0);
  EXPECT_DOUBLE_EQ(f[3], 8.0);
}

TEST(BasisTest, LogBasis) {
  auto basis = MakeLogTimeBasis();
  std::vector<double> f;
  basis->Eval({std::exp(1.0) - 1.0}, &f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NEAR(f[1], 1.0, 1e-12);
}

TEST(BasisTest, MultiLinearBasis) {
  auto basis = MakeMultiLinearBasis(3);
  EXPECT_EQ(basis->num_variables(), 3u);
  EXPECT_EQ(basis->num_features(), 4u);
  std::vector<double> f;
  basis->Eval({1.0, 2.0, 3.0}, &f);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[3], 3.0);
}

TEST(BasisTest, CustomBasis) {
  auto basis = MakeCustomBasis(
      "sin", 1, /*include_intercept=*/true,
      {[](const std::vector<double>& x) { return std::sin(x[0]); }});
  EXPECT_EQ(basis->num_features(), 2u);
  std::vector<double> f;
  basis->Eval({0.0}, &f);
  EXPECT_DOUBLE_EQ(f[1], 0.0);
  EXPECT_EQ(basis->name(), "sin");
}

TEST(NcrTest, LinearBasisReproducesIsbFit) {
  // NCR generalizes ISB: with phi(t) = (1, t) the solved theta equals the
  // LSE (base, slope).
  Pcg32 rng(5);
  TimeSeries series = RandomSeries(rng, 3, 30);
  Isb isb = MustFit(series);

  auto basis = MakeLinearTimeBasis();
  NcrMeasure m = NcrFromTimeSeries(*basis, series);
  auto fit = m.Solve();
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_NEAR(fit->theta[0], isb.base, 1e-8);
  EXPECT_NEAR(fit->theta[1], isb.slope, 1e-8);
  EXPECT_TRUE(fit->rss_available);
  auto full = FitLeastSquares(series);
  EXPECT_NEAR(fit->rss, full->rss, 1e-6);
}

TEST(NcrTest, PolynomialRecoversKnownPolynomial) {
  // y = 1 - 2t + 0.5 t^2 exactly.
  auto basis = MakePolynomialTimeBasis(2);
  NcrMeasure m(basis->num_features());
  for (int t = 0; t < 12; ++t) {
    double y = 1.0 - 2.0 * t + 0.5 * t * t;
    m.AddObservation(*basis, {static_cast<double>(t)}, y);
  }
  auto fit = m.Solve();
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->theta[0], 1.0, 1e-9);
  EXPECT_NEAR(fit->theta[1], -2.0, 1e-9);
  EXPECT_NEAR(fit->theta[2], 0.5, 1e-9);
  EXPECT_NEAR(fit->rss, 0.0, 1e-12);
}

TEST(NcrTest, MultiVariableSpatialRegression) {
  // The 6.2 scenario: sensors at (x, y) over time; y = 2 + 0.3t - x + 0.5y.
  auto basis = MakeMultiLinearBasis(3);
  NcrMeasure m(basis->num_features());
  Pcg32 rng(10);
  for (int i = 0; i < 100; ++i) {
    double t = i % 25;
    double x = rng.NextDouble() * 4.0;
    double y = rng.NextDouble() * 4.0;
    double response = 2.0 + 0.3 * t - 1.0 * x + 0.5 * y;
    m.AddObservation(*basis, {t, x, y}, response);
  }
  auto fit = m.Solve();
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->theta[0], 2.0, 1e-8);
  EXPECT_NEAR(fit->theta[1], 0.3, 1e-9);
  EXPECT_NEAR(fit->theta[2], -1.0, 1e-8);
  EXPECT_NEAR(fit->theta[3], 0.5, 1e-8);
}

class NcrMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(NcrMergeTest, DisjointMergeEqualsCombinedFit) {
  // Theorem 3.3 analogue: NCR over part A + NCR over part B merged equals
  // NCR built over A union B.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 60);
  auto basis = MakePolynomialTimeBasis(2);

  TimeSeries a = RandomSeries(rng, 0, 10 + rng.Uniform(10));
  TimeSeries b = RandomSeries(rng, a.interval().te + 1, 10 + rng.Uniform(10));
  NcrMeasure ma = NcrFromTimeSeries(*basis, a);
  NcrMeasure mb = NcrFromTimeSeries(*basis, b);
  ASSERT_TRUE(ma.MergeDisjoint(mb).ok());

  auto joined = TimeSeries::Concat(a, b);
  ASSERT_TRUE(joined.ok());
  NcrMeasure direct = NcrFromTimeSeries(*basis, *joined);

  auto merged_fit = ma.Solve();
  auto direct_fit = direct.Solve();
  ASSERT_TRUE(merged_fit.ok());
  ASSERT_TRUE(direct_fit.ok());
  for (size_t i = 0; i < merged_fit->theta.size(); ++i) {
    EXPECT_NEAR(merged_fit->theta[i], direct_fit->theta[i], 1e-6);
  }
  EXPECT_TRUE(merged_fit->rss_available);
  EXPECT_NEAR(merged_fit->rss, direct_fit->rss, 1e-5);
}

TEST_P(NcrMergeTest, SameDesignMergeEqualsFitOfSummedResponses) {
  // Theorem 3.2 analogue: two cells over the same design with responses
  // summed.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 90);
  auto basis = MakeLinearTimeBasis();

  TimeSeries a = RandomSeries(rng, 5, 20);
  TimeSeries b = RandomSeries(rng, 5, 20);
  NcrMeasure ma = NcrFromTimeSeries(*basis, a);
  NcrMeasure mb = NcrFromTimeSeries(*basis, b);
  ASSERT_TRUE(ma.MergeSameDesign(mb).ok());
  EXPECT_FALSE(ma.rss_valid());

  auto sum = TimeSeries::Add(a, b);
  ASSERT_TRUE(sum.ok());
  NcrMeasure direct = NcrFromTimeSeries(*basis, *sum);

  auto merged_fit = ma.Solve();
  auto direct_fit = direct.Solve();
  ASSERT_TRUE(merged_fit.ok());
  ASSERT_TRUE(direct_fit.ok());
  EXPECT_FALSE(merged_fit->rss_available);
  for (size_t i = 0; i < merged_fit->theta.size(); ++i) {
    EXPECT_NEAR(merged_fit->theta[i], direct_fit->theta[i], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMerges, NcrMergeTest, ::testing::Range(0, 15));

TEST(NcrTest, SameDesignMergeRejectsDifferentDesigns) {
  auto basis = MakeLinearTimeBasis();
  Pcg32 rng(4);
  NcrMeasure a = NcrFromTimeSeries(*basis, RandomSeries(rng, 0, 10));
  NcrMeasure b = NcrFromTimeSeries(*basis, RandomSeries(rng, 5, 10));
  EXPECT_FALSE(a.MergeSameDesign(b).ok());
}

TEST(NcrTest, MergeRejectsArityMismatch) {
  NcrMeasure a(2), b(3);
  EXPECT_FALSE(a.MergeDisjoint(b).ok());
  EXPECT_FALSE(a.MergeSameDesign(b).ok());
}

TEST(NcrTest, UnderdeterminedSolveFails) {
  auto basis = MakePolynomialTimeBasis(2);
  NcrMeasure m(basis->num_features());
  m.AddObservation(*basis, {0.0}, 1.0);
  m.AddObservation(*basis, {1.0}, 2.0);
  EXPECT_EQ(m.Solve().status().code(), StatusCode::kFailedPrecondition);
}

TEST(NcrTest, CollinearDesignFails) {
  // Feature 2 = 2 * feature 1 -> singular normal equations.
  auto basis = MakeCustomBasis(
      "collinear", 1, /*include_intercept=*/false,
      {[](const std::vector<double>& x) { return x[0]; },
       [](const std::vector<double>& x) { return 2.0 * x[0]; }});
  NcrMeasure m(basis->num_features());
  for (int t = 1; t <= 5; ++t) {
    m.AddObservation(*basis, {static_cast<double>(t)}, 1.0);
  }
  EXPECT_FALSE(m.Solve().ok());
}

TEST(NcrTest, StorageCostReported) {
  NcrMeasure linear(2);
  EXPECT_EQ(linear.StorageDoubles(), 3u + 2u + 2u);  // packed(2)=3, xty=2, n+q
  NcrMeasure quad(3);
  EXPECT_EQ(quad.StorageDoubles(), 6u + 3u + 2u);
}

}  // namespace
}  // namespace regcube
