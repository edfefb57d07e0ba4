#include "regcube/regression/ncr.h"

#include <cmath>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/math/ldlt.h"

namespace regcube {

NcrMeasure::NcrMeasure(std::size_t num_features)
    : xtx_(num_features), xty_(num_features, 0.0) {}

void NcrMeasure::AddFeatures(const std::vector<double>& features, double y) {
  RC_CHECK_EQ(features.size(), num_features());
  xtx_.AddOuterProduct(features);
  for (std::size_t i = 0; i < features.size(); ++i) xty_[i] += features[i] * y;
  yty_ += y * y;
  ++n_;
}

void NcrMeasure::AddObservation(const RegressionBasis& basis,
                                const std::vector<double>& x, double y) {
  std::vector<double> features;
  basis.Eval(x, &features);
  AddFeatures(features, y);
}

Status NcrMeasure::MergeDisjoint(const NcrMeasure& other) {
  if (num_features() != other.num_features()) {
    return Status::InvalidArgument(
        StrPrintf("feature arity mismatch: %zu vs %zu", num_features(),
                  other.num_features()));
  }
  xtx_ += other.xtx_;
  for (std::size_t i = 0; i < xty_.size(); ++i) xty_[i] += other.xty_[i];
  yty_ += other.yty_;
  n_ += other.n_;
  rss_valid_ = rss_valid_ && other.rss_valid_;
  return Status::OK();
}

Status NcrMeasure::MergeSameDesign(const NcrMeasure& other,
                                   double design_tolerance) {
  if (num_features() != other.num_features()) {
    return Status::InvalidArgument(
        StrPrintf("feature arity mismatch: %zu vs %zu", num_features(),
                  other.num_features()));
  }
  if (n_ != other.n_) {
    return Status::InvalidArgument(
        StrPrintf("same-design merge requires equal observation counts "
                  "(%lld vs %lld)",
                  static_cast<long long>(n_),
                  static_cast<long long>(other.n_)));
  }
  double diff = xtx_.MaxAbsDiff(other.xtx_);
  // Scale-relative comparison: designs far from the origin have large X'X.
  double scale = 1.0;
  for (std::size_t i = 0; i < num_features(); ++i) {
    scale = std::max(scale, std::fabs(xtx_(i, i)));
  }
  if (diff > design_tolerance * scale) {
    return Status::InvalidArgument(StrPrintf(
        "designs differ (max |ΔX'X| = %.3g, tolerance %.3g): same-design "
        "merge is only valid for identical design points",
        diff, design_tolerance * scale));
  }
  for (std::size_t i = 0; i < xty_.size(); ++i) xty_[i] += other.xty_[i];
  // Σ(y1+y2)² ≠ Σy1² + Σy2²: RSS is no longer recoverable.
  rss_valid_ = false;
  yty_ = 0.0;
  return Status::OK();
}

Result<NcrFit> NcrMeasure::Solve() const {
  if (n_ < static_cast<std::int64_t>(num_features())) {
    return Status::FailedPrecondition(
        StrPrintf("%lld observations cannot determine %zu parameters",
                  static_cast<long long>(n_), num_features()));
  }
  auto theta = SolveSymmetric(xtx_, xty_);
  if (!theta.ok()) return theta.status();
  NcrFit fit;
  fit.theta = std::move(theta).value();
  if (rss_valid_) {
    // RSS = y'y - θ'X'y - θ'(X'X θ - X'y) = y'y - 2θ'X'y + θ'X'Xθ.
    double t_xty = 0.0;
    for (std::size_t i = 0; i < fit.theta.size(); ++i) {
      t_xty += fit.theta[i] * xty_[i];
    }
    std::vector<double> xtx_theta = xtx_.MatVec(fit.theta);
    double t_xtx_t = 0.0;
    for (std::size_t i = 0; i < fit.theta.size(); ++i) {
      t_xtx_t += fit.theta[i] * xtx_theta[i];
    }
    fit.rss = std::max(0.0, yty_ - 2.0 * t_xty + t_xtx_t);
    fit.rss_available = true;
  }
  return fit;
}

std::size_t NcrMeasure::StorageDoubles() const {
  return xtx_.packed_size() + xty_.size() + 2;  // + n + q
}

std::string NcrMeasure::ToString() const {
  return StrPrintf("NCR(p=%zu, n=%lld, rss_valid=%d)", num_features(),
                   static_cast<long long>(n_), rss_valid_ ? 1 : 0);
}

NcrMeasure NcrFromTimeSeries(const RegressionBasis& basis,
                             const TimeSeries& series) {
  RC_CHECK_EQ(basis.num_variables(), 1u);
  NcrMeasure m(basis.num_features());
  TimeTick t = series.interval().tb;
  for (double z : series.values()) {
    m.AddObservation(basis, {static_cast<double>(t)}, z);
    ++t;
  }
  return m;
}

}  // namespace regcube
