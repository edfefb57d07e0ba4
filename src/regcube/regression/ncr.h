#ifndef REGCUBE_REGRESSION_NCR_H_
#define REGCUBE_REGRESSION_NCR_H_

#include <string>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/math/symmetric_matrix.h"
#include "regcube/regression/basis.h"
#include "regcube/regression/isb.h"

namespace regcube {

/// Fitted multiple-regression model: θ̂ plus diagnostics.
struct NcrFit {
  std::vector<double> theta;
  double rss = 0.0;        // valid only when the measure's rss_valid() holds
  bool rss_available = false;
};

/// NCR — the compressible representation for *multiple* linear regression
/// (§6.2's generalization; the follow-on journal version of this paper names
/// it the "nonlinear compressible representation"). A cell stores the
/// normal-equation sufficient statistics of its observations:
///
///   n,  M = Σ φ(x)φ(x)',  v = Σ φ(x)·y,  q = Σ y²
///
/// for a fixed basis φ. Two lossless aggregations mirror Theorems 3.2/3.3:
///
/// * Time-style merge (disjoint observation sets, union of designs):
///   add everything — n, M, v, q. RSS stays exact.
/// * Standard-style merge (identical designs, responses summed):
///   v adds, M is unchanged (children share it — validated), q is NOT
///   recoverable (cross terms), so RSS becomes unavailable while θ̂ stays
///   exact. This matches the paper's claim: the *model* aggregates
///   losslessly.
class NcrMeasure {
 public:
  /// Empty measure of the given feature arity.
  explicit NcrMeasure(std::size_t num_features = 0);

  std::size_t num_features() const { return xtx_.size(); }
  std::int64_t count() const { return n_; }
  bool rss_valid() const { return rss_valid_; }

  /// Adds one observation with pre-evaluated features.
  void AddFeatures(const std::vector<double>& features, double y);

  /// Adds one observation with raw regressors, evaluated through `basis`.
  void AddObservation(const RegressionBasis& basis,
                      const std::vector<double>& x, double y);

  /// Time-style merge (Theorem 3.3 analogue): observation sets are disjoint.
  /// Feature arity must match.
  Status MergeDisjoint(const NcrMeasure& other);

  /// Standard-style merge (Theorem 3.2 analogue): `other` covers the same
  /// design points; responses are summed. Validates that the two design
  /// matrices agree to `design_tolerance` (a strong runtime check of the
  /// same-design precondition). Marks RSS unavailable.
  Status MergeSameDesign(const NcrMeasure& other,
                         double design_tolerance = 1e-9);

  /// Solves the normal equations. Fails (FailedPrecondition) if fewer
  /// observations than features or the design is collinear.
  Result<NcrFit> Solve() const;

  /// Number of doubles this measure stores: p(p+1)/2 + p + 2. For the
  /// linear-time basis (p = 2) that is 7 vs the ISB's 4 — the price of
  /// generality, reported in the micro benchmarks.
  std::size_t StorageDoubles() const;

  const SymmetricMatrix& xtx() const { return xtx_; }
  const std::vector<double>& xty() const { return xty_; }
  double yty() const { return yty_; }

  std::string ToString() const;

 private:
  std::int64_t n_ = 0;
  SymmetricMatrix xtx_;
  std::vector<double> xty_;
  double yty_ = 0.0;
  bool rss_valid_ = true;
};

/// Builds the NCR measure of a plain time series under `basis` (features of
/// the single regressor t). Used to show NCR ⊇ ISB: with the linear-time
/// basis the solved θ equals (base, slope).
NcrMeasure NcrFromTimeSeries(const RegressionBasis& basis,
                             const TimeSeries& series);

}  // namespace regcube

#endif  // REGCUBE_REGRESSION_NCR_H_
