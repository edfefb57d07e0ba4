#ifndef REGCUBE_REGRESSION_ISB_H_
#define REGCUBE_REGRESSION_ISB_H_

#include <string>

#include "regcube/common/status.h"
#include "regcube/regression/time_series.h"

namespace regcube {

/// The ISB (Interval-Slope-Base) compressed representation of a cell's time
/// series (§3.2): the interval [tb, te] plus the least-squares base α̂ and
/// slope β̂. Four numbers fully determine the linear regression model of the
/// series, and — by Theorems 3.2/3.3 — the models of all ancestor cells.
struct Isb {
  TimeInterval interval;
  double base = 0.0;   // α̂: intercept of the fit at t = 0
  double slope = 0.0;  // β̂

  /// Fitted value ẑ(t) = α̂ + β̂ t.
  double Evaluate(TimeTick t) const {
    return base + slope * static_cast<double>(t);
  }

  /// Mean of the underlying series: z̄ = α̂ + β̂ t̄ (Lemma 3.1, Eq. 2).
  double SeriesMean() const { return base + slope * interval.mean(); }

  /// Sum of the underlying series: S = n z̄. Recoverable exactly from the
  /// ISB — this is what Theorem 3.3 exploits.
  double SeriesSum() const {
    return static_cast<double>(interval.length()) * SeriesMean();
  }

  std::string ToString() const;

  friend bool operator==(const Isb&, const Isb&) = default;
};

/// The equivalent IntVal representation (§3.2): interval endpoints of the
/// fitted line instead of (base, slope). Provided because the paper proves
/// the two interchangeable; ISB is the storage format everywhere else.
struct IntVal {
  TimeInterval interval;
  double zb = 0.0;  // fitted value at tb
  double ze = 0.0;  // fitted value at te

  std::string ToString() const;
};

/// Converts ISB -> IntVal (always exact).
IntVal ToIntVal(const Isb& isb);

/// Converts IntVal -> ISB. Exact for intervals of length >= 2; for a
/// single-point interval the slope is taken as 0 (the fit is degenerate and
/// zb == ze is required, checked).
Isb FromIntVal(const IntVal& iv);

/// First-moment sufficient statistics of a series over an interval:
/// {n implicit in interval, Σz, Σtz}. Losslessly interconvertible with ISB
/// (DESIGN.md §4.1); used for numerically stable accumulation of open
/// (still-growing) time units in the stream engine.
struct MomentSums {
  TimeInterval interval;
  double sum_z = 0.0;   // Σ z(t)
  double sum_tz = 0.0;  // Σ t·z(t), t in absolute ticks

  /// Accumulates one observation. `t` must extend or stay inside the
  /// interval contiguously when building from a stream; no ordering is
  /// enforced here (the stream engine enforces it).
  void Add(TimeTick t, double z) {
    sum_z += z;
    sum_tz += static_cast<double>(t) * z;
  }

  /// Merges statistics of a disjoint interval (caller guarantees
  /// disjointness; the interval is extended to the convex hull).
  void MergeDisjoint(const MomentSums& other);

  std::string ToString() const;
};

/// ISB -> moment sums (exact; inverse of FitFromMoments).
MomentSums ToMoments(const Isb& isb);

/// Least-squares fit from moment sums (Lemma 3.1 expressed in Σz, Σtz).
/// For a single-point interval the slope is 0 and the base reproduces the
/// point. Pre: interval non-empty (checked).
Isb FitFromMoments(const MomentSums& m);

}  // namespace regcube

#endif  // REGCUBE_REGRESSION_ISB_H_
