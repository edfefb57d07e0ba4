#ifndef REGCUBE_REGRESSION_AGGREGATE_H_
#define REGCUBE_REGRESSION_AGGREGATE_H_

#include <vector>

#include "regcube/common/status.h"
#include "regcube/regression/isb.h"

namespace regcube {

/// Theorem 3.2 — aggregation on a standard dimension.
///
/// The aggregated cell's series is the element-wise sum of the descendants'
/// series over one common interval; its ISB is obtained *without the raw
/// data* as: same interval, base = Σ base_i, slope = Σ slope_i.
///
/// Returns InvalidArgument if `children` is empty or the intervals are not
/// all identical.
Result<Isb> AggregateStandardDim(const std::vector<Isb>& children);

/// In-place accumulating form of Theorem 3.2 used by the cubing inner loops:
/// adds `child` into `acc`. If `acc` is empty (default-constructed interval)
/// it is initialized from `child`. Interval mismatch is a CHECK failure —
/// the cubing layers guarantee alignment structurally.
void AccumulateStandardDim(Isb& acc, const Isb& child);

/// Theorem 3.3 — aggregation on the time dimension.
///
/// The descendants' intervals must form an ordered contiguous partition of
/// the aggregate interval; the aggregate series is their concatenation. The
/// aggregate ISB is computed from the children's ISBs alone via the paper's
/// within/between decomposition:
///
///   β̂_a = Σ_i (n_i³-n_i)/(n_a³-n_a) β̂_i
///       + 6 Σ_i (2 Σ_{j<i} n_j + n_i - n_a)/(n_a³-n_a) · (n_a S_i - n_i S_a)/n_a
///   α̂_a = z̄_a − β̂_a t̄_a
///
/// where S_i is the series sum recovered from ISB_i (§3.4).
///
/// Returns InvalidArgument if `children` is empty or not a contiguous
/// ordered partition.
Result<Isb> AggregateTimeDim(const std::vector<Isb>& children);

/// Equivalent time-dimension aggregation computed through moment sums
/// (convert each ISB to {Σz, Σtz}, add, refit). Mathematically identical to
/// AggregateTimeDim; kept as an independent implementation so tests can
/// cross-validate the paper's closed form, and used by the tilt frame where
/// moments are already at hand.
Result<Isb> AggregateTimeDimViaMoments(const std::vector<Isb>& children);

/// Theorem 3.1(b) witness helpers: for each ISB component, returns a pair of
/// time series whose ISBs agree on the other three components but differ on
/// the named one. Used by tests to reproduce the minimality proof.
struct MinimalityWitness {
  TimeSeries a;
  TimeSeries b;
};
MinimalityWitness WitnessTbRequired();
MinimalityWitness WitnessTeRequired();
MinimalityWitness WitnessBaseRequired();
MinimalityWitness WitnessSlopeRequired();

}  // namespace regcube

#endif  // REGCUBE_REGRESSION_AGGREGATE_H_
