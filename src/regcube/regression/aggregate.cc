#include "regcube/regression/aggregate.h"

#include "regcube/common/logging.h"
#include "regcube/common/str.h"

namespace regcube {

Result<Isb> AggregateStandardDim(const std::vector<Isb>& children) {
  if (children.empty()) {
    return Status::InvalidArgument("no children to aggregate");
  }
  Isb out = children[0];
  for (size_t i = 1; i < children.size(); ++i) {
    if (!(children[i].interval == out.interval)) {
      return Status::InvalidArgument(StrPrintf(
          "child %zu interval %s differs from %s", i,
          children[i].interval.ToString().c_str(),
          out.interval.ToString().c_str()));
    }
    out.base += children[i].base;
    out.slope += children[i].slope;
  }
  return out;
}

void AccumulateStandardDim(Isb& acc, const Isb& child) {
  if (acc.interval.empty()) {
    acc = child;
    return;
  }
  RC_DCHECK(acc.interval == child.interval)
      << "standard-dim accumulate interval mismatch";
  acc.base += child.base;
  acc.slope += child.slope;
}

namespace {

Status ValidateTimeChildren(const std::vector<Isb>& children,
                            TimeInterval* whole) {
  if (children.empty()) {
    return Status::InvalidArgument("no children to aggregate");
  }
  whole->tb = children.front().interval.tb;
  whole->te = children.back().interval.te;
  // ValidatePartition's checks, without copying the intervals out: the
  // whole is the children's own hull, so only the parts can fail.
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i].interval.empty()) {
      return Status::InvalidArgument(StrPrintf("part %zu is empty", i));
    }
    if (i > 0 &&
        children[i].interval.tb != children[i - 1].interval.te + 1) {
      return Status::InvalidArgument(
          StrPrintf("parts %zu and %zu are not contiguous", i - 1, i));
    }
  }
  return Status::OK();
}

}  // namespace

Result<Isb> AggregateTimeDim(const std::vector<Isb>& children) {
  TimeInterval whole;
  RC_RETURN_IF_ERROR(ValidateTimeChildren(children, &whole));

  const double na = static_cast<double>(whole.length());
  const double na3_minus_na = na * na * na - na;

  // Series sums S_i and total S_a, all recovered from the ISBs (§3.4).
  double sa = 0.0;
  for (const Isb& c : children) sa += c.SeriesSum();
  const double za = sa / na;
  const double ta = whole.mean();

  Isb out;
  out.interval = whole;
  if (na3_minus_na == 0.0) {
    // Aggregate of a single-tick interval: degenerate fit.
    out.slope = 0.0;
    out.base = za;
    return out;
  }

  double beta = 0.0;
  double prefix = 0.0;  // Σ_{j<i} n_j
  for (const Isb& c : children) {
    const double ni = static_cast<double>(c.interval.length());
    const double si = c.SeriesSum();
    // Within-child contribution: (n_i³ - n_i)/(n_a³ - n_a) β̂_i.
    beta += (ni * ni * ni - ni) / na3_minus_na * c.slope;
    // Between-child contribution:
    // 6 (2 Σ_{j<i} n_j + n_i - n_a)/(n_a³ - n_a) · (n_a S_i - n_i S_a)/n_a.
    beta += 6.0 * (2.0 * prefix + ni - na) / na3_minus_na *
            (na * si - ni * sa) / na;
    prefix += ni;
  }
  out.slope = beta;
  out.base = za - beta * ta;
  return out;
}

Result<Isb> AggregateTimeDimViaMoments(const std::vector<Isb>& children) {
  TimeInterval whole;
  RC_RETURN_IF_ERROR(ValidateTimeChildren(children, &whole));
  MomentSums total;
  for (const Isb& c : children) total.MergeDisjoint(ToMoments(c));
  RC_CHECK(total.interval == whole);
  return FitFromMoments(total);
}

// Witness pairs from the proof of Theorem 3.1(b). Each pair agrees on three
// ISB components and differs on the fourth.
MinimalityWitness WitnessTbRequired() {
  return {TimeSeries(0, {0.0, 0.0, 0.0}), TimeSeries(1, {0.0, 0.0})};
}

MinimalityWitness WitnessTeRequired() {
  return {TimeSeries(0, {0.0, 0.0, 0.0}), TimeSeries(0, {0.0, 0.0})};
}

MinimalityWitness WitnessBaseRequired() {
  // z1: 0,0 and z2: 1,1 over [0,1]: same tb, te, slope (0), different base.
  return {TimeSeries(0, {0.0, 0.0}), TimeSeries(0, {1.0, 1.0})};
}

MinimalityWitness WitnessSlopeRequired() {
  // z1: 0,0 and z2: 0,1 over [0,1]: same tb, te, base (0), different slope.
  return {TimeSeries(0, {0.0, 0.0}), TimeSeries(0, {0.0, 1.0})};
}

}  // namespace regcube
