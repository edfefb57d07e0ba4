#ifndef REGCUBE_E2E_BENCH_STATS_H_
#define REGCUBE_E2E_BENCH_STATS_H_

// Summary statistics for the end-to-end benchmark.
//
// Two rules hold everywhere:
//  * across reps, report the median (and quartiles), never the best rep;
//  * a latency tail is the highest percentile that still has at least
//    kTailBeyond samples above it, reported together with that percentile
//    and the sample count, so a "p99" over 30 samples (really the maximum)
//    can never be printed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace regcube::e2e {

/// Median of `values` (sorted copy; 0 for an empty sample).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First, second and third quartile by the "exclusive" method (the default
/// of Python's statistics.quantiles(values, n=4)), so the benchmark's own
/// spread figures match the ones an external checker computes. A single
/// sample answers every quartile with itself; an empty one with zeros.
inline std::array<double, 3> Quartiles(std::vector<double> values) {
  std::array<double, 3> q{0.0, 0.0, 0.0};
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  const std::int64_t m = n + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    q[static_cast<std::size_t>(i - 1)] = (lo * (4.0 - delta) + hi * delta) / 4.0;
  }
  return q;
}

/// Samples a tail must leave above itself.
inline constexpr std::int64_t kTailBeyond = 10;

/// A latency tail: `value` is the `percentile`-th percentile (nearest
/// rank) of `samples` values. `percentile` is 0 when the sample is too
/// small for any percentile on the ladder; `value` is then the median.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::int64_t samples = 0;
};

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least q% of the sample at or below it.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The highest percentile on a fixed ladder (so runs with similar sample
/// counts report the same percentile) that has at least kTailBeyond
/// samples strictly beyond its rank. The ladder stops at p99: a
/// percentile whose estimate rests on a handful of the slowest calls of a
/// run says more about that run than about the program.
inline Tail TailOf(std::vector<double> values) {
  static constexpr double kLadder[] = {99.0, 98.0, 95.0, 90.0,
                                       80.0, 75.0, 50.0};
  Tail tail;
  tail.samples = static_cast<std::int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double q : kLadder) {
    const double beyond = n - std::ceil(q / 100.0 * n);
    if (beyond >= static_cast<double>(kTailBeyond)) {
      tail.percentile = q;
      tail.value = NearestRank(values, q);
      return tail;
    }
  }
  tail.value = NearestRank(values, 50.0);
  return tail;
}

/// Samples per rep below which a sample is not split further.
inline constexpr std::size_t kMinRepSamples = 100;
/// Most reps one run's samples are split into.
inline constexpr std::size_t kMaxReps = 5;

/// Splits a run's samples, in the order they were taken, into up to
/// kMaxReps consecutive reps of at least kMinRepSamples each (one rep if
/// the sample is smaller).
inline std::vector<std::vector<double>> SplitReps(
    const std::vector<double>& values) {
  const std::size_t reps = std::clamp<std::size_t>(
      values.size() / kMinRepSamples, 1, kMaxReps);
  std::vector<std::vector<double>> out(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    out[r].assign(values.begin() + static_cast<std::ptrdiff_t>(
                                       r * values.size() / reps),
                  values.begin() + static_cast<std::ptrdiff_t>(
                                       (r + 1) * values.size() / reps));
  }
  return out;
}

/// Median over reps of each rep's median.
inline double MedianOfReps(const std::vector<double>& values) {
  std::vector<double> medians;
  for (const auto& rep : SplitReps(values)) medians.push_back(Median(rep));
  return Median(medians);
}

/// Median over reps of each rep's tail; `samples` is the whole count and
/// `percentile` the one the median rep reported.
inline Tail TailOfReps(const std::vector<double>& values) {
  std::vector<Tail> tails;
  for (const auto& rep : SplitReps(values)) tails.push_back(TailOf(rep));
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  Tail tail = tails[tails.size() / 2];
  if (tails.size() % 2 == 0) {
    tail.value = 0.5 * (tails[tails.size() / 2 - 1].value + tail.value);
  }
  tail.samples = static_cast<std::int64_t>(values.size());
  return tail;
}

}  // namespace regcube::e2e

#endif  // REGCUBE_E2E_BENCH_STATS_H_
