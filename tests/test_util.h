#ifndef REGCUBE_TESTS_TEST_UTIL_H_
#define REGCUBE_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/core/regression_cube.h"
#include "regcube/gen/stream_generator.h"
#include "regcube/gen/workload.h"
#include "regcube/htree/htree.h"
#include "regcube/regression/linear_fit.h"
#include "regcube/regression/time_series.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace testing_util {

/// Random time series over [tb, tb+n) with a random linear trend plus noise.
inline TimeSeries RandomSeries(Pcg32& rng, TimeTick tb, std::int64_t n) {
  const double base = rng.NextDouble() * 10.0 - 5.0;
  const double slope = rng.NextDouble() * 2.0 - 1.0;
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    values.push_back(base + slope * static_cast<double>(tb + i) +
                     rng.NextGaussian());
  }
  return TimeSeries(tb, std::move(values));
}

/// Asserts two ISBs are numerically equal (same interval, close parameters).
inline void ExpectIsbNear(const Isb& expected, const Isb& actual,
                          double tolerance = 1e-9) {
  EXPECT_EQ(expected.interval.tb, actual.interval.tb);
  EXPECT_EQ(expected.interval.te, actual.interval.te);
  EXPECT_NEAR(expected.base, actual.base, tolerance);
  EXPECT_NEAR(expected.slope, actual.slope, tolerance);
}

/// Exact LSE fit of a series; aborts on error (test convenience).
inline Isb MustFit(const TimeSeries& series) {
  auto fit = FitIsb(series);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  return *fit;
}

/// A small generated workload: schema pointer + m-layer tuples.
struct SmallWorkload {
  std::shared_ptr<const CubeSchema> schema;
  std::vector<MLayerTuple> tuples;
  WorkloadSpec spec;
};

/// Builds a deterministic small workload for cubing tests.
inline SmallWorkload MakeSmallWorkload(int num_dims, int num_levels,
                                       int fanout, std::int64_t num_tuples,
                                       std::uint64_t seed = 7,
                                       double anomaly_fraction = 0.1) {
  WorkloadSpec spec;
  spec.num_dims = num_dims;
  spec.num_levels = num_levels;
  spec.fanout = fanout;
  spec.num_tuples = num_tuples;
  spec.series_length = 16;
  spec.seed = seed;
  spec.anomaly_fraction = anomaly_fraction;
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  StreamGenerator gen(spec);
  return SmallWorkload{*schema, gen.GenerateMLayerTuples(), spec};
}

/// Full brute-force cube: every cell of every cuboid in the lattice.
inline std::vector<CellMap> FullCubeBruteForce(
    const CuboidLattice& lattice, const std::vector<MLayerTuple>& tuples) {
  std::vector<CellMap> out;
  out.reserve(static_cast<size_t>(lattice.num_cuboids()));
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    out.push_back(ComputeCuboidBruteForce(lattice, tuples, c));
  }
  return out;
}

/// Asserts two cell maps hold the same cells with numerically equal ISBs.
inline void ExpectCellMapsEqual(const CellMap& expected, const CellMap& actual,
                                double tolerance = 1e-7) {
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [key, isb] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "missing cell " << key.ToString();
    ExpectIsbNear(isb, it->second, tolerance);
  }
}

/// A frame's record (TiltTimeFrame::WriteRecord) as bytes: equal records
/// are the bitwise-equality test of two frames, rotation of every ring
/// included.
inline std::string RecordOf(const TiltTimeFrame& frame) {
  std::string record(frame.RecordBytes(), '\0');
  frame.WriteRecord(reinterpret_cast<std::byte*>(record.data()));
  return record;
}

}  // namespace testing_util
}  // namespace regcube

#endif  // REGCUBE_TESTS_TEST_UTIL_H_
