// End-to-end cross-validation of the whole pipeline: generator -> both
// cubing algorithms -> queries -> online engine, checked against brute
// force over a family of workloads and thresholds.

#include <cmath>
#include <memory>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/query.h"
#include "regcube/core/sharded_engine.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectCellMapsEqual;
using testing_util::FullCubeBruteForce;
using testing_util::MakeSmallWorkload;
using testing_util::SmallWorkload;

struct EndToEndCase {
  int dims;
  int levels;
  int fanout;
  int tuples;
  double exception_rate;  // calibrated target
};

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndTest, BothAlgorithmsAgreeWithGroundTruth) {
  const EndToEndCase& p = GetParam();
  SmallWorkload w =
      MakeSmallWorkload(p.dims, p.levels, p.fanout, p.tuples, /*seed=*/5);
  CuboidLattice lattice(*w.schema);

  // Calibrate the threshold to the target exception rate, as the benchmark
  // harness does.
  const double threshold =
      CalibrateExceptionThreshold(lattice, w.tuples, p.exception_rate);

  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(threshold);
  auto cube1 = ComputeMoCubing(w.schema, w.tuples, mo);
  ASSERT_TRUE(cube1.ok());

  PopularPathOptions pp;
  pp.policy = ExceptionPolicy(threshold);
  auto cube2 = ComputePopularPathCubing(w.schema, w.tuples, pp);
  ASSERT_TRUE(cube2.ok());

  // 1. Identical critical layers, equal to brute force.
  auto o_truth = ComputeCuboidBruteForce(lattice, w.tuples,
                                         lattice.o_layer_id());
  ExpectCellMapsEqual(o_truth, cube1->o_layer(), 1e-8);
  ExpectCellMapsEqual(o_truth, cube2->o_layer(), 1e-8);
  ExpectCellMapsEqual(cube1->m_layer(), cube2->m_layer(), 1e-8);

  // 2. The calibrated rate is honored (within quantile granularity).
  // The calibrated threshold sits exactly on a cell's |slope|, so cells at
  // the boundary may flip on summation-order differences between the chain
  // aggregation and brute force; count them with a tolerance band.
  const double eps = 1e-9 * std::max(1.0, threshold);
  auto full = FullCubeBruteForce(lattice, w.tuples);
  std::int64_t intermediate_cells = 0;
  std::int64_t exceptional_min = 0;  // strictly above the band
  std::int64_t exceptional_max = 0;  // above or inside the band
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c == lattice.m_layer_id() || c == lattice.o_layer_id()) continue;
    for (const auto& [key, isb] : full[static_cast<size_t>(c)]) {
      ++intermediate_cells;
      if (std::fabs(isb.slope) >= threshold + eps) ++exceptional_min;
      if (std::fabs(isb.slope) >= threshold - eps) ++exceptional_max;
    }
  }
  if (intermediate_cells > 0) {
    const double rate =
        static_cast<double>(exceptional_max) / intermediate_cells;
    EXPECT_NEAR(rate, p.exception_rate,
                0.05 + 2.0 / static_cast<double>(intermediate_cells));
    // 3. Algorithm 1 retained exactly the exceptional cells (modulo the
    // boundary band).
    EXPECT_GE(cube1->stats().exception_cells, exceptional_min);
    EXPECT_LE(cube1->stats().exception_cells, exceptional_max);
  }

  // 4. Algorithm 2's exceptions are a measure-identical subset.
  EXPECT_LE(cube2->exceptions().total_cells(),
            cube1->exceptions().total_cells());
  for (CuboidId c : cube2->exceptions().Cuboids()) {
    const CellMap* sub = cube2->exceptions().CellsOf(c);
    const CellMap* super = cube1->exceptions().CellsOf(c);
    ASSERT_NE(super, nullptr);
    for (const auto& [key, isb] : *sub) {
      EXPECT_TRUE(super->count(key) > 0);
    }
  }

  // 5. Every o-layer exception's supporters chain is drillable in both.
  ExceptionPolicy policy(threshold);
  CubeView view1(*cube1, policy);
  CubeView view2(*cube2, policy);
  for (const auto& [key, isb] : cube1->o_layer()) {
    if (std::fabs(isb.slope) < threshold) continue;
    auto supporters1 = view1.ExceptionSupporters(lattice.o_layer_id(), key);
    auto supporters2 = view2.ExceptionSupporters(lattice.o_layer_id(), key);
    // Algorithm 1 retains at least as many reachable supporters.
    EXPECT_GE(supporters1.size(), supporters2.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EndToEndTest,
    ::testing::Values(EndToEndCase{2, 2, 3, 60, 0.01},
                      EndToEndCase{2, 2, 3, 60, 0.10},
                      EndToEndCase{2, 3, 3, 100, 0.05},
                      EndToEndCase{3, 2, 4, 150, 0.01},
                      EndToEndCase{3, 2, 4, 150, 0.50},
                      EndToEndCase{3, 3, 3, 200, 0.05}));

TEST(EndToEndTest, OnlineEngineMatchesBatchOverPowerGridSchema) {
  // The paper's running example: location (city > district > block) and
  // user-category dimensions, quarter-hour tilt frame, o-layer at
  // (*, city), m-layer at (user-group, block).
  auto location = ExplicitHierarchy::Create(
      2,                    // 2 cities
      {{0, 0, 1, 1},        // 4 districts
       {0, 0, 1, 1, 2, 2, 3, 3}},  // 8 blocks
      {});
  ASSERT_TRUE(location.ok());
  auto user = ExplicitHierarchy::Create(3, {{0, 0, 1, 1, 2, 2}}, {});
  ASSERT_TRUE(user.ok());

  auto schema_result = CubeSchema::Create(
      {Dimension("user", std::make_shared<ExplicitHierarchy>(
                             std::move(user).value()),
                 {"user-group", "user"}),
       Dimension("location", std::make_shared<ExplicitHierarchy>(
                                 std::move(location).value()),
                 {"city", "district", "street-block"})},
      /*m_layer=*/{1, 3}, /*o_layer=*/{0, 1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy = MakeUniformTiltPolicy(
      {{"quarter", 4}, {"hour", 24}}, {15, 60});  // minute ticks
  options.policy = ExceptionPolicy(0.001);
  ShardedStreamEngine engine(schema, options, /*num_shards=*/2);

  // 3 user-groups x 8 blocks of synthetic usage for 4 hours of minutes.
  Pcg32 rng(17);
  const TimeTick total = 60 * 4;
  for (TimeTick t = 0; t < total; ++t) {
    for (ValueId g = 0; g < 3; ++g) {
      for (ValueId blk = 0; blk < 8; ++blk) {
        CellKey key(2);
        key.set(0, g);
        key.set(1, blk);
        const double usage = 1.0 + 0.01 * static_cast<double>(t) * (g + 1) +
                             0.1 * rng.NextDouble();
        ASSERT_TRUE(engine.Ingest({key, t, usage}).ok());
      }
    }
  }
  ASSERT_TRUE(engine.SealThrough(total - 1).ok());

  // Cube over the last 4 sealed hours.
  auto cube = engine.ComputeCube(/*level=*/1, /*k=*/4);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // o-layer: (*, city) -> 2 cells.
  EXPECT_EQ(cube->o_layer().size(), 2u);
  // m-layer: 24 cells.
  EXPECT_EQ(cube->m_layer().size(), 24u);

  // The observation deck exposes per-city hourly series.
  auto deck = engine.ObservationDeck(1);
  ASSERT_TRUE(deck.ok());
  EXPECT_EQ(deck->size(), 2u);
  for (const auto& [key, series] : *deck) {
    EXPECT_EQ(series.size(), 4u);  // 4 sealed hours
    // Usage trends upward in every city.
    EXPECT_GT(series.back().slope, 0.0);
  }
}

TEST(EndToEndTest, IncrementalRecomputeIsConsistentAcrossBatches) {
  // Ingest in 4 batches; after each, the cube over the full sealed window
  // must equal, bit for bit, a from-scratch replay of the same data.
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = 30;
  spec.series_length = 32;
  spec.seed = 23;
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  auto stream = gen.GenerateStream();

  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"q", 8}, {"h", 8}}, {4, 8});
  options.policy = ExceptionPolicy(0.02);
  ShardedStreamEngine incremental(*schema, options, /*num_shards=*/4);

  const size_t batch = stream.size() / 4;
  for (int b = 0; b < 4; ++b) {
    const size_t begin = static_cast<size_t>(b) * batch;
    const size_t end = b == 3 ? stream.size() : begin + batch;
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(incremental.Ingest(stream[i]).ok());
    }
    const TimeTick sealed = stream[end - 1].tick;
    ASSERT_TRUE(incremental.SealThrough(sealed).ok());

    ReferenceStream fresh(*schema, options);
    for (size_t i = 0; i < end; ++i) ASSERT_TRUE(fresh.Ingest(stream[i]).ok());
    ASSERT_TRUE(fresh.SealThrough(sealed).ok());

    const int sealed_quarters = static_cast<int>((sealed + 1) / 4);
    if (sealed_quarters < 1) continue;
    const int k = std::min(sealed_quarters, 8);
    auto cube_inc = incremental.ComputeCube(0, k);
    auto cube_fresh = fresh.Cube(0, k);
    ASSERT_TRUE(cube_inc.ok());
    ASSERT_TRUE(cube_fresh.ok());
    equivalence::ExpectCubesIdentical(*cube_fresh, *cube_inc);
  }
}

}  // namespace
}  // namespace regcube
