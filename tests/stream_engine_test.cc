// The on-line engine's read path against brute-force fits of the
// generator's raw series (windows, cubes, the observation deck, trend
// changes, point queries, key mapping, late cells, the error contract),
// run on a one-shard ShardedStreamEngine — the same method names and
// error contract at any shard count — plus the shard engine's own memory
// accounting.

#include "regcube/core/stream_engine.h"

#include <memory>

#include "gtest/gtest.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/core/sharded_engine.h"
#include "regcube/gen/stream_generator.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MustFit;

std::shared_ptr<const TiltPolicy> SmallPolicy() {
  // quarter = 4 ticks, hour = 16 ticks.
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

WorkloadSpec EngineSpec(std::int64_t tuples = 60, std::int64_t ticks = 64) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = 11;
  return spec;
}

TEST(StreamEngineTest, SnapshotMatchesDirectFitOfWindow) {
  WorkloadSpec spec = EngineSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  EXPECT_EQ(engine.num_cells(), spec.num_tuples);

  // Window: last 8 sealed quarters = ticks [32, 64).
  auto window = engine.SnapshotWindow(/*level=*/0, /*k=*/8);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), static_cast<size_t>(spec.num_tuples));

  StreamGenerator gen2(spec);
  CellMap expected;
  for (size_t i = 0; i < gen2.cells().size(); ++i) {
    TimeSeries series = gen2.SeriesFor(i);
    auto slice = series.Slice(32, 63);
    ASSERT_TRUE(slice.ok());
    expected.emplace(gen2.cells()[i].key, MustFit(*slice));
  }
  for (const MLayerTuple& t : *window) {
    auto it = expected.find(t.key);
    ASSERT_NE(it, expected.end());
    ExpectIsbNear(it->second, t.measure, 1e-7);
  }
}

TEST(StreamEngineTest, ComputeCubeMatchesBatchAlgorithm) {
  WorkloadSpec spec = EngineSpec(50, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.02);
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto cube = engine.ComputeCube(/*level=*/0, /*k=*/8);  // full 32 ticks
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();

  auto window = engine.SnapshotWindow(0, 8);
  ASSERT_TRUE(window.ok());
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.02);
  auto direct = ComputeMoCubing(*schema, *window, mo);
  ASSERT_TRUE(direct.ok());
  ExpectCellMapsEqual(direct->o_layer(), cube->o_layer(), 1e-9);
  EXPECT_EQ(direct->exceptions().total_cells(),
            cube->exceptions().total_cells());
}

TEST(StreamEngineTest, PopularPathAlgorithmSelectable) {
  WorkloadSpec spec = EngineSpec(40, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.02);
  options.algorithm = StreamCubeEngine::Algorithm::kPopularPath;
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto cube = engine.ComputeCube(0, 4);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_FALSE(cube->o_layer().empty());
}

TEST(StreamEngineTest, ObservationDeckAggregatesOLayer) {
  WorkloadSpec spec = EngineSpec(30, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto deck = engine.ObservationDeck(/*level=*/1);  // hour slots (2 sealed)
  ASSERT_TRUE(deck.ok()) << deck.status().ToString();
  ASSERT_FALSE(deck->empty());

  // Reference: sum the raw series per o-layer key, fit per hour window.
  StreamGenerator gen2(spec);
  CuboidLattice lattice(**schema);
  std::unordered_map<CellKey, std::vector<double>, CellKeyHash> sums;
  for (size_t i = 0; i < gen2.cells().size(); ++i) {
    CellKey o_key =
        lattice.ProjectMLayerKey(gen2.cells()[i].key, lattice.o_layer_id());
    auto& acc = sums[o_key];
    TimeSeries s = gen2.SeriesFor(i);
    if (acc.empty()) acc.assign(static_cast<size_t>(s.size()), 0.0);
    for (TimeTick t = 0; t < s.size(); ++t) {
      acc[static_cast<size_t>(t)] += s.at(t);
    }
  }
  EXPECT_EQ(deck->size(), sums.size());
  for (const auto& [key, series] : *deck) {
    auto it = sums.find(key);
    ASSERT_NE(it, sums.end());
    ASSERT_EQ(series.size(), 2u);  // two sealed hours in 32 ticks
    std::vector<double> hour0(it->second.begin(), it->second.begin() + 16);
    std::vector<double> hour1(it->second.begin() + 16, it->second.end());
    ExpectIsbNear(MustFit(TimeSeries(0, std::move(hour0))), series[0], 1e-7);
    ExpectIsbNear(MustFit(TimeSeries(16, std::move(hour1))), series[1], 1e-7);
  }
}

TEST(StreamEngineTest, DetectTrendChangesFindsInjectedBreak) {
  // Two cells; one flips slope violently between hour 1 and hour 2.
  auto h = std::make_shared<FanoutHierarchy>(1, 4);
  auto schema_result =
      CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(schema, options, /*num_shards=*/1);

  CellKey steady(1), breaker(1);
  steady.set(0, 0);
  breaker.set(0, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({steady, t, 5.0}).ok());
    // breaker: flat for the first hour, steep rise for the second.
    double v = t < 16 ? 1.0 : static_cast<double>(t - 15) * 3.0;
    ASSERT_TRUE(engine.Ingest({breaker, t, v}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto changes = engine.DetectTrendChanges(/*level=*/1, /*threshold=*/1.0);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].key, breaker);
  EXPECT_NEAR((*changes)[0].previous.slope, 0.0, 1e-9);
  EXPECT_NEAR((*changes)[0].current.slope, 3.0, 1e-9);
}

TEST(StreamEngineTest, KeyMapperRollsPrimitiveKeysUp) {
  // Primitive keys at level-2 granularity mapped to m-layer level 1 via a
  // custom mapper (user -> user-group).
  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.key_mapper = [&h](const CellKey& primitive) {
    CellKey m(1);
    m.set(0, h->Parent(2, primitive[0]));
    return m;
  };
  ShardedStreamEngine engine(schema, options, /*num_shards=*/1);

  CellKey u0(1), u1(1);
  u0.set(0, 0);  // both map to group 0
  u1.set(0, 1);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Ingest({u0, t, 1.0}).ok());
    ASSERT_TRUE(engine.Ingest({u1, t, 2.0}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(7).ok());
  EXPECT_EQ(engine.num_cells(), 1);  // merged into one m-layer cell
  auto window = engine.SnapshotWindow(0, 2);
  ASSERT_TRUE(window.ok());
  EXPECT_NEAR((*window)[0].measure.SeriesSum(), 8 * 3.0, 1e-9);
}

TEST(StreamEngineTest, ErrorsSurfaceCleanly) {
  WorkloadSpec spec = EngineSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);

  // No data yet.
  EXPECT_EQ(engine.SnapshotWindow(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.ObservationDeck(0).ok());

  CellKey k(2);
  ASSERT_TRUE(engine.Ingest({k, 10, 1.0}).ok());
  // Past tick for the same cell.
  EXPECT_FALSE(engine.Ingest({k, 3, 1.0}).ok());
  // Too many slots requested.
  ASSERT_TRUE(engine.SealThrough(11).ok());
  EXPECT_FALSE(engine.SnapshotWindow(0, 100).ok());
}

TEST(StreamEngineTest, LateCellsBackfillWithZeros) {
  // A cell first seen in hour 2 still aligns with cells seen from tick 0.
  WorkloadSpec spec = EngineSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);

  CellKey early(2), late(2);
  early.set(0, 0);
  early.set(1, 0);
  late.set(0, 1);
  late.set(1, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({early, t, 1.0}).ok());
    if (t >= 20) {
      ASSERT_TRUE(engine.Ingest({late, t, 2.0}).ok());
    }
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto window = engine.SnapshotWindow(0, 8);  // full 32 ticks
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), 2u);
  for (const MLayerTuple& t : *window) {
    EXPECT_EQ(t.measure.interval.tb, 0);
    EXPECT_EQ(t.measure.interval.te, 31);
    if (t.key == late) {
      EXPECT_NEAR(t.measure.SeriesSum(), 12 * 2.0, 1e-9);
    }
  }
}

TEST(StreamEngineTest, QueryCellMatchesCubeCells) {
  WorkloadSpec spec = EngineSpec(40, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.0);  // retain everything
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto cube = engine.ComputeCube(0, 8);
  ASSERT_TRUE(cube.ok());
  const CuboidLattice& lattice = engine.lattice();

  // Every retained cell of every cuboid must equal the on-the-fly query.
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    const CellMap* cells = cube->CellsAt(c);
    if (cells == nullptr) continue;
    for (const auto& [key, isb] : *cells) {
      auto queried = engine.QueryCell(c, key, 0, 8);
      ASSERT_TRUE(queried.ok()) << queried.status().ToString();
      ExpectIsbNear(isb, *queried, 1e-8);
    }
  }

  // Unknown cell.
  CellKey bogus(2);
  bogus.set(0, 7);
  bogus.set(1, 7);
  EXPECT_EQ(engine.QueryCell(lattice.o_layer_id(), bogus, 0, 8)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(StreamEngineTest, QueryCellSeriesMatchesPerSlotQueries) {
  WorkloadSpec spec = EngineSpec(20, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  ShardedStreamEngine engine(*schema, options, /*num_shards=*/1);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  auto series = engine.QueryCellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), 2u);  // two sealed hours

  // The last element must match QueryCell over k=1.
  auto last = engine.QueryCell(lattice.o_layer_id(), o_key, 1, 1);
  ASSERT_TRUE(last.ok());
  ExpectIsbNear(*last, series->back(), 1e-12);
}

TEST(StreamEngineTest, MemoryBytesBoundedByTiltFrames) {
  WorkloadSpec spec = EngineSpec(20, 64);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  const std::int64_t bytes = engine.MemoryBytes();
  EXPECT_GT(bytes, 0);
  // 20 cells, 16 slots max each: comfortably under a megabyte.
  EXPECT_LT(bytes, 1 << 20);
}

TEST(StreamEngineTest, FrozenBytesPostedPerCallAndBalancedAcrossTrackers) {
  WorkloadSpec spec = EngineSpec(20, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  constexpr char kFrozen[] = "snapshot.frozen_frames";

  MemoryTracker first;
  engine.set_memory_tracker(&first);
  const auto stream = gen.GenerateStream();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());
  ASSERT_TRUE(engine.SealThrough(15).ok());
  // The engine keeps no run: the caller passes its last run as the base
  // (null for a full export).
  StreamCubeEngine::FrozenSlice run;
  ASSERT_TRUE(engine.RefreshPublishedRun(nullptr, &run, nullptr).ok());
  ASSERT_GT(engine.FrozenBytes(), 0);
  EXPECT_EQ(first.category_bytes(kFrozen), engine.FrozenBytes());

  // A seal re-freezes every cell on the next refresh; the tracker follows.
  ASSERT_TRUE(engine.SealThrough(31).ok());
  ASSERT_TRUE(engine.RefreshPublishedRun(run, &run, nullptr).ok());
  EXPECT_EQ(first.category_bytes(kFrozen), engine.FrozenBytes());

  // A seal dirties every cell; the refresh after the drop below re-freezes
  // them.
  ASSERT_TRUE(engine.SealThrough(47).ok());

  // Moving trackers hands the bytes over; detaching returns them.
  MemoryTracker second;
  engine.set_memory_tracker(&second);
  EXPECT_EQ(first.category_bytes(kFrozen), 0);
  EXPECT_EQ(second.category_bytes(kFrozen), engine.FrozenBytes());
  EXPECT_GT(engine.DropFrozenBlocks(), 0);
  EXPECT_EQ(engine.FrozenBytes(), 0);
  EXPECT_EQ(second.category_bytes(kFrozen), 0);
  ASSERT_TRUE(engine.RefreshPublishedRun(run, &run, nullptr).ok());
  ASSERT_GT(engine.FrozenBytes(), 0);
  engine.set_memory_tracker(nullptr);
  EXPECT_EQ(second.category_bytes(kFrozen), 0);
  // Changes made while detached are registered in full on re-attach.
  ASSERT_TRUE(engine.SealThrough(63).ok());
  ASSERT_TRUE(engine.RefreshPublishedRun(run, &run, nullptr).ok());
  engine.set_memory_tracker(&first);
  EXPECT_EQ(first.category_bytes(kFrozen), engine.FrozenBytes());
  engine.DropFrozenBlocks();
  EXPECT_EQ(first.category_bytes(kFrozen), 0);
}

}  // namespace
}  // namespace regcube
