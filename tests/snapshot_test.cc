// CubeSnapshot contract tests: a held snapshot is immune to concurrent
// writers, snapshot results are bit-identical to the replay reference for
// shard counts {1, 2, 8}, the facade memoizes snapshots by
// revision, and IngestBatch reports the absorbed prefix on failure.

#include "regcube/api/regcube.h"

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "reference_stream.h"
#include "test_util.h"

namespace regcube {
namespace {

std::shared_ptr<const TiltPolicy> SmallPolicy() {
  // quarter = 4 ticks, hour = 16 ticks.
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

WorkloadSpec SnapSpec(std::int64_t tuples = 60, std::int64_t ticks = 32) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = 17;
  return spec;
}

StreamCubeEngine::Options ShardOptions(double threshold = 0.02) {
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(threshold);
  return options;
}

/// Facade engine over the generated stream, sealed.
Engine MakeSealedEngine(const WorkloadSpec& spec, int shards,
                        int read_threads = 0) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallPolicy())
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(shards)
                   .SetReadThreads(read_threads)
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  EXPECT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  EXPECT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  return engine;
}

/// Exact (bitwise) equality of two cell maps — snapshot identity is a
/// determinism claim, so no tolerance.
void ExpectCellMapsIdentical(const CellMap& expected, const CellMap& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [key, isb] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "missing cell " << key.ToString();
    EXPECT_EQ(isb, it->second) << "cell " << key.ToString();
  }
}

void ExpectCubesIdentical(const RegressionCube& expected,
                          const RegressionCube& actual) {
  ExpectCellMapsIdentical(expected.m_layer(), actual.m_layer());
  ExpectCellMapsIdentical(expected.o_layer(), actual.o_layer());
  ASSERT_EQ(expected.exceptions().total_cells(),
            actual.exceptions().total_cells());
  for (CuboidId c : expected.exceptions().Cuboids()) {
    const CellMap* want = expected.exceptions().CellsOf(c);
    const CellMap* got = actual.exceptions().CellsOf(c);
    ASSERT_NE(got, nullptr) << "cuboid " << c;
    ExpectCellMapsIdentical(*want, *got);
  }
}

// ------------------------------------------------- bit-identity contracts

TEST(SnapshotTest, ResultsIdenticalAcrossShardCounts) {
  WorkloadSpec spec = SnapSpec();
  Engine reference = MakeSealedEngine(spec, 1);
  auto ref_snap = reference.TakeSnapshot();
  auto ref_window = ref_snap->Window(0, 8);
  ASSERT_TRUE(ref_window.ok()) << ref_window.status().ToString();
  auto ref_deck = ref_snap->ObservationDeck(1);
  ASSERT_TRUE(ref_deck.ok());
  auto ref_changes = ref_snap->DetectTrendChanges(0, 0.02);
  ASSERT_TRUE(ref_changes.ok());
  auto ref_cube = ref_snap->ComputeCube(0, 8);
  ASSERT_TRUE(ref_cube.ok());

  const CuboidLattice& lattice = reference.lattice();
  StreamGenerator gen(spec);
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  auto ref_cell = ref_snap->QueryCell(lattice.o_layer_id(), o_key, 0, 8);
  ASSERT_TRUE(ref_cell.ok());
  auto ref_series = ref_snap->QueryCellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(ref_series.ok());

  for (int shards : {2, 8}) {
    Engine engine = MakeSealedEngine(spec, shards);
    auto snap = engine.TakeSnapshot();
    EXPECT_EQ(snap->num_cells(), ref_snap->num_cells());

    auto window = snap->Window(0, 8);
    ASSERT_TRUE(window.ok());
    ASSERT_EQ(window->size(), ref_window->size());
    for (size_t i = 0; i < window->size(); ++i) {
      EXPECT_EQ((*ref_window)[i].key, (*window)[i].key);
      EXPECT_EQ((*ref_window)[i].measure, (*window)[i].measure);
    }

    auto deck = snap->ObservationDeck(1);
    ASSERT_TRUE(deck.ok());
    EXPECT_EQ(*ref_deck, *deck);

    auto changes = snap->DetectTrendChanges(0, 0.02);
    ASSERT_TRUE(changes.ok());
    ASSERT_EQ(changes->size(), ref_changes->size());
    for (size_t i = 0; i < changes->size(); ++i) {
      EXPECT_EQ((*ref_changes)[i].key, (*changes)[i].key);
      EXPECT_EQ((*ref_changes)[i].previous, (*changes)[i].previous);
      EXPECT_EQ((*ref_changes)[i].current, (*changes)[i].current);
    }

    auto cell = snap->QueryCell(lattice.o_layer_id(), o_key, 0, 8);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(*ref_cell, *cell);
    auto series = snap->QueryCellSeries(lattice.o_layer_id(), o_key, 1);
    ASSERT_TRUE(series.ok());
    EXPECT_EQ(*ref_series, *series);

    auto cube = snap->ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok());
    ExpectCubesIdentical(*ref_cube, *cube);
  }
}

TEST(SnapshotTest, MatchesReferenceAcrossShardCounts) {
  // The snapshot path must reproduce from-scratch cubing over a replay of
  // the same stream bit for bit, for every shard count.
  WorkloadSpec spec = SnapSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  ReferenceStream reference(*schema, ShardOptions());
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  auto expected = reference.Cube(0, 8);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, ShardOptions(), shards, pool);
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    auto snapshot = engine.ComputeCube(0, 8);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ExpectCubesIdentical(*expected, *snapshot);
  }
}

TEST(SnapshotTest, ReadThreadCountDoesNotChangeResults) {
  WorkloadSpec spec = SnapSpec();
  Engine serial = MakeSealedEngine(spec, 4, /*read_threads=*/1);
  Engine pooled = MakeSealedEngine(spec, 4, /*read_threads=*/3);
  auto serial_cube = serial.ComputeCube(0, 8);
  auto pooled_cube = pooled.ComputeCube(0, 8);
  ASSERT_TRUE(serial_cube.ok());
  ASSERT_TRUE(pooled_cube.ok());
  ExpectCubesIdentical(*serial_cube, *pooled_cube);

  auto serial_deck = serial.TakeSnapshot()->ObservationDeck(1);
  auto pooled_deck = pooled.TakeSnapshot()->ObservationDeck(1);
  ASSERT_TRUE(serial_deck.ok());
  ASSERT_TRUE(pooled_deck.ok());
  EXPECT_EQ(*serial_deck, *pooled_deck);
}

TEST(SnapshotTest, ParallelCubingMatchesSerial) {
  // The cuboid-partitioned H-cubing entry point is a pure parallelization:
  // same cells, same exceptions, with or without a pool.
  auto workload = testing_util::MakeSmallWorkload(3, 2, 4, 120);
  MoCubingOptions serial_options;
  serial_options.policy = ExceptionPolicy(0.05);
  auto serial = ComputeMoCubing(workload.schema, workload.tuples,
                                serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(3);
  MoCubingOptions pooled_options;
  pooled_options.policy = ExceptionPolicy(0.05);
  pooled_options.pool = &pool;
  auto pooled = ComputeMoCubing(workload.schema, workload.tuples,
                                pooled_options);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectCubesIdentical(*serial, *pooled);
  EXPECT_EQ(serial->stats().cells_computed, pooled->stats().cells_computed);
  EXPECT_EQ(serial->stats().exception_cells,
            pooled->stats().exception_cells);
}

// --------------------------------------------------- snapshot isolation

TEST(SnapshotTest, HeldSnapshotImmuneToConcurrentWriters) {
  WorkloadSpec spec = SnapSpec(/*tuples=*/80, /*ticks=*/32);
  Engine engine = MakeSealedEngine(spec, 8);
  auto snap = engine.TakeSnapshot();

  // Reference answers captured before any mutation.
  auto window_before = snap->Window(0, 8);
  ASSERT_TRUE(window_before.ok());
  auto deck_before = snap->ObservationDeck(1);
  ASSERT_TRUE(deck_before.ok());
  auto cube_before = snap->ComputeCube(0, 8);
  ASSERT_TRUE(cube_before.ok());
  const std::int64_t cells_before = snap->num_cells();

  // 4 writers mutate the engine (later ticks, plus brand-new cells) while
  // the held snapshot is queried concurrently.
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const StreamTuple& t : stream) {
        if (t.key.Hash() % kWriters != static_cast<std::uint64_t>(w)) {
          continue;
        }
        StreamTuple shifted{t.key, t.tick + spec.series_length,
                            t.value * 100.0};
        ASSERT_TRUE(engine.Ingest(shifted).ok());
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    auto window = snap->Window(0, 8);
    ASSERT_TRUE(window.ok());
    ASSERT_EQ(window->size(), window_before->size());
    for (size_t i = 0; i < window->size(); ++i) {
      EXPECT_EQ((*window_before)[i].key, (*window)[i].key);
      EXPECT_EQ((*window_before)[i].measure, (*window)[i].measure);
    }
  }
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(engine.SealThrough(2 * spec.series_length - 1).ok());

  // The held snapshot answers exactly as before the writes...
  EXPECT_EQ(snap->num_cells(), cells_before);
  auto deck_after = snap->ObservationDeck(1);
  ASSERT_TRUE(deck_after.ok());
  EXPECT_EQ(*deck_before, *deck_after);
  auto cube_after = snap->ComputeCube(0, 8);
  ASSERT_TRUE(cube_after.ok());
  ExpectCubesIdentical(*cube_before, *cube_after);

  // ...while a fresh snapshot sees the new state.
  auto fresh = engine.TakeSnapshot();
  EXPECT_GT(fresh->revision(), snap->revision());
  auto fresh_deck = fresh->ObservationDeck(1);
  ASSERT_TRUE(fresh_deck.ok());
  EXPECT_NE(*deck_before, *fresh_deck);
}

TEST(SnapshotTest, SnapshotOutlivesTheEngine) {
  WorkloadSpec spec = SnapSpec();
  std::optional<Engine> engine = MakeSealedEngine(spec, 2);
  auto snap = engine->TakeSnapshot();
  auto expected = snap->Window(0, 8);
  ASSERT_TRUE(expected.ok());
  engine.reset();  // snapshot is self-contained

  auto window = snap->Window(0, 8);
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->size(), expected->size());
  auto top = snap->Query(QuerySpec::TopExceptions(3, 0, 8));
  EXPECT_TRUE(top.ok()) << top.status().ToString();
}

TEST(SnapshotTest, BudgetedSnapshotOfViewsOutlivesCompactionAndTheEngine) {
  // The budgeted twin: under a 1-byte budget every cell is spilled, so the
  // snapshot's cells are views into the spill segments. Compaction then
  // retires the segment they read and the engine's destruction unlinks
  // its successor; the held snapshot must still answer bitwise.
  WorkloadSpec spec = SnapSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();
  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(SmallPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto unbounded = builder.Build();
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(unbounded->IngestBatch(stream).ok());
  ASSERT_TRUE(unbounded->SealThrough(spec.series_length - 1).ok());
  auto want = unbounded->TakeSnapshot();

  const std::string dir = ::testing::TempDir() + "/snapshot_views_outlive";
  auto built = builder.SetMemoryBudget(1)
                   .SetSpillDir(dir)
                   .SetCompactThreshold(0.5)
                   .SetCompactMinBytes(1)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::optional<Engine> engine(std::move(built).value());
  ASSERT_TRUE(engine->IngestBatch(stream).ok());
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());
  ASSERT_EQ(engine->SpillStats().spilled_cells, engine->num_cells());
  auto snap = engine->TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  EXPECT_GT(snap->gather_stats().cold_views, 0);
  EXPECT_EQ(engine->SpillStats().fault_ins, 0);  // reads never fault in

  // Rewrite every cell (each write faults its cell in and strands its old
  // block as garbage), then compact: the snapshot's views read the
  // segment the compaction retires.
  for (const auto& cell : gen.cells()) {
    ASSERT_TRUE(engine->Ingest({cell.key, spec.series_length, 1.0}).ok());
  }
  engine->CompactSegments();
  EXPECT_GT(engine->SpillStats().compactions, 0);
  engine.reset();  // the store unlinks its segments

  for (int level = 0; level < 2; ++level) {
    auto got = snap->Window(level, 2);
    auto expected = want->Window(level, 2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(got->size(), expected->size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].key, (*expected)[i].key);
      EXPECT_EQ((*got)[i].measure, (*expected)[i].measure);
    }
  }
  auto got_cube = snap->ComputeCube(0, 8);
  auto want_cube = want->ComputeCube(0, 8);
  ASSERT_TRUE(got_cube.ok()) << got_cube.status().ToString();
  ASSERT_TRUE(want_cube.ok());
  ExpectCubesIdentical(*want_cube, *got_cube);
}

TEST(SnapshotTest, ReadsNoLongerForceSealLaggingWriters) {
  // Pre-redesign, any read aligned every *live* shard to the global clock,
  // silently sealing lagging cells and bouncing their next ticks. The
  // snapshot path aligns frozen copies only: a lagging writer keeps its
  // place.
  auto h = std::make_shared<FanoutHierarchy>(1, 8);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());
  ShardedStreamEngine engine(schema, ShardOptions(), 4);

  CellKey ahead(1), behind(1);
  ahead.set(0, 0);
  behind.set(0, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({ahead, t, 2.0}).ok());
  }
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Ingest({behind, t, 3.0}).ok());
  }

  // A read that aligns (its own copies) to tick 32...
  auto window = engine.SnapshotWindow(0, 1);
  ASSERT_TRUE(window.ok()) << window.status().ToString();

  // ...must not have sealed the live lagging cell past tick 8.
  EXPECT_TRUE(engine.Ingest({behind, 8, 3.0}).ok());
}

// --------------------------------------------------- facade memoization

TEST(SnapshotTest, SnapshotSharedByRevisionUntilNextWrite) {
  WorkloadSpec spec = SnapSpec();
  Engine engine = MakeSealedEngine(spec, 4);
  auto first = engine.TakeSnapshot();
  auto second = engine.TakeSnapshot();
  EXPECT_EQ(first.get(), second.get()) << "same revision must share";

  CellKey key(2);
  key.set(0, 0);
  key.set(1, 0);
  ASSERT_TRUE(engine.Ingest({key, spec.series_length + 1, 1.0}).ok());
  auto third = engine.TakeSnapshot();
  EXPECT_NE(first.get(), third.get());
  EXPECT_GT(third->revision(), first->revision());
}

TEST(SnapshotTest, EmptyEngineSnapshotFailsCleanly) {
  WorkloadSpec spec = SnapSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallPolicy())
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  auto snap = engine.TakeSnapshot();
  EXPECT_EQ(snap->num_cells(), 0);
  EXPECT_EQ(snap->Window(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(snap->Query(QuerySpec::ObservationDeck(0)).status().code(),
            StatusCode::kFailedPrecondition);
  // Level/cuboid validation still precedes the no-data check where the
  // legacy path did so.
  EXPECT_EQ(snap->QueryCell(-1, CellKey(2), 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, BuilderRejectsBadReadThreads) {
  WorkloadSpec spec = SnapSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto result = EngineBuilder()
                    .SetSchema(*schema)
                    .SetTiltPolicy(SmallPolicy())
                    .SetReadThreads(-2)
                    .Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------- IngestBatch partial failure

TEST(SnapshotTest, IngestBatchReportsAbsorbedPrefix) {
  WorkloadSpec spec = SnapSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  Engine engine = std::move(EngineBuilder()
                                .SetSchema(*schema)
                                .SetTiltPolicy(SmallPolicy())
                                .SetShardCount(1)
                                .Build())
                      .value();

  CellKey key(2);
  key.set(0, 0);
  key.set(1, 0);
  // Third tuple steps backwards for its cell: the batch dies there.
  std::vector<StreamTuple> batch = {
      {key, 5, 1.0}, {key, 6, 1.0}, {key, 3, 1.0}, {key, 7, 1.0}};
  IngestReport report = engine.IngestBatch(batch);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.attempted, 4);
  EXPECT_EQ(report.absorbed, 2);

  // The absorbed prefix is live: the next valid tick continues from it.
  EXPECT_TRUE(engine.Ingest({key, 7, 1.0}).ok());
}

TEST(SnapshotTest, IngestBatchReportsFullAbsorptionOnSuccess) {
  WorkloadSpec spec = SnapSpec();
  Engine engine = MakeSealedEngine(spec, 4);
  CellKey key(2);
  key.set(0, 1);
  key.set(1, 1);
  std::vector<StreamTuple> batch;
  for (TimeTick t = spec.series_length; t < spec.series_length + 8; ++t) {
    batch.push_back({key, t, 2.0});
  }
  IngestReport report = engine.IngestBatch(batch);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.absorbed, report.attempted);
  EXPECT_EQ(report.absorbed, 8);
}

}  // namespace
}  // namespace regcube
