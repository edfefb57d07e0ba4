// ShardedStreamEngine contract tests: shard-count invariance (results for
// N in {1, 2, 8} shards are identical on the same stream — not merely
// close) and deterministic concurrent ingest. Comparators and the shared
// engine defaults come from the equivalence harness
// (tests/equivalence_harness.h); shard invariance is a determinism claim,
// so every comparison is bitwise.

#include "regcube/core/sharded_engine.h"

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/gen/stream_generator.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectCubesIdentical;
using equivalence::ExpectGatherMatchesReference;
using equivalence::PairedStream;

WorkloadSpec ShardSpec(std::int64_t tuples = 60, std::int64_t ticks = 32) {
  return ChurnWorkload(tuples, ticks, /*seed=*/17, /*fanout=*/3);
}

StreamCubeEngine::Options ShardOptions(double threshold = 0.02) {
  return ChurnEngineOptions(threshold);
}

/// Builds an N-shard engine over the generated stream, sealed. (The
/// engine holds mutexes and atomics, so it lives on the heap.)
std::unique_ptr<ShardedStreamEngine> MakeSealed(const WorkloadSpec& spec,
                                                int shards) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  auto engine =
      std::make_unique<ShardedStreamEngine>(*schema, ShardOptions(), shards);
  StreamGenerator gen(spec);
  EXPECT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  EXPECT_TRUE(engine->SealThrough(spec.series_length - 1).ok());
  return engine;
}

TEST(ShardedEngineTest, CubeIdenticalAcrossShardCounts) {
  WorkloadSpec spec = ShardSpec();
  auto reference = MakeSealed(spec, 1);
  auto ref_cube = reference->ComputeCube(0, 8);
  ASSERT_TRUE(ref_cube.ok()) << ref_cube.status().ToString();

  for (int shards : {2, 8}) {
    auto engine = MakeSealed(spec, shards);
    EXPECT_EQ(engine->num_shards(), shards);
    EXPECT_EQ(engine->num_cells(), reference->num_cells());
    auto cube = engine->ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();

    ExpectCellMapsIdentical(ref_cube->m_layer(), cube->m_layer());
    ExpectCellMapsIdentical(ref_cube->o_layer(), cube->o_layer());
    EXPECT_EQ(ref_cube->exceptions().total_cells(),
              cube->exceptions().total_cells());
    for (CuboidId c : ref_cube->exceptions().Cuboids()) {
      const CellMap* expected = ref_cube->exceptions().CellsOf(c);
      const CellMap* actual = cube->exceptions().CellsOf(c);
      ASSERT_NE(actual, nullptr) << "cuboid " << c;
      ExpectCellMapsIdentical(*expected, *actual);
    }
  }
}

TEST(ShardedEngineTest, QueriesIdenticalAcrossShardCounts) {
  WorkloadSpec spec = ShardSpec();
  auto reference = MakeSealed(spec, 1);
  const CuboidLattice& lattice = reference->lattice();

  auto ref_window = reference->SnapshotWindow(0, 8);
  ASSERT_TRUE(ref_window.ok());
  auto ref_deck = reference->ObservationDeck(1);
  ASSERT_TRUE(ref_deck.ok());
  auto ref_changes = reference->DetectTrendChanges(0, 0.02);
  ASSERT_TRUE(ref_changes.ok());

  StreamGenerator gen(spec);
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  auto ref_cell = reference->QueryCell(lattice.o_layer_id(), o_key, 0, 8);
  ASSERT_TRUE(ref_cell.ok());
  auto ref_series = reference->QueryCellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(ref_series.ok());

  for (int shards : {2, 8}) {
    auto engine = MakeSealed(spec, shards);

    auto window = engine->SnapshotWindow(0, 8);
    ASSERT_TRUE(window.ok());
    ASSERT_EQ(window->size(), ref_window->size());
    for (size_t i = 0; i < window->size(); ++i) {
      EXPECT_EQ((*ref_window)[i].key, (*window)[i].key);
      EXPECT_EQ((*ref_window)[i].measure, (*window)[i].measure);
    }

    auto cell = engine->QueryCell(lattice.o_layer_id(), o_key, 0, 8);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(*ref_cell, *cell);

    auto series = engine->QueryCellSeries(lattice.o_layer_id(), o_key, 1);
    ASSERT_TRUE(series.ok());
    EXPECT_EQ(*ref_series, *series);

    auto deck = engine->ObservationDeck(1);
    ASSERT_TRUE(deck.ok());
    ASSERT_EQ(deck->size(), ref_deck->size());
    for (const auto& [key, expected] : *ref_deck) {
      auto it = deck->find(key);
      ASSERT_NE(it, deck->end());
      EXPECT_EQ(expected, it->second);
    }

    auto changes = engine->DetectTrendChanges(0, 0.02);
    ASSERT_TRUE(changes.ok());
    ASSERT_EQ(changes->size(), ref_changes->size());
    for (size_t i = 0; i < changes->size(); ++i) {
      EXPECT_EQ((*ref_changes)[i].key, (*changes)[i].key);
      EXPECT_EQ((*ref_changes)[i].previous, (*changes)[i].previous);
      EXPECT_EQ((*ref_changes)[i].current, (*changes)[i].current);
    }
  }
}

TEST(ShardedEngineTest, MatchesReferenceBitwiseAtEveryShardCount) {
  // Against the replay reference the contract is bitwise too: both window
  // the cells in canonical key order, so the reduction order is the same.
  WorkloadSpec spec = ShardSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ReferenceStream reference(*schema, ShardOptions());
  StreamGenerator gen(spec);
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  auto expected = reference.Cube(0, 8);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(shards);
    auto sharded = MakeSealed(spec, shards);
    auto cube = sharded->ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*expected, *cube);
  }
}

TEST(ShardedEngineTest, ConcurrentIngestIsDeterministicAfterSeal) {
  WorkloadSpec spec = ShardSpec(/*tuples=*/80, /*ticks=*/32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  // Serial reference.
  ShardedStreamEngine serial(*schema, ShardOptions(), 8);
  ASSERT_TRUE(serial.IngestBatch(stream).ok());
  ASSERT_TRUE(serial.SealThrough(spec.series_length - 1).ok());
  auto serial_cube = serial.ComputeCube(0, 8);
  ASSERT_TRUE(serial_cube.ok());

  // 4 writer threads, each owning a disjoint slice of the cells (so
  // per-cell tick order is preserved within its writer).
  constexpr int kThreads = 4;
  std::vector<std::vector<StreamTuple>> slices(kThreads);
  for (const StreamTuple& t : stream) {
    slices[t.key.Hash() % kThreads].push_back(t);
  }

  for (int round = 0; round < 3; ++round) {
    ShardedStreamEngine concurrent(*schema, ShardOptions(), 8);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      writers.emplace_back([&concurrent, &slices, i] {
        ASSERT_TRUE(concurrent.IngestBatch(slices[static_cast<size_t>(i)]).ok());
      });
    }
    for (std::thread& w : writers) w.join();
    ASSERT_TRUE(concurrent.SealThrough(spec.series_length - 1).ok());
    EXPECT_EQ(concurrent.num_cells(), serial.num_cells());

    auto cube = concurrent.ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCellMapsIdentical(serial_cube->m_layer(), cube->m_layer());
    ExpectCellMapsIdentical(serial_cube->o_layer(), cube->o_layer());
    EXPECT_EQ(serial_cube->exceptions().total_cells(),
              cube->exceptions().total_cells());
  }
}

TEST(ShardedEngineTest, ConcurrentSingleTupleIngestAlsoDeterministic) {
  // Same claim with per-tuple Ingest (finer lock churn than IngestBatch).
  WorkloadSpec spec = ShardSpec(/*tuples=*/40, /*ticks=*/16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  ShardedStreamEngine serial(*schema, ShardOptions(), 4);
  ASSERT_TRUE(serial.IngestBatch(stream).ok());
  ASSERT_TRUE(serial.SealThrough(spec.series_length - 1).ok());
  auto serial_window = serial.SnapshotWindow(0, 4);
  ASSERT_TRUE(serial_window.ok());

  constexpr int kThreads = 4;
  ShardedStreamEngine concurrent(*schema, ShardOptions(), 4);
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&concurrent, &stream, i] {
      for (const StreamTuple& t : stream) {
        if (t.key.Hash() % kThreads != static_cast<std::uint64_t>(i)) continue;
        ASSERT_TRUE(concurrent.Ingest(t).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(concurrent.SealThrough(spec.series_length - 1).ok());

  auto window = concurrent.SnapshotWindow(0, 4);
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->size(), serial_window->size());
  for (size_t i = 0; i < window->size(); ++i) {
    EXPECT_EQ((*serial_window)[i].key, (*window)[i].key);
    EXPECT_EQ((*serial_window)[i].measure, (*window)[i].measure);
  }
}

TEST(ShardedEngineTest, ErrorsSurfaceCleanly) {
  WorkloadSpec spec = ShardSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, ShardOptions(), 4);

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
  // Bad tilt level and bad cuboid id.
  EXPECT_EQ(engine.ObservationDeck(99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryCell(-1, k, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, LaggingShardAlignsToGlobalClock) {
  // One cell races ahead in time on its shard; a query about a cell on a
  // lagging shard must still see slot structures aligned to the global
  // clock (backfilled with zeros), exactly like the single engine.
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
    if (t < 8) {
      ASSERT_TRUE(engine.Ingest({behind, t, 3.0}).ok());
    }
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto window = engine.SnapshotWindow(0, 8);  // full 32 ticks
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), 2u);
  for (const MLayerTuple& t : *window) {
    EXPECT_EQ(t.measure.interval.tb, 0);
    EXPECT_EQ(t.measure.interval.te, 31);
    if (t.key == behind) {
      EXPECT_NEAR(t.measure.SeriesSum(), 8 * 3.0, 1e-9);
    }
  }
}

TEST(ShardedEngineTest, PartiallyFailedBatchMovesTheClockOverWhatLanded) {
  // Shards are fed in index order, and an earlier shard keeps what it
  // absorbed when a later one refuses a tuple: the clock must follow the
  // tuples that landed, not wait for a gather or a seal to catch up.
  WorkloadSpec spec = ShardSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  // No key mapper: a key's shard is its hash modulo the shard count, so
  // `a` lands on shard 0 and `b` on shard 1.
  CellKey a, b;
  bool found_a = false, found_b = false;
  for (const auto& cell : gen.cells()) {
    if (cell.key.Hash() % 2 == 0 && !found_a) {
      a = cell.key;
      found_a = true;
    } else if (cell.key.Hash() % 2 == 1 && !found_b) {
      b = cell.key;
      found_b = true;
    }
  }
  ASSERT_TRUE(found_a && found_b);

  ShardedStreamEngine engine(*schema, ShardOptions(), 2);
  ReferenceStream reference(*schema, ShardOptions());
  PairedStream paired{engine, reference};
  ASSERT_TRUE(paired.Ingest({b, 5, 1.0}).ok());
  const IngestReport report = paired.IngestBatch({{a, 10, 2.0}, {b, 3, 3.0}});
  EXPECT_EQ(report.status.code(), StatusCode::kOutOfRange)
      << report.status.ToString();
  EXPECT_EQ(report.absorbed, 1);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.now(), reference.clock());
  ExpectGatherMatchesReference(engine.GatherAlignedCells(), reference);
  EXPECT_EQ(engine.now(), 10);
}

// ------------------------------------------------------------- late data

/// One late-data case: `setup` writes and seals through a PairedStream,
/// then `late` is offered. The engine's verdict must equal the replay
/// reference's at every shard count, with and without a 1-byte budget
/// (which spills every resident cell), and the stored data must match too.
struct LateTickCase {
  std::function<void(PairedStream&, ShardedStreamEngine&)> setup;
  std::function<StreamTuple()> late;
};

void ExpectLateTickRefused(const std::string& name, const LateTickCase& c,
                           int num_shards, bool budgeted) {
  SCOPED_TRACE(name + ", " + std::to_string(num_shards) + " shards" +
               (budgeted ? ", budget 1 byte" : ""));
  WorkloadSpec spec = ShardSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, ShardOptions(), num_shards);
  if (budgeted) {
    MemoryBudgetConfig config;
    config.budget_bytes = 1;
    config.spill_dir = ::testing::TempDir() + "/late_tick_" + name + "_" +
                       std::to_string(num_shards);
    ASSERT_TRUE(engine.ConfigureStorage(config).ok());
  }
  ReferenceStream reference(*schema, ShardOptions());
  PairedStream paired{engine, reference};
  c.setup(paired, engine);
  if (budgeted) {
    // Every cell went cold: the late write must fault one in.
    ASSERT_EQ(engine.SpillStats().spilled_cells, engine.num_cells());
  }
  const Status verdict = paired.Ingest(c.late());
  EXPECT_EQ(verdict.code(), StatusCode::kOutOfRange) << verdict.ToString();
  ExpectGatherMatchesReference(engine.GatherAlignedCells(), reference);
}

TEST(LateTickTest, RefusedAlikeAtEveryShardCountAndResidency) {
  StreamGenerator gen(ShardSpec());
  const CellKey a = gen.cells()[0].key;
  const CellKey b = gen.cells()[1].key;
  // Cells at ticks 10 and 3, then SealThrough(5): the seal drives every
  // frame to the clock (tick 10), so tick 4 is late for the second cell
  // wherever it hashes.
  const LateTickCase behind_the_clock{
      [&](PairedStream& paired, ShardedStreamEngine& engine) {
        ASSERT_TRUE(paired.Ingest({a, 10, 1.0}).ok());
        ASSERT_TRUE(paired.Ingest({b, 3, 2.0}).ok());
        (void)engine.GatherAlignedCells();
        ASSERT_TRUE(paired.SealThrough(5).ok());
      },
      [&] { return StreamTuple{b, 4, 1.0}; }};
  // Two cells at tick 3, a gather, SealThrough(10), then tick 5: late for
  // a resident frame and for a spilled one alike.
  const LateTickCase behind_the_seal{
      [&](PairedStream& paired, ShardedStreamEngine& engine) {
        ASSERT_TRUE(paired.Ingest({a, 3, 1.0}).ok());
        ASSERT_TRUE(paired.Ingest({b, 3, 2.0}).ok());
        (void)engine.GatherAlignedCells();
        ASSERT_TRUE(paired.SealThrough(10).ok());
      },
      [&] { return StreamTuple{b, 5, 1.0}; }};
  for (bool budgeted : {false, true}) {
    for (int shards : {1, 2, 4, 8}) {
      ExpectLateTickRefused("behind_the_clock", behind_the_clock, shards,
                            budgeted);
      ExpectLateTickRefused("behind_the_seal", behind_the_seal, shards,
                            budgeted);
    }
  }
}

TEST(LateTickTest, FaultedInCellAcceptsTicksFromTheWatermarkOn) {
  // The fault-in advance goes exactly to the sealed watermark: the first
  // tick at or past it is accepted, and the cell's data matches the
  // reference afterwards.
  WorkloadSpec spec = ShardSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const CellKey a = gen.cells()[0].key;
  const CellKey b = gen.cells()[1].key;
  ShardedStreamEngine engine(*schema, ShardOptions(), 2);
  MemoryBudgetConfig config;
  config.budget_bytes = 1;
  config.spill_dir = ::testing::TempDir() + "/late_tick_watermark";
  ASSERT_TRUE(engine.ConfigureStorage(config).ok());
  ReferenceStream reference(*schema, ShardOptions());
  PairedStream paired{engine, reference};
  ASSERT_TRUE(paired.Ingest({a, 3, 1.0}).ok());
  ASSERT_TRUE(paired.Ingest({b, 3, 2.0}).ok());
  (void)engine.GatherAlignedCells();
  ASSERT_TRUE(paired.SealThrough(10).ok());
  ASSERT_EQ(engine.SpillStats().spilled_cells, 2);
  EXPECT_EQ(paired.Ingest({b, 10, 1.0}).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(paired.Ingest({b, 11, 1.0}).ok());
  EXPECT_TRUE(paired.Ingest({a, 12, 4.0}).ok());
  ExpectGatherMatchesReference(engine.GatherAlignedCells(), reference);
}

}  // namespace
}  // namespace regcube
