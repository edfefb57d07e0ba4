// O(changed-cells) gather contracts: the delta gather (frozen blocks shared
// for clean cells, dirty cells patched into each shard's publication) must
// stay bit-identical to the replay reference — its run and its
// from-scratch cube — under randomized ingest interleaved with snapshots,
// for shard counts {1, 2, 8}; seals that change nothing must not move the
// revision; point queries routed through the member-only gather must match
// the reference and keep the error contract; concurrent churn + TakeSnapshot
// must be race-free (this test runs in the TSan CI job); and the frozen /
// gather-cache bytes must show up in the facade's memory tracker and move
// with the sharded engine's tracker.
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCubesIdentical;
using equivalence::ExpectGatherMatchesReference;
using equivalence::Key2;
using equivalence::PairedStream;
using equivalence::ScratchCube;
using equivalence::SmallTiltPolicy;
using equivalence::UnusedMLayerKey;

WorkloadSpec ChurnSpec(std::int64_t tuples = 120, std::int64_t ticks = 16) {
  return ChurnWorkload(tuples, ticks, /*seed=*/23);
}

// ------------------------------------------------------------ equivalence

TEST(DeltaGatherTest, MatchesReferenceUnderRandomizedChurn) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  // Churn rounds with advancing ticks: some cross quarter/hour unit
  // boundaries (forcing re-alignment of carried blocks), some stay inside
  // the open unit (exercising boundary-free block sharing); a snapshot is
  // taken and checked every round, and periodic seals and a brand-new
  // mid-churn cell stress the patch/insert paths.
  equivalence::ChurnPlan plan;
  plan.rounds = 10;
  plan.seed = 23;
  plan.base_tick = spec.series_length;
  plan.advance_ticks = true;
  plan.seal_every = 3;
  plan.fresh_round = 4;
  plan.fresh_key = Key2(15, 15);

  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards, pool);
    ReferenceStream reference(*schema, ChurnEngineOptions());
    PairedStream paired{engine, reference};
    ASSERT_TRUE(paired.IngestBatch(stream).ok());
    ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());

    equivalence::RunChurnRounds(paired, gen.cells(), plan, [&](int) {
      ExpectGatherMatchesReference(engine.GatherAlignedCells(), reference);
    });

    // End-state: the cube over the delta-gathered window matches
    // from-scratch cubing over the reference bit for bit.
    auto snapshot_cube = engine.ComputeCube(0, 4);
    ASSERT_TRUE(snapshot_cube.ok()) << snapshot_cube.status().ToString();
    ExpectCubesIdentical(ScratchCube(reference, 0, 4), *snapshot_cube);
  }
}

TEST(DeltaGatherTest, DeltaGatherCopiesOnlyDirtyCells) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto warm = engine.GatherAlignedCells();
  EXPECT_EQ(warm.stats.materialized, engine.num_cells());

  // Clean repeat: pure cache reuse, nothing copied.
  auto clean = engine.GatherAlignedCells();
  EXPECT_EQ(clean.stats.materialized, 0);
  EXPECT_EQ(clean.stats.bytes_copied, 0);
  EXPECT_EQ(clean.stats.shards_reused, 4);

  // One dirty cell at the open tick: exactly one frame is re-frozen.
  ASSERT_TRUE(
      engine.Ingest({gen.cells()[0].key, spec.series_length, 5.0}).ok());
  auto delta = engine.GatherAlignedCells();
  EXPECT_EQ(delta.stats.materialized, 1);
  EXPECT_GT(delta.stats.bytes_copied, 0);
  EXPECT_LT(delta.stats.bytes_copied, warm.stats.bytes_copied);
}

// ------------------------------------------------------ revision hygiene

TEST(DeltaGatherTest, NoOpSealKeepsRevisionAndMemoizedSnapshot) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto snap = engine.TakeSnapshot();
  // Re-sealing through the same (or an earlier) tick changes nothing any
  // read can see: the memoized snapshot must survive.
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 5).ok());
  EXPECT_EQ(engine.TakeSnapshot().get(), snap.get())
      << "no-op seal invalidated the revision-memoized snapshot";

  // Sealing into the open quarter advances the clock but crosses no unit
  // boundary: the snapshot refreshes (its now() must report the new
  // clock) yet every frozen block is shared — nothing is re-copied and
  // the query results are unchanged.
  auto window_before = snap->Window(0, 4);
  ASSERT_TRUE(window_before.ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length).ok());
  auto advanced = engine.TakeSnapshot();
  EXPECT_NE(advanced.get(), snap.get());
  EXPECT_EQ(advanced->now(), spec.series_length + 1);
  auto window_after = advanced->Window(0, 4);
  ASSERT_TRUE(window_after.ok());
  ASSERT_EQ(window_before->size(), window_after->size());
  for (size_t i = 0; i < window_after->size(); ++i) {
    EXPECT_EQ((*window_before)[i].key, (*window_after)[i].key);
    EXPECT_EQ((*window_before)[i].measure, (*window_after)[i].measure);
  }

  // Sealing across a quarter boundary seals a slot: a real refresh.
  ASSERT_TRUE(engine.SealThrough(spec.series_length + 4).ok());
  auto fresh = engine.TakeSnapshot();
  EXPECT_NE(fresh.get(), advanced.get());
  EXPECT_GT(fresh->revision(), snap->revision());
}

// ------------------------------------------------------ point-query path

TEST(DeltaGatherTest, MemberOnlyPointQueriesMatchReference) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ReferenceStream reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int shards : {1, 2, 8}) {
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards);
    ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    const CuboidLattice& lattice = engine.lattice();
    const CuboidId o_id = lattice.o_layer_id();
    const CellKey o_key =
        lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

    auto expected_cell = reference.Cell(o_id, o_key, 0, 4);
    auto member_cell = engine.QueryCell(o_id, o_key, 0, 4);
    ASSERT_TRUE(expected_cell.ok());
    ASSERT_TRUE(member_cell.ok()) << member_cell.status().ToString();
    EXPECT_EQ(*expected_cell, *member_cell);

    auto expected_series = reference.CellSeries(o_id, o_key, 1);
    auto member_series = engine.QueryCellSeries(o_id, o_key, 1);
    ASSERT_TRUE(expected_series.ok());
    ASSERT_TRUE(member_series.ok());
    EXPECT_EQ(*expected_series, *member_series);
  }
}

TEST(DeltaGatherTest, FacadePointQueriesSkipFullSnapshots) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

  // Same numbers through Engine::Query (member-only) and the snapshot.
  auto snap = engine.TakeSnapshot();
  auto via_query = engine.Query(QuerySpec::Cell(o_id, o_key, 0, 4));
  auto via_snapshot = snap->QueryCell(o_id, o_key, 0, 4);
  ASSERT_TRUE(via_query.ok()) << via_query.status().ToString();
  ASSERT_TRUE(via_snapshot.ok());
  EXPECT_EQ(via_query->cell(), *via_snapshot);

  auto series_query = engine.Query(QuerySpec::CellSeries(o_id, o_key, 1));
  auto series_snapshot = snap->QueryCellSeries(o_id, o_key, 1);
  ASSERT_TRUE(series_query.ok());
  ASSERT_TRUE(series_snapshot.ok());
  EXPECT_EQ(series_query->series(), *series_snapshot);
}

TEST(DeltaGatherTest, MemberOnlyPointQueriesKeepErrorContract) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine empty(*schema, ChurnEngineOptions(), 4);

  // Cuboid validation precedes the no-data check.
  EXPECT_EQ(empty.QueryCell(-1, CellKey(2), 0, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.QueryCell(0, CellKey(2), 0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.QueryCellSeries(-1, CellKey(2), 0).status().code(),
            StatusCode::kInvalidArgument);

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  // An m-layer key no stream cell uses (valid ids, absent combination):
  // NotFound, as before.
  const CellKey missing = UnusedMLayerKey(gen);
  EXPECT_EQ(engine.QueryCell(engine.lattice().m_layer_id(), missing, 0, 4)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------- concurrency (TSan'd)

TEST(DeltaGatherTest, ConcurrentChurnAndSnapshotLoop) {
  WorkloadSpec spec = ChurnSpec(/*tuples=*/80, /*ticks=*/16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(8)
                   .SetReadThreads(3)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(cells[0].key, o_id);

  // Writers churn disjoint cell slices at advancing ticks while readers
  // take snapshots and run point queries — the full delta machinery
  // (patch exports, cached-run folding, member gathers) under real races.
  constexpr int kWriters = 3;
  constexpr int kRoundsPerWriter = 40;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        const TimeTick tick = spec.series_length + round;
        for (size_t c = static_cast<size_t>(w); c < cells.size();
             c += kWriters) {
          ASSERT_TRUE(engine.Ingest({cells[c].key, tick, 2.0}).ok());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_revision = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.TakeSnapshot();
        ASSERT_GE(snap->revision(), last_revision)
            << "snapshot revisions must be monotone";
        last_revision = snap->revision();
        auto window = snap->Window(0, 2);
        ASSERT_TRUE(window.ok()) << window.status().ToString();
        auto cell = engine.Query(QuerySpec::Cell(o_id, o_key, 0, 2));
        ASSERT_TRUE(cell.ok()) << cell.status().ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced end state: every writer's rounds landed, exactly as a serial
  // replay of the same writes defines them.
  ReferenceStream reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int round = 0; round < kRoundsPerWriter; ++round) {
    for (const auto& cell : cells) {
      ASSERT_TRUE(
          reference.Ingest({cell.key, spec.series_length + round, 2.0}).ok());
    }
  }
  auto snap = engine.TakeSnapshot();
  auto final_window = snap->Window(0, 2);
  ASSERT_TRUE(final_window.ok());
  auto expected_window = SnapshotWindowOf(reference.Run(), 0, 2);
  ASSERT_TRUE(expected_window.ok());
  ASSERT_EQ(final_window->size(), expected_window->size());
  for (size_t i = 0; i < final_window->size(); ++i) {
    EXPECT_EQ((*expected_window)[i].key, (*final_window)[i].key);
    EXPECT_EQ((*expected_window)[i].measure, (*final_window)[i].measure);
  }
}

// ------------------------------------------------------ memory accounting

TEST(DeltaGatherTest, FrozenAndGatherBytesAreTracked) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  EXPECT_EQ(engine.memory_tracker().category_bytes("snapshot.frozen_frames"),
            0)
      << "nothing frozen before the first snapshot";
  auto snap = engine.TakeSnapshot();
  const std::int64_t frozen =
      engine.memory_tracker().category_bytes("snapshot.frozen_frames");
  const std::int64_t cached =
      engine.memory_tracker().category_bytes("snapshot.gather_cache");
  EXPECT_GT(frozen, 0);
  EXPECT_GT(cached, 0);

  // Churn + re-snapshot: accounting stays balanced (Release would abort on
  // underflow) and the totals stay in the same ballpark, not accumulating.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        engine.Ingest({gen.cells()[0].key, spec.series_length + round, 1.0})
            .ok());
    snap = engine.TakeSnapshot();
  }
  EXPECT_GT(engine.memory_tracker().category_bytes("snapshot.frozen_frames"),
            0);
  EXPECT_LE(engine.memory_tracker().category_bytes("snapshot.frozen_frames"),
            2 * frozen);
  EXPECT_LE(engine.memory_tracker().category_bytes("snapshot.gather_cache"),
            2 * cached);

  // MemoryReport carries the live frames alongside the other categories
  // (all tracker-maintained now; no synthesized entries).
  auto report = engine.MemoryReport();
  ASSERT_FALSE(report.empty());
  std::int64_t tilt_bytes = -1;
  for (const auto& entry : report) {
    if (entry.first == "stream.tilt_frames") tilt_bytes = entry.second;
  }
  EXPECT_GT(tilt_bytes, 0);
  EXPECT_EQ(tilt_bytes, engine.MemoryBytes());
}

TEST(DeltaGatherTest, PublicationBytesFollowTheTracker) {
  // The shard publications are the only per-shard runs, registered under
  // "snapshot.gather_cache" by the sharded engine itself. Moving trackers
  // hands those bytes over; a detached tracker drops back to zero.
  constexpr char kRuns[] = "snapshot.gather_cache";
  constexpr char kFrozen[] = "snapshot.frozen_frames";
  const auto run_bytes = [](std::int64_t cells) {
    return cells * static_cast<std::int64_t>(sizeof(CellSnapshot));
  };
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  MemoryTracker a;
  MemoryTracker b;
  engine.set_memory_tracker(&a);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  EXPECT_EQ(a.category_bytes(kRuns), 0) << "nothing published yet";

  ASSERT_TRUE(engine.GatherAlignedCells().status.ok());  // publishes
  EXPECT_EQ(a.category_bytes(kRuns), run_bytes(engine.num_cells()));
  EXPECT_EQ(a.category_bytes(kFrozen), engine.FrozenBytes());

  engine.set_memory_tracker(&b);
  EXPECT_EQ(a.category_bytes(kRuns), 0);
  EXPECT_EQ(a.category_bytes(kFrozen), 0);
  EXPECT_EQ(b.category_bytes(kRuns), run_bytes(engine.num_cells()));

  engine.set_memory_tracker(nullptr);
  EXPECT_EQ(b.category_bytes(kRuns), 0);
  EXPECT_EQ(b.current_bytes(), 0);

  // A publish while detached (one new cell) is registered in full on
  // re-attach.
  ASSERT_TRUE(
      engine.Ingest({UnusedMLayerKey(gen), spec.series_length, 1.0}).ok());
  ASSERT_TRUE(engine.GatherAlignedCells().status.ok());
  engine.set_memory_tracker(&a);
  EXPECT_EQ(a.category_bytes(kRuns), run_bytes(engine.num_cells()));
  EXPECT_EQ(a.category_bytes(kFrozen), engine.FrozenBytes());
  EXPECT_EQ(b.current_bytes(), 0);
}

}  // namespace
}  // namespace regcube
