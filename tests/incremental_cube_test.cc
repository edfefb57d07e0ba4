// Incremental cube maintenance contracts: the maintained cube memo
// (IncrementalCubeCache behind ShardedStreamEngine::ComputeCubeShared and
// the facade's cube-side Query kinds) must be bit-identical to from-scratch
// m/o H-cubing over the replay reference's window across shard counts
// {1, 2, 8} under randomized churn; it must survive no-op seals and
// boundary-free alignment without recomputing; churn must invalidate it
// precisely (open-slot churn revalidates, sealed-window churn patches, a
// seal that moves every window rolls the memo in place, structural changes
// — new cells, a different (level, k) — rebuild); cube-side lists must not
// depend on how the memo got there; its bytes must show up in the memory
// tracker under "cube.memo"; the error contract must match the
// from-scratch kernels; and concurrent churn + cube queries must be
// race-free (this test runs in the TSan CI job).
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/core/incremental_cube.h"
#include "regcube/cube/packed_key.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectCubesIdentical;
using equivalence::FreshKeyOutside;
using equivalence::Key2;
using equivalence::PairedStream;
using equivalence::ScratchCube;
using equivalence::SmallTiltPolicy;

WorkloadSpec LagSpec(std::int64_t tuples = 150) {
  // ticks 0..7: quarter [0,4) sealed, [4,8) open.
  return ChurnWorkload(tuples, /*ticks=*/8, /*seed=*/47);
}

StreamCubeEngine::Options LagOptions() { return ChurnEngineOptions(); }

CellKey PacerKey() { return Key2(15, 15); }

/// One tick per level-0 slot (like the §4.5 analyst loop): every seal
/// rolls a level-0 window.
StreamCubeEngine::Options RollOptions() {
  StreamCubeEngine::Options options = ChurnEngineOptions();
  options.tilt_policy =
      MakeUniformTiltPolicy({{"tick", 8}, {"octet", 8}}, {1, 8});
  return options;
}

constexpr int kRollLevel = 0;
constexpr int kRollK = 4;

/// Ingests every cell of `cells` at `tick` as one batch (values a
/// deterministic function of the cell and the tick) into `sink` — an
/// engine or a PairedStream.
template <typename Sink>
void IngestTick(Sink& sink,
                const std::vector<StreamGenerator::CellParams>& cells,
                TimeTick tick) {
  std::vector<StreamTuple> batch;
  batch.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const double z = 0.1 * static_cast<double>((c * 7 + 3 * tick) % 11) +
                     0.05 * static_cast<double>(tick);
    batch.push_back({cells[c].key, tick, z});
  }
  ASSERT_TRUE(sink.IngestBatch(batch).ok());
}

/// Seeds every generated cell with its ticks 0..7, then drives the global
/// clock to 11 through one pacer cell, so [0,4) and [4,8) are sealed from
/// the aligned view while every seeded cell's own frame still sits at tick
/// 7 — late data at tick 7 then lands in the globally sealed slot [4,8),
/// the out-of-order-across-cells shape the patch path exists for.
void SeedLagging(PairedStream& paired, StreamGenerator& gen,
                 TimeTick pacer_tick = 11) {
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.Ingest({PacerKey(), pacer_tick, 1.0}).ok());
}

// ------------------------------------------------------------ equivalence

TEST(IncrementalCubeTest, MaintainedCubeMatchesScratchUnderRandomizedChurn) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  std::vector<CellMap> o_layers;  // cross-shard-count invariance
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    ReferenceStream reference(*schema, LagOptions());
    PairedStream paired{engine, reference};
    StreamGenerator gen(spec);
    SeedLagging(paired, gen);

    // One fixed plan (seeded churn): every shard count sees the identical
    // stream, so the final cubes are comparable across engines. The plan
    // mixes every maintenance verdict: late data into the sealed slot
    // (patch), open-slot data (revalidate), and a brand-new cell
    // (structural rebuild).
    equivalence::ChurnPlan plan;
    plan.rounds = 12;
    plan.seed = 91;
    plan.max_dirty_per_round = 40;
    plan.base_tick = 7;
    plan.open_every = 4;
    plan.open_key = PacerKey();
    plan.open_tick = 11;
    plan.fresh_round = 6;
    plan.fresh_key = FreshKeyOutside(gen, 16);

    equivalence::RunChurnRounds(paired, gen.cells(), plan, [&](int) {
      auto maintained = engine.ComputeCubeShared(0, 2);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      RegressionCube scratch = ScratchCube(reference, 0, 2);
      ExpectCubesIdentical(scratch, **maintained);
    });

    const auto stats = engine.cube_memo_stats();
    EXPECT_GT(stats.patches, 0) << "churn never exercised the patch path";
    EXPECT_GT(stats.rebuilds, 1) << "structural churn never rebuilt";
    auto last = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(last.ok());
    o_layers.push_back((*last)->o_layer());
  }
  // The maintained cube is shard-count invariant, like every other read.
  ExpectCellMapsIdentical(o_layers[0], o_layers[1]);
  ExpectCellMapsIdentical(o_layers[0], o_layers[2]);
}

TEST(IncrementalCubeTest, MatchesReferenceAcrossShardCounts) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  std::vector<RegressionCube> cubes;
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(2);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    ReferenceStream reference(*schema, LagOptions());
    PairedStream paired{engine, reference};
    StreamGenerator gen(spec);
    ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());

    // Barrier-style flow: everyone is at one clock, and the maintained cube
    // and the by-value door agree with the reference bitwise.
    auto maintained = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    auto by_value = engine.ComputeCube(0, 2);
    ASSERT_TRUE(by_value.ok()) << by_value.status().ToString();
    ExpectCubesIdentical(*by_value, **maintained);
    RegressionCube scratch = ScratchCube(reference, 0, 2);
    ExpectCubesIdentical(scratch, **maintained);
    cubes.push_back((**maintained).Clone());
  }
  // Shard-count invariance of the maintained cube itself.
  ExpectCubesIdentical(cubes[0], cubes[1]);
  ExpectCubesIdentical(cubes[0], cubes[2]);
}

// ------------------------------------------------------------ memo hygiene

TEST(IncrementalCubeTest, MemoSurvivesNoOpSealsAndBoundaryFreeAlignment) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto first = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Same revision: a pure hit, the same cube object.
  auto hit = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, 1);

  // No-op re-seals: the revision does not move, the memo answers as hits.
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 3).ok());
  auto after_seal = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(after_seal.ok());
  EXPECT_EQ(after_seal->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, 2);
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Boundary-free alignment: the clock advances inside the open unit
  // ([8,12) here), the revision moves, but no sealed window does — the
  // memo is revalidated in O(changed cells), not recomputed.
  ASSERT_TRUE(engine.SealThrough(10).ok());
  auto aligned = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().revalidations, 1);
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Open-slot churn: same verdict, still the same cube object.
  ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, 11, 2.0}).ok());
  auto revalidated = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated->get(), first->get());
  auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.revalidations, 2);
  EXPECT_EQ(stats.patches, 0);
  EXPECT_EQ(stats.rebuilds, 1);
}

TEST(IncrementalCubeTest, SealedWindowChurnPatchesInsteadOfRebuilding) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  ReferenceStream reference(*schema, LagOptions());
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  SeedLagging(paired, gen);

  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  // Late data into the globally sealed [4,8): exactly the patch shape.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(paired.Ingest({gen.cells()[static_cast<size_t>(i)].key, 7,
                               5.0 + i})
                    .ok());
  }
  auto patched = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.patches, 1);
  EXPECT_EQ(stats.rebuilds, 1);
  EXPECT_GT(stats.patched_cells, 0);
  EXPECT_LE(stats.patched_cells, 3);
  ExpectCubesIdentical(ScratchCube(reference, 0, 2), **patched);
}

TEST(IncrementalCubeTest, StructuralChangesRebuild) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  ReferenceStream reference(*schema, LagOptions());
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  SeedLagging(paired, gen);

  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  // A brand-new cell is a structural change: patching cannot reproduce a
  // freshly built tree's chain order, so the memo rebuilds.
  ASSERT_TRUE(paired.Ingest({FreshKeyOutside(gen, 16), 7, 2.0}).ok());
  auto rebuilt = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 2);
  ExpectCubesIdentical(ScratchCube(reference, 0, 2), **rebuilt);

  // The by-value export door never evicts a live memo of a different
  // window: ComputeCube(0, 1) computes from scratch on the side, and the
  // memoized (0, 2) cube still answers as a hit.
  auto memoized = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(memoized.ok());
  const auto hits_before = engine.cube_memo_stats().hits;
  ASSERT_TRUE(engine.ComputeCube(0, 1).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 2);
  auto still = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->get(), memoized->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, hits_before + 1);

  // A different (level, k) through the memo door is a different memo:
  // rebuild.
  ASSERT_TRUE(engine.ComputeCubeShared(0, 1).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 3);

  // Switching back is another window: rebuild.
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 4);

  // Rolling the window epoch (a new level-0 slot seals) is not structural:
  // the population is unchanged, so the memo rolls in place.
  ASSERT_TRUE(paired.SealThrough(12).ok());  // seals [8,12)
  auto rolled = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rolled.ok());
  ExpectCubesIdentical(ScratchCube(reference, 0, 2), **rolled);
  const auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rolls, 1);
  EXPECT_EQ(stats.rebuilds, 4);
  EXPECT_EQ(stats.patches, 0);
}

TEST(IncrementalCubeTest, PatchedCubeIsImmutableForHolders) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  ReferenceStream reference(*schema, LagOptions());
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  SeedLagging(paired, gen);

  auto before = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(before.ok());
  const CellMap m_before = (*before)->m_layer();  // deep copy for comparison

  ASSERT_TRUE(paired.Ingest({gen.cells()[0].key, 7, 9.0}).ok());
  auto after = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(after.ok());

  // The held cube must not have been mutated by the patch (copy-on-write).
  EXPECT_NE(before->get(), after->get());
  ExpectCellMapsIdentical(m_before, (*before)->m_layer());
}

// ------------------------------------------------------------- epoch rolls

TEST(IncrementalCubeTest, EverySealRollsTheMemoInPlaceAcrossShardCounts) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  constexpr int kRounds = 24;

  std::vector<CellMap> o_layers;  // cross-shard-count invariance
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, RollOptions(), shards, pool);
    ReferenceStream reference(*schema, RollOptions());
    PairedStream paired{engine, reference};
    StreamGenerator gen(spec);
    const auto& cells = gen.cells();
    ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());
    ASSERT_TRUE(engine.ComputeCubeShared(kRollLevel, kRollK).ok());

    // Every round seals one new tick, so every cell's window moves. Odd
    // rounds leave about a third of the cells silent: their new slot is
    // empty, and they roll all the same.
    Pcg32 rng(17, 3);
    for (int round = 0; round < kRounds; ++round) {
      const TimeTick tick = spec.series_length + round;
      std::vector<StreamTuple> batch;
      for (size_t c = 0; c < cells.size(); ++c) {
        if (round % 2 == 1 && rng.Uniform(3) == 0) continue;
        batch.push_back({cells[c].key, tick,
                         0.3 * static_cast<double>((c + round) % 5)});
      }
      ASSERT_TRUE(paired.IngestBatch(batch).ok());
      ASSERT_TRUE(paired.SealThrough(tick).ok());
      auto rolled = engine.ComputeCubeShared(kRollLevel, kRollK);
      ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
      ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK),
                           **rolled);
    }
    const auto stats = engine.cube_memo_stats();
    EXPECT_EQ(stats.rolls, kRounds);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.patches, 0);
    auto last = engine.ComputeCubeShared(kRollLevel, kRollK);
    ASSERT_TRUE(last.ok());
    o_layers.push_back((*last)->o_layer());
  }
  ExpectCellMapsIdentical(o_layers[0], o_layers[1]);
  ExpectCellMapsIdentical(o_layers[0], o_layers[2]);
}

TEST(IncrementalCubeTest, RollsInterleaveWithPatchesAndResumeAfterARebuild) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  constexpr int kRounds = 20;
  constexpr int kFreshRound = 8;

  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, RollOptions(), shards, pool);
    ReferenceStream reference(*schema, RollOptions());
    PairedStream paired{engine, reference};
    StreamGenerator gen(spec);
    const auto& cells = gen.cells();
    const CellKey fresh = FreshKeyOutside(gen, 16);
    auto check = [&] {
      auto maintained = engine.ComputeCubeShared(kRollLevel, kRollK);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK),
                           **maintained);
    };
    // The pacer runs one tick ahead of the population: each round's tick
    // is globally sealed while every population frame still sits on it,
    // so late data lands in the window's newest slot.
    auto late = [&](TimeTick tick, int round) {
      for (size_t c = static_cast<size_t>(round) % 5; c < cells.size();
           c += cells.size() / 3) {
        ASSERT_TRUE(paired.Ingest({cells[c].key, tick, 2.5 + round}).ok());
      }
    };
    ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(paired.Ingest({PacerKey(), spec.series_length, 1.0}).ok());
    check();  // rebuild
    late(spec.series_length - 1, 0);
    check();  // a patch seeds the member rows before the first roll

    for (int round = 0; round < kRounds; ++round) {
      const TimeTick tick = spec.series_length + round;
      IngestTick(paired, cells, tick);
      if (round == kFreshRound) {
        ASSERT_TRUE(paired.Ingest({fresh, tick, 3.0}).ok());
      }
      ASSERT_TRUE(paired.Ingest({PacerKey(), tick + 1, 1.0}).ok());
      check();  // roll (rebuild on the fresh round)
      if (round == kFreshRound) {
        EXPECT_EQ(engine.cube_memo_stats().rebuilds, 2);
      }
      late(tick, round);
      check();  // patch on the rolled tree and rows
    }
    const auto stats = engine.cube_memo_stats();
    EXPECT_EQ(stats.rebuilds, 2);
    EXPECT_EQ(stats.rolls, kRounds - 1);
    EXPECT_EQ(stats.patches, kRounds + 1);
  }
}

TEST(IncrementalCubeTest, RollsWithoutAPackedCodec) {
  // A schema too wide to pack (66 bits of fields): the memo's tree, member
  // rows and lists all take the CellKey route.
  auto h = std::make_shared<FanoutHierarchy>(2, 65536);
  auto created = CubeSchema::Create({Dimension("A", h), Dimension("B", h)},
                                    {2, 2}, {1, 1});
  ASSERT_TRUE(created.ok());
  auto schema = std::make_shared<const CubeSchema>(std::move(created).value());
  ASSERT_FALSE(PackedKeyCodec::ForSchema(*schema).has_value());

  // The generated keys use small value ids, valid under the wide schema.
  WorkloadSpec spec = LagSpec();
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(schema, RollOptions(), 2,
                             std::make_shared<ThreadPool>(2));
  ReferenceStream reference(schema, RollOptions());
  PairedStream paired{engine, reference};
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.ComputeCubeShared(kRollLevel, kRollK).ok());
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const TimeTick tick = spec.series_length + round;
    IngestTick(paired, gen.cells(), tick);
    ASSERT_TRUE(paired.SealThrough(tick).ok());
    auto rolled = engine.ComputeCubeShared(kRollLevel, kRollK);
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK), **rolled);
  }
  EXPECT_EQ(engine.cube_memo_stats().rolls, kRounds);
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);
}

TEST(IncrementalCubeTest, RegressionErrorDuringARollMatchesFromScratch) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const StreamCubeEngine::Options options = RollOptions();
  ShardedStreamEngine engine(*schema, options, 2);
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  IncrementalCubeCache cache(*schema, options);
  const auto before = engine.GatherAlignedCells();
  ASSERT_TRUE(cache.CubeFor(before.cells, before.clock, 1, kRollLevel, kRollK,
                            nullptr)
                  .ok());

  IngestTick(engine, gen.cells(), spec.series_length);
  ASSERT_TRUE(engine.SealThrough(spec.series_length).ok());
  const auto after = engine.GatherAlignedCells();

  // The rolled run, except that its last cell's frame began one tick
  // before the roll: it has fewer sealed slots than the window needs, so
  // its regression fails after the walk has already seen the roll.
  auto broken = std::make_shared<SnapshotCells>(*after.cells);
  auto short_frame = std::make_shared<TiltTimeFrame>(options.tilt_policy,
                                                     spec.series_length - 1);
  ASSERT_TRUE(short_frame->Add(spec.series_length - 1, 1.0).ok());
  ASSERT_TRUE(short_frame->Add(spec.series_length, 2.0).ok());
  ASSERT_TRUE(short_frame->AdvanceTo(spec.series_length + 1).ok());
  broken->back().frame = short_frame;

  auto failed =
      cache.CubeFor(broken, after.clock, 2, kRollLevel, kRollK, nullptr);
  auto scratch = SnapshotCubeOf(*schema, *broken, after.clock, options,
                                kRollLevel, kRollK, nullptr);
  ASSERT_FALSE(scratch.ok());
  EXPECT_EQ(failed.status().code(), scratch.status().code());
  EXPECT_EQ(failed.status().message(), scratch.status().message());
  EXPECT_EQ(cache.stats().rolls, 0);

  // A cell whose window did not move with the others makes the window
  // mixed: the from-scratch error again. Read as of the clock, every frame
  // at or behind it moves with the clock, so the odd one out is a frame
  // already advanced past it by one more roll-level unit (one tick).
  auto mixed = std::make_shared<SnapshotCells>(*after.cells);
  auto ahead = std::make_shared<TiltTimeFrame>(*after.cells->back().frame);
  ASSERT_TRUE(ahead->AdvanceTo(after.clock + 1).ok());
  mixed->back().frame = ahead;
  auto mixed_failed =
      cache.CubeFor(mixed, after.clock, 3, kRollLevel, kRollK, nullptr);
  auto mixed_scratch = SnapshotCubeOf(*schema, *mixed, after.clock, options,
                                      kRollLevel, kRollK, nullptr);
  ASSERT_FALSE(mixed_scratch.ok());
  EXPECT_EQ(mixed_failed.status().code(), mixed_scratch.status().code());
  EXPECT_EQ(mixed_failed.status().message(),
            mixed_scratch.status().message());

  // Neither failure poisoned the memo: the intact run rolls.
  auto rolled = cache.CubeFor(after.cells, after.clock, 4, kRollLevel, kRollK,
                              nullptr);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  auto want = SnapshotCubeOf(*schema, *after.cells, after.clock, options,
                             kRollLevel, kRollK, nullptr);
  ASSERT_TRUE(want.ok());
  ExpectCubesIdentical(*want, **rolled);
  EXPECT_EQ(cache.stats().rolls, 1);
  EXPECT_EQ(cache.stats().rebuilds, 1);
}

// ----------------------------------------------------------- lagging runs

/// A spill directory with no segments left over from a previous run.
std::string FreshSpillDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  for (int i = 0; i < 8; ++i) {
    std::remove((dir + "/spill-" + std::to_string(i) + ".rcs").c_str());
  }
  return dir;
}

/// Every read door over a run whose frames lag its clock — cells left
/// unwritten while others move the clock, and under a 1-byte budget
/// spilled views that stay at their spill tick across seals — against the
/// reference, whose runs are AdvanceTo copies. The rounds skip ticks and
/// some only seal (no write at all), so the maintained cube sees the same
/// frozen blocks at a later clock, where they read a rolled window.
void RunLaggingRunEquivalence(int shards, bool budgeted) {
  SCOPED_TRACE(std::to_string(shards) + " shards" +
               (budgeted ? ", 1-byte budget" : ", unbounded"));
  WorkloadSpec spec = LagSpec(120);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, RollOptions(), shards,
                             std::make_shared<ThreadPool>(2));
  if (budgeted) {
    MemoryBudgetConfig config;
    config.budget_bytes = 1;
    config.spill_dir =
        FreshSpillDir("lagging_cube_" + std::to_string(shards));
    ASSERT_TRUE(engine.ConfigureStorage(config).ok());
  }
  ReferenceStream reference(*schema, RollOptions());
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  Pcg32 rng(static_cast<std::uint64_t>(shards * 2 + (budgeted ? 1 : 0)), 5);
  TimeTick tick = spec.series_length;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    tick += 1 + static_cast<TimeTick>(rng.Uniform(3));
    if (round % 4 != 3) {
      // A third of the cells move to `tick`; the rest lag it.
      std::vector<StreamTuple> batch;
      for (const auto& cell : gen.cells()) {
        if (rng.Uniform(3) != 0) continue;
        batch.push_back({cell.key, tick, 0.5 + 0.01 * static_cast<double>(
                                                      rng.Uniform(100))});
      }
      ASSERT_TRUE(paired.IngestBatch(batch).ok());
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(paired.SealThrough(tick).ok());
    }

    const auto gathered = engine.GatherAlignedCells();
    ASSERT_NO_FATAL_FAILURE(
        equivalence::ExpectGatherMatchesReference(gathered, reference));
    auto maintained = engine.ComputeCubeShared(gathered, kRollLevel, kRollK);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK),
                         **maintained);
    for (int level = 0; level < reference.num_levels(); ++level) {
      auto window = engine.SnapshotWindow(level, 1);
      auto want_window = SnapshotWindowOf(reference.Run(), reference.clock(),
                                          level, 1);
      ASSERT_EQ(window.ok(), want_window.ok());
      if (window.ok()) {
        ASSERT_EQ(window->size(), want_window->size());
        for (size_t i = 0; i < window->size(); ++i) {
          EXPECT_EQ((*window)[i].key, (*want_window)[i].key);
          EXPECT_EQ((*window)[i].measure, (*want_window)[i].measure);
        }
      }
      auto deck = engine.ObservationDeck(level);
      auto want_deck = reference.Deck(level);
      ASSERT_TRUE(deck.ok() && want_deck.ok());
      EXPECT_EQ(*deck, *want_deck);
    }
    const CellKey& m_key =
        gen.cells()[rng.Uniform(static_cast<std::uint32_t>(
                        gen.cells().size()))]
            .key;
    for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
      const CellKey key = lattice.ProjectMLayerKey(m_key, c);
      auto cell = engine.QueryCell(c, key, kRollLevel, kRollK);
      auto want_cell = reference.Cell(c, key, kRollLevel, kRollK);
      ASSERT_TRUE(cell.ok() && want_cell.ok()) << key.ToString();
      EXPECT_EQ(*cell, *want_cell) << key.ToString();
      auto series = engine.QueryCellSeries(c, key, 1);
      auto want_series = reference.CellSeries(c, key, 1);
      ASSERT_TRUE(series.ok() && want_series.ok()) << key.ToString();
      EXPECT_EQ(*series, *want_series) << key.ToString();
    }
  }
  if (budgeted) {
    // Every enforcement drops the memo (the ladder's first rung) and
    // spills every cell, so here the reads run over cold views.
    EXPECT_GT(engine.SpillStats().spill_evictions, 0);
  } else {
    // The memo was maintained over the lagging runs, not only rebuilt.
    const auto stats = engine.cube_memo_stats();
    EXPECT_GT(stats.rolls, 0);
    EXPECT_GT(stats.patches + stats.revalidations, 0);
  }
}

TEST(IncrementalCubeLaggingTest, OneShard) {
  RunLaggingRunEquivalence(1, /*budgeted=*/false);
  RunLaggingRunEquivalence(1, /*budgeted=*/true);
}

TEST(IncrementalCubeLaggingTest, TwoShards) {
  RunLaggingRunEquivalence(2, /*budgeted=*/false);
  RunLaggingRunEquivalence(2, /*budgeted=*/true);
}

TEST(IncrementalCubeLaggingTest, EightShards) {
  RunLaggingRunEquivalence(8, /*budgeted=*/false);
  RunLaggingRunEquivalence(8, /*budgeted=*/true);
}

TEST(IncrementalCubeLaggingTest, SameBlocksAtALaterClockRollTheMemo) {
  // One run of frozen blocks, read at two clocks: at the later one every
  // block seals its pending tick, so every window moves. Sharing a block
  // with the memoized run proves nothing across clocks — a pointer-only
  // "unchanged" rule would serve the earlier cube here.
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const StreamCubeEngine::Options options = RollOptions();
  ShardedStreamEngine engine(*schema, options, 2);
  ReferenceStream reference(*schema, options);
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());
  const auto run = engine.GatherAlignedCells();

  IncrementalCubeCache cache(*schema, options);
  auto first = cache.CubeFor(run.cells, run.clock, run.revision, kRollLevel,
                             kRollK, nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK), **first);

  for (TimeTick later = run.clock + 1; later <= run.clock + 3; ++later) {
    ASSERT_TRUE(reference.SealThrough(later - 1).ok());
    auto rolled = cache.CubeFor(run.cells, later, run.revision, kRollLevel,
                                kRollK, nullptr);
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK),
                         **rolled);
  }
  EXPECT_EQ(cache.stats().rolls, 3);
  EXPECT_EQ(cache.stats().rebuilds, 1);

  // A reader at an earlier clock than the memo gets its own answer and
  // leaves the memo alone.
  auto stale = cache.CubeFor(run.cells, run.clock, run.revision, kRollLevel,
                             kRollK, nullptr);
  ASSERT_TRUE(stale.ok());
  ExpectCubesIdentical(**first, **stale);
  EXPECT_EQ(cache.stats().rebuilds, 1);
}

// ------------------------------------------------------------- list order

void ExpectListsIdentical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.cells().size(), got.cells().size());
  for (size_t i = 0; i < want.cells().size(); ++i) {
    EXPECT_EQ(want.cells()[i].cuboid, got.cells()[i].cuboid) << "at " << i;
    EXPECT_EQ(want.cells()[i].key, got.cells()[i].key) << "at " << i;
    EXPECT_EQ(want.cells()[i].isb, got.cells()[i].isb) << "at " << i;
  }
}

TEST(IncrementalCubeTest, ListOrderIsAFunctionOfCubeContent) {
  WorkloadSpec spec = LagSpec(/*tuples=*/40);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  const CuboidLattice lattice(**schema);
  const CuboidId c12 = lattice.id(LayerSpec{1, 2});
  const CuboidId c21 = lattice.id(LayerSpec{2, 1});

  // Build a tie on purpose: a steep trend key that is the only member of
  // its (1,2) and (2,1) cells. Both cells then carry its exact measure, so
  // the two strongest exceptions tie on |slope| across cuboids.
  std::vector<CellKey> others;
  for (const auto& cell : cells) others.push_back(cell.key);
  others.push_back(PacerKey());
  std::optional<CellKey> trend;
  for (ValueId a = 0; a < 15 && !trend; ++a) {
    for (ValueId b = 0; b < 15 && !trend; ++b) {
      const CellKey candidate = Key2(a, b);
      bool lonely = true;
      for (const CellKey& other : others) {
        lonely = lonely &&
                 !(lattice.ProjectMLayerKey(other, c12) ==
                   lattice.ProjectMLayerKey(candidate, c12)) &&
                 !(lattice.ProjectMLayerKey(other, c21) ==
                   lattice.ProjectMLayerKey(candidate, c21));
      }
      if (lonely) trend = candidate;
    }
  }
  ASSERT_TRUE(trend.has_value()) << "no lonely key in the workload";

  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(RollOptions().tilt_policy)
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(2)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  const TimeTick t0 = spec.series_length;
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  for (TimeTick t = 0; t < t0; ++t) {
    ASSERT_TRUE(engine.Ingest({*trend, t, 40.0 * t}).ok());
  }
  ASSERT_TRUE(engine.Ingest({PacerKey(), t0, 1.0}).ok());
  const QuerySpec top_all = QuerySpec::TopExceptions(1000, kRollLevel, kRollK);
  ASSERT_TRUE(engine.Query(top_all).ok());  // rebuild

  // Patch: late data into the sealed slot t0 - 1.
  for (size_t c = 0; c < cells.size(); c += 7) {
    ASSERT_TRUE(engine.Ingest({cells[c].key, t0 - 1, 4.0}).ok());
  }
  ASSERT_TRUE(engine.Query(top_all).ok());
  // Roll: everyone writes t0, the pacer seals it.
  for (const auto& cell : cells) {
    ASSERT_TRUE(engine.Ingest({cell.key, t0, 0.5}).ok());
  }
  ASSERT_TRUE(engine.Ingest({*trend, t0, 40.0 * t0}).ok());
  ASSERT_TRUE(engine.Ingest({PacerKey(), t0 + 1, 1.0}).ok());

  auto snapshot = engine.TakeSnapshot();  // held: its own from-scratch cube
  auto all = engine.Query(top_all);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_GE(all->cells().size(), 2u);
  const CellResult& first = all->cells()[0];
  const CellResult& second = all->cells()[1];
  EXPECT_EQ(std::fabs(first.isb.slope), std::fabs(second.isb.slope));
  EXPECT_EQ(first.cuboid, std::min(c12, c21));
  EXPECT_EQ(second.cuboid, std::max(c12, c21));

  for (std::size_t n : {1, 2, 3, 5, 8, 1000}) {
    const QuerySpec top = QuerySpec::TopExceptions(n, kRollLevel, kRollK);
    auto memo = engine.Query(top);
    auto held = snapshot->Query(top);
    ASSERT_TRUE(memo.ok() && held.ok());
    ExpectListsIdentical(*held, *memo);
  }
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    const QuerySpec at = QuerySpec::ExceptionsAt(c, kRollLevel, kRollK);
    auto memo = engine.Query(at);
    auto held = snapshot->Query(at);
    ASSERT_TRUE(memo.ok() && held.ok());
    ExpectListsIdentical(*held, *memo);
  }
  const CuboidId o_id = lattice.o_layer_id();
  for (const CellKey& key :
       {lattice.ProjectMLayerKey(*trend, o_id),
        lattice.ProjectMLayerKey(cells[0].key, o_id)}) {
    const QuerySpec drill =
        QuerySpec::DrillDown(o_id, key, kRollLevel, kRollK);
    auto memo = engine.Query(drill);
    auto held = snapshot->Query(drill);
    ASSERT_TRUE(memo.ok() && held.ok());
    ExpectListsIdentical(*held, *memo);
  }
}

// ----------------------------------------------------------- facade & memory

TEST(IncrementalCubeTest, FacadeCubeQueriesRideTheMemoAndAccountMemory) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto top = engine.Query(QuerySpec::TopExceptions(5, 0, 2));
  ASSERT_TRUE(top.ok()) << top.status().ToString();

  // The memoized cube's bytes are accounted under "cube.memo".
  bool found = false;
  for (const auto& [category, bytes] : engine.MemoryReport()) {
    if (category == "cube.memo") {
      found = true;
      EXPECT_GT(bytes, 0);
    }
  }
  EXPECT_TRUE(found) << "cube.memo missing from MemoryReport";

  // Facade cube-side answers agree with a snapshot's own from-scratch memo.
  auto snap = engine.TakeSnapshot();
  auto snap_top = snap->Query(QuerySpec::TopExceptions(5, 0, 2));
  ASSERT_TRUE(snap_top.ok());
  EXPECT_EQ(top->cells().size(), snap_top->cells().size());
  for (size_t i = 0; i < top->cells().size(); ++i) {
    EXPECT_EQ(top->cells()[i].key, snap_top->cells()[i].key);
    EXPECT_EQ(top->cells()[i].isb, snap_top->cells()[i].isb);
  }

  // Rolls keep "cube.memo" exact as the stored tree and the complete
  // member rows join the memo, and the budget ladder's cube.memo rung
  // (priority 10) returns every byte of it.
  MemoryTracker tracker;
  ShardedStreamEngine sharded(*schema, RollOptions(), 2);
  ReferenceStream reference(*schema, RollOptions());
  PairedStream paired{sharded, reference};
  sharded.set_memory_tracker(&tracker);
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(sharded.ComputeCubeShared(kRollLevel, kRollK).ok());
  EXPECT_EQ(tracker.category_bytes("cube.memo"), sharded.CubeMemoBytes());
  for (TimeTick tick = spec.series_length; tick < spec.series_length + 2;
       ++tick) {
    IngestTick(paired, gen.cells(), tick);
    ASSERT_TRUE(paired.SealThrough(tick).ok());
    ASSERT_TRUE(sharded.ComputeCubeShared(kRollLevel, kRollK).ok());
    EXPECT_EQ(tracker.category_bytes("cube.memo"), sharded.CubeMemoBytes());
  }
  EXPECT_EQ(sharded.cube_memo_stats().rolls, 2);
  const std::int64_t rolled_bytes = sharded.CubeMemoBytes();

  MemoryBudgetConfig budget;
  budget.budget_bytes = tracker.current_bytes() - 1;
  ASSERT_TRUE(sharded.ConfigureStorage(budget).ok());
  sharded.MaybeEnforceBudget();
  EXPECT_EQ(sharded.SpillStats().memo_evictions, 1);
  EXPECT_EQ(tracker.category_bytes("cube.memo"), 0);
  EXPECT_EQ(sharded.CubeMemoBytes(), 0);

  auto rebuilt = sharded.ComputeCubeShared(kRollLevel, kRollK);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(sharded.cube_memo_stats().rebuilds, 2);
  // Read before the next gather: with the budget in place, every gather
  // enforces it and evicts the memo again.
  const std::int64_t rebuilt_bytes = sharded.CubeMemoBytes();
  EXPECT_EQ(tracker.category_bytes("cube.memo"), rebuilt_bytes);
  EXPECT_GT(rebuilt_bytes, 0);
  // Same window, same cube: what the rolled memo held beyond the rebuilt
  // one is its stored tree and member rows.
  EXPECT_GT(rolled_bytes, rebuilt_bytes);
  ExpectCubesIdentical(ScratchCube(reference, kRollLevel, kRollK), **rebuilt);
}

// ------------------------------------------------------------ error contract

TEST(IncrementalCubeTest, ErrorContractMatchesFromScratch) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  ReferenceStream reference(*schema, LagOptions());
  PairedStream paired{engine, reference};

  // Empty engine: the no-data error.
  auto empty = engine.ComputeCubeShared(0, 2);
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);

  StreamGenerator gen(spec);
  SeedLagging(paired, gen);

  // More slots than are sealed: the window error propagates verbatim, and
  // the failed attempt must not poison the memo for valid queries.
  auto too_deep = engine.ComputeCubeShared(0, 64);
  EXPECT_FALSE(too_deep.ok());
  auto scratch = reference.Cube(0, 64);
  EXPECT_EQ(too_deep.status().code(), scratch.status().code());
  EXPECT_EQ(too_deep.status().message(), scratch.status().message());

  auto ok = engine.ComputeCubeShared(0, 2);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------------- concurrency

TEST(IncrementalCubeTest, ConcurrentChurnAndCubeQueriesAreRaceFree) {
  WorkloadSpec spec = LagSpec(80);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto pool = std::make_shared<ThreadPool>(3);
  ShardedStreamEngine engine(*schema, LagOptions(), 4, pool);
  ReferenceStream reference(*schema, LagOptions());
  PairedStream paired{engine, reference};
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  SeedLagging(paired, gen);
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  // Each writer logs what it attempted and whether the engine took it; the
  // reference replays the logs after the join.
  struct Attempt {
    StreamTuple tuple;
    bool ok;
  };
  std::vector<std::vector<Attempt>> logs(2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Late data into the sealed slot and fresh data into the open one;
      // disjoint cell slices keep per-cell ticks monotone.
      for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
        for (size_t c = static_cast<size_t>(w); c < cells.size(); c += 2) {
          const TimeTick tick = (c % 3 == 0) ? 7 : 8;
          const StreamTuple tuple{cells[c].key, tick, 1.0 + round};
          Status s = engine.Ingest(tuple);
          logs[static_cast<size_t>(w)].push_back({tuple, s.ok()});
          if (!s.ok()) {
            // A cell that moved to the open slot rejects later tick-7
            // writes; that is the monotonicity contract, not a bug.
            EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto cube = engine.ComputeCubeShared(0, 2);
        ASSERT_TRUE(cube.ok()) << cube.status().ToString();
        EXPECT_GE((*cube)->m_layer().size(), cells.size());
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();

  // Each cell has one writer, so replaying the logs one after the other
  // keeps every cell's tick order: the verdicts must agree too.
  for (const auto& log : logs) {
    for (const Attempt& attempt : log) {
      EXPECT_EQ(reference.Ingest(attempt.tuple).ok(), attempt.ok);
    }
  }
  RegressionCube scratch = ScratchCube(reference, 0, 2);
  auto final_cube = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(final_cube.ok());
  ExpectCubesIdentical(scratch, **final_cube);
}

}  // namespace
}  // namespace regcube
