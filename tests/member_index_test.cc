// Member-index contracts: the ingest-maintained per-cuboid roll-up index
// behind sublinear point queries must find exactly the members the replay
// reference finds by projecting every key, bit for bit, across shard
// counts {1, 2, 8} under randomized churn; it must stay coherent across seals, window-epoch
// rolls and brand-new cells (activation backfills the population, ingest
// maintains it from then on); the seeded per-cuboid node indexes the cube
// memo consumes must reproduce the chain-scan index exactly, order
// included; its bytes must be accounted under "index.members"; the
// out-of-range-cuboid error contract must be typed (no RC_CHECK aborts);
// and concurrent ingest + point queries must be race-free (this test runs
// in the TSan CI job).
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/htree/htree_cubing.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectMemberGatherMatchesReference;
using equivalence::Key2;
using equivalence::PairedStream;
using equivalence::SmallTiltPolicy;
using equivalence::UnusedMLayerKey;

WorkloadSpec IndexSpec(std::int64_t tuples = 120, std::int64_t ticks = 16) {
  return ChurnWorkload(tuples, ticks, /*seed=*/59);
}

/// Probes every cuboid of the lattice with a handful of keys — present
/// members, a key matching zero members, and both critical layers — and
/// checks the indexed gather against the reference's projected members bit
/// for bit, plus the engine's point queries against the kernels over the
/// reference's run (same canonical operand order, so bitwise — not merely
/// close).
void ExpectIndexMatchesReferenceEverywhere(ShardedStreamEngine& engine,
                                           const ReferenceStream& reference,
                                           StreamGenerator& gen) {
  const CuboidLattice& lattice = engine.lattice();
  const CellKey missing = UnusedMLayerKey(gen);
  const SnapshotCells run = reference.Run();
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    for (const CellKey& m_key :
         {gen.cells()[0].key, gen.cells()[gen.cells().size() / 2].key,
          missing}) {
      const CellKey key = lattice.ProjectMLayerKey(m_key, c);
      ExpectMemberGatherMatchesReference(engine.GatherCellsMatching(c, key),
                                         reference, run, c, key);

      auto member_cell = engine.QueryCell(c, key, 0, 2);
      auto expected_cell = SnapshotCellOf(run, lattice, c, key, 0, 2);
      ASSERT_EQ(member_cell.ok(), expected_cell.ok()) << key.ToString();
      if (member_cell.ok()) {
        EXPECT_EQ(*member_cell, *expected_cell) << key.ToString();
      } else {
        EXPECT_EQ(member_cell.status().code(), expected_cell.status().code());
      }
      auto member_series = engine.QueryCellSeries(c, key, 1);
      auto expected_series = SnapshotCellSeriesOf(
          run, lattice, reference.num_levels(), c, key, 1);
      ASSERT_EQ(member_series.ok(), expected_series.ok());
      if (member_series.ok()) {
        EXPECT_EQ(*member_series, *expected_series);
      }
    }
  }
}

// ------------------------------------------------------------ equivalence

TEST(MemberIndexTest, IndexedGatherMatchesReferenceUnderRandomizedChurn) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  // Advancing-tick churn with periodic seals and a brand-new mid-churn
  // cell: the index is probed every round, across unit-boundary crossings
  // (realignment), epoch rolls (seals) and population growth.
  equivalence::ChurnPlan plan;
  plan.rounds = 8;
  plan.seed = 59;
  plan.base_tick = spec.series_length;
  plan.advance_ticks = true;
  plan.seal_every = 3;
  plan.fresh_round = 2;
  plan.fresh_key = Key2(15, 15);

  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards, pool);
    ReferenceStream reference(*schema, ChurnEngineOptions());
    PairedStream paired{engine, reference};
    ASSERT_TRUE(paired.IngestBatch(stream).ok());
    ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());

    // Pre-churn probe activates every cuboid's map, so the churn rounds
    // exercise the maintained (not freshly built) index.
    ExpectIndexMatchesReferenceEverywhere(engine, reference, gen);
    equivalence::RunChurnRounds(paired, gen.cells(), plan, [&](int) {
      ExpectIndexMatchesReferenceEverywhere(engine, reference, gen);
    });
  }
}

TEST(MemberIndexTest, IndexStaysCoherentAcrossSealsAndEpochRolls) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  ReferenceStream reference(*schema, ChurnEngineOptions());
  PairedStream paired{engine, reference};
  ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(paired.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

  // First query activates the index.
  auto before = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Late data into the open unit must be visible through the index path
  // immediately (member states are live; frozen blocks refresh per cell).
  ASSERT_TRUE(
      paired.Ingest({gen.cells()[0].key, spec.series_length, 9.0}).ok());
  auto after_write = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(after_write.ok());

  // An epoch roll (seal across the quarter boundary) moves every member's
  // window; the indexed answer must track the reference bit for bit.
  ASSERT_TRUE(paired.SealThrough(spec.series_length + 4).ok());
  ExpectMemberGatherMatchesReference(engine.GatherCellsMatching(o_id, o_key),
                                     reference, reference.Run(), o_id, o_key);
  auto after_roll = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(after_roll.ok());
  EXPECT_FALSE(*after_roll == *before)
      << "the epoch roll (window interval moved) must be visible through "
         "the index";

  // A brand-new cell after activation is folded in at ingest: its o-layer
  // parent gains a member without any rebuild.
  const CellKey fresh = equivalence::FreshKeyOutside(gen, 16);
  const CellKey fresh_o = lattice.ProjectMLayerKey(fresh, o_id);
  const size_t members_before =
      engine.GatherCellsMatching(o_id, fresh_o).cells.size();
  EXPECT_EQ(members_before,
            reference.Members(reference.Run(), o_id, fresh_o).size());
  ASSERT_TRUE(paired.Ingest({fresh, spec.series_length + 5, 1.0}).ok());
  auto grown = engine.GatherCellsMatching(o_id, fresh_o);
  EXPECT_EQ(grown.cells.size(), members_before + 1);
  ExpectMemberGatherMatchesReference(grown, reference, reference.Run(), o_id,
                                     fresh_o);
}

// ----------------------------------------------------- seeded node indexes

TEST(MemberIndexTest, SeededNodeIndexReproducesChainScanExactly) {
  // The cube memo seeds each touched cell's node list from the member
  // index instead of scanning the cuboid's chain; the two must agree not
  // just as sets but in ORDER — the fold order is the bit-identity
  // contract. Verify every cell of every cuboid on a randomized window.
  WorkloadSpec spec = IndexSpec(/*tuples=*/150);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto run = engine.GatherAlignedCells();
  auto window = SnapshotWindowOf(*run.cells, 0, 2);
  ASSERT_TRUE(window.ok());

  HTree::Options tree_options;
  tree_options.attribute_order = CardinalityAscendingOrder(**schema);
  tree_options.store_nonleaf_measures = true;
  auto tree = HTree::Build(**schema, *window, std::move(tree_options));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  const CuboidLattice& lattice = engine.lattice();
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    const CuboidMemberIndex full = BuildCuboidMemberIndex(*tree, lattice, c);
    // Materialize the index rows with CellKey keys regardless of which
    // representation (packed or keyed) the build chose.
    std::vector<std::pair<CellKey, std::vector<NodeId>>> index_cells;
    for (size_t r = 0; r < full.num_rows(); ++r) {
      index_cells.emplace_back(
          full.RowKey(*tree, r),
          std::vector<NodeId>(full.row_begin(r), full.row_end(r)));
    }
    for (const auto& [cell_key, chain_nodes] : index_cells) {
      // Member keys via the engine's index, canonical order — exactly the
      // feed the memo's MemberLookup hands SeedCellNodesFromMembers.
      const std::vector<CellKey> members =
          engine.MemberKeysForBatch(c, {cell_key}).front();
      ASSERT_FALSE(members.empty()) << cell_key.ToString();
      auto seeded = SeedCellNodesFromMembers(*tree, lattice, c, members);
      ASSERT_TRUE(seeded.has_value()) << cell_key.ToString();
      ASSERT_EQ(seeded->size(), chain_nodes.size()) << cell_key.ToString();
      for (size_t i = 0; i < chain_nodes.size(); ++i) {
        EXPECT_EQ((*seeded)[i], chain_nodes[i])
            << "node order diverged for cell " << cell_key.ToString()
            << " of cuboid " << lattice.CuboidName(c) << " at position "
            << i;
      }
    }
  }

  // A member the tree does not hold (a cell newer than the window) must
  // refuse to seed — the caller's signal to fall back to the chain scan.
  std::vector<CellKey> with_stranger = {gen.cells()[0].key,
                                        equivalence::FreshKeyOutside(gen, 16)};
  EXPECT_FALSE(SeedCellNodesFromMembers(
                   *tree, lattice, lattice.o_layer_id(),
                   with_stranger)
                   .has_value());
  EXPECT_FALSE(
      SeedCellNodesFromMembers(*tree, lattice, lattice.o_layer_id(), {})
          .has_value());
}

// ------------------------------------------------------ memory accounting

TEST(MemberIndexTest, IndexBytesAreTrackedUnderIndexMembers) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  MemoryTracker tracker;
  engine.set_memory_tracker(&tracker);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // Before any point query no roll-up map exists; only the creation-order
  // cell-id list (which grows with ingest) is retained, and it is
  // accounted too — "index.members" must cover everything the machinery
  // holds, not just the maps.
  const std::int64_t id_list_only = engine.MemberIndexBytes();
  EXPECT_GT(id_list_only, 0);
  EXPECT_EQ(tracker.category_bytes("index.members"), id_list_only);

  const CuboidLattice& lattice = engine.lattice();
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  ASSERT_TRUE(engine.QueryCell(lattice.o_layer_id(), o_key, 0, 2).ok());
  const std::int64_t after_activation =
      tracker.category_bytes("index.members");
  EXPECT_GT(after_activation, id_list_only)
      << "activation must account the new roll-up map";
  EXPECT_EQ(after_activation, engine.MemberIndexBytes());

  // Ingest of a brand-new cell after activation grows the maintained
  // maps; the accounting follows without any re-registration churn.
  ASSERT_TRUE(engine
                  .Ingest({equivalence::FreshKeyOutside(gen, 16),
                           spec.series_length, 1.0})
                  .ok());
  EXPECT_GT(tracker.category_bytes("index.members"), after_activation);
  EXPECT_EQ(tracker.category_bytes("index.members"),
            engine.MemberIndexBytes());

  // Detach / re-attach keeps every tracker balanced (Release would abort
  // on underflow).
  engine.set_memory_tracker(nullptr);
  EXPECT_EQ(tracker.category_bytes("index.members"), 0);
  engine.set_memory_tracker(&tracker);
  EXPECT_EQ(tracker.category_bytes("index.members"),
            engine.MemberIndexBytes());

  // The facade surfaces the category through MemoryReport.
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(2)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine facade = std::move(built).value();
  ASSERT_TRUE(facade.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(facade.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(
      facade.Query(QuerySpec::Cell(lattice.o_layer_id(), o_key, 0, 2)).ok());
  bool found = false;
  for (const auto& [category, bytes] : facade.MemoryReport()) {
    if (category == "index.members") {
      found = true;
      EXPECT_GT(bytes, 0);
    }
  }
  EXPECT_TRUE(found) << "index.members missing from MemoryReport";
}

// ------------------------------------------------------------ error contract

TEST(MemberIndexTest, OutOfRangeCuboidReturnsTypedError) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  // Typed Status, not an RC_CHECK abort — on the empty engine (cuboid
  // validation precedes the no-data check) and after data, through the
  // indexed path at any shard count.
  const CuboidId past_end = CuboidLattice(**schema).num_cuboids();
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards);
    EXPECT_EQ(engine.QueryCell(past_end, CellKey(2), 0, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.QueryCell(-1, CellKey(2), 0, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        engine.QueryCellSeries(past_end, CellKey(2), 0).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.QueryCell(0, CellKey(2), 0, 2).status().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
    EXPECT_EQ(engine.QueryCell(past_end, CellKey(2), 0, 2).status().code(),
              StatusCode::kInvalidArgument);
    // Bad level on the series query is typed too.
    EXPECT_EQ(engine.QueryCellSeries(0, CellKey(2), 99).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------- concurrency (TSan'd)

TEST(MemberIndexTest, ConcurrentIngestAndPointQueriesAreRaceFree) {
  WorkloadSpec spec = IndexSpec(/*tuples=*/80);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto pool = std::make_shared<ThreadPool>(3);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 8, pool);
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CuboidId m_id = lattice.m_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(cells[0].key, o_id);

  // Keys no generated cell occupies, owned by writer 0 alone (per-cell
  // tick monotonicity requires one writer per cell): each round ingests
  // the next one — the ingest-maintained append path under concurrent
  // probes.
  std::unordered_set<CellKey, CellKeyHash> used;
  for (const auto& cell : cells) used.insert(cell.key);
  std::vector<CellKey> fresh_keys;
  for (ValueId a = 0; a < 16 && fresh_keys.size() < 30; ++a) {
    for (ValueId b = 0; b < 16 && fresh_keys.size() < 30; ++b) {
      const CellKey candidate = Key2(a, b);
      if (used.find(candidate) == used.end()) fresh_keys.push_back(candidate);
    }
  }

  // Writers churn disjoint slices (including brand-new cells, which must
  // fold into active maps without tearing a concurrent probe) while
  // readers hammer the indexed point queries.
  constexpr int kWriters = 3;
  constexpr int kRounds = 30;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const TimeTick tick = spec.series_length + round;
        for (size_t c = static_cast<size_t>(w); c < cells.size();
             c += kWriters) {
          ASSERT_TRUE(engine.Ingest({cells[c].key, tick, 2.0}).ok());
        }
        if (w == 0 && static_cast<size_t>(round) < fresh_keys.size()) {
          ASSERT_TRUE(
              engine
                  .Ingest({fresh_keys[static_cast<size_t>(round)], tick, 1.0})
                  .ok());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto cell = engine.QueryCell(o_id, o_key, 0, 2);
        ASSERT_TRUE(cell.ok()) << cell.status().ToString();
        auto series = engine.QueryCellSeries(o_id, o_key, 1);
        ASSERT_TRUE(series.ok()) << series.status().ToString();
        if (r == 1) {
          // The m-layer probe exercises singleton member lists.
          auto one = engine.QueryCell(m_id, cells[0].key, 0, 2);
          ASSERT_TRUE(one.ok());
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced end state: the indexed gather finds exactly the members of a
  // serial replay of the same writes (each cell has one writer, so its
  // tick order is the replay's), bit for bit.
  ReferenceStream reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int round = 0; round < kRounds; ++round) {
    const TimeTick tick = spec.series_length + round;
    for (const auto& cell : cells) {
      ASSERT_TRUE(reference.Ingest({cell.key, tick, 2.0}).ok());
    }
    if (static_cast<size_t>(round) < fresh_keys.size()) {
      ASSERT_TRUE(reference
                      .Ingest({fresh_keys[static_cast<size_t>(round)], tick,
                               1.0})
                      .ok());
    }
  }
  ExpectMemberGatherMatchesReference(engine.GatherCellsMatching(o_id, o_key),
                                     reference, reference.Run(), o_id, o_key);
}

}  // namespace
}  // namespace regcube
