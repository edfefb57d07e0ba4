// Packed-key equivalence contracts: the 64-bit packed cell keys and the
// arena fold kernels are caching/layout strategies, not semantics changes,
// so everything they produce must be *bit-identical* to the CellKey vector
// oracle — the codec must roundtrip every key of every cuboid, a tree
// built with packing disabled (or on a schema too wide to pack) must
// produce the same cells through the same fold order, FindLeaf's packed
// probe must agree with the attribute-walk oracle on hits and misses, and
// the engine-level maintained cube must match from-scratch cubing over the
// replay reference under high-cardinality deep-lattice churn across shard
// counts {1, 2, 8}.
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "equivalence_harness.h"
#include "regcube/api/regcube.h"
#include "regcube/cube/packed_key.h"
#include "regcube/htree/htree_cubing.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::DeepChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectCubesIdentical;
using equivalence::FreshKeyOutsideDims;
using equivalence::KeyN;
using equivalence::PairedStream;
using equivalence::ScratchCube;
using testing_util::MakeSmallWorkload;
using testing_util::SmallWorkload;

// -------------------------------------------------------------------- codec

TEST(PackedKeyTest, RoundtripsEveryKeyAndStarProjection) {
  SmallWorkload w = MakeSmallWorkload(3, 3, 8, 200, 23);
  auto codec = PackedKeyCodec::ForSchema(*w.schema);
  ASSERT_TRUE(codec.has_value());

  for (const MLayerTuple& t : w.tuples) {
    std::uint64_t packed = 0;
    ASSERT_TRUE(codec->Pack(t.key, &packed));
    EXPECT_EQ(codec->Unpack(packed), t.key);
    // An m-layer key sets every field to value + 1 >= 1, so it can never
    // collide with the flat maps' empty marker 0.
    EXPECT_NE(packed, 0u);

    // Every star projection (a key of some coarser cuboid) roundtrips too.
    for (int d = 0; d < 3; ++d) {
      CellKey projected = t.key;
      projected.set(d, kStarValue);
      ASSERT_TRUE(codec->Pack(projected, &packed));
      EXPECT_EQ(codec->Unpack(packed), projected);
    }
  }

  // The all-star apex packs to exactly 0 — the kernels route it through
  // the keyed fallback map for that reason.
  std::uint64_t apex = 1;
  ASSERT_TRUE(codec->Pack(CellKey(3), &apex));
  EXPECT_EQ(apex, 0u);

  // A value outside the schema's cardinality does not fit its field; the
  // codec must refuse rather than alias another cell.
  CellKey oversized = w.tuples.front().key;
  oversized.set(0, 100000);
  std::uint64_t unused = 0;
  EXPECT_FALSE(codec->Pack(oversized, &unused));
}

TEST(PackedKeyTest, SchemaWiderThan64BitsHasNoCodec) {
  // Two dimensions of cardinality 65536^2 need 33 bits each: 66 > 64, so
  // packing is off and every consumer must take the CellKey path.
  auto h = std::make_shared<FanoutHierarchy>(2, 65536);
  auto schema = CubeSchema::Create({Dimension("A", h), Dimension("B", h)},
                                   {2, 2}, {1, 1});
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(PackedKeyCodec::ForSchema(*schema).has_value());
}

// ------------------------------------------------- kernel bit-identity

/// Builds the same tree twice — packed keys on and off — and asserts that
/// every cuboid's cells are bitwise identical: the packed kernels must
/// fold the same chain order into the same accumulators as the vector
/// oracle, not merely be numerically close.
void ExpectPackedMatchesVectorEverywhere(const SmallWorkload& w,
                                         bool store_nonleaf) {
  CuboidLattice lattice(*w.schema);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  options.store_nonleaf_measures = store_nonleaf;

  auto packed = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(packed.ok());
  ASSERT_NE(packed->codec(), nullptr)
      << "workload schema unexpectedly too wide to pack";

  options.use_packed_keys = false;
  auto vector_tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(vector_tree.ok());
  ASSERT_EQ(vector_tree->codec(), nullptr);

  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    ExpectCellMapsIdentical(ComputeCuboidCells(*vector_tree, lattice, c),
                            ComputeCuboidCells(*packed, lattice, c));
  }
}

TEST(PackedEquivalenceTest, CubingKernelsMatchVectorOracleBitwise) {
  // High cardinality (8^3 = 512 values per dimension) and a deep lattice
  // (3 dims x 3 levels): wide codec fields and long chains.
  ExpectPackedMatchesVectorEverywhere(MakeSmallWorkload(3, 3, 8, 300, 29),
                                      /*store_nonleaf=*/false);
  ExpectPackedMatchesVectorEverywhere(MakeSmallWorkload(3, 3, 8, 300, 29),
                                      /*store_nonleaf=*/true);
  // A 4-dim shape exercises more star/field combinations per key.
  ExpectPackedMatchesVectorEverywhere(MakeSmallWorkload(4, 2, 4, 200, 31),
                                      /*store_nonleaf=*/false);
}

TEST(PackedEquivalenceTest, DrillAndPrefixKernelsMatchVectorOracle) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 6, 240, 37);
  CuboidLattice lattice(*w.schema);
  DrillPath path = DrillPath::MakeDefault(lattice);

  HTree::Options options;
  options.attribute_order = PathIntroductionOrder(lattice, path);
  options.store_nonleaf_measures = true;
  auto packed = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(packed.ok());
  ASSERT_NE(packed->codec(), nullptr);
  options.use_packed_keys = false;
  auto vector_tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(vector_tree.ok());

  // Prefix reads along the path: stored-measure reads under both key forms.
  const int base_depth =
      static_cast<int>(lattice.AttributesOf(path.steps.front()).size());
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const int depth = base_depth + static_cast<int>(i);
    ExpectCellMapsIdentical(
        ReadPrefixCuboidCells(*vector_tree, lattice, path.steps[i], depth),
        ReadPrefixCuboidCells(*packed, lattice, path.steps[i], depth));
  }

  // Drilling a subset of o-layer cells into every child: the fused
  // dual-key sweep vs the per-node walk.
  const CuboidId parent = lattice.o_layer_id();
  CellMap parent_cells = ComputeCuboidCells(*packed, lattice, parent);
  CellMap drilled;
  bool take = true;
  for (const auto& [key, isb] : parent_cells) {
    if (take) drilled.emplace(key, isb);
    take = !take;
  }
  for (CuboidId child : lattice.DrillChildren(parent)) {
    ExpectCellMapsIdentical(
        ComputeDrillChildren(*vector_tree, lattice, parent, drilled, child),
        ComputeDrillChildren(*packed, lattice, parent, drilled, child));
  }
}

TEST(PackedEquivalenceTest, FindLeafPackedProbeAgreesWithWalkOracle) {
  SmallWorkload w = MakeSmallWorkload(3, 3, 8, 250, 41);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_NE(tree->codec(), nullptr);

  // Every built cell: the packed probe and the walk find the same leaf.
  for (const MLayerTuple& t : w.tuples) {
    const HTreeNode* probed = tree->FindLeaf(*w.schema, t.key);
    const HTreeNode* walked = tree->FindLeafByWalk(*w.schema, t.key);
    ASSERT_NE(probed, nullptr) << t.key.ToString();
    EXPECT_EQ(probed, walked) << t.key.ToString();
  }

  // Absent keys miss through both doors: a valid-range combination no
  // tuple used, and a key outside the packable range (walk fallback).
  StreamGenerator gen(w.spec);
  const CellKey absent = FreshKeyOutsideDims(gen, 3, 512);
  EXPECT_EQ(tree->FindLeaf(*w.schema, absent), nullptr);
  EXPECT_EQ(tree->FindLeafByWalk(*w.schema, absent), nullptr);
}

TEST(PackedEquivalenceTest, UnpackableSchemaFallsBackAndMatchesBruteForce) {
  // A schema too wide to pack must still cube correctly end to end: the
  // sum of field widths is 66 bits, so the tree runs with no codec and
  // all kernels take the CellKey route.
  auto h = std::make_shared<FanoutHierarchy>(2, 65536);
  auto schema_result = CubeSchema::Create(
      {Dimension("A", h), Dimension("B", h)}, {2, 2}, {1, 1});
  ASSERT_TRUE(schema_result.ok());
  auto schema =
      std::make_shared<CubeSchema>(std::move(schema_result).value());

  // The generated tuples use small value ids, valid under the wide schema.
  SmallWorkload narrow = MakeSmallWorkload(2, 2, 4, 120, 43);
  CuboidLattice lattice(*schema);

  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*schema);
  auto tree = HTree::Build(*schema, narrow.tuples, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->codec(), nullptr);

  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    testing_util::ExpectCellMapsEqual(
        ComputeCuboidBruteForce(lattice, narrow.tuples, c),
        ComputeCuboidCells(*tree, lattice, c), 1e-8);
  }

  for (const MLayerTuple& t : narrow.tuples) {
    EXPECT_NE(tree->FindLeaf(*schema, t.key), nullptr);
  }
}

// ----------------------------------------- deep-lattice churn, 1/2/8 shards

TEST(PackedEquivalenceTest, DeepLatticeChurnMatchesScratchAcrossShardCounts) {
  // ticks 0..7 seeded: quarter [0,4) sealed, [4,8) open after the pacer.
  WorkloadSpec spec = DeepChurnWorkload(/*tuples=*/120, /*ticks=*/8,
                                        /*seed=*/53);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const StreamCubeEngine::Options options = ChurnEngineOptions();
  // fanout 8, 3 levels: m-layer values run 0..511; the top corner is the
  // pacer cell.
  const CellKey pacer = KeyN({511, 511, 511});

  std::vector<CellMap> o_layers;  // cross-shard-count invariance
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, options, shards, pool);
    ReferenceStream reference(*schema, options);
    PairedStream paired{engine, reference};
    StreamGenerator gen(spec);
    ASSERT_TRUE(paired.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(paired.Ingest({pacer, 11, 1.0}).ok());

    // One fixed plan: every shard count sees the identical churn — late
    // data into the sealed slot (patch), open-slot writes (revalidate),
    // and a brand-new cell (structural rebuild) — over the deep lattice,
    // so the packed-key member indexes, the cube memo and the arena
    // kernels all re-prove bit-identity against from-scratch cubing every
    // round.
    equivalence::ChurnPlan plan;
    plan.rounds = 6;
    plan.seed = 97;
    plan.max_dirty_per_round = 30;
    plan.base_tick = 7;
    plan.open_every = 3;
    plan.open_key = pacer;
    plan.open_tick = 11;
    plan.fresh_round = 3;
    plan.fresh_key = FreshKeyOutsideDims(gen, 3, 512);

    equivalence::RunChurnRounds(paired, gen.cells(), plan, [&](int) {
      auto maintained = engine.ComputeCubeShared(0, 2);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      RegressionCube scratch = ScratchCube(reference, 0, 2);
      ExpectCubesIdentical(scratch, **maintained);
    });

    auto last = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(last.ok());
    o_layers.push_back((*last)->o_layer());
  }
  ExpectCellMapsIdentical(o_layers[0], o_layers[1]);
  ExpectCellMapsIdentical(o_layers[0], o_layers[2]);
}

}  // namespace
}  // namespace regcube
