#include "regcube/htree/htree.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "regcube/regression/aggregate.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::SmallWorkload;

TEST(AttributeOrderTest, CardinalityAscendingInterleavesDims) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 4, 20);
  auto order = CardinalityAscendingOrder(*w.schema);
  // 3 dims x 2 levels; all level-1 attrs (card 4) precede level-2 (card 16).
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(order[static_cast<size_t>(i)].level, 1);
  for (int i = 3; i < 6; ++i) EXPECT_EQ(order[static_cast<size_t>(i)].level, 2);
}

TEST(AttributeOrderTest, DescendingKeepsWithinDimOrder) {
  SmallWorkload w = MakeSmallWorkload(2, 3, 3, 20);
  auto order = CardinalityDescendingOrder(*w.schema);
  ASSERT_EQ(order.size(), 6u);
  // Within each dim, levels must still ascend (tree validity).
  int last_level[2] = {0, 0};
  for (const Attribute& a : order) {
    EXPECT_GT(a.level, last_level[a.dim]);
    last_level[a.dim] = a.level;
  }
}

TEST(AttributeOrderTest, MixedCardinalitiesSortGlobally) {
  // Dim A has fanout 2 (cards 2, 4), dim B fanout 10 (cards 10, 100):
  // ascending order must be A1(2), A2(4), B1(10), B2(100).
  auto ha = std::make_shared<FanoutHierarchy>(2, 2);
  auto hb = std::make_shared<FanoutHierarchy>(2, 10);
  auto schema = CubeSchema::Create({Dimension("A", ha), Dimension("B", hb)},
                                   {2, 2}, {1, 1});
  ASSERT_TRUE(schema.ok());
  auto order = CardinalityAscendingOrder(*schema);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ((std::pair{order[0].dim, order[0].level}), (std::pair{0, 1}));
  EXPECT_EQ((std::pair{order[1].dim, order[1].level}), (std::pair{0, 2}));
  EXPECT_EQ((std::pair{order[2].dim, order[2].level}), (std::pair{1, 1}));
  EXPECT_EQ((std::pair{order[3].dim, order[3].level}), (std::pair{1, 2}));
}

TEST(HTreeTest, BuildRejectsBadInput) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 10);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);

  // No tuples.
  EXPECT_FALSE(HTree::Build(*w.schema, {}, options).ok());

  // Mismatched intervals.
  auto tuples = w.tuples;
  tuples[1].measure.interval.te += 1;
  EXPECT_FALSE(HTree::Build(*w.schema, tuples, options).ok());

  // Incomplete attribute order.
  HTree::Options missing = options;
  missing.attribute_order.pop_back();
  EXPECT_FALSE(HTree::Build(*w.schema, w.tuples, missing).ok());

  // Duplicate attribute.
  HTree::Options dup = options;
  dup.attribute_order.back() = dup.attribute_order.front();
  EXPECT_FALSE(HTree::Build(*w.schema, w.tuples, dup).ok());

  // Levels out of order within a dimension.
  HTree::Options swapped = options;
  std::swap(swapped.attribute_order[0], swapped.attribute_order[2]);
  // Find a swap that breaks within-dim order (dim of [0] at level 2 first).
  // The canonical ascending order is L1,L1,L2,L2 for 2 dims; swapping a
  // dim's L2 before its L1 must fail.
  HTree::Options bad;
  bad.attribute_order = {{0, 2}, {0, 1}, {1, 1}, {1, 2}};
  EXPECT_FALSE(HTree::Build(*w.schema, w.tuples, bad).ok());
}

TEST(HTreeTest, LeavesMatchDistinctTuples) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 30);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_leaves(), static_cast<std::int64_t>(w.tuples.size()));
  EXPECT_EQ(tree->num_attributes(), 4);
  EXPECT_EQ(tree->common_interval().tb, 0);
}

TEST(HTreeTest, DuplicateTuplesAggregateIntoOneLeaf) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 5);
  auto tuples = w.tuples;
  // Duplicate the first tuple: same cell, measure must sum (Theorem 3.2).
  tuples.push_back(tuples[0]);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, tuples, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_leaves(), 5);

  auto cells = tree->MLayerCells();
  auto it = std::find_if(cells.begin(), cells.end(), [&](const MLayerTuple& t) {
    return t.key == tuples[0].key;
  });
  ASSERT_NE(it, cells.end());
  EXPECT_NEAR(it->measure.slope, 2.0 * w.tuples[0].measure.slope, 1e-12);
  EXPECT_NEAR(it->measure.base, 2.0 * w.tuples[0].measure.base, 1e-12);
}

TEST(HTreeTest, MLayerCellsRoundTrip) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 40);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());

  auto cells = tree->MLayerCells();
  ASSERT_EQ(cells.size(), w.tuples.size());
  CellMap expected;
  for (const auto& t : w.tuples) expected.emplace(t.key, t.measure);
  for (const auto& cell : cells) {
    auto it = expected.find(cell.key);
    ASSERT_NE(it, expected.end()) << cell.key.ToString();
    ExpectIsbNear(it->second, cell.measure, 1e-12);
  }
}

TEST(HTreeTest, HeaderChainsCoverAllNodesAtDepth) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 25);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());

  std::int64_t chained = 0;
  for (int pos = 0; pos < tree->num_attributes(); ++pos) {
    const HeaderTable& header = tree->header(pos);
    std::int64_t nodes_in_chains = 0;
    for (const auto& [value, entry] : header.entries()) {
      std::int64_t n = 0;
      for (const HTreeNode* node = tree->node(entry.head); node != nullptr;
           node = tree->node(node->next_link)) {
        EXPECT_EQ(node->value, value);
        EXPECT_EQ(node->attr_index, pos);
        ++n;
      }
      EXPECT_EQ(n, entry.count);
      nodes_in_chains += n;
    }
    EXPECT_EQ(nodes_in_chains, header.total_nodes());
    chained += nodes_in_chains;
  }
  EXPECT_EQ(chained + 1, tree->num_nodes());  // +1 for the root
}

TEST(HTreeTest, SubtreeMeasureEqualsBruteForceSum) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 30);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());

  // Root subtree = sum of all tuples.
  Isb expected;
  for (const auto& t : w.tuples) AccumulateStandardDim(expected, t.measure);
  ExpectIsbNear(expected, tree->SubtreeMeasure(tree->root()), 1e-9);
}

TEST(HTreeTest, NonLeafMeasuresMatchLazyComputation) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 30);
  HTree::Options lazy_options;
  lazy_options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto lazy = HTree::Build(*w.schema, w.tuples, lazy_options);
  HTree::Options stored_options;
  stored_options.attribute_order = CardinalityAscendingOrder(*w.schema);
  stored_options.store_nonleaf_measures = true;
  auto stored = HTree::Build(*w.schema, w.tuples, stored_options);
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(stored.ok());
  ExpectIsbNear(lazy->SubtreeMeasure(lazy->root()),
                stored->SubtreeMeasure(stored->root()), 1e-9);
  // Stored-measure trees cost more bytes (the paper's space trade-off).
  EXPECT_GT(stored->MemoryBytes(), lazy->MemoryBytes());
}

TEST(HTreeTest, ReplaceLeafMeasuresIsBitwiseAFreshBuild) {
  // The epoch roll: a tree kept across a window move must end up with
  // exactly the leaves and stored sums a fresh build over the new window
  // has — same structure, so node ids line up one to one.
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 40);
  std::vector<MLayerTuple> rolled = w.tuples;
  for (size_t i = 0; i < rolled.size(); ++i) {
    rolled[i].measure.interval = TimeInterval{4, 19};
    rolled[i].measure.base = 0.37 * static_cast<double>(i % 7) - 1.0;
    rolled[i].measure.slope = 0.011 * static_cast<double>((i * 5) % 13);
  }
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  options.store_nonleaf_measures = true;
  auto kept = HTree::Build(*w.schema, w.tuples, options);
  auto fresh = HTree::Build(*w.schema, rolled, options);
  ASSERT_TRUE(kept.ok() && fresh.ok());
  ASSERT_TRUE(kept->ReplaceLeafMeasures(*w.schema, rolled).ok());
  EXPECT_EQ(kept->common_interval(), fresh->common_interval());
  ASSERT_EQ(kept->num_nodes(), fresh->num_nodes());
  for (NodeId id = 0; id < static_cast<NodeId>(kept->num_nodes()); ++id) {
    EXPECT_EQ(kept->StoredMeasure(kept->node(id)),
              fresh->StoredMeasure(fresh->node(id)))
        << "node " << id;
  }

  // Refused windows leave the tree untouched: mixed intervals, a leaf
  // named twice, a cell the tree does not hold, a leaf left out.
  auto refused = [&](std::vector<MLayerTuple> bad) {
    EXPECT_FALSE(kept->ReplaceLeafMeasures(*w.schema, bad).ok());
    for (NodeId id = 0; id < static_cast<NodeId>(kept->num_nodes()); ++id) {
      ASSERT_EQ(kept->StoredMeasure(kept->node(id)),
                fresh->StoredMeasure(fresh->node(id)));
    }
  };
  std::vector<MLayerTuple> bad = w.tuples;
  bad.back().measure.interval = TimeInterval{4, 19};
  refused(bad);
  bad = rolled;
  bad.back() = bad.front();
  refused(bad);
  bad = rolled;
  for (ValueId v = 0; kept->FindLeaf(*w.schema, bad.back().key) != nullptr;
       ++v) {
    bad.back().key.set(0, v);  // walk to an in-range cell with no leaf
  }
  refused(bad);
  bad = rolled;
  bad.pop_back();
  refused(bad);
}

TEST(HTreeTest, PathValueWalksUp) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 10);
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(*w.schema);
  auto tree = HTree::Build(*w.schema, w.tuples, options);
  ASSERT_TRUE(tree.ok());
  // For every leaf, PathValue at the m-level attributes reproduces its key.
  const int pos_a = tree->AttributePosition(0, 2);
  const int pos_b = tree->AttributePosition(1, 2);
  ASSERT_GE(pos_a, 0);
  ASSERT_GE(pos_b, 0);
  for (const auto& cell : tree->MLayerCells()) {
    (void)cell;  // reconstruction itself exercises PathValue
  }
  EXPECT_EQ(tree->AttributePosition(0, 5), -1);
}

TEST(HTreeTest, AscendingOrderIsMoreCompactThanDescending) {
  // Example 5's rationale: low-cardinality attributes near the root share
  // more prefixes, so the ascending tree has no more nodes than the
  // descending one.
  SmallWorkload w = MakeSmallWorkload(3, 2, 4, 200, /*seed=*/3);
  HTree::Options asc;
  asc.attribute_order = CardinalityAscendingOrder(*w.schema);
  HTree::Options desc;
  desc.attribute_order = CardinalityDescendingOrder(*w.schema);
  auto tree_asc = HTree::Build(*w.schema, w.tuples, asc);
  auto tree_desc = HTree::Build(*w.schema, w.tuples, desc);
  ASSERT_TRUE(tree_asc.ok());
  ASSERT_TRUE(tree_desc.ok());
  EXPECT_LE(tree_asc->num_nodes(), tree_desc->num_nodes());
}

TEST(HTreeTest, PathIntroductionOrderMatchesFigure6) {
  // Schema of Example 5 with fanout 3; path (A1,C1)->B1->B2->A2->C2.
  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create(
      {Dimension("A", h), Dimension("B", h), Dimension("C", h)}, {2, 2, 2},
      {1, 0, 1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());
  CuboidLattice lattice(*schema);
  auto path = DrillPath::MakeDimOrderPath(lattice, {1, 0, 2});
  ASSERT_TRUE(path.ok());
  auto order = PathIntroductionOrder(lattice, *path);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ((std::pair{order[0].dim, order[0].level}), (std::pair{0, 1}));  // A1
  EXPECT_EQ((std::pair{order[1].dim, order[1].level}), (std::pair{2, 1}));  // C1
  EXPECT_EQ((std::pair{order[2].dim, order[2].level}), (std::pair{1, 1}));  // B1
  EXPECT_EQ((std::pair{order[3].dim, order[3].level}), (std::pair{1, 2}));  // B2
  EXPECT_EQ((std::pair{order[4].dim, order[4].level}), (std::pair{0, 2}));  // A2
  EXPECT_EQ((std::pair{order[5].dim, order[5].level}), (std::pair{2, 2}));  // C2
}

}  // namespace
}  // namespace regcube
