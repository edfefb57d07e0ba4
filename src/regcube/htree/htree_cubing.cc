#include "regcube/htree/htree_cubing.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "regcube/common/logging.h"
#include "regcube/common/thread_pool.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

std::int64_t CellMapMemoryBytes(const CellMap& cells) {
  constexpr std::int64_t kEntryOverhead = 16;  // hash node + bucket share
  return static_cast<std::int64_t>(cells.size()) *
         (static_cast<std::int64_t>(sizeof(CellKey)) +
          static_cast<std::int64_t>(sizeof(Isb)) + kEntryOverhead);
}

namespace {

/// Positions in the tree order of each attribute of `cuboid`, the index
/// (into that vector) of the deepest one, and the inverse maps a single
/// root walk needs to assemble the cuboid key of a node: tree position ->
/// cuboid dimension (-1 for positions the cuboid projects away) and, when
/// the tree's codec is available, tree position -> packed-field shift.
struct CuboidAttrs {
  std::vector<Attribute> attrs;
  std::vector<int> positions;
  int deepest = -1;  // index into positions; -1 if the cuboid has none
  std::vector<int> dim_of_pos;
  std::vector<int> shift_of_pos;  // empty when the tree has no codec
};

CuboidAttrs ResolveAttrs(const HTree& tree, const CuboidLattice& lattice,
                         CuboidId cuboid) {
  CuboidAttrs out;
  out.attrs = lattice.AttributesOf(cuboid);
  out.positions.reserve(out.attrs.size());
  out.dim_of_pos.assign(static_cast<size_t>(tree.num_attributes()), -1);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    out.shift_of_pos.assign(static_cast<size_t>(tree.num_attributes()), -1);
  }
  int best_pos = -1;
  for (size_t i = 0; i < out.attrs.size(); ++i) {
    const int pos = tree.AttributePosition(out.attrs[i].dim,
                                           out.attrs[i].level);
    RC_CHECK_GE(pos, 0) << "cuboid attribute missing from the tree order";
    out.positions.push_back(pos);
    out.dim_of_pos[static_cast<size_t>(pos)] = out.attrs[i].dim;
    if (codec != nullptr) {
      out.shift_of_pos[static_cast<size_t>(pos)] =
          codec->shift(out.attrs[i].dim);
    }
    if (pos > best_pos) {
      best_pos = pos;
      out.deepest = static_cast<int>(i);
    }
  }
  return out;
}

/// Builds the cell key of `node` for the attribute set in one walk to the
/// root: every path position the cuboid keeps contributes its value (the
/// deepest attribute is the node's own position, covered by the walk).
CellKey KeyFromWalk(const HTree& tree, const HTreeNode* node,
                    const CuboidAttrs& ca, int num_dims) {
  CellKey key(num_dims);
  for (const HTreeNode* cur = node; cur->attr_index >= 0;
       cur = tree.parent(cur)) {
    const int d = ca.dim_of_pos[static_cast<size_t>(cur->attr_index)];
    if (d >= 0) key.set(d, cur->value);
  }
  return key;
}

/// Packed cuboid key of every node at position <= `deep_pos`, indexed by
/// NodeId. One linear arena sweep replaces a root walk per chain node: the
/// arena is in DFS preorder, so a node's parent key is always computed
/// before the node itself. Nodes deeper than `deep_pos` are skipped a
/// whole subtree at a time (preorder makes subtrees contiguous id ranges);
/// their entries are left uninitialized — the chain scans only read nodes
/// at `deep_pos`, and every ancestor entry on their paths is written.
std::unique_ptr<std::uint64_t[]> PackedKeysBySweep(const HTree& tree,
                                                   const CuboidAttrs& ca,
                                                   int deep_pos) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  std::unique_ptr<std::uint64_t[]> keys(new std::uint64_t[n]);
  keys[0] = 0;  // the root carries no values
  for (std::size_t id = 1; id < n;) {
    const HTreeNode* node = tree.node(static_cast<NodeId>(id));
    std::uint64_t key = keys[node->parent];
    const int s = ca.shift_of_pos[static_cast<size_t>(node->attr_index)];
    if (s >= 0) key |= (static_cast<std::uint64_t>(node->value) + 1) << s;
    keys[id] = key;
    // At deep_pos, everything below this node is deeper: hop the subtree.
    id = node->attr_index == deep_pos
             ? tree.subtree_end(static_cast<NodeId>(id))
             : id + 1;
  }
  return keys;
}

}  // namespace

CuboidCells ComputeCuboidCellsTransient(const HTree& tree,
                                        const CuboidLattice& lattice,
                                        CuboidId cuboid) {
  const int num_dims = lattice.schema().num_dims();
  CuboidCells cells;
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);

  if (ca.attrs.empty()) {
    // Apex: one all-star cell aggregating the whole tree. Its packed key
    // would be 0 (the flat map's empty marker), so it takes the CellKey
    // form regardless of the codec.
    cells.keyed.emplace(CellKey(num_dims), tree.SubtreeMeasure(tree.root()));
    return cells;
  }

  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  const HeaderTable& header = tree.header(deep_pos);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    // Hot path: accumulate under the 64-bit packed key in the flat map,
    // keys precomputed by one arena sweep. The per-cell operand order is
    // the chain order, exactly as below, so the measures are bitwise
    // identical to the CellKey fallback.
    cells.codec = codec;
    const auto keys = PackedKeysBySweep(tree, ca, deep_pos);
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        AccumulateStandardDim(cells.packed.Slot(keys[tree.id_of(n)]),
                              tree.SubtreeMeasure(n));
      }
    }
    return cells;
  }

  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      CellKey key = KeyFromWalk(tree, n, ca, num_dims);
      Isb& cell = cells.keyed.try_emplace(std::move(key)).first->second;
      AccumulateStandardDim(cell, tree.SubtreeMeasure(n));
    }
  }
  return cells;
}

CellMap ComputeCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                           CuboidId cuboid) {
  return ComputeCuboidCellsTransient(tree, lattice, cuboid).ToCellMap();
}

std::vector<CellMap> ComputeCuboidCellsPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool) {
  std::vector<CellMap> maps(cuboids.size());
  auto compute_one = [&](std::int64_t i) {
    maps[static_cast<size_t>(i)] =
        ComputeCuboidCells(tree, lattice, cuboids[static_cast<size_t>(i)]);
  };
  const auto n = static_cast<std::int64_t>(cuboids.size());
  if (pool != nullptr) {
    pool->ParallelFor(n, compute_one);
  } else {
    for (std::int64_t i = 0; i < n; ++i) compute_one(i);
  }
  return maps;
}

std::vector<CuboidCells> ComputeCuboidCellsTransientPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool) {
  std::vector<CuboidCells> maps(cuboids.size());
  auto compute_one = [&](std::int64_t i) {
    maps[static_cast<size_t>(i)] = ComputeCuboidCellsTransient(
        tree, lattice, cuboids[static_cast<size_t>(i)]);
  };
  const auto n = static_cast<std::int64_t>(cuboids.size());
  if (pool != nullptr) {
    pool->ParallelFor(n, compute_one);
  } else {
    for (std::int64_t i = 0; i < n; ++i) compute_one(i);
  }
  return maps;
}

CellKey CuboidMemberIndex::RowKey(const HTree& tree, std::size_t row) const {
  const PackedKeyCodec* codec = tree.codec();
  return codec != nullptr ? codec->Unpack(packed_keys_[row]) : keys_[row];
}

std::int64_t CuboidMemberIndex::Find(const HTree& tree, const CellKey& key) {
  const PackedKeyCodec* codec = tree.codec();
  if (!has_row_map_) {
    // Complete builds skip the map (rolls never probe); the patch path
    // pays for it once, here.
    if (codec != nullptr) {
      row_of_packed_.reserve(packed_keys_.size());
      for (std::size_t r = 0; r < packed_keys_.size(); ++r) {
        row_of_packed_.emplace(packed_keys_[r],
                               static_cast<std::uint32_t>(r));
      }
    } else {
      row_of_key_.reserve(keys_.size());
      for (std::size_t r = 0; r < keys_.size(); ++r) {
        row_of_key_.emplace(keys_[r], static_cast<std::uint32_t>(r));
      }
    }
    has_row_map_ = true;
  }
  if (codec != nullptr) {
    std::uint64_t packed = 0;
    // A key outside the codec's fields cannot name an in-tree cell.
    if (!codec->Pack(key, &packed)) return -1;
    auto it = row_of_packed_.find(packed);
    return it == row_of_packed_.end() ? -1
                                      : static_cast<std::int64_t>(it->second);
  }
  auto it = row_of_key_.find(key);
  return it == row_of_key_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

void CuboidMemberIndex::Insert(const HTree& tree, const CellKey& key,
                               const std::vector<NodeId>& nodes) {
  if (Find(tree, key) >= 0) return;
  const auto row = static_cast<std::uint32_t>(num_rows());
  if (const PackedKeyCodec* codec = tree.codec()) {
    std::uint64_t packed = 0;
    RC_CHECK(codec->Pack(key, &packed))
        << "cell " << key.ToString() << " does not pack under the tree codec";
    packed_keys_.push_back(packed);
    row_of_packed_.emplace(packed, row);
  } else {
    keys_.push_back(key);
    row_of_key_.emplace(key, row);
  }
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
  offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));
}

std::int64_t CuboidMemberIndex::MemoryBytes() const {
  constexpr std::int64_t kEntryOverhead = 16;  // hash node + bucket share
  constexpr auto kRowRef = static_cast<std::int64_t>(sizeof(std::uint32_t));
  return static_cast<std::int64_t>(
             packed_keys_.capacity() * sizeof(std::uint64_t) +
             keys_.capacity() * sizeof(CellKey) +
             offsets_.capacity() * sizeof(std::uint32_t) +
             nodes_.capacity() * sizeof(NodeId)) +
         static_cast<std::int64_t>(row_of_packed_.size()) *
             (static_cast<std::int64_t>(sizeof(std::uint64_t)) + kRowRef +
              kEntryOverhead) +
         static_cast<std::int64_t>(row_of_key_.size()) *
             (static_cast<std::int64_t>(sizeof(CellKey)) + kRowRef +
              kEntryOverhead);
}

CuboidMemberIndex BuildCuboidMemberIndex(const HTree& tree,
                                         const CuboidLattice& lattice,
                                         CuboidId cuboid) {
  const int num_dims = lattice.schema().num_dims();
  CuboidMemberIndex index;
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);

  if (ca.attrs.empty()) {
    // Apex: the single all-star cell aggregates the root's subtree.
    index.Insert(tree, CellKey(num_dims), {tree.id_of(tree.root())});
    return index;
  }

  // Pass 1 — the same chain scan as ComputeCuboidCells: number the cells
  // by first visit and record each visited node's row.
  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  const HeaderTable& header = tree.header(deep_pos);
  const auto num_visits = static_cast<std::size_t>(header.total_nodes());
  std::vector<NodeId> visits;
  std::vector<std::uint32_t> visit_rows;
  std::vector<std::uint32_t> row_sizes;
  visits.reserve(num_visits);
  visit_rows.reserve(num_visits);
  auto visit = [&](const HTreeNode* n, std::uint32_t row) {
    if (row == row_sizes.size()) row_sizes.push_back(0);
    ++row_sizes[row];
    visits.push_back(tree.id_of(n));
    visit_rows.push_back(row);
  };
  if (tree.codec() != nullptr) {
    const auto keys = PackedKeysBySweep(tree, ca, deep_pos);
    // Packed keys of non-apex cells are nonzero (the deepest field is
    // set), so the flat map's empty marker never collides; its values
    // are row numbers here.
    FlatNodeMap row_of(num_visits);
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        const std::uint64_t key = keys[tree.id_of(n)];
        bool inserted = false;
        NodeId& row = row_of.Slot(key, &inserted);
        if (inserted) {
          row = static_cast<NodeId>(index.packed_keys_.size());
          index.packed_keys_.push_back(key);
        }
        visit(n, row);
      }
    }
  } else {
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> row_of;
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        auto [it, inserted] = row_of.try_emplace(
            KeyFromWalk(tree, n, ca, num_dims),
            static_cast<std::uint32_t>(index.keys_.size()));
        if (inserted) index.keys_.push_back(it->first);
        visit(n, it->second);
      }
    }
  }

  // Pass 2 — counting placement: each row's nodes keep their visit
  // (chain) order.
  index.offsets_.resize(row_sizes.size() + 1);
  for (std::size_t r = 0; r < row_sizes.size(); ++r) {
    index.offsets_[r + 1] = index.offsets_[r] + row_sizes[r];
  }
  std::vector<std::uint32_t> cursor(index.offsets_.begin(),
                                    index.offsets_.end() - 1);
  index.nodes_.resize(visits.size());
  for (std::size_t v = 0; v < visits.size(); ++v) {
    index.nodes_[cursor[visit_rows[v]]++] = visits[v];
  }
  return index;
}

std::int64_t CuboidChainLength(const HTree& tree,
                               const CuboidLattice& lattice,
                               CuboidId cuboid) {
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  if (ca.attrs.empty()) return 1;  // apex: just the root
  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  return tree.header(deep_pos).total_nodes();
}

std::optional<std::vector<NodeId>> SeedCellNodesFromMembers(
    const HTree& tree, const CuboidLattice& lattice, CuboidId cuboid,
    const std::vector<CellKey>& members) {
  if (members.empty()) return std::nullopt;
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  if (ca.attrs.empty()) {
    // Apex: the single all-star cell aggregates the root's subtree.
    return std::vector<NodeId>{tree.id_of(tree.root())};
  }
  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  // Distinct ancestors at the deepest attribute's depth, in first-
  // occurrence (== node creation) order. Lists are short; linear dedupe
  // beats hashing for the typical member counts.
  std::vector<NodeId> creation_order;
  for (const CellKey& m_key : members) {
    const HTreeNode* node = tree.FindLeaf(lattice.schema(), m_key);
    if (node == nullptr) return std::nullopt;
    while (node != nullptr && node->attr_index != deep_pos) {
      node = tree.parent(node);
    }
    RC_CHECK(node != nullptr)
        << "deepest cuboid attribute missing from a leaf path";
    const NodeId id = tree.id_of(node);
    bool seen = false;
    for (const NodeId existing : creation_order) {
      if (existing == id) {
        seen = true;
        break;
      }
    }
    if (!seen) creation_order.push_back(id);
  }
  // Chains link at the head, so chain order is reverse creation order.
  std::reverse(creation_order.begin(), creation_order.end());
  return creation_order;
}

PatchedCells RecomputeCellsFromIndex(const HTree& tree,
                                     CuboidMemberIndex& index,
                                     const std::vector<CellKey>& touched) {
  PatchedCells cells;
  cells.reserve(touched.size());
  for (const CellKey& key : touched) {
    const std::int64_t row = index.Find(tree, key);
    RC_CHECK(row >= 0)
        << "cell " << key.ToString()
        << " missing from the member index; structural change not rebuilt";
    cells.emplace_back(key, index.FoldRow(tree, static_cast<std::size_t>(row)));
  }
  return cells;
}

PatchedCells PrefixCellsFromNodes(const HTree& tree,
                                  const CuboidLattice& lattice,
                                  CuboidId cuboid, int depth,
                                  const std::vector<const HTreeNode*>& nodes) {
  RC_CHECK(tree.store_nonleaf_measures());
  RC_CHECK(depth >= 1 && depth <= tree.num_attributes());
  const int num_dims = lattice.schema().num_dims();
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  PatchedCells cells;
  cells.reserve(nodes.size());
  for (const HTreeNode* n : nodes) {
    RC_CHECK(n->attr_index == depth - 1)
        << "node depth does not match the prefix cuboid";
    cells.emplace_back(KeyFromWalk(tree, n, ca, num_dims),
                       tree.StoredMeasure(n));
  }
  return cells;
}

CuboidCells ComputeDrillChildrenTransient(const HTree& tree,
                                          const CuboidLattice& lattice,
                                          CuboidId parent_cuboid,
                                          const CellMap& parent_cells,
                                          CuboidId child_cuboid) {
  RC_CHECK(tree.store_nonleaf_measures())
      << "drilling requires the popular-path tree configuration";
  RC_CHECK(lattice.IsAncestorOrEqual(parent_cuboid, child_cuboid));
  const int num_dims = lattice.schema().num_dims();

  CuboidCells out;
  if (parent_cells.empty()) return out;

  const CuboidAttrs child_ca = ResolveAttrs(tree, lattice, child_cuboid);
  RC_CHECK(!child_ca.attrs.empty())
      << "a drill child always has at least one attribute";
  const CuboidAttrs parent_ca = ResolveAttrs(tree, lattice, parent_cuboid);
  const int deep_pos =
      child_ca.positions[static_cast<size_t>(child_ca.deepest)];

  // Every parent attribute sits at or above the child's deepest position:
  // a roll-up parent only removes detail (checked here because path keys
  // are read off the node's root path).
  for (int pos : parent_ca.positions) RC_CHECK_LE(pos, deep_pos);

  const HeaderTable& header = tree.header(deep_pos);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    // Pre-pack the drilled parent keys once; a parent key that does not
    // pack cannot name any in-tree cell, so dropping it filters nothing.
    std::unordered_set<std::uint64_t> drilled;
    drilled.reserve(parent_cells.size());
    for (const auto& [key, measure] : parent_cells) {
      std::uint64_t packed = 0;
      if (codec->Pack(key, &packed)) drilled.insert(packed);
    }
    out.codec = codec;
    // One arena sweep assembles both the parent filter keys and the child
    // cell keys (see PackedKeysBySweep; fused here to share the pass).
    const auto n_nodes = static_cast<std::size_t>(tree.num_nodes());
    std::unique_ptr<std::uint64_t[]> parent_keys(new std::uint64_t[n_nodes]);
    std::unique_ptr<std::uint64_t[]> child_keys(new std::uint64_t[n_nodes]);
    parent_keys[0] = 0;
    child_keys[0] = 0;
    for (std::size_t id = 1; id < n_nodes;) {
      const HTreeNode* node = tree.node(static_cast<NodeId>(id));
      const size_t pos = static_cast<size_t>(node->attr_index);
      const std::uint64_t field = static_cast<std::uint64_t>(node->value) + 1;
      std::uint64_t pk = parent_keys[node->parent];
      std::uint64_t ck = child_keys[node->parent];
      const int ps = parent_ca.shift_of_pos[pos];
      if (ps >= 0) pk |= field << ps;
      const int cs = child_ca.shift_of_pos[pos];
      if (cs >= 0) ck |= field << cs;
      parent_keys[id] = pk;
      child_keys[id] = ck;
      // Subtrees are contiguous id ranges: hop everything below deep_pos.
      id = node->attr_index == deep_pos
               ? tree.subtree_end(static_cast<NodeId>(id))
               : id + 1;
    }
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        const NodeId id = tree.id_of(n);
        if (drilled.find(parent_keys[id]) == drilled.end()) continue;
        AccumulateStandardDim(out.packed.Slot(child_keys[id]),
                              tree.SubtreeMeasure(n));
      }
    }
    return out;
  }

  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      // Parent key off the path; only descendants of drilled cells count.
      CellKey parent_key = KeyFromWalk(tree, n, parent_ca, num_dims);
      if (parent_cells.find(parent_key) == parent_cells.end()) continue;

      CellKey child_key = KeyFromWalk(tree, n, child_ca, num_dims);
      Isb& cell = out.keyed.try_emplace(std::move(child_key)).first->second;
      AccumulateStandardDim(cell, tree.SubtreeMeasure(n));
    }
  }
  return out;
}

CellMap ComputeDrillChildren(const HTree& tree, const CuboidLattice& lattice,
                             CuboidId parent_cuboid,
                             const CellMap& parent_cells,
                             CuboidId child_cuboid) {
  return ComputeDrillChildrenTransient(tree, lattice, parent_cuboid,
                                       parent_cells, child_cuboid)
      .ToCellMap();
}

CuboidCells ReadPrefixCuboidCellsTransient(const HTree& tree,
                                           const CuboidLattice& lattice,
                                           CuboidId cuboid, int depth) {
  RC_CHECK(tree.store_nonleaf_measures());
  const int num_dims = lattice.schema().num_dims();
  CuboidCells cells;

  if (depth == 0) {
    // Apex: packed key would be 0 (the flat map's empty marker), so it
    // takes the CellKey form regardless of the codec.
    cells.keyed.emplace(CellKey(num_dims), tree.SubtreeMeasure(tree.root()));
    return cells;
  }
  RC_CHECK_LE(depth, tree.num_attributes());

  // Sanity: the cuboid's attributes are exactly the deepest introduced
  // level per dimension among the first `depth` tree attributes.
  {
    std::vector<int> deepest(static_cast<size_t>(num_dims), 0);
    for (int pos = 0; pos < depth; ++pos) {
      const Attribute& a = tree.attribute(pos);
      deepest[static_cast<size_t>(a.dim)] =
          std::max(deepest[static_cast<size_t>(a.dim)], a.level);
    }
    const LayerSpec& spec = lattice.spec(cuboid);
    for (int d = 0; d < num_dims; ++d) {
      RC_CHECK_EQ(spec[static_cast<size_t>(d)],
                  deepest[static_cast<size_t>(d)])
          << "cuboid is not the prefix cuboid of depth " << depth;
    }
  }

  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  // Nodes at `depth` are exactly the chains of attribute depth-1.
  const HeaderTable& header = tree.header(depth - 1);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    cells.codec = codec;
    const auto keys = PackedKeysBySweep(tree, ca, depth - 1);
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        // Distinct prefix nodes are distinct cells of a prefix cuboid.
        const bool inserted = cells.packed.EmplaceIfAbsent(
            keys[tree.id_of(n)], tree.StoredMeasure(n));
        RC_DCHECK(inserted) << "prefix node collision at depth " << depth;
        (void)inserted;
      }
    }
    return cells;
  }
  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      CellKey key = KeyFromWalk(tree, n, ca, num_dims);
      // Distinct prefix nodes are distinct cells of a prefix cuboid.
      const bool inserted =
          cells.keyed.emplace(key, tree.StoredMeasure(n)).second;
      RC_DCHECK(inserted) << "prefix node collision at " << key.ToString();
      (void)inserted;
    }
  }
  return cells;
}

CellMap ReadPrefixCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                              CuboidId cuboid, int depth) {
  return ReadPrefixCuboidCellsTransient(tree, lattice, cuboid, depth)
      .ToCellMap();
}

}  // namespace regcube
