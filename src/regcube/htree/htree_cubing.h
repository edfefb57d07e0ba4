#ifndef REGCUBE_HTREE_HTREE_CUBING_H_
#define REGCUBE_HTREE_HTREE_CUBING_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "regcube/cube/cell.h"
#include "regcube/cube/cuboid.h"
#include "regcube/cube/packed_key.h"
#include "regcube/htree/htree.h"
#include "regcube/regression/isb.h"

namespace regcube {

class ThreadPool;

/// Cells of one cuboid: key -> aggregated regression measure. This plays the
/// role of the paper's (local) header table holding "the aggregated value
/// for (b21, a21), (b21, a22), etc."
using CellMap = std::unordered_map<CellKey, Isb, CellKeyHash>;

/// Analytic footprint of a cell map (key + measure + hash-node overhead per
/// entry), used by the algorithms' memory accounting.
std::int64_t CellMapMemoryBytes(const CellMap& cells);

/// Flat open-addressing map from nonzero 64-bit packed cell keys to
/// accumulated measures — the cubing kernels' transient accumulator. Two
/// contiguous arrays (keys, measures) instead of a hash node per cell: an
/// insert is one multiply, one mask and a short linear probe, and iteration
/// is a linear sweep. Key 0 marks an empty slot, which is safe because every
/// packed key the kernels produce has the cuboid's deepest attribute set
/// (fields store value + 1, so a set field is never 0); the all-star apex
/// key is the one packed key that is 0, and the kernels route the apex
/// through the CellKey fallback.
class PackedCellMap {
 public:
  /// The measure slot of `key` (nonzero), default-constructed — the empty
  /// accumulator AccumulateStandardDim initializes from — on first access.
  Isb& Slot(std::uint64_t key) {
    if ((size_ + 1) * 8 > keys_.size() * 7) Grow();
    std::size_t i = ProbeStart(key);
    while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == 0) {
      keys_[i] = key;
      ++size_;
    }
    return vals_[i];
  }

  /// Keep-first insert: stores (key, measure) unless `key` is present.
  /// Returns true when it inserted.
  bool EmplaceIfAbsent(std::uint64_t key, const Isb& measure) {
    Isb& slot = Slot(key);
    if (!slot.interval.empty()) return false;
    slot = measure;
    return true;
  }

  std::int64_t size() const { return static_cast<std::int64_t>(size_); }

  /// Visits every entry as (packed key, measure), in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

  /// Footprint of the slot arrays (the whole capacity: open addressing
  /// pays for empty slots too).
  std::int64_t MemoryBytes() const {
    return static_cast<std::int64_t>(keys_.size()) *
           static_cast<std::int64_t>(sizeof(std::uint64_t) + sizeof(Isb));
  }

 private:
  std::size_t ProbeStart(std::uint64_t key) const {
    // Fibonacci hashing: the multiply mixes the packed fields into the
    // high bits, which the shift brings under the mask.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 31) &
           mask_;
  }

  void Grow() {
    const std::size_t new_cap = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Isb> old_vals = std::move(vals_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, Isb());
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      std::size_t j = ProbeStart(old_keys[i]);
      while (keys_[j] != 0) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Isb> vals_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Cells of one cuboid in the kernels' native accumulation form: a
/// PackedCellMap over 64-bit packed keys when the tree's codec is available
/// (codec non-null), the CellKey-keyed CellMap fallback otherwise. The
/// cubing algorithms sweep most cuboids exactly once (exception filtering
/// retains ~1% of the cells), so they iterate in place via ForEach and only
/// pay ToCellMap for the maps the cube actually keeps (the o-layer).
struct CuboidCells {
  const PackedKeyCodec* codec = nullptr;  // non-null <=> packed form
  PackedCellMap packed;
  CellMap keyed;

  std::int64_t size() const {
    return codec != nullptr ? packed.size()
                            : static_cast<std::int64_t>(keyed.size());
  }

  /// Visits every cell as (const CellKey&, const Isb&). Packed keys are
  /// unpacked on the fly — no allocation, CellKey storage is inline.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (codec != nullptr) {
      packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        fn(codec->Unpack(key), measure);
      });
      return;
    }
    for (const auto& [key, measure] : keyed) fn(key, measure);
  }

  /// ForEach restricted to cells whose measure satisfies `pred` — the
  /// exception filters' shape. Keys are only unpacked for matches, so the
  /// common all-but-exceptions rejection never touches the key at all.
  template <typename Pred, typename Fn>
  void ForEachWhere(Pred&& pred, Fn&& fn) const {
    if (codec != nullptr) {
      packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        if (pred(measure)) fn(codec->Unpack(key), measure);
      });
      return;
    }
    for (const auto& [key, measure] : keyed) {
      if (pred(measure)) fn(key, measure);
    }
  }

  /// Materializes the CellKey-keyed map (for retained maps only; transient
  /// consumers use ForEach).
  CellMap ToCellMap() const {
    if (codec == nullptr) return keyed;
    CellMap cells;
    cells.reserve(static_cast<std::size_t>(packed.size()));
    packed.ForEach([&](std::uint64_t key, const Isb& measure) {
      cells.emplace(codec->Unpack(key), measure);
    });
    return cells;
  }

  /// Analytic footprint of the live container, for the algorithms'
  /// transient-memory accounting.
  std::int64_t MemoryBytes() const {
    return codec != nullptr ? packed.MemoryBytes() : CellMapMemoryBytes(keyed);
  }

  /// Keep-first merge (popular-path drilling: the same cell reached under
  /// two parents has the same total; the first stays). Adopts `other`'s
  /// representation when this map is empty.
  void MergeKeepFirst(const CuboidCells& other) {
    if (other.codec != nullptr) {
      codec = other.codec;  // both sides scan the same tree
      other.packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        packed.EmplaceIfAbsent(key, measure);
      });
      return;
    }
    for (const auto& [key, measure] : other.keyed) keyed.emplace(key, measure);
  }
};

/// Computes every cell of `cuboid` by H-cubing: pick the cuboid attribute
/// deepest in the tree order, traverse its header-table node-link chains,
/// read the remaining attribute values off each node's root path, and
/// aggregate subtree measures with Theorem 3.2. The all-star cuboid (no
/// attributes) yields the single apex cell.
///
/// Works on both tree configurations: with stored non-leaf measures each
/// chain node contributes in O(1); without, the node's subtree is a
/// contiguous leaf-range fold (the m/o configuration — compute everything,
/// store only at leaves). When the tree's packed-key codec is available the
/// per-cell accumulator is keyed by the 64-bit packed key (one root walk
/// builds it) and unpacked once per cell on return; the accumulation order
/// per cell is the chain order either way, so results are bit-identical to
/// the CellKey-keyed fallback.
CellMap ComputeCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                           CuboidId cuboid);

/// ComputeCuboidCells without the CellMap materialization: the cells stay
/// in the kernel's accumulation container (packed flat map under the codec,
/// CellMap fallback otherwise). The per-cell measures are bitwise identical
/// to ComputeCuboidCells — same chain order, same folds — only the
/// container differs. The algorithms' hot loops consume this form.
CuboidCells ComputeCuboidCellsTransient(const HTree& tree,
                                        const CuboidLattice& lattice,
                                        CuboidId cuboid);

/// Cuboid-partitioned entry point: computes the cells of every cuboid in
/// `cuboids`, one pool task per cuboid, returning the maps positionally
/// aligned with the input. Safe because H-cubing only reads the tree —
/// nodes, header chains and measures are immutable after Build. Serial
/// (same results) when `pool` is null.
std::vector<CellMap> ComputeCuboidCellsPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool);

/// The transient-form twin of ComputeCuboidCellsPartitioned.
std::vector<CuboidCells> ComputeCuboidCellsTransientPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool);

/// Member index of one cuboid: for every cell, the chain nodes whose
/// subtree measures ComputeCuboidCells folds into it, in the exact order
/// the kernel visits them (all of one cell's nodes share the cuboid's
/// deepest attribute value, so they live on one node-link chain and the
/// per-cell order is the chain order). Re-aggregating a cell from its node
/// list therefore reproduces the kernel's floating-point result bit for
/// bit — the foundation of the incremental cube's patch and roll paths,
/// which recompute cells from their node lists instead of re-running
/// H-cubing. Node ids stay valid for the tree's lifetime (the arena is
/// immutable after Build) and survive HTree::UpdateLeafMeasure and
/// HTree::ReplaceLeafMeasures, which change values, not structure.
///
/// Layout: flat rows. Row r is one cell — its key (a 64-bit packed key
/// when the tree has a codec, a CellKey otherwise) and its node list
/// nodes[offsets[r], offsets[r + 1]). A complete index is a sweep over
/// three arrays: an epoch roll recomputes every cell row by row without
/// a hash probe. The key -> row map the patch path's Find needs is built
/// on the first Find and kept current by Insert after that.
class CuboidMemberIndex {
 public:
  std::size_t num_rows() const { return offsets_.size() - 1; }

  /// Key of `row`. `tree` must be the tree the index was built over.
  CellKey RowKey(const HTree& tree, std::size_t row) const;

  /// Node list of `row`, in kernel (chain) order.
  const NodeId* row_begin(std::size_t row) const {
    return nodes_.data() + offsets_[row];
  }
  const NodeId* row_end(std::size_t row) const {
    return nodes_.data() + offsets_[row + 1];
  }

  /// The cell of `row` re-aggregated from the tree's current stored
  /// measures. Pre: the tree stores non-leaf measures.
  Isb FoldRow(const HTree& tree, std::size_t row) const {
    return tree.FoldSubtreeMeasures(row_begin(row), row_end(row));
  }

  /// The row of `key`, or -1 when the cell is not indexed. Builds the
  /// key -> row map on first use (O(rows) once).
  std::int64_t Find(const HTree& tree, const CellKey& key);

  /// Appends `nodes` as the row of `key` (no-op if present). Under a codec
  /// `key` must pack — every in-tree cell key does (CHECKed).
  void Insert(const HTree& tree, const CellKey& key,
              const std::vector<NodeId>& nodes);

  /// Analytic footprint (row arrays + key -> row map), for the cube-memo
  /// memory accounting.
  std::int64_t MemoryBytes() const;

 private:
  friend CuboidMemberIndex BuildCuboidMemberIndex(const HTree& tree,
                                                  const CuboidLattice& lattice,
                                                  CuboidId cuboid);

  std::vector<std::uint64_t> packed_keys_;  // by row, under a codec
  std::vector<CellKey> keys_;               // by row, without one
  std::vector<std::uint32_t> offsets_{0};   // num_rows() + 1 entries
  std::vector<NodeId> nodes_;
  bool has_row_map_ = false;
  std::unordered_map<std::uint64_t, std::uint32_t> row_of_packed_;
  std::unordered_map<CellKey, std::uint32_t, CellKeyHash> row_of_key_;
};

/// Builds the complete member index of `cuboid` with the same traversal
/// ComputeCuboidCells performs (one chain scan of the deepest attribute;
/// the apex indexes the root), rows numbered by first visit. O(nodes at
/// the deepest attribute's depth), plus one arena sweep for packed keys.
CuboidMemberIndex BuildCuboidMemberIndex(const HTree& tree,
                                         const CuboidLattice& lattice,
                                         CuboidId cuboid);

/// Chain nodes one full BuildCuboidMemberIndex / ComputeCuboidCells pass
/// over `cuboid` visits: the node count at its deepest attribute's depth
/// (1 for the apex). The cost yardstick adaptive seeding compares member
/// volume against.
std::int64_t CuboidChainLength(const HTree& tree, const CuboidLattice& lattice,
                               CuboidId cuboid);

/// Seeds one cell's member-index node list from its member m-layer keys
/// (the ingest-maintained MemberIndex feed) instead of scanning the whole
/// chain: each member's leaf is looked up, its ancestor at the cuboid's
/// deepest attribute taken, and the distinct ancestors ordered to
/// reproduce the chain order exactly — so the result is the same list
/// BuildCuboidMemberIndex would store for this cell, in the same order,
/// at O(members) cost instead of O(chain nodes).
///
/// Why the order comes out right: header chains link at the head, so a
/// cell's chain order is the reverse of its nodes' creation order, and a
/// node is created by the first tuple inserted under it. `members` must
/// be in canonical key order — the order the tree was built from (the
/// memoized window is canonical) — so first-occurrence-of-ancestor over
/// the member walk IS creation order, and reversing it is chain order.
///
/// Returns nullopt when any member has no leaf in the tree (the caller's
/// member set is newer than the tree — e.g. a cell ingested after the
/// memoized gather; fall back to the chain scan) or when `members` is
/// empty. O(members · depth) plus the dedupe.
std::optional<std::vector<NodeId>> SeedCellNodesFromMembers(
    const HTree& tree, const CuboidLattice& lattice, CuboidId cuboid,
    const std::vector<CellKey>& members);

/// One recomputed cell of a patch: key + its new aggregate. Kept as a flat
/// vector (touched keys are already unique) so the hot patch path never
/// pays hash-map construction for its results.
using PatchedCells = std::vector<std::pair<CellKey, Isb>>;

/// The patch-apply kernel: recomputes exactly the `touched` cells of the
/// indexed cuboid by re-folding each cell's chain nodes in index (== chain)
/// order (CuboidMemberIndex::FoldRow). Bit-identical to the cells ComputeCuboidCells would produce on a
/// freshly built tree over the same key set, because the operand sequence
/// is identical (on a stored-measure tree each node's contribution is the
/// stored subtree fold, itself bitwise equal to the lazy walk). Every
/// touched key must be present in the index (a missing key means the
/// caller skipped a structural rebuild; CHECKed).
/// O(Σ touched cells' chain nodes), independent of the cuboid's size.
PatchedCells RecomputeCellsFromIndex(const HTree& tree,
                                     CuboidMemberIndex& index,
                                     const std::vector<CellKey>& touched);

/// The prefix-cuboid patch shortcut: cells of a tree-prefix cuboid are in
/// one-to-one correspondence with the nodes at its depth, and each cell's
/// H-cubed aggregate equals that node's stored subtree measure bit for bit
/// (the chain fold over a single contribution is the identity). Given the
/// refreshed dirty nodes at `depth` (from HTree::RefreshAncestorMeasures),
/// this reads the touched cells straight off them — no projection, no
/// chain scan, no member index. Pre: stored measures; `cuboid` is the
/// prefix cuboid of `depth` (checked like ReadPrefixCuboidCells).
PatchedCells PrefixCellsFromNodes(const HTree& tree,
                                  const CuboidLattice& lattice,
                                  CuboidId cuboid, int depth,
                                  const std::vector<const HTreeNode*>& nodes);

/// Popular-path drilling kernel: computes the cells of `child_cuboid` that
/// lie under any of the `parent_cells` keys of `parent_cuboid` (the
/// exception cells being drilled). One batched chain scan of the child's
/// deepest attribute serves every parent cell at once; each chain node's
/// parent- and child-cuboid keys are read off its path in a single root
/// walk and the parent key filtered against `parent_cells` (a packed-key
/// set when the codec is available). Pre: parent_cuboid is an ancestor of
/// child_cuboid and the tree stores non-leaf measures (checked).
CellMap ComputeDrillChildren(const HTree& tree, const CuboidLattice& lattice,
                             CuboidId parent_cuboid,
                             const CellMap& parent_cells,
                             CuboidId child_cuboid);

/// ComputeDrillChildren in the kernel's accumulation form (see
/// ComputeCuboidCellsTransient); popular-path drilling merges and filters
/// these without materializing a CellMap per drill step.
CuboidCells ComputeDrillChildrenTransient(const HTree& tree,
                                          const CuboidLattice& lattice,
                                          CuboidId parent_cuboid,
                                          const CellMap& parent_cells,
                                          CuboidId child_cuboid);

/// Cells of a tree-prefix cuboid read directly from the nodes at its depth
/// (popular-path Step 2: "aggregated regression points stored in the
/// nonleaf nodes"). `depth` is the number of attributes consumed; the
/// cuboid's attributes must be exactly the deepest level of each dimension
/// introduced in the first `depth` tree attributes (checked).
/// Pre: the tree stores non-leaf measures (checked).
CellMap ReadPrefixCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                              CuboidId cuboid, int depth);

/// ReadPrefixCuboidCells in the kernel's accumulation form (see
/// ComputeCuboidCellsTransient).
CuboidCells ReadPrefixCuboidCellsTransient(const HTree& tree,
                                           const CuboidLattice& lattice,
                                           CuboidId cuboid, int depth);

}  // namespace regcube

#endif  // REGCUBE_HTREE_HTREE_CUBING_H_
