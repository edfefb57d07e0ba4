#ifndef REGCUBE_CORE_INCREMENTAL_CUBE_H_
#define REGCUBE_CORE_INCREMENTAL_CUBE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/snapshot_reads.h"
#include "regcube/htree/htree.h"
#include "regcube/htree/htree_cubing.h"

namespace regcube {

class MemoryTracker;
class ThreadPool;

/// The maintained partially-materialized cube — the §4.5 promise made
/// structural: instead of re-running m/o H-cubing over the whole window on
/// every query, the materialized RegressionCube (m-layer, o-layer,
/// exception set) is cached keyed by engine revision, and the next query
/// folds only what actually changed into it.
///
/// How maintenance stays bit-identical to from-scratch H-cubing (the
/// correctness bar every RC_CHECK in the tests and benches enforces):
/// floating-point retraction ((S + x) - x) does not reproduce a recomputed
/// sum's bits, so the memo does not subtract — it re-aggregates. It keeps
/// the H-tree of the window alive across revisions; the tree's structure,
/// chains and hash layouts are a function of the canonical key sequence
/// alone, so as long as the cell population is unchanged it is *the* tree a
/// fresh build over the new window would produce. Every cuboid cell is
/// re-aggregated from a per-cuboid member index (BuildCuboidMemberIndex)
/// that replays the kernel's exact fold order.
///  - A patch (late data into sealed slots) updates the changed leaves in
///    place (HTree::UpdateLeafMeasure), refolds their ancestors, and
///    recomputes only the cuboid cells they roll up into. Touched o-layer
///    cells are overwritten; touched intermediate cells re-evaluate the
///    exception predicate and are inserted into or erased from the store.
///  - An epoch roll (a slot sealed at the queried level, so every cell's
///    window moved to a new common interval) rewrites every leaf and
///    refolds every stored measure (HTree::ReplaceLeafMeasures), then
///    sweeps every cuboid's complete member rows in chain order: the
///    m-layer and o-layer are overwritten in place and each exception map
///    is rebuilt with the kernel's predicate. No tree build, no chain
///    scan, no hash probe per cell.
///
/// Cost model per query at one (level, k):
///  - revision unchanged:            O(1) (shared-pointer hand-out).
///  - changed frames, same windows:  O(changed cells) regressions to prove
///    the windows didn't move (churn confined to open slots), then O(1).
///  - changed windows, same epoch:   O(Σ touched cells' members) — the
///    patch.
///  - same population, window interval moved: O(cells) regressions plus
///    O(tree nodes' leaf ranges + Σ cuboid rows' members) — the roll.
///  - new cells / (level, k) changed / a regression error: full
///    from-scratch H-cubing (the memoized from-scratch kernel is the same
///    one the oracle uses, so a rebuild is trivially bit-identical).
/// The stored-measure tree and the member indexes are built lazily: the
/// first patch or roll after a rebuild pays one tree build, and the first
/// roll one chain scan per cuboid for its complete rows; a rebuild itself
/// costs exactly one from-scratch cubing run.
///
/// The memory trade-off (stored tree + member rows + retained cube +
/// window) is accounted to MemoryTracker under "cube.memo".
///
/// Only the m/o H-cubing algorithm is maintainable this way; popular-path
/// cubing stores subtree measures in non-leaf nodes and derives its
/// exception subset from drill reachability, so its callers stay on the
/// from-scratch path (the sharded engine routes accordingly).
class IncrementalCubeCache {
 public:
  IncrementalCubeCache(std::shared_ptr<const CubeSchema> schema,
                       StreamCubeEngine::Options options);
  ~IncrementalCubeCache();

  IncrementalCubeCache(const IncrementalCubeCache&) = delete;
  IncrementalCubeCache& operator=(const IncrementalCubeCache&) = delete;

  /// The maintained cube over `run` (a canonical aligned gather at
  /// `revision`) for the (level, k) window. Thread-safe; maintenance is
  /// serialized, hits are a refcount copy. The returned cube is immutable:
  /// a later patch copies-on-write if anyone still holds it.
  Result<std::shared_ptr<const RegressionCube>> CubeFor(
      std::shared_ptr<const SnapshotCells> run, std::uint64_t revision,
      int level, int k, ThreadPool* pool);

  /// True iff serving (level, k) would evict a live memo of a *different*
  /// window — the signal for by-value exporters (ComputeCube) to compute
  /// from scratch instead of clobbering the memo cube-kind queries are
  /// riding.
  bool WouldEvictDifferentWindow(int level, int k) const;

  /// Drops the memoized state (and its tracker registration). The next
  /// query rebuilds from scratch.
  void Invalidate();

  /// Resolves the member m-layer keys of a batch of cuboid cells (one
  /// member list per input key, each in canonical key order) — the
  /// ingest-maintained MemberIndex feed (the sharded engine installs a
  /// merged cross-shard probe; batching keeps the per-shard locking cost
  /// per patch, not per cell). When set, a patch seeds each touched
  /// cell's node list from its members (O(members)) instead of scanning
  /// the cuboid's whole chain (O(chain nodes)); the chain scan remains
  /// the fallback whenever the lookup disagrees with the memoized tree
  /// (e.g. cells ingested after the memoized gather) or the cumulative
  /// member volume outgrows one chain scan. Install before concurrent
  /// use. The callback may take shard locks: it is invoked with only this
  /// cache's mutex held, which no shard-lock holder ever takes.
  using MemberLookup = std::function<std::vector<std::vector<CellKey>>(
      CuboidId, const std::vector<CellKey>&)>;
  void set_member_lookup(MemberLookup lookup);

  /// Maintenance counters (monotone), for tests and benches.
  struct Stats {
    std::int64_t hits = 0;           // served at the memoized revision
    std::int64_t revalidations = 0;  // revision moved, no window moved
    std::int64_t patches = 0;        // folded changed windows into the memo
    std::int64_t rolls = 0;          // recomputed in place after an epoch roll
    std::int64_t rebuilds = 0;       // from-scratch (first/structural/error)
    std::int64_t patched_cells = 0;  // m-cells folded across all patches
  };
  Stats stats() const;

  /// Analytic bytes retained by the memo (stored tree + member rows + cube +
  /// window) — what the tracker holds under "cube.memo".
  std::int64_t MemoryBytes() const;

  /// Installs analytic memory accounting under "cube.memo" (any bytes
  /// already memoized are registered immediately). Pass nullptr to detach.
  /// Not owned; must outlive the cache.
  void set_memory_tracker(MemoryTracker* tracker);

 private:
  /// One changed m-layer cell: its key, the window regression the memo
  /// must now reflect, and its position in the canonical run (== its
  /// position in `window_`, since populations match when patching).
  struct ChangedCell {
    const CellKey* key;  // points into `run`; outlives the patch
    Isb measure;
    size_t pos = 0;
  };

  /// Diff outcome: serve as-is, patch with the changed cells, recompute
  /// in place over the rolled window, or rebuild.
  enum class DiffVerdict { kClean, kPatch, kRoll, kRebuild };

  Result<std::shared_ptr<const RegressionCube>> RebuildLocked(
      const std::shared_ptr<const SnapshotCells>& run, std::uint64_t revision,
      int level, int k, ThreadPool* pool);

  /// Tandem-walks the memoized run against `run` (both canonical), using
  /// shared frame pointers to skip unchanged cells without touching them.
  /// On kPatch, `changed` holds the cells whose (level, k) windows moved.
  /// On kRoll — every cell's window moved to one new common interval —
  /// `rolled` holds every cell's new window measure, in run order (each
  /// cell regressed once). kRebuild covers structural changes, mixed
  /// window intervals and regression errors alike — the from-scratch
  /// kernel then reproduces the exact legacy result or error.
  DiffVerdict DiffLocked(const SnapshotCells& run, int level, int k,
                         std::vector<ChangedCell>* changed,
                         std::vector<Isb>* rolled);

  /// Builds the stored-measure tree over `window_` and sizes the
  /// per-cuboid index state, unless the tree already exists.
  Status EnsureTreeLocked();

  Status ApplyPatchLocked(const std::vector<ChangedCell>& changed,
                          ThreadPool* pool);

  /// The roll: `rolled` becomes the window, the tree's leaves and stored
  /// measures are replaced, and every cuboid is recomputed from its
  /// complete member rows (built on the first roll after a rebuild). A
  /// failure may leave the window half-rolled; the caller drops the memo.
  Status ApplyRollLocked(const std::vector<Isb>& rolled, ThreadPool* pool);

  /// Drops every memoized structure (the memo becomes invalid).
  void ResetLocked();

  /// Re-registers the memo's current footprint with the tracker:
  /// O(attributes + cuboids + exception cuboids), cheap enough per patch.
  void AccountLocked();

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  StreamCubeEngine::Options options_;

  mutable std::mutex mu_;
  bool valid_ = false;
  int level_ = 0;
  int k_ = 0;
  std::uint64_t revision_ = 0;
  // The run the memo reflects; shared with the snapshot it was gathered
  // for, so holding it costs pointers. Frame-pointer equality against the
  // next run is what makes the diff O(changed cells).
  std::shared_ptr<const SnapshotCells> run_;
  // The memoized window in canonical order — the diff base (old per-cell
  // measures) and the build input for the lazy tree.
  std::vector<MLayerTuple> window_;
  // Lazy maintenance machinery: the window's stored-measure H-tree and
  // per-cuboid member indexes, built on the first patch or roll after a
  // rebuild and reused until the next structural change. A patch normally
  // grows an index cell by cell, each touched cell's node list seeded
  // from the ingest-maintained member lookup (index_full_[c] == 0); the
  // full chain scan is the fallback and marks the cuboid complete
  // (index_full_[c] == 1; plain chars, not vector<bool>, because cuboids
  // are maintained concurrently on the pool). A roll needs every cuboid
  // complete and builds whatever is not.
  std::optional<HTree> tree_;
  std::vector<std::optional<CuboidMemberIndex>> indexes_;  // by cuboid id
  std::vector<unsigned char> index_full_;                  // by cuboid id
  // Lifetime seeding budget per cuboid (-1 = not yet initialized to the
  // cuboid's chain length): once the cumulative member volume seeded for a
  // cuboid rivals one chain scan, further seeding would cost more than the
  // complete build — fall back.
  std::vector<std::int64_t> index_seed_budget_;
  MemberLookup member_lookup_;
  // Tree-prefix depth per cuboid (-1 = not a prefix). A prefix cuboid's
  // patched cells are the refreshed dirty nodes at its depth — no
  // projection, no member index (see PrefixCellsFromNodes).
  std::vector<int> prefix_depth_;
  // Non-const internally so patches can fold in place when nobody else
  // holds the cube; handed out as shared_ptr<const RegressionCube> and
  // copied-on-write otherwise.
  std::shared_ptr<RegressionCube> cube_;
  Stats stats_;
  std::int64_t tracked_bytes_ = 0;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_INCREMENTAL_CUBE_H_
