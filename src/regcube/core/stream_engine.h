#ifndef REGCUBE_CORE_STREAM_ENGINE_H_
#define REGCUBE_CORE_STREAM_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/member_index.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/regression_cube.h"
#include "regcube/cube/exception_policy.h"
#include "regcube/io/frame_store.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {

class MemoryTracker;

/// One raw stream observation: a cell key (m-layer values, or primitive
/// values if a key mapper is installed), a time tick, and a measure value.
struct StreamTuple {
  CellKey key;
  TimeTick tick = 0;
  double value = 0.0;
};

/// Outcome of a batch ingest. `absorbed` counts the tuples applied before
/// the first error — exactly the prefix the engine kept — so callers can
/// resume or reconcile a partially failed batch instead of guessing.
/// `status` is OK iff the whole batch was absorbed (absorbed == attempted).
/// On the sharded engine the batch is partitioned by shard and shards are
/// fed in index order, so the absorbed set is the union of fully fed
/// shards plus the failing shard's prefix (still `absorbed` tuples, but
/// not a prefix of the caller's original order).
struct IngestReport {
  std::int64_t absorbed = 0;
  std::int64_t attempted = 0;
  Status status;

  bool ok() const { return status.ok(); }
};

/// One m-layer cell frozen for lock-free reads: its key plus a refcounted
/// immutable view of its tilt frame. The unit of the snapshot read path —
/// gathered under a shard lock, queried without any. Because the frame is
/// shared rather than owned, a gather that finds a cell unchanged since the
/// last freeze copies a pointer, not the frame: snapshot cost scales with
/// the cells that changed, not the population.
struct CellSnapshot {
  CellKey key;
  std::shared_ptr<const TiltTimeFrame> frame;
};

/// What one gather actually paid: how many frames had to be materialized
/// (deep-copied) versus shared from the frozen cache, and the bytes those
/// copies retain. The bench's delta-vs-full comparison reads these.
struct GatherStats {
  std::int64_t cells = 0;         // cells in the gather
  std::int64_t materialized = 0;  // frames deep-copied (dirty or re-aligned)
  std::int64_t bytes_copied = 0;  // bytes retained by those copies
  std::int64_t shards_reused = 0; // shards served wholesale from their cache
  std::int64_t cold_views = 0;    // spilled frames viewed in place (no copy)

  void Merge(const GatherStats& other) {
    cells += other.cells;
    materialized += other.materialized;
    bytes_copied += other.bytes_copied;
    shards_reused += other.shards_reused;
    cold_views += other.cold_views;
  }
};

/// One shard of the on-line analysis engine of §4.5: maintains one tilt
/// time frame per m-layer cell, continuously absorbing the stream, and
/// publishes them as immutable canonical-order runs of frozen frames —
/// the only read door. Every query (windows, cubes, the observation deck,
/// point queries) runs on those runs through the pure kernels of
/// core/snapshot_reads; ShardedStreamEngine owns the shards and their
/// publications. Besides ingest, seal and publish, a shard keeps the
/// per-cuboid member index, the cold tier (spill, fault-in) and the
/// checkpoint export.
///
/// Not thread-safe: the owning ShardedStreamEngine guards each shard with
/// its own mutex.
///
/// Tick semantics: ticks arrive in non-decreasing order per cell (enforced
/// per frame); missing ticks contribute zero (additive stream semantics,
/// see TiltTimeFrame).
class StreamCubeEngine {
 public:
  enum class Algorithm { kMoCubing, kPopularPath };

  struct Options {
    /// Tilt frame structure shared by every cell.
    std::shared_ptr<const TiltPolicy> tilt_policy;

    /// First tick of the stream.
    TimeTick start_tick = 0;

    /// Exception predicate the cube reads apply.
    ExceptionPolicy policy{0.0};

    Algorithm algorithm = Algorithm::kMoCubing;

    /// Drill path for the popular-path algorithm (default path if unset).
    std::optional<DrillPath> path;

    /// Maps incoming primitive-layer keys to m-layer keys ("the m-layer
    /// should be the layer aggregated directly from the stream data").
    /// Identity when null.
    std::function<CellKey(const CellKey&)> key_mapper;
  };

  StreamCubeEngine(std::shared_ptr<const CubeSchema> schema, Options options);

  /// Absorbs one observation.
  Status Ingest(const StreamTuple& tuple);

  /// Absorbs a batch, stopping at the first error; the report says how
  /// many tuples were absorbed before it.
  IngestReport IngestBatch(const std::vector<StreamTuple>& tuples);

  /// Declares that no data with tick <= `t` remains in flight: the clock
  /// moves to at least t + 1 and every frame seals through it ("the
  /// aggregated data will trigger the cube computation once every 15
  /// minutes"). The clock it reaches becomes the sealed watermark.
  Status SealThrough(TimeTick t);

  /// Latest tick ingested or sealed.
  TimeTick now() const { return now_; }

  /// The clock the last SealThrough advanced every frame to. A spilled
  /// frame is not advanced by the seal; a write that faults it in
  /// advances it to this watermark first, so it refuses exactly the
  /// ticks the resident frame would have.
  TimeTick sealed() const { return sealed_; }

  /// Number of distinct m-layer cells seen.
  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(cells_.size());
  }

  /// Observation deck (§4.2): for every o-layer cell, its sealed slot
  /// series at one tilt level — "the layer an analyst takes as an
  /// observation deck, watching the changes of the current stream data".
  /// Computed by SnapshotDeckOf.
  using DeckSeries = std::unordered_map<CellKey, std::vector<Isb>, CellKeyHash>;

  /// A trend change at the o-layer: the regression "between two points
  /// represented by the current cell vs. the previous one" (§4.3).
  struct TrendChange {
    CellKey key;
    Isb previous;
    Isb current;
    double slope_delta = 0.0;  // |current.slope - previous.slope|
  };

  // ---- the publish half of the snapshot read path -----------------------

  /// An immutable canonical-key-ordered run of frozen cells, shared
  /// between the per-shard publication that owns it and any snapshots or
  /// merged runs holding it.
  using FrozenSlice = std::shared_ptr<const std::vector<CellSnapshot>>;

  /// Builds the run that succeeds `base` — a full sorted export of every
  /// cell — and hands it back. The engine keeps no run of its own: `base`
  /// is the caller's current publication (the run the previous refresh
  /// returned), or null for a full export. With a base, only the cells on
  /// the dirty list are re-frozen and spliced over a pointer-copy of it;
  /// with an empty dirty list the base itself is handed back (counted as
  /// shards_reused). A caller that adds cells outside the dirty list
  /// (RestoreCell) must pass null next. Frames are frozen at their own
  /// clock; callers align to a global clock outside the lock (sharing
  /// survives the alignment when no tilt-unit boundary was crossed, see
  /// TiltPolicy::AnyUnitEndIn) and must align *copies*: the returned run
  /// is immutable and shared.
  ///
  /// On a fault-in failure (typed Unavailable from the store) nothing is
  /// consumed: the dirty list stays put, so the next refresh from the same
  /// base retries exactly the same work.
  Status RefreshPublishedRun(const FrozenSlice& base, FrozenSlice* out,
                             GatherStats* stats);

  /// Appends the m-layer keys that roll up into `key` of `cuboid` (index
  /// probe, activating the cuboid's map on first use — O(cells) once per
  /// cuboid, then O(matching members)) — the member feed for point-query
  /// gathers and the cube memo's seeded per-cuboid node indexes. Order is
  /// cell creation order; callers canonicalize. Pre: `cuboid` is a valid
  /// lattice id (callers validate; see ValidatePointQueryTarget).
  void AppendMemberKeys(CuboidId cuboid, const CellKey& key,
                        std::vector<CellKey>* out);

  /// Bytes retained by the member-index machinery: the per-cuboid roll-up
  /// maps plus the creation-order cell-id list they resolve through (also
  /// accounted to the memory tracker under "index.members").
  std::int64_t MemberIndexBytes() const {
    return member_index_.MemoryBytes() +
           static_cast<std::int64_t>(cells_by_id_.size()) *
               static_cast<std::int64_t>(sizeof(cells_by_id_[0]));
  }

  /// Monotonic counter of observable state changes: cell creation, absorbed
  /// observations, and frame advances that sealed at least one slot.
  /// Alignment that crosses no tilt-unit boundary does NOT move it — reads
  /// memoized on this revision stay valid across no-op seals.
  std::uint64_t revision() const { return revision_; }

  /// Bytes retained by the RAM-resident per-cell state (keys, map overhead,
  /// live tilt frames — spilled frames excluded). Maintained incrementally
  /// per mutation, so this is O(1), and mirrored to the tracker under
  /// "stream.tilt_frames".
  std::int64_t MemoryBytes() const { return frame_bytes_; }

  /// Bytes retained by the cached frozen blocks (also accounted to the
  /// memory tracker, if one is installed, under "snapshot.frozen_frames",
  /// posted once at the end of each call that freezes or drops blocks).
  std::int64_t FrozenBytes() const { return frozen_bytes_; }

  /// Installs analytic memory accounting for the frozen-block cache (any
  /// bytes already frozen are registered immediately). Pass nullptr to
  /// detach. Not owned; must outlive the engine.
  void set_memory_tracker(MemoryTracker* tracker);

  // ---- the cold tier: spill, fault-in, checkpoint ----------------------

  /// Attaches the cold tier this engine spills to / faults in from (shared
  /// across shards; `shard_index` names this engine's spill segment). Not
  /// owned; must outlive the engine. Install before any spill/restore.
  void set_frame_store(FrameStore* store, int shard_index);

  struct SpillSweep {
    std::int64_t cells = 0;  // cells moved to the cold tier
    std::int64_t bytes = 0;  // RAM bytes released (frames + dropped frozen)
  };

  /// Evicts resident cells, dirty or clean, to the frame store, least
  /// recently modified first, until ~`target_bytes` of RAM is released or
  /// every cell is cold: the chosen frames' records go out in one write.
  /// The governor's lever for frames, right after the cube memo. A
  /// spilled cell keeps only its BlockRef and drops its frozen copy; reads
  /// view its block in place (FrozenFor), and the cell is queued (if a
  /// write has not queued it already) so the next refresh swaps a view —
  /// holding any unexported write — into the published run too. Only a
  /// write faults it back in. Reads align a lagging block on a private
  /// copy, and AdvanceTo over missing ticks is deterministic, so queries
  /// cannot observe the spill. A failed append
  /// is retried a bounded number of times with a short backoff (counted
  /// in SpillRetries); if the write keeps failing the cells stay
  /// resident, the error is counted in SpillIoErrors — degradation, never
  /// data loss.
  SpillSweep SpillColdFrames(std::int64_t target_bytes);

  /// Applies a compaction's relocation map to this engine's spilled cells:
  /// every BlockRef that names a rewritten block is re-pointed at its copy
  /// in the new segment. Must run under the same lock that guards this
  /// engine's locked reads (the sharded engine holds the shard mutex
  /// across CompactShardSegment + this call). Views into the old segment
  /// stay valid (each holds the old mapping); a relocated cell drops its
  /// cached view and is queued, so the next refresh views the new segment
  /// and the old mapping is unmapped once published runs and snapshots
  /// let go of it.
  void RepointSpilledBlocks(
      const std::vector<FrameStore::Relocation>& relocations);

  /// Spill writes that failed even after retries (cells kept resident).
  std::int64_t SpillIoErrors() const { return spill_io_errors_; }

  /// Spill write retries that were attempted (successful or not).
  std::int64_t SpillRetries() const { return spill_retries_; }

  /// Drops every cached frozen copy (they are rebuilt on demand from the
  /// live frames) and returns the bytes released — an eviction rung above
  /// spilling: cheap to rebuild, no disk round trip. Views of spilled
  /// blocks stay: they are charged nothing.
  std::int64_t DropFrozenBlocks();

  /// Installs one checkpointed cell as spilled state: the key is
  /// registered (indexes, revision) but the frame stays in the mapped file.
  /// The warm-restart door — OpenFrom's first query views the blocks in
  /// the checkpoint mapping, and only a write faults a cell in. The cell
  /// is not dirty-queued, so the caller must retire any run published
  /// before the restore. Pre: a frame store is attached; the key must be
  /// new.
  Status RestoreCell(const CellKey& key, const BlockRef& ref);

  /// Moves the clock and the sealed watermark forward to `now` and
  /// `sealed` (no-op where already past) without touching any frame —
  /// restores both after RestoreCell.
  void RestoreClock(TimeTick now, TimeTick sealed) {
    now_ = std::max(now_, now);
    sealed_ = std::max(sealed_, sealed);
  }

  /// Appends (key, tilt-frame record) for every cell — resident frames
  /// write their record, spilled cells copy their stored record straight
  /// from the store. The checkpoint writer's per-shard collection step.
  Status ExportFrameRecords(
      std::vector<std::pair<CellKey, std::string>>* out);

  /// Cells currently cold (frame on disk, BlockRef in RAM).
  std::int64_t SpilledCells() const { return spilled_cells_; }

 private:
  struct CellState {
    /// Null while the cell is spilled — then `spill` names the frame's
    /// record in the store, reads view it, and LiveFrame faults it back in
    /// on the next write.
    std::unique_ptr<TiltTimeFrame> frame;
    BlockRef spill;                   // valid iff frame == nullptr
    std::int64_t tracked_bytes = 0;   // this cell's share of frame_bytes_
    std::uint64_t last_modified = 0;  // revision of the last observable change
    // Immutable copy of `frame`, or a view of the spilled block.
    std::shared_ptr<const TiltTimeFrame> frozen;
    std::uint64_t frozen_revision = 0;  // last_modified captured in `frozen`
    bool queued = false;  // on dirty_cells_, awaiting the next export

    explicit CellState(std::unique_ptr<TiltTimeFrame> f)
        : frame(std::move(f)) {}
  };

  /// Advances every resident frame to the engine clock so slot structures
  /// align, and records the clock as the sealed watermark. Bumps the
  /// revision (and dirties a cell) only when its frame seals a slot.
  void AlignFrames();

  CellState& CellFor(const CellKey& key);

  /// Builds `cuboid`'s roll-up map from the current cell population if it
  /// is not active yet — O(cells) once per cuboid, amortized across every
  /// later probe — and keeps the tracker's "index.members" figure current.
  void EnsureIndexed(CuboidId cuboid);

  /// Re-registers the member index's bytes with the tracker after a
  /// mutation (activation or per-ingest append).
  void AccountMemberIndex();

  /// Records an observable change to a cell: bumps the revision, stamps the
  /// cell, and — if the cell was clean — queues it on the dirty list the
  /// next export patches from.
  void MarkDirty(const CellKey& key, CellState& state);

  /// Queues a cell whose content did not change but whose frozen block
  /// did (a spill or relocation swaps in a view), so the next refresh
  /// replaces its published entry. The revision does not move.
  void QueueForRefresh(const CellKey& key, CellState& state);

  /// Replaces a cell's frozen block and moves frozen_bytes_ by the
  /// difference. The tracker is not touched here: the caller posts the
  /// accumulated delta once through PostFrozenBytes.
  void PublishFrozen(CellState& state,
                     std::shared_ptr<const TiltTimeFrame> block);

  /// Posts the gap between frozen_bytes_ and the bytes registered with the
  /// tracker as one Add or Release. Every entry point that freezes or
  /// drops blocks calls it once on exit, so a refresh of N dirty cells
  /// takes the tracker's mutex once, not N times.
  void PostFrozenBytes();

  /// Calls PostFrozenBytes when it leaves scope: keeps "once on exit"
  /// true for early error returns too.
  struct FrozenPostGuard {
    StreamCubeEngine* engine;
    ~FrozenPostGuard() { engine->PostFrozenBytes(); }
  };

  /// The cell's current frozen block, refreshed if the cell changed since
  /// the last freeze: a copy of the live frame (counted into `stats`), or
  /// for a spilled cell a view of its block — never a fault-in. A view
  /// that cannot be made (the store's read fails) yields a typed
  /// Unavailable.
  Result<std::shared_ptr<const TiltTimeFrame>> FrozenFor(CellState& state,
                                                         GatherStats* stats);

  /// The cell's live frame for a write, faulting it in from the frame
  /// store if it is spilled: one memcpy, then an advance to the sealed
  /// watermark (the seals it missed while cold). The caller accounts the
  /// cell afterwards. A failed fault-in (typed Unavailable from the store)
  /// leaves the cell spilled and intact: the error propagates to the
  /// ingest caller and a later write retries.
  Result<TiltTimeFrame*> LiveFrame(CellState& state);

  /// Recomputes the cell's resident-byte contribution and folds the delta
  /// into frame_bytes_ (and the tracker). Call after any frame mutation,
  /// spill, or fault-in.
  void AccountCell(CellState& state);

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  Options options_;
  std::unordered_map<CellKey, CellState, CellKeyHash> cells_;
  TimeTick now_;
  TimeTick sealed_;  // the clock the last AlignFrames advanced frames to
  std::uint64_t revision_ = 0;
  std::int64_t frozen_bytes_ = 0;
  std::int64_t frozen_tracked_ = 0;  // frozen bytes registered with tracker_
  std::int64_t frame_bytes_ = 0;  // resident cell bytes, kept by AccountCell
  MemoryTracker* tracker_ = nullptr;

  // The cold tier (shared across shards, not owned) and this engine's
  // segment index within it.
  FrameStore* store_ = nullptr;
  int shard_index_ = 0;
  std::int64_t spilled_cells_ = 0;
  std::int64_t spill_io_errors_ = 0;
  std::int64_t spill_retries_ = 0;

  // Delta-export bookkeeping: dirty_cells_ lists each cell modified since
  // the dirty list was last consumed — exactly what the next refresh must
  // patch over its base run. The `queued` flag keeps every cell on the
  // list at most once, so the list is bounded by num_cells() regardless
  // of how writes interleave with refreshes or member gathers. CellState
  // pointers are stable (node-based map) and cells are never erased, so
  // the raw pointer is safe for the engine's lifetime.
  std::vector<std::pair<CellKey, CellState*>> dirty_cells_;

  // The ingest-maintained per-cuboid roll-up index (see MemberIndex):
  // cells_by_id_ lists every cell in creation order (ids are positions;
  // cells are never erased, so both the ids and the CellState pointers are
  // stable), and member_index_ maps projected keys to member ids for each
  // lazily activated cuboid. member_index_tracked_ mirrors the bytes
  // registered with the tracker under "index.members".
  std::vector<std::pair<CellKey, CellState*>> cells_by_id_;
  MemberIndex member_index_;
  std::int64_t member_index_tracked_ = 0;
};

class ThreadPool;

/// Runs the options' configured cubing algorithm over one m-layer window —
/// the single dispatch point behind every cube read (SnapshotCubeOf). A non-null `pool` partitions the work across
/// it: per-cuboid H-cubing for m/o cubing, and each drill step's
/// ComputeDrillChildren scans for popular-path cubing (the walk along the
/// path itself stays sequential — each step's exceptions seed the next).
/// Results are identical with or without a pool.
Result<RegressionCube> ComputeCubeFromWindow(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples,
    const StreamCubeEngine::Options& options, ThreadPool* pool = nullptr);

}  // namespace regcube

#endif  // REGCUBE_CORE_STREAM_ENGINE_H_
