#ifndef REGCUBE_API_SNAPSHOT_H_
#define REGCUBE_API_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "regcube/api/query_spec.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/sharded_engine.h"

namespace regcube {

/// An immutable, self-contained frozen view of the engine's m-layer —
/// the read side of the public API. Taking one (Engine::TakeSnapshot)
/// merges each shard's published run: under steady async ingest
/// the shard-owner threads republish inside every absorb, so the take
/// touches no shard mutex at all; only a shard whose publication is stale
/// (sync-mode writes, or a seal since the last publish) pays a brief
/// locked republish of its changed cells. Every query afterwards runs
/// lock-free against the frozen cells, so any number of threads can drill
/// into one snapshot while ingest keeps flowing on the live engine.
///
/// Cost model: the frozen cells are refcounted immutable frame blocks
/// shared with the shards' published generations, so taking a snapshot
/// deep-copies only the cells that changed since the last publish —
/// O(changed cells), not O(all cells). QueryCell/QueryCellSeries *on a snapshot*
/// scan its frozen cells (the snapshot is self-contained and may outlive
/// the engine); point queries that should skip the snapshot entirely go
/// through Engine::Query, which routes kCell/kCellSeries to the engine's
/// member-only gather instead.
///
/// Lifecycle: take → query many → drop.
///
///   auto snap = engine.TakeSnapshot();
///   auto deck = snap->Query(QuerySpec::ObservationDeck(0));
///   auto top  = snap->Query(QuerySpec::TopExceptions(10, 0, 8));
///   // snap's results never change, no matter what the engine ingests.
///
/// Staleness is explicit: revision() is the engine revision the snapshot
/// was taken at; compare against Engine (via a fresh TakeSnapshot) to
/// decide when to refresh. Engine::TakeSnapshot memoizes by revision, so
/// repeated drilling between writes shares one snapshot (and one cube).
///
/// Results are bit-identical to the engine's own reads for every shard
/// count: the frozen cells are in canonical key order and every
/// aggregation runs through the same snapshot_reads kernels the engine
/// uses. Cube-side kinds materialize the cube over the spec's (level, k)
/// window once and memoize it inside the snapshot (per-cuboid cubing work
/// is partitioned across the engine's thread pool).
class CubeSnapshot {
 public:
  using DeckSeries = StreamCubeEngine::DeckSeries;
  using TrendChange = StreamCubeEngine::TrendChange;

  CubeSnapshot(const CubeSnapshot&) = delete;
  CubeSnapshot& operator=(const CubeSnapshot&) = delete;

  /// Serves every QueryKind against the frozen cells — the same dispatch
  /// Engine::Query performs, minus the engine.
  Result<QueryResult> Query(const QuerySpec& spec) const;

  /// Merged m-layer window over the most recent `k` sealed slots of tilt
  /// `level`, in canonical key order (the cube computation input).
  Result<std::vector<MLayerTuple>> Window(int level, int k) const;

  /// Recomputes the partially materialized cube over that window with the
  /// engine's configured algorithm. Unmemoized; Query's cube kinds share
  /// the memoized cube instead.
  Result<RegressionCube> ComputeCube(int level, int k) const;

  /// Observation deck (§4.2): per o-layer cell, its sealed slot series.
  Result<DeckSeries> ObservationDeck(int level) const;

  /// O-layer cells whose slope moved by >= `threshold` between the last
  /// two sealed slots of `level`, strongest change first.
  Result<std::vector<TrendChange>> DetectTrendChanges(int level,
                                                      double threshold) const;

  /// On-the-fly regression of one cell of any lattice cuboid.
  Result<Isb> QueryCell(CuboidId cuboid, const CellKey& key, int level,
                        int k) const;

  /// The cell's whole sealed slot series at `level`.
  Result<std::vector<Isb>> QueryCellSeries(CuboidId cuboid, const CellKey& key,
                                           int level) const;

  /// Engine revision this snapshot froze; the staleness handle.
  std::uint64_t revision() const { return gathered_.revision; }

  /// Non-OK when the gather behind this snapshot failed (a spilled cell
  /// could not be faulted in — typed Unavailable from the cold tier). A
  /// failed snapshot holds no cells and every query on it returns this
  /// status; the engine never caches one, so the next TakeSnapshot
  /// retries the gather.
  const Status& status() const { return gathered_.status; }

  /// What the underlying gather paid for this snapshot: frames
  /// materialized vs shared, and — with a cold tier configured — how many
  /// spilled frames it viewed in place (`cold_views`; a read never faults
  /// a cell in). The observability hook the spill tests and benches read
  /// to prove a snapshot's provenance.
  const GatherStats& gather_stats() const { return gathered_.stats; }

  /// The tick every frozen frame is aligned to.
  TimeTick now() const { return gathered_.clock; }

  /// Distinct m-layer cells frozen.
  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(gathered_.cells->size());
  }

  /// Bytes of frozen frame blocks this snapshot keeps alive (views of
  /// spilled blocks count nothing: they are page cache). The blocks
  /// are refcount-shared with the shards' frozen caches, so while the
  /// shards hold them too they are already accounted there — but a live
  /// snapshot pins them past any engine-side eviction, and the memory
  /// report surfaces that residual as "snapshot.pinned_frames".
  std::int64_t PinnedFrameBytes() const { return pinned_frame_bytes_; }

  const CubeSchema& schema() const { return *schema_; }
  const CuboidLattice& lattice() const { return lattice_; }

 private:
  friend class Engine;

  CubeSnapshot(std::shared_ptr<const CubeSchema> schema,
               ExceptionPolicy policy, StreamCubeEngine::Options options,
               std::shared_ptr<ThreadPool> pool,
               ShardedStreamEngine::GatheredCells gathered);

  /// The memoized cube for (level, k): double-checked under the lock,
  /// computed outside it, published atomically — concurrent cube-side
  /// queries never serialize behind one cubing run.
  Result<std::shared_ptr<const RegressionCube>> CubeFor(int level,
                                                        int k) const;

  struct CubeMemo {
    std::mutex mu;
    bool valid = false;
    int level = 0;
    int k = 0;
    std::shared_ptr<const RegressionCube> cube;
  };

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  ExceptionPolicy policy_;
  StreamCubeEngine::Options options_;  // algorithm/policy/tilt for cubing
  std::shared_ptr<ThreadPool> pool_;
  // The gather this snapshot froze: cells in canonical key order, aligned
  // to its clock, at its revision; a non-OK status poisons every query.
  ShardedStreamEngine::GatheredCells gathered_;
  std::int64_t pinned_frame_bytes_ = 0;  // Σ frozen frame OwnedBytes()
  mutable CubeMemo memo_;  // logically immutable: a memo of the derived cube
};

}  // namespace regcube

#endif  // REGCUBE_API_SNAPSHOT_H_
