#ifndef REGCUBE_CORE_SNAPSHOT_READS_H_
#define REGCUBE_CORE_SNAPSHOT_READS_H_

#include <memory>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/stream_engine.h"

namespace regcube {

class ThreadPool;

/// Lock-free aggregation over a frozen m-layer — the aggregate-outside half
/// of every snapshot read. Inputs are CellSnapshots in canonical key order,
/// aligned to one clock (ShardedStreamEngine::GatherAlignedCells produces
/// exactly that); every function here is pure, so any number of threads may
/// query one frozen cell set concurrently.
///
/// These functions are the single implementation behind both
/// ShardedStreamEngine's read methods and the facade's CubeSnapshot, which
/// is what keeps the two bit-identical: same canonical order, same
/// floating-point reduction order, same error contract.

/// CanonicalKeyLess (cube/cell.h) lifted to frozen cells — the one comparator every sort,
/// merge and tandem walk of the gather path uses.
inline bool CellSnapshotCanonicalLess(const CellSnapshot& a,
                                      const CellSnapshot& b) {
  return CanonicalKeyLess(a.key, b.key);
}

/// The frozen m-layer cells a snapshot query runs against. Each entry
/// shares an immutable refcounted frame block, so copying a SnapshotCells
/// (or holding one in a cache) costs pointers, not frames.
using SnapshotCells = std::vector<CellSnapshot>;

/// The kernels' shared error vocabulary, exported so the member-only
/// gather path (which pre-filters cells before calling a kernel) can
/// preserve the exact error contract.
Status SnapshotNoDataError();
Status SnapshotBadCuboidError(CuboidId cuboid);
Status SnapshotBadLevelError(int level, int num_levels);
Status SnapshotNoMembersError(const CuboidLattice& lattice, CuboidId cuboid,
                              const CellKey& key);

/// The cuboid-then-level validation every point-query door runs before
/// touching any frame (the frame kernels CHECK rather than return, so the
/// typed errors must be produced up front — and every door must produce
/// the same ones, a contract the fuzz oracle pins).
Status ValidatePointQueryTarget(const CuboidLattice& lattice, CuboidId cuboid,
                                int level, int num_levels);

/// Merged m-layer window over the most recent `k` sealed slots of tilt
/// `level`, in canonical key order. FailedPrecondition when no cells.
Result<std::vector<MLayerTuple>> SnapshotWindowOf(const SnapshotCells& cells,
                                                  int level, int k);

/// Observation deck (§4.2 semantics): per o-layer cell, its sealed slot
/// series at `level`. `num_levels` bounds the level check.
Result<StreamCubeEngine::DeckSeries> SnapshotDeckOf(
    const SnapshotCells& cells, const CuboidLattice& lattice, int num_levels,
    int level);

/// O-layer cells whose slope moved by >= `threshold` between the last two
/// sealed slots of `level`, strongest change first (deterministic ties).
Result<std::vector<StreamCubeEngine::TrendChange>> SnapshotTrendChangesOf(
    const SnapshotCells& cells, const CuboidLattice& lattice, int num_levels,
    int level, double threshold);

/// On-the-fly regression of one cell of any lattice cuboid, aggregated from
/// its member m-layer cells in canonical order. Pre: `level` is a valid
/// tilt level (the frame kernels CHECK it rather than returning; every
/// point-query door runs ValidatePointQueryTarget first).
Result<Isb> SnapshotCellOf(const SnapshotCells& cells,
                           const CuboidLattice& lattice, CuboidId cuboid,
                           const CellKey& key, int level, int k);

/// The cell's whole sealed slot series at `level`.
Result<std::vector<Isb>> SnapshotCellSeriesOf(const SnapshotCells& cells,
                                              const CuboidLattice& lattice,
                                              int num_levels, CuboidId cuboid,
                                              const CellKey& key, int level);

/// Partially materialized cube over the window, cubed with the options'
/// algorithm; a non-null pool partitions the per-cuboid work across it.
Result<RegressionCube> SnapshotCubeOf(std::shared_ptr<const CubeSchema> schema,
                                      const SnapshotCells& cells,
                                      const StreamCubeEngine::Options& options,
                                      int level, int k, ThreadPool* pool);

}  // namespace regcube

#endif  // REGCUBE_CORE_SNAPSHOT_READS_H_
