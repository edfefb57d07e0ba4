#ifndef REGCUBE_TESTS_REFERENCE_STREAM_H_
#define REGCUBE_TESTS_REFERENCE_STREAM_H_

// The one oracle every equivalence check compares against. The paper
// defines each stream-cube read as a function of the tilt frames alone
// (§4.5): every m-layer cell's regression over its last k sealed slots,
// then H-cubing over that window. So a from-scratch replay of the stream
// into one tilt frame per cell answers every read the engine serves
// through its shards, publications, dirty lists, frozen blocks and member
// indexes — while sharing none of them: only TiltTimeFrame and the pure
// kernels of core/snapshot_reads. No gtest either, so benches can
// RC_CHECK against it.

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "regcube/common/logging.h"
#include "regcube/core/snapshot_reads.h"

namespace regcube {

class ReferenceStream {
 public:
  ReferenceStream(std::shared_ptr<const CubeSchema> schema,
                  StreamCubeEngine::Options options)
      : schema_(std::move(schema)),
        lattice_(*schema_),
        options_(std::move(options)),
        clock_(options_.start_tick) {}

  /// The engine's ingest contract: a tick its cell has sealed past is
  /// refused, and the cell exists either way.
  Status Ingest(const StreamTuple& tuple) {
    const CellKey key =
        options_.key_mapper ? options_.key_mapper(tuple.key) : tuple.key;
    auto it = frames_
                  .try_emplace(key, options_.tilt_policy, options_.start_tick)
                  .first;
    RC_RETURN_IF_ERROR(it->second.Add(tuple.tick, tuple.value));
    clock_ = std::max(clock_, tuple.tick);
    return Status::OK();
  }

  /// Stops at the first refused tuple.
  Status IngestBatch(const std::vector<StreamTuple>& tuples) {
    for (const StreamTuple& tuple : tuples) RC_RETURN_IF_ERROR(Ingest(tuple));
    return Status::OK();
  }

  /// Every frame seals through the clock.
  Status SealThrough(TimeTick t) {
    clock_ = std::max(clock_, t + 1);
    for (auto& [key, frame] : frames_) {
      RC_RETURN_IF_ERROR(frame.AdvanceTo(clock_));
    }
    return Status::OK();
  }

  /// Latest tick ingested or sealed (t + 1) — the tick reads align to.
  TimeTick clock() const { return clock_; }
  const CuboidLattice& lattice() const { return lattice_; }
  int num_levels() const { return options_.tilt_policy->num_levels(); }

  /// Every cell in canonical key order, each a copy of its frame advanced
  /// to the clock.
  SnapshotCells Run() const {
    SnapshotCells run;
    run.reserve(frames_.size());
    for (const auto& [key, frame] : frames_) {
      auto aligned = std::make_shared<TiltTimeFrame>(frame);
      RC_CHECK(aligned->AdvanceTo(clock_).ok());
      run.push_back({key, std::move(aligned)});
    }
    return run;
  }

  /// The cells of `run` that roll up into `key` of `cuboid`, found by
  /// projecting every key.
  SnapshotCells Members(const SnapshotCells& run, CuboidId cuboid,
                        const CellKey& key) const {
    SnapshotCells members;
    for (const CellSnapshot& cell : run) {
      if (lattice_.ProjectMLayerKey(cell.key, cuboid) == key) {
        members.push_back(cell);
      }
    }
    return members;
  }

  Result<RegressionCube> Cube(int level, int k) const {
    return SnapshotCubeOf(schema_, Run(), options_, level, k, nullptr);
  }

  Result<Isb> Cell(CuboidId cuboid, const CellKey& key, int level,
                   int k) const {
    RC_RETURN_IF_ERROR(
        ValidatePointQueryTarget(lattice_, cuboid, level, num_levels()));
    return SnapshotCellOf(Run(), lattice_, cuboid, key, level, k);
  }

  Result<std::vector<Isb>> CellSeries(CuboidId cuboid, const CellKey& key,
                                      int level) const {
    return SnapshotCellSeriesOf(Run(), lattice_, num_levels(), cuboid, key,
                                level);
  }

  Result<StreamCubeEngine::DeckSeries> Deck(int level) const {
    return SnapshotDeckOf(Run(), lattice_, num_levels(), level);
  }

  Result<std::vector<StreamCubeEngine::TrendChange>> TrendChanges(
      int level, double threshold) const {
    return SnapshotTrendChangesOf(Run(), lattice_, num_levels(), level,
                                  threshold);
  }

 private:
  struct CanonicalOrder {
    bool operator()(const CellKey& a, const CellKey& b) const {
      return CanonicalKeyLess(a, b);
    }
  };

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  StreamCubeEngine::Options options_;
  TimeTick clock_;
  std::map<CellKey, TiltTimeFrame, CanonicalOrder> frames_;
};

}  // namespace regcube

#endif  // REGCUBE_TESTS_REFERENCE_STREAM_H_
