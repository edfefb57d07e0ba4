#ifndef REGCUBE_TIME_TILT_FRAME_H_
#define REGCUBE_TIME_TILT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/regression/fold.h"
#include "regcube/regression/isb.h"
#include "regcube/time/tilt_policy.h"

namespace regcube {

/// Serializable snapshot of a TiltTimeFrame (checkpoint/restore across
/// process restarts; the binary encoding lives in regcube/io/cube_io.h).
struct TiltFrameState {
  struct Level {
    std::vector<MomentSums> slots;  // sealed units, oldest first
    MomentSums pending;
    bool pending_active = false;
    TimeTick pending_start = 0;
  };
  TimeTick start_tick = 0;
  TimeTick next_tick = 0;
  std::vector<Level> levels;
};

/// The tilt time frame (§4.1, Fig 4): a per-cell time container that keeps
/// the most recent time at the finest granularity and progressively coarser
/// granularities for older time, bounding retained state by the policy's
/// total capacity (71 slots for the paper's quarter/hour/day/month frame vs
/// 35,136 raw quarters per year — Example 3).
///
/// Ingestion model (§4.5): observations arrive tick-by-tick in
/// non-decreasing tick order. Each level accumulates an in-progress unit;
/// when the policy says a unit of level L ends at tick t, the accumulated
/// moments are sealed into a slot of L. Coarser levels keep accumulating —
/// the quarter slots "still retain sufficient information for quarter-based
/// regression analysis" while the hour slot fills, exactly as the paper
/// describes. Slots beyond a level's capacity are evicted oldest-first.
///
/// Ticks with no observation contribute 0, matching the paper's additive
/// stream semantics (an aggregate cell's series is the sum of descendant
/// series; absence of a reading is a zero reading).
///
/// Layout: every level's header (pending unit, ring head and size) and
/// every level's fixed-capacity ring of sealed slots live in one trivially
/// copyable heap block sized from the policy at construction. Copying a
/// frame — a snapshot freeze, a clock realignment — is one allocation and
/// one memcpy (docs/DESIGN.md, "Tilt frame layout").
class TiltTimeFrame {
 public:
  /// Read-only view of one level's sealed slots, oldest first. Valid until
  /// the frame is next modified, moved or destroyed.
  class SlotView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = MomentSums;
      using difference_type = std::ptrdiff_t;
      using pointer = const MomentSums*;
      using reference = const MomentSums&;

      Iterator() = default;
      reference operator*() const {
        return At(ring_, capacity_, head_, index_);
      }
      pointer operator->() const { return &**this; }
      Iterator& operator++() {
        ++index_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++index_;
        return old;
      }
      bool operator==(const Iterator& other) const {
        return index_ == other.index_;
      }

     private:
      friend class SlotView;
      Iterator(const SlotView& view, size_t index)
          : ring_(view.ring_), capacity_(view.capacity_), head_(view.head_),
            index_(index) {}
      const MomentSums* ring_ = nullptr;
      std::int32_t capacity_ = 0;
      std::int32_t head_ = 0;
      size_t index_ = 0;
    };

    size_t size() const { return static_cast<size_t>(size_); }
    bool empty() const { return size_ == 0; }
    /// Pre: i < size().
    const MomentSums& operator[](size_t i) const {
      return At(ring_, capacity_, head_, i);
    }
    const MomentSums& front() const { return (*this)[0]; }
    Iterator begin() const { return Iterator(*this, 0); }
    Iterator end() const { return Iterator(*this, size()); }

   private:
    friend class TiltTimeFrame;
    SlotView(const MomentSums* ring, std::int32_t capacity,
             std::int32_t head, std::int32_t size)
        : ring_(ring), capacity_(capacity), head_(head), size_(size) {}
    /// The i-th oldest slot of a ring whose oldest slot sits at `head`.
    static const MomentSums& At(const MomentSums* ring, std::int32_t capacity,
                                std::int32_t head, size_t i) {
      size_t at = static_cast<size_t>(head) + i;
      if (at >= static_cast<size_t>(capacity)) {
        at -= static_cast<size_t>(capacity);
      }
      return ring[at];
    }
    const MomentSums* ring_;
    std::int32_t capacity_;
    std::int32_t head_;
    std::int32_t size_;
  };

  /// Creates a frame that starts at `start_tick` (the first tick of its
  /// first level-0 unit). The policy is shared because one policy object
  /// typically serves every cell of a cube.
  TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start_tick);

  /// Deep copies: one block allocation and one memcpy. The copy is fully
  /// independent of the original (frozen snapshot blocks rely on it).
  TiltTimeFrame(const TiltTimeFrame& other);
  TiltTimeFrame& operator=(const TiltTimeFrame& other);
  TiltTimeFrame(TiltTimeFrame&&) noexcept = default;
  TiltTimeFrame& operator=(TiltTimeFrame&&) noexcept = default;

  /// Adds observation z at tick `t`. Ticks must be non-decreasing and
  /// >= start_tick; a jump forward seals any completed units in between.
  /// Returns InvalidArgument for a tick in the past.
  Status Add(TimeTick t, double z);

  /// Advances time to `t` (exclusive of `t` itself) without adding data:
  /// seals every unit that completes strictly before `t`. Used by the
  /// stream engine at batch boundaries so all cells agree on "now".
  Status AdvanceTo(TimeTick t);

  /// Sealed slots of `level`, oldest first, as ISBs.
  std::vector<Isb> Slots(int level) const;

  /// Moment sums of the sealed slots of `level`, oldest first (lossless
  /// form used by aggregation-heavy callers).
  SlotView RawSlots(int level) const;

  /// The in-progress (partial) unit of `level`, if it has received any
  /// ticks (paper footnote 5 allows partial intervals at each granularity).
  Result<Isb> PendingSlot(int level) const;

  /// Regression over the most recent `k` sealed slots of `level`
  /// (time-dimension aggregation, Theorem 3.3). k must be >= 1 and <= the
  /// number of sealed slots.
  Result<Isb> RegressLastSlots(int level, int k) const;

  /// §6.2's folding aggregation over this level's sealed slots: one value
  /// per `units_per_bucket` consecutive units under `op` (SUM/AVG/LAST are
  /// available on compressed slots; see FoldSummaries). The folded series
  /// can then be fit like any other (e.g. a monthly trend from daily
  /// slots).
  Result<TimeSeries> FoldSlots(int level, std::int64_t units_per_bucket,
                               FoldOp op) const;

  /// Total sealed slots retained across all levels.
  std::int64_t RetainedSlots() const;

  /// Total ticks covered since start (sealed and pending).
  std::int64_t TicksSeen() const;

  /// Bytes retained by this frame's slots (analytic accounting).
  std::int64_t MemoryBytes() const;

  const TiltPolicy& policy() const { return *policy_; }
  TimeTick next_tick() const { return next_tick_; }

  /// Merges another frame cell-wise (standard-dimension aggregation of two
  /// sibling cells' frames, slot by slot). Policies and slot alignment must
  /// match: both frames must have been driven to the same tick. Every level
  /// is validated before any is merged, so on error `*this` is unchanged.
  Status MergeStandardDim(const TiltTimeFrame& other);

  /// Checkpointing: captures the complete mutable state. Restoring with the
  /// same policy yields a frame that continues exactly where this one was.
  TiltFrameState Snapshot() const;
  static Result<TiltTimeFrame> FromSnapshot(
      std::shared_ptr<const TiltPolicy> policy, const TiltFrameState& state);

  std::string ToString() const;

 private:
  /// Per-level bookkeeping at the front of the block. The level's sealed
  /// slots occupy ring()[ring_offset, ring_offset + capacity) as a circular
  /// buffer: the oldest slot sits at `head`, the newest `size - 1` after
  /// it (mod capacity), and 0 <= head < capacity, 0 <= size <= capacity.
  struct LevelHeader {
    MomentSums pending;            // in-progress unit ([] if no ticks yet)
    TimeTick pending_start = 0;    // first tick of the in-progress unit
    std::int32_t ring_offset = 0;  // first ring slot owned by this level
    std::int32_t capacity = 0;     // policy capacity, > 0
    std::int32_t head = 0;         // ring index of the oldest sealed slot
    std::int32_t size = 0;         // sealed slots retained
    bool pending_active = false;
  };
  static_assert(std::is_trivially_copyable_v<MomentSums>);
  static_assert(std::is_trivially_copyable_v<LevelHeader>);
  static_assert(sizeof(LevelHeader) % alignof(MomentSums) == 0,
                "the ring must start aligned right after the headers");
  static_assert(alignof(LevelHeader) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  size_t BlockBytes() const {
    return static_cast<size_t>(num_levels_) * sizeof(LevelHeader) +
           static_cast<size_t>(total_capacity_) * sizeof(MomentSums);
  }
  // The block's objects are created by placement new (constructor) or
  // implicitly by memcpy (copies); launder hands out pointers to them.
  LevelHeader* headers() {
    return std::launder(reinterpret_cast<LevelHeader*>(block_.get()));
  }
  const LevelHeader* headers() const {
    return std::launder(reinterpret_cast<const LevelHeader*>(block_.get()));
  }
  MomentSums* ring() {
    return std::launder(reinterpret_cast<MomentSums*>(
        block_.get() + static_cast<size_t>(num_levels_) * sizeof(LevelHeader)));
  }
  const MomentSums* ring() const {
    return std::launder(reinterpret_cast<const MomentSums*>(
        block_.get() + static_cast<size_t>(num_levels_) * sizeof(LevelHeader)));
  }

  /// Appends a sealed slot to `level`'s ring, evicting the oldest slot
  /// when the ring is full.
  void PushSlot(LevelHeader& level, const MomentSums& slot);

  /// Seals completed units ending at tick `t` across all levels.
  void SealBoundaries(TimeTick t);

  /// Routes one (t, z) into every level's pending accumulator.
  void Accumulate(TimeTick t, double z);

  std::shared_ptr<const TiltPolicy> policy_;
  std::unique_ptr<std::byte[]> block_;  // LevelHeader[levels], then ring
  TimeTick start_tick_;
  TimeTick next_tick_;  // first tick not yet fully processed
  std::int32_t num_levels_;
  std::int32_t total_capacity_;  // ring slots across all levels
};

// Per-cell resident state: the analytic MemoryBytes formula charges this
// header on every frame, so it must not grow.
static_assert(sizeof(TiltTimeFrame) <= 56);

}  // namespace regcube

#endif  // REGCUBE_TIME_TILT_FRAME_H_
