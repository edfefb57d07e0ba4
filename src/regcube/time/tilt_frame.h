#ifndef REGCUBE_TIME_TILT_FRAME_H_
#define REGCUBE_TIME_TILT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/regression/fold.h"
#include "regcube/regression/isb.h"
#include "regcube/time/tilt_policy.h"

namespace regcube {

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
/// copyable block sized from the policy at construction. Copying a frame —
/// a snapshot freeze, a clock realignment — is one allocation and one
/// memcpy (docs/DESIGN.md, "Tilt frame layout"). The block behind a small
/// header is also the frame's on-disk record (spill and checkpoint), so a
/// stored frame is restored by one memcpy or read in place as a view.
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
  /// independent of the original (frozen snapshot blocks rely on it) and
  /// owns its block, also when the original is a view.
  TiltTimeFrame(const TiltTimeFrame& other);
  TiltTimeFrame& operator=(const TiltTimeFrame& other);
  TiltTimeFrame(TiltTimeFrame&& other) noexcept;
  TiltTimeFrame& operator=(TiltTimeFrame&& other) noexcept;
  ~TiltTimeFrame();

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

  // ---- the frame record: the spill and checkpoint form -----------------
  //
  // A record is a 32-byte header — magic, the layout fingerprint of the
  // policy (level count, every level's capacity, sizeof(LevelHeader),
  // sizeof(MomentSums)), start and next tick — followed by the block
  // exactly as it sits in memory, padded to 8 bytes. It is tied to the
  // host's layout and byte order: a record from another layout fails the
  // magic or fingerprint check with a typed error.

  static constexpr size_t kRecordHeaderBytes = 32;

  /// Bytes of the record of any frame under `policy` (a multiple of 8).
  static size_t RecordBytesFor(const TiltPolicy& policy);

  size_t RecordBytes() const;

  /// Writes this frame's record into `out`, which holds RecordBytes()
  /// bytes: the header, then one memcpy of the block.
  void WriteRecord(std::byte* out) const;

  /// Restores the frame a record holds: the header is checked against
  /// `policy`, the block is copied with one memcpy, and every level
  /// header is checked (ring offsets and capacities match the policy,
  /// head and size lie inside the ring, the pending unit and every sealed
  /// interval lie inside the frame's ticks), so no read of the result can
  /// index or subtract out of range. The frame continues exactly where
  /// the recorded one was. InvalidArgument on a record that fails a
  /// check, OutOfRange on a record of the wrong length.
  static Result<TiltTimeFrame> FromRecord(
      std::shared_ptr<const TiltPolicy> policy, std::string_view record);

  /// A read-only frame that views the block of `record` in place — no
  /// copy. `keepalive` owns the memory the record lives in (a mapping);
  /// the view holds it until its last reference drops. Same checks as
  /// FromRecord, plus the record must be 8-byte aligned. Copying the view
  /// yields a frame that owns its block.
  static Result<std::shared_ptr<const TiltTimeFrame>> ViewRecord(
      std::shared_ptr<const TiltPolicy> policy, std::string_view record,
      std::shared_ptr<const void> keepalive);

  /// True for a frame made by ViewRecord: its block is someone else's.
  bool is_view() const { return !owns_block_; }

  /// The RAM this frame holds that the memory tracker charges:
  /// MemoryBytes() for a frame that owns its block, 0 for a view (its
  /// block is page cache, reported on the cold tier's side).
  std::int64_t OwnedBytes() const { return owns_block_ ? MemoryBytes() : 0; }

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
    // 0 or 1; a byte rather than a bool so any byte a record holds can be
    // read and checked without undefined behavior.
    std::uint8_t pending_active = 0;
  };
  static_assert(std::is_trivially_copyable_v<MomentSums>);
  static_assert(std::is_trivially_copyable_v<LevelHeader>);
  static_assert(sizeof(LevelHeader) % alignof(MomentSums) == 0,
                "the ring must start aligned right after the headers");
  static_assert(alignof(LevelHeader) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  /// A frame over `block` (owned or not) with its ticks; the level count
  /// and ring capacity come from the policy.
  TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start_tick,
                TimeTick next_tick, std::byte* block, bool owns_block);

  /// The layout fingerprint records under `policy` carry.
  static std::uint64_t LayoutFingerprint(const TiltPolicy& policy);

  /// Checks a record's header against `policy` and returns its ticks.
  static Status CheckRecordHeader(const TiltPolicy& policy,
                                  std::string_view record,
                                  TimeTick* start_tick, TimeTick* next_tick);

  /// Checks every level header of the block against the policy.
  Status CheckLevels() const;

  size_t BlockBytes() const {
    return static_cast<size_t>(num_levels_) * sizeof(LevelHeader) +
           static_cast<size_t>(total_capacity_) * sizeof(MomentSums);
  }
  // The block's objects are created by placement new (constructor) or
  // implicitly by memcpy (copies, restored records); launder hands out
  // pointers to them. A view's block is read-only memory: views are only
  // ever handed out as const frames, so no mutator reaches it.
  LevelHeader* headers() {
    return std::launder(reinterpret_cast<LevelHeader*>(block_));
  }
  const LevelHeader* headers() const {
    return std::launder(reinterpret_cast<const LevelHeader*>(block_));
  }
  MomentSums* ring() {
    return std::launder(reinterpret_cast<MomentSums*>(
        block_ + static_cast<size_t>(num_levels_) * sizeof(LevelHeader)));
  }
  const MomentSums* ring() const {
    return std::launder(reinterpret_cast<const MomentSums*>(
        block_ + static_cast<size_t>(num_levels_) * sizeof(LevelHeader)));
  }

  /// Appends a sealed slot to `level`'s ring, evicting the oldest slot
  /// when the ring is full.
  void PushSlot(LevelHeader& level, const MomentSums& slot);

  /// Seals completed units ending at tick `t` across all levels.
  void SealBoundaries(TimeTick t);

  /// Routes one (t, z) into every level's pending accumulator.
  void Accumulate(TimeTick t, double z);

  std::shared_ptr<const TiltPolicy> policy_;
  std::byte* block_ = nullptr;  // LevelHeader[levels], then ring
  TimeTick start_tick_;
  TimeTick next_tick_;  // first tick not yet fully processed
  std::int32_t total_capacity_;  // ring slots across all levels
  std::int16_t num_levels_;
  bool owns_block_ = true;  // false for a view (ViewRecord)
};

// Per-cell resident state: the analytic MemoryBytes formula charges this
// header on every frame, so it must not grow.
static_assert(sizeof(TiltTimeFrame) <= 48);

}  // namespace regcube

#endif  // REGCUBE_TIME_TILT_FRAME_H_
