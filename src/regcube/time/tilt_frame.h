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
/// copyable block sized from the policy at construction. A snapshot freeze
/// (Freeze) is one allocation holding the frame and its block, plus one
/// memcpy (docs/DESIGN.md, "Tilt frame layout"). The block behind a small
/// header is also the frame's on-disk record (spill and checkpoint), so a
/// stored frame is restored by one memcpy or read in place as a view.
///
/// Reads as of a clock: a frame that lags the clock already fixes every
/// slot AdvanceTo would seal (its pending unit, then zeros), so readers
/// read it as of the clock (SlotsAsOf, RegressLastSlots with `as_of`)
/// instead of advancing a copy.
class TiltTimeFrame {
 public:
  /// Read-only view of one level's sealed slots, oldest first: a run of
  /// the level's ring, then (for a read as of a later clock, SlotsAsOf) the
  /// slots the missed unit ends would seal. Valid until the frame is next
  /// modified, moved or destroyed, and until the buffer it was read into
  /// is next written.
  class SlotView {
    /// The ring segment (`ring_size` slots from ring index `head`) and the
    /// tail segment that follows it.
    struct Segments {
      const MomentSums* ring = nullptr;
      const MomentSums* tail = nullptr;
      std::int32_t capacity = 0;
      std::int32_t head = 0;
      std::int32_t ring_size = 0;
      std::int32_t tail_size = 0;

      const MomentSums& At(size_t i) const {
        const auto in_ring = static_cast<size_t>(ring_size);
        if (i >= in_ring) return tail[i - in_ring];
        size_t at = static_cast<size_t>(head) + i;
        if (at >= static_cast<size_t>(capacity)) {
          at -= static_cast<size_t>(capacity);
        }
        return ring[at];
      }
    };

   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = MomentSums;
      using difference_type = std::ptrdiff_t;
      using pointer = const MomentSums*;
      using reference = const MomentSums&;

      Iterator() = default;
      reference operator*() const { return segments_.At(index_); }
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
      Iterator(const Segments& segments, size_t index)
          : segments_(segments), index_(index) {}
      Segments segments_;
      size_t index_ = 0;
    };

    size_t size() const {
      return static_cast<size_t>(segments_.ring_size) +
             static_cast<size_t>(segments_.tail_size);
    }
    bool empty() const { return size() == 0; }
    /// Pre: i < size().
    const MomentSums& operator[](size_t i) const { return segments_.At(i); }
    const MomentSums& front() const { return (*this)[0]; }
    Iterator begin() const { return Iterator(segments_, 0); }
    Iterator end() const { return Iterator(segments_, size()); }

   private:
    friend class TiltTimeFrame;
    explicit SlotView(const Segments& segments) : segments_(segments) {}
    Segments segments_;
  };

  /// Creates a frame that starts at `start_tick` (the first tick of its
  /// first level-0 unit). The policy is shared because one policy object
  /// typically serves every cell of a cube.
  TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start_tick);

  /// Deep copies: one block allocation and one memcpy. The copy is fully
  /// independent of the original and owns its block, also when the
  /// original is a view or frozen.
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

  /// The sealed slots of `level` as AdvanceTo(as_of) would leave them,
  /// read without advancing or copying the frame: the kept ring slots,
  /// then the pending unit sealed at the first unit end in
  /// [next_tick(), as_of), then one zero slot per further unit end (a
  /// tick without data counts zero), trimmed to the level's capacity.
  /// Bitwise equal to RawSlots(level) of an advanced copy. A frame at the
  /// clock, or one with no unit end of `level` before it, reads its ring
  /// in place; otherwise the sealed tail is written into `sealed`, which
  /// the view then points into — callers reuse one buffer across cells,
  /// so a read allocates nothing per cell.
  SlotView SlotsAsOf(int level, TimeTick as_of,
                     std::vector<MomentSums>* sealed) const;

  /// The in-progress (partial) unit of `level`, if it has received any
  /// ticks (paper footnote 5 allows partial intervals at each granularity).
  Result<Isb> PendingSlot(int level) const;

  /// Regression over the most recent `k` sealed slots of `level`
  /// (time-dimension aggregation, Theorem 3.3). k must be >= 1 and <= the
  /// number of sealed slots (OutOfRange otherwise).
  Result<Isb> RegressLastSlots(int level, int k) const;

  /// The same regression over SlotsAsOf(level, as_of): the frame read as
  /// AdvanceTo(as_of) would leave it. Reuses per-thread scratch, so it
  /// allocates nothing per call once warm.
  Result<Isb> RegressLastSlots(int level, int k, TimeTick as_of) const;

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

  /// An immutable copy of this frame in one heap allocation: the shared
  /// pointer's control block, the frame and its block sit together, so a
  /// freeze is one allocation and one memcpy, and its release one free.
  std::shared_ptr<const TiltTimeFrame> Freeze() const;

  /// True for a frame made by ViewRecord: its block is someone else's.
  bool is_view() const { return block_kind_ == BlockKind::kView; }

  /// The RAM this frame holds that the memory tracker charges:
  /// MemoryBytes() for a frame whose block is heap memory (its own or
  /// inline in a Freeze allocation), 0 for a view (its block is page
  /// cache, reported on the cold tier's side).
  std::int64_t OwnedBytes() const { return is_view() ? 0 : MemoryBytes(); }

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

  /// Where the block lives: new[]-allocated and freed by the frame, a
  /// mapped record (ViewRecord), or the tail of the frame's own Freeze
  /// allocation (freed with it). Only views and frozen frames hold a
  /// block they do not free, and both are only handed out const.
  enum class BlockKind : std::uint8_t { kOwned, kView, kInline };

  /// The allocator behind Freeze (defined in the .cc).
  template <typename T>
  class InlineBlockAllocator;

  /// A frame over `block` of the given kind with its ticks; the level
  /// count and ring capacity come from the policy.
  TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start_tick,
                TimeTick next_tick, std::byte* block, BlockKind block_kind);

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
  BlockKind block_kind_ = BlockKind::kOwned;
};

// Per-cell resident state: the analytic MemoryBytes formula charges this
// header on every frame, so it must not grow.
static_assert(sizeof(TiltTimeFrame) <= 48);

}  // namespace regcube

#endif  // REGCUBE_TIME_TILT_FRAME_H_
