#include "regcube/time/tilt_frame.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

namespace {

// "RFB1": a tilt-frame block record (see TiltTimeFrame::WriteRecord).
constexpr std::uint32_t kRecordMagic = 0x31424652;

/// The header in front of a record's block. Read and written with memcpy,
/// so a record needs no alignment to be restored (a view does).
struct RecordHeader {
  std::uint32_t magic;
  std::uint32_t num_levels;
  std::uint64_t fingerprint;
  TimeTick start_tick;
  TimeTick next_tick;
};
static_assert(sizeof(RecordHeader) == TiltTimeFrame::kRecordHeaderBytes);
static_assert(std::is_trivially_copyable_v<RecordHeader>);

constexpr size_t RoundUp8(size_t n) { return (n + 7) & ~size_t{7}; }

std::int32_t TotalCapacityOf(const TiltPolicy& policy) {
  std::int32_t total = 0;
  for (int li = 0; li < policy.num_levels(); ++li) {
    RC_CHECK_GT(policy.level(li).capacity, 0);
    total += policy.level(li).capacity;
  }
  return total;
}

}  // namespace

TiltTimeFrame::TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy,
                             TimeTick start_tick, TimeTick next_tick,
                             std::byte* block, BlockKind block_kind)
    : policy_(std::move(policy)), block_(block), start_tick_(start_tick),
      next_tick_(next_tick), block_kind_(block_kind) {
  RC_CHECK(policy_ != nullptr);
  RC_CHECK(policy_->num_levels() <= INT16_MAX);
  num_levels_ = static_cast<std::int16_t>(policy_->num_levels());
  total_capacity_ = TotalCapacityOf(*policy_);
}

TiltTimeFrame::TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy,
                             TimeTick start_tick)
    : TiltTimeFrame(std::move(policy), start_tick, start_tick, nullptr,
                    BlockKind::kOwned) {
  // Zero-filled first, so padding too is initialized before any copy
  // memcpys it; then the headers and ring slots are created in place.
  block_ = new std::byte[BlockBytes()]();
  std::byte* at = block_;
  std::int32_t offset = 0;
  for (int li = 0; li < num_levels_; ++li, at += sizeof(LevelHeader)) {
    LevelHeader* level = new (at) LevelHeader();
    level->pending_start = start_tick_;
    level->ring_offset = offset;
    level->capacity = policy_->level(li).capacity;
    offset += level->capacity;
  }
  std::uninitialized_value_construct_n(reinterpret_cast<MomentSums*>(at),
                                       static_cast<size_t>(total_capacity_));
}

TiltTimeFrame::TiltTimeFrame(const TiltTimeFrame& other)
    : policy_(other.policy_),
      block_(new std::byte[other.BlockBytes()]),
      start_tick_(other.start_tick_),
      next_tick_(other.next_tick_),
      total_capacity_(other.total_capacity_),
      num_levels_(other.num_levels_),
      block_kind_(BlockKind::kOwned) {
  std::memcpy(block_, other.block_, BlockBytes());
}

TiltTimeFrame& TiltTimeFrame::operator=(const TiltTimeFrame& other) {
  if (this == &other) return *this;
  if (block_kind_ != BlockKind::kOwned || block_ == nullptr ||
      BlockBytes() != other.BlockBytes()) {
    if (block_kind_ == BlockKind::kOwned) delete[] block_;
    block_ = new std::byte[other.BlockBytes()];
    block_kind_ = BlockKind::kOwned;
  }
  policy_ = other.policy_;
  start_tick_ = other.start_tick_;
  next_tick_ = other.next_tick_;
  num_levels_ = other.num_levels_;
  total_capacity_ = other.total_capacity_;
  std::memcpy(block_, other.block_, BlockBytes());
  return *this;
}

TiltTimeFrame::TiltTimeFrame(TiltTimeFrame&& other) noexcept
    : policy_(std::move(other.policy_)),
      block_(std::exchange(other.block_, nullptr)),
      start_tick_(other.start_tick_),
      next_tick_(other.next_tick_),
      total_capacity_(other.total_capacity_),
      num_levels_(other.num_levels_),
      block_kind_(std::exchange(other.block_kind_, BlockKind::kOwned)) {}

TiltTimeFrame& TiltTimeFrame::operator=(TiltTimeFrame&& other) noexcept {
  if (this == &other) return *this;
  if (block_kind_ == BlockKind::kOwned) delete[] block_;
  policy_ = std::move(other.policy_);
  block_ = std::exchange(other.block_, nullptr);
  block_kind_ = std::exchange(other.block_kind_, BlockKind::kOwned);
  start_tick_ = other.start_tick_;
  next_tick_ = other.next_tick_;
  num_levels_ = other.num_levels_;
  total_capacity_ = other.total_capacity_;
  return *this;
}

TiltTimeFrame::~TiltTimeFrame() {
  if (block_kind_ == BlockKind::kOwned) delete[] block_;
}

/// Over-allocates every request by `extra` bytes, aligned for the block,
/// and reports where they start through `tail`. allocate_shared asks it
/// for exactly one control block (which holds the frame), so the frame's
/// block rides in the same allocation and is freed with it.
template <typename T>
class TiltTimeFrame::InlineBlockAllocator {
 public:
  using value_type = T;

  InlineBlockAllocator(size_t extra, std::byte** tail)
      : extra_(extra), tail_(tail) {}
  template <typename U>
  InlineBlockAllocator(const InlineBlockAllocator<U>& other)  // NOLINT
      : extra_(other.extra_), tail_(other.tail_) {}

  T* allocate(size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    constexpr size_t kAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    const size_t head = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    auto* raw = static_cast<std::byte*>(::operator new(head + extra_));
    *tail_ = raw + head;
    return reinterpret_cast<T*>(raw);
  }
  void deallocate(T* p, size_t) { ::operator delete(p); }

  /// A member of TiltTimeFrame, so it reaches the private constructor.
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const InlineBlockAllocator<U>& other) const {
    return extra_ == other.extra_;
  }

 private:
  template <typename U>
  friend class InlineBlockAllocator;
  size_t extra_;
  std::byte** tail_;  // written by allocate; unused afterwards
};

std::shared_ptr<const TiltTimeFrame> TiltTimeFrame::Freeze() const {
  std::byte* block = nullptr;
  std::shared_ptr<TiltTimeFrame> frozen = std::allocate_shared<TiltTimeFrame>(
      InlineBlockAllocator<TiltTimeFrame>(BlockBytes(), &block), policy_,
      start_tick_, next_tick_, nullptr, BlockKind::kInline);
  frozen->block_ = block;
  std::memcpy(block, block_, BlockBytes());
  return frozen;
}

void TiltTimeFrame::Accumulate(TimeTick t, double z) {
  LevelHeader* levels = headers();
  for (int li = 0; li < num_levels_; ++li) {
    levels[li].pending.Add(t, z);
    levels[li].pending_active = true;
  }
}

void TiltTimeFrame::PushSlot(LevelHeader& level, const MomentSums& slot) {
  MomentSums* slots = ring() + level.ring_offset;
  if (level.size < level.capacity) {
    std::int32_t tail = level.head + level.size;
    if (tail >= level.capacity) tail -= level.capacity;
    slots[tail] = slot;
    ++level.size;
  } else {
    // Full: the newest slot overwrites the oldest, which is evicted.
    slots[level.head] = slot;
    if (++level.head == level.capacity) level.head = 0;
  }
}

void TiltTimeFrame::SealBoundaries(TimeTick t) {
  for (int li = 0; li < num_levels_; ++li) {
    if (!policy_->IsUnitEnd(li, t)) continue;
    LevelHeader& level = headers()[li];
    MomentSums slot = level.pending;
    // The sealed unit covers its full interval; ticks without observations
    // contributed zero (additive stream semantics).
    slot.interval.tb = level.pending_start;
    slot.interval.te = t;
    PushSlot(level, slot);
    level.pending = MomentSums();
    level.pending_active = false;
    level.pending_start = t + 1;
  }
}

Status TiltTimeFrame::Add(TimeTick t, double z) {
  if (t < start_tick_) {
    return Status::OutOfRange(StrPrintf(
        "tick %lld precedes frame start %lld", static_cast<long long>(t),
        static_cast<long long>(start_tick_)));
  }
  if (t < next_tick_) {
    return Status::OutOfRange(StrPrintf(
        "tick %lld already sealed (next open tick is %lld)",
        static_cast<long long>(t), static_cast<long long>(next_tick_)));
  }
  for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
  next_tick_ = t;
  Accumulate(t, z);
  return Status::OK();
}

Status TiltTimeFrame::AdvanceTo(TimeTick t) {
  if (t <= next_tick_) return Status::OK();
  for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
  next_tick_ = t;
  return Status::OK();
}

std::vector<Isb> TiltTimeFrame::Slots(int level) const {
  const SlotView slots = RawSlots(level);
  std::vector<Isb> out;
  out.reserve(slots.size());
  for (const MomentSums& m : slots) out.push_back(FitFromMoments(m));
  return out;
}

TiltTimeFrame::SlotView TiltTimeFrame::RawSlots(int level) const {
  RC_CHECK(level >= 0 && level < num_levels_);
  const LevelHeader& state = headers()[level];
  SlotView::Segments segments;
  segments.ring = ring() + state.ring_offset;
  segments.capacity = state.capacity;
  segments.head = state.head;
  segments.ring_size = state.size;
  return SlotView(segments);
}

TiltTimeFrame::SlotView TiltTimeFrame::SlotsAsOf(
    int level, TimeTick as_of, std::vector<MomentSums>* sealed) const {
  const SlotView raw = RawSlots(level);
  if (as_of <= next_tick_) return raw;
  const LevelHeader& state = headers()[level];
  const auto capacity = static_cast<size_t>(state.capacity);
  // The unit ends AdvanceTo(as_of) would seal at this level, newest first.
  // capacity + 1 of them prove the pending unit and every ring slot
  // evicted, so the scan stops there.
  sealed->clear();
  for (TimeTick t = as_of - 1; t >= next_tick_ && sealed->size() <= capacity;
       --t) {
    if (!policy_->IsUnitEnd(level, t)) continue;
    MomentSums slot;
    slot.interval.tb = t;  // the unit's end; its start is set below
    slot.interval.te = t;
    sealed->push_back(slot);
  }
  if (sealed->empty()) return raw;
  std::reverse(sealed->begin(), sealed->end());
  // Each zero unit starts right after the one before it.
  for (size_t i = 1; i < sealed->size(); ++i) {
    (*sealed)[i].interval.tb = (*sealed)[i - 1].interval.te + 1;
  }
  size_t first = 0;
  if (sealed->size() > capacity) {
    first = 1;  // the oldest end only dated the next unit's start
  } else {
    // The first end seals the pending unit with whatever it accumulated.
    const TimeTick end = sealed->front().interval.te;
    sealed->front() = state.pending;
    sealed->front().interval.tb = state.pending_start;
    sealed->front().interval.te = end;
  }
  const auto tail_size = static_cast<std::int32_t>(sealed->size() - first);
  const std::int32_t keep =
      std::min(state.size, state.capacity - tail_size);  // newest ring slots
  SlotView::Segments segments = raw.segments_;
  segments.head += state.size - keep;
  if (segments.head >= segments.capacity) segments.head -= segments.capacity;
  segments.ring_size = keep;
  segments.tail = sealed->data() + first;
  segments.tail_size = tail_size;
  return SlotView(segments);
}

Result<Isb> TiltTimeFrame::PendingSlot(int level) const {
  RC_CHECK(level >= 0 && level < num_levels_);
  const LevelHeader& state = headers()[level];
  if (state.pending_start > next_tick_ ||
      (state.pending_start == next_tick_ && !state.pending_active)) {
    return Status::NotFound(
        StrPrintf("no partial unit at level %d", level));
  }
  MomentSums m = state.pending;
  m.interval.tb = state.pending_start;
  m.interval.te = next_tick_;
  return FitFromMoments(m);
}

Result<Isb> TiltTimeFrame::RegressLastSlots(int level, int k) const {
  return RegressLastSlots(level, k, next_tick_);
}

Result<Isb> TiltTimeFrame::RegressLastSlots(int level, int k,
                                            TimeTick as_of) const {
  thread_local std::vector<MomentSums> sealed;
  thread_local std::vector<Isb> children;
  const SlotView slots = SlotsAsOf(level, as_of, &sealed);
  if (k < 1 || k > static_cast<int>(slots.size())) {
    return Status::OutOfRange(
        StrPrintf("requested %d slots, level %d has %zu sealed", k, level,
                  slots.size()));
  }
  children.clear();
  for (size_t i = slots.size() - static_cast<size_t>(k); i < slots.size();
       ++i) {
    children.push_back(FitFromMoments(slots[i]));
  }
  return AggregateTimeDim(children);
}

Result<TimeSeries> TiltTimeFrame::FoldSlots(int level,
                                            std::int64_t units_per_bucket,
                                            FoldOp op) const {
  return FoldSummaries(Slots(level), units_per_bucket, op);
}

std::int64_t TiltTimeFrame::RetainedSlots() const {
  std::int64_t total = 0;
  for (int li = 0; li < num_levels_; ++li) total += headers()[li].size;
  return total;
}

std::int64_t TiltTimeFrame::TicksSeen() const {
  return next_tick_ - start_tick_;  // ticks strictly before the open tick
}

std::int64_t TiltTimeFrame::MemoryBytes() const {
  // Analytic: the frame header plus the sealed slots it retains. Ring
  // capacity not yet filled and the level headers are not charged, the
  // same accounting the formula has always used.
  return static_cast<std::int64_t>(sizeof(TiltTimeFrame)) +
         RetainedSlots() * static_cast<std::int64_t>(sizeof(MomentSums));
}

Status TiltTimeFrame::MergeStandardDim(const TiltTimeFrame& other) {
  if (num_levels_ != other.num_levels_ ||
      policy_->name() != other.policy_->name()) {
    return Status::InvalidArgument("tilt policies differ");
  }
  if (next_tick_ != other.next_tick_ || start_tick_ != other.start_tick_) {
    return Status::InvalidArgument(StrPrintf(
        "frames not aligned: [%lld,%lld) vs [%lld,%lld)",
        static_cast<long long>(start_tick_),
        static_cast<long long>(next_tick_),
        static_cast<long long>(other.start_tick_),
        static_cast<long long>(other.next_tick_)));
  }
  // Validate every level before folding any, so a mismatch deep in the
  // frame leaves *this untouched.
  for (int li = 0; li < num_levels_; ++li) {
    const SlotView mine = RawSlots(li);
    const SlotView theirs = other.RawSlots(li);
    if (mine.size() != theirs.size()) {
      return Status::InvalidArgument(
          StrPrintf("level %d slot counts differ: %zu vs %zu", li,
                    mine.size(), theirs.size()));
    }
    for (size_t s = 0; s < mine.size(); ++s) {
      if (!(mine[s].interval == theirs[s].interval)) {
        return Status::InvalidArgument(
            StrPrintf("level %d slot %zu intervals differ", li, s));
      }
    }
  }
  for (int li = 0; li < num_levels_; ++li) {
    LevelHeader& mine = headers()[li];
    const LevelHeader& theirs_header = other.headers()[li];
    const SlotView theirs = other.RawSlots(li);
    MomentSums* slots = ring() + mine.ring_offset;
    std::int32_t at = mine.head;
    for (size_t s = 0; s < theirs.size(); ++s) {
      slots[at].sum_z += theirs[s].sum_z;
      slots[at].sum_tz += theirs[s].sum_tz;
      if (++at == mine.capacity) at = 0;
    }
    mine.pending.sum_z += theirs_header.pending.sum_z;
    mine.pending.sum_tz += theirs_header.pending.sum_tz;
    mine.pending_active = mine.pending_active || theirs_header.pending_active;
  }
  return Status::OK();
}

std::uint64_t TiltTimeFrame::LayoutFingerprint(const TiltPolicy& policy) {
  // FNV-1a over the layout's defining numbers, 32 bits each.
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint32_t v) {
    for (int i = 0; i < 4; ++i, v >>= 8) {
      hash ^= v & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint32_t>(policy.num_levels()));
  for (int li = 0; li < policy.num_levels(); ++li) {
    mix(static_cast<std::uint32_t>(policy.level(li).capacity));
  }
  mix(static_cast<std::uint32_t>(sizeof(LevelHeader)));
  mix(static_cast<std::uint32_t>(sizeof(MomentSums)));
  return hash;
}

size_t TiltTimeFrame::RecordBytesFor(const TiltPolicy& policy) {
  return RoundUp8(kRecordHeaderBytes +
                  static_cast<size_t>(policy.num_levels()) *
                      sizeof(LevelHeader) +
                  static_cast<size_t>(TotalCapacityOf(policy)) *
                      sizeof(MomentSums));
}

size_t TiltTimeFrame::RecordBytes() const {
  return RoundUp8(kRecordHeaderBytes + BlockBytes());
}

void TiltTimeFrame::WriteRecord(std::byte* out) const {
  RecordHeader header;
  header.magic = kRecordMagic;
  header.num_levels = static_cast<std::uint32_t>(num_levels_);
  header.fingerprint = LayoutFingerprint(*policy_);
  header.start_tick = start_tick_;
  header.next_tick = next_tick_;
  std::memcpy(out, &header, sizeof(header));
  std::memcpy(out + kRecordHeaderBytes, block_, BlockBytes());
  const size_t used = kRecordHeaderBytes + BlockBytes();
  std::memset(out + used, 0, RecordBytes() - used);
}

Status TiltTimeFrame::CheckRecordHeader(const TiltPolicy& policy,
                                        std::string_view record,
                                        TimeTick* start_tick,
                                        TimeTick* next_tick) {
  if (record.size() < kRecordHeaderBytes) {
    return Status::OutOfRange(StrPrintf(
        "tilt-frame record of %zu bytes is shorter than its header",
        record.size()));
  }
  RecordHeader header;
  std::memcpy(&header, record.data(), sizeof(header));
  if (header.magic != kRecordMagic) {
    return Status::InvalidArgument(StrPrintf(
        "bad tilt-frame record magic 0x%08x (another host layout?)",
        header.magic));
  }
  if (header.num_levels != static_cast<std::uint32_t>(policy.num_levels()) ||
      header.fingerprint != LayoutFingerprint(policy)) {
    return Status::InvalidArgument(StrPrintf(
        "tilt-frame record layout (%u levels, fingerprint %016llx) does not "
        "match policy %s (%d levels, fingerprint %016llx)",
        header.num_levels,
        static_cast<unsigned long long>(header.fingerprint),
        policy.name().c_str(), policy.num_levels(),
        static_cast<unsigned long long>(LayoutFingerprint(policy))));
  }
  if (record.size() != RecordBytesFor(policy)) {
    return Status::OutOfRange(StrPrintf(
        "tilt-frame record holds %zu bytes, the layout needs %zu",
        record.size(), RecordBytesFor(policy)));
  }
  TimeTick span = 0;
  if (header.next_tick < header.start_tick ||
      __builtin_sub_overflow(header.next_tick, header.start_tick, &span) ||
      span == INT64_MAX) {
    return Status::InvalidArgument(
        "tilt-frame record clock precedes its start tick or overflows");
  }
  *start_tick = header.start_tick;
  *next_tick = header.next_tick;
  return Status::OK();
}

Status TiltTimeFrame::CheckLevels() const {
  const LevelHeader* levels = headers();
  std::int32_t offset = 0;
  for (int li = 0; li < num_levels_; ++li) {
    const LevelHeader& level = levels[li];
    const std::int32_t capacity = policy_->level(li).capacity;
    if (level.ring_offset != offset || level.capacity != capacity ||
        level.head < 0 || level.head >= capacity || level.size < 0 ||
        level.size > capacity || level.pending_active > 1 ||
        level.pending_start < start_tick_ ||
        level.pending_start > next_tick_) {
      return Status::InvalidArgument(StrPrintf(
          "tilt-frame record level %d header is corrupt (offset %d, "
          "capacity %d, head %d, size %d)",
          li, level.ring_offset, level.capacity, level.head, level.size));
    }
    // Every sealed interval lies inside [start_tick, next_tick), so no
    // read can overflow on an interval length.
    for (const MomentSums& slot : RawSlots(li)) {
      if (slot.interval.tb < start_tick_ ||
          slot.interval.tb > slot.interval.te ||
          slot.interval.te >= next_tick_) {
        return Status::InvalidArgument(StrPrintf(
            "tilt-frame record level %d holds a slot outside the frame", li));
      }
    }
    offset += capacity;
  }
  return Status::OK();
}

Result<TiltTimeFrame> TiltTimeFrame::FromRecord(
    std::shared_ptr<const TiltPolicy> policy, std::string_view record) {
  RC_CHECK(policy != nullptr);
  TimeTick start_tick = 0;
  TimeTick next_tick = 0;
  RC_RETURN_IF_ERROR(
      CheckRecordHeader(*policy, record, &start_tick, &next_tick));
  TiltTimeFrame frame(std::move(policy), start_tick, next_tick, nullptr,
                      BlockKind::kOwned);
  frame.block_ = new std::byte[frame.BlockBytes()];
  std::memcpy(frame.block_, record.data() + kRecordHeaderBytes,
              frame.BlockBytes());
  RC_RETURN_IF_ERROR(frame.CheckLevels());
  return frame;
}

Result<std::shared_ptr<const TiltTimeFrame>> TiltTimeFrame::ViewRecord(
    std::shared_ptr<const TiltPolicy> policy, std::string_view record,
    std::shared_ptr<const void> keepalive) {
  RC_CHECK(policy != nullptr);
  if (reinterpret_cast<std::uintptr_t>(record.data()) % alignof(LevelHeader) !=
      0) {
    return Status::InvalidArgument(
        "tilt-frame record is not 8-byte aligned; it cannot be viewed");
  }
  TimeTick start_tick = 0;
  TimeTick next_tick = 0;
  RC_RETURN_IF_ERROR(
      CheckRecordHeader(*policy, record, &start_tick, &next_tick));
  // The view and its keepalive share one allocation: the aliasing
  // shared_ptr points at the frame and owns the pair.
  struct Held {
    TiltTimeFrame frame;
    std::shared_ptr<const void> keepalive;
  };
  auto* block = const_cast<std::byte*>(
      reinterpret_cast<const std::byte*>(record.data()) + kRecordHeaderBytes);
  auto held = std::make_shared<Held>(
      Held{TiltTimeFrame(std::move(policy), start_tick, next_tick, block,
                         BlockKind::kView),
           std::move(keepalive)});
  RC_RETURN_IF_ERROR(held->frame.CheckLevels());
  const TiltTimeFrame* frame = &held->frame;
  return std::shared_ptr<const TiltTimeFrame>(std::move(held), frame);
}

std::string TiltTimeFrame::ToString() const {
  std::string out = StrPrintf("TiltTimeFrame(policy=%s, next_tick=%lld)\n",
                              policy_->name().c_str(),
                              static_cast<long long>(next_tick_));
  for (int li = 0; li < num_levels_; ++li) {
    const LevelHeader& level = headers()[li];
    out += StrPrintf("  %-10s %d/%d slots\n",
                     policy_->level(li).name.c_str(), level.size,
                     level.capacity);
  }
  return out;
}

}  // namespace regcube
