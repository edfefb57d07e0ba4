#include "regcube/time/tilt_frame.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

TiltTimeFrame::TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy,
                             TimeTick start_tick)
    : policy_(std::move(policy)), start_tick_(start_tick),
      next_tick_(start_tick) {
  RC_CHECK(policy_ != nullptr);
  num_levels_ = policy_->num_levels();
  total_capacity_ = 0;
  for (int li = 0; li < num_levels_; ++li) {
    RC_CHECK_GT(policy_->level(li).capacity, 0);
    total_capacity_ += policy_->level(li).capacity;
  }
  // Zero-filled first, so padding too is initialized before any copy
  // memcpys it; then the headers and ring slots are created in place.
  block_ = std::make_unique<std::byte[]>(BlockBytes());
  std::byte* at = block_.get();
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
      block_(
          std::make_unique_for_overwrite<std::byte[]>(other.BlockBytes())),
      start_tick_(other.start_tick_),
      next_tick_(other.next_tick_),
      num_levels_(other.num_levels_),
      total_capacity_(other.total_capacity_) {
  std::memcpy(block_.get(), other.block_.get(), BlockBytes());
}

TiltTimeFrame& TiltTimeFrame::operator=(const TiltTimeFrame& other) {
  if (this == &other) return *this;
  if (block_ == nullptr || BlockBytes() != other.BlockBytes()) {
    block_ = std::make_unique_for_overwrite<std::byte[]>(other.BlockBytes());
  }
  policy_ = other.policy_;
  start_tick_ = other.start_tick_;
  next_tick_ = other.next_tick_;
  num_levels_ = other.num_levels_;
  total_capacity_ = other.total_capacity_;
  std::memcpy(block_.get(), other.block_.get(), BlockBytes());
  return *this;
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
  return SlotView(ring() + state.ring_offset, state.capacity, state.head,
                  state.size);
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
  const SlotView slots = RawSlots(level);
  if (k < 1 || k > static_cast<int>(slots.size())) {
    return Status::OutOfRange(
        StrPrintf("requested %d slots, level %d has %zu sealed", k, level,
                  slots.size()));
  }
  std::vector<Isb> children;
  children.reserve(static_cast<size_t>(k));
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

TiltFrameState TiltTimeFrame::Snapshot() const {
  TiltFrameState state;
  state.start_tick = start_tick_;
  state.next_tick = next_tick_;
  state.levels.reserve(static_cast<size_t>(num_levels_));
  for (int li = 0; li < num_levels_; ++li) {
    const LevelHeader& level = headers()[li];
    const SlotView slots = RawSlots(li);
    TiltFrameState::Level out;
    out.slots.assign(slots.begin(), slots.end());
    out.pending = level.pending;
    out.pending_active = level.pending_active;
    out.pending_start = level.pending_start;
    state.levels.push_back(std::move(out));
  }
  return state;
}

Result<TiltTimeFrame> TiltTimeFrame::FromSnapshot(
    std::shared_ptr<const TiltPolicy> policy, const TiltFrameState& state) {
  RC_CHECK(policy != nullptr);
  if (static_cast<int>(state.levels.size()) != policy->num_levels()) {
    return Status::InvalidArgument(StrPrintf(
        "snapshot has %zu levels, policy %s has %d", state.levels.size(),
        policy->name().c_str(), policy->num_levels()));
  }
  if (state.next_tick < state.start_tick) {
    return Status::InvalidArgument("snapshot clock precedes its start tick");
  }
  TiltTimeFrame frame(std::move(policy), state.start_tick);
  frame.next_tick_ = state.next_tick;
  for (size_t li = 0; li < state.levels.size(); ++li) {
    const TiltFrameState::Level& in = state.levels[li];
    LevelHeader& out = frame.headers()[li];
    if (in.slots.size() > static_cast<size_t>(out.capacity)) {
      return Status::InvalidArgument(StrPrintf(
          "snapshot level %zu holds %zu slots, capacity is %d", li,
          in.slots.size(), out.capacity));
    }
    // Restored rings start unrotated: the oldest slot at ring index 0.
    std::copy(in.slots.begin(), in.slots.end(),
              frame.ring() + out.ring_offset);
    out.head = 0;
    out.size = static_cast<std::int32_t>(in.slots.size());
    out.pending = in.pending;
    out.pending_active = in.pending_active;
    out.pending_start = in.pending_start;
  }
  return frame;
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
