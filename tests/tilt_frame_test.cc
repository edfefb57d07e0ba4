#include "regcube/time/tilt_frame.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/regression/aggregate.h"
#include "regcube/regression/linear_fit.h"
#include "regcube/time/calendar.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MustFit;
using testing_util::RecordOf;

void ExpectMomentsIdentical(const MomentSums& want, const MomentSums& got) {
  EXPECT_EQ(want.interval, got.interval);
  EXPECT_EQ(want.sum_z, got.sum_z);
  EXPECT_EQ(want.sum_tz, got.sum_tz);
}

/// Bitwise equality of a frame with a captured record: ticks, every
/// level header and every ring slot, ring rotation included.
void ExpectFrameIs(const std::string& want_record, const TiltTimeFrame& got) {
  EXPECT_TRUE(want_record == RecordOf(got)) << "frame records differ";
}

/// `record` copied into 8-byte aligned memory that a view can hold.
std::shared_ptr<std::vector<std::uint64_t>> AlignedCopy(
    const std::string& record) {
  auto words = std::make_shared<std::vector<std::uint64_t>>(
      (record.size() + 7) / 8);
  std::memcpy(words->data(), record.data(), record.size());
  return words;
}

std::string_view BytesOf(const std::vector<std::uint64_t>& words,
                         size_t size) {
  return std::string_view(reinterpret_cast<const char*>(words.data()), size);
}

std::shared_ptr<const TiltPolicy> QuarterHourDayPolicy() {
  // Ticks are quarters: hour = 4 ticks, day = 96 ticks.
  return MakeUniformTiltPolicy({{"quarter", 4}, {"hour", 24}, {"day", 31}},
                               {1, 4, 96});
}

TEST(TiltFrameTest, SealsQuartersAndPromotesHours) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  // Feed 8 ticks (2 full hours); tick 8 opens the 3rd hour.
  for (TimeTick t = 0; t <= 8; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  // Ticks 0..7 sealed as quarters (capacity 4 keeps the last 4).
  EXPECT_EQ(frame.Slots(0).size(), 4u);
  // Two hour slots sealed.
  auto hours = frame.Slots(1);
  ASSERT_EQ(hours.size(), 2u);
  EXPECT_EQ(hours[0].interval.tb, 0);
  EXPECT_EQ(hours[0].interval.te, 3);
  EXPECT_EQ(hours[1].interval.tb, 4);
  EXPECT_EQ(hours[1].interval.te, 7);
  // Hour slot 0 must equal the direct fit of z(t)=t over [0,3].
  ExpectIsbNear(MustFit(TimeSeries(0, {0, 1, 2, 3})), hours[0], 1e-12);
}

TEST(TiltFrameTest, CapacityEvictsOldestSlots) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  for (TimeTick t = 0; t < 40; ++t) {
    ASSERT_TRUE(frame.Add(t, 1.0).ok());
  }
  auto quarters = frame.Slots(0);
  ASSERT_EQ(quarters.size(), 4u);
  // The newest sealed quarter ends at t=38 (t=39 is still open).
  EXPECT_EQ(quarters.back().interval.te, 38);
  EXPECT_EQ(quarters.front().interval.tb, 35);
}

TEST(TiltFrameTest, YearRunRetainsAtMost71SlotsOnCalendarPolicy) {
  // Example 3: after a year of ticks the frame holds <= 4+24+31+12 units.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeNaturalCalendarTiltPolicy());
  TiltTimeFrame frame(policy, 0);
  // Drive a full year via AdvanceTo (values irrelevant for the count).
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(QuarterHourCalendar::kTicksPerYear).ok());
  EXPECT_EQ(frame.RetainedSlots(), 4 + 24 + 31 + 12);
  EXPECT_EQ(frame.TicksSeen(), QuarterHourCalendar::kTicksPerYear);
}

TEST(TiltFrameTest, RegressLastSlotsMatchesDirectFit) {
  // Property: the regression over the last k sealed hours equals the fit
  // of the raw data in that window (lossless tilt-frame storage).
  Pcg32 rng(21);
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  std::vector<double> raw;
  const TimeTick total = 4 * 24;  // one day
  for (TimeTick t = 0; t < total; ++t) {
    double z = 5.0 + 0.02 * static_cast<double>(t) + rng.NextGaussian();
    raw.push_back(z);
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(total).ok());

  for (int k : {1, 3, 12, 24}) {
    auto reg = frame.RegressLastSlots(1, k);  // last k hours
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    const TimeTick window_start = total - 4 * k;
    std::vector<double> window(raw.begin() + window_start, raw.end());
    Isb direct = MustFit(TimeSeries(window_start, std::move(window)));
    ExpectIsbNear(direct, *reg, 1e-8);
  }
}

TEST(TiltFrameTest, MissingTicksContributeZero) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  // Only tick 1 of the first hour carries data.
  ASSERT_TRUE(frame.Add(1, 8.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(4).ok());
  auto hours = frame.Slots(1);
  ASSERT_EQ(hours.size(), 1u);
  ExpectIsbNear(MustFit(TimeSeries(0, {0.0, 8.0, 0.0, 0.0})), hours[0],
                1e-12);
}

TEST(TiltFrameTest, MultipleObservationsPerTickSum) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.Add(0, 2.5).ok());
  ASSERT_TRUE(frame.AdvanceTo(4).ok());
  auto quarters = frame.Slots(0);
  ASSERT_EQ(quarters.size(), 4u);
  EXPECT_NEAR(quarters[0].SeriesSum(), 3.5, 1e-12);
}

TEST(TiltFrameTest, RejectsPastTicks) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 10);
  EXPECT_FALSE(frame.Add(9, 1.0).ok());  // before start
  ASSERT_TRUE(frame.Add(15, 1.0).ok());
  EXPECT_FALSE(frame.Add(12, 1.0).ok());  // already sealed region
  EXPECT_TRUE(frame.Add(15, 1.0).ok());   // same tick is fine
}

TEST(TiltFrameTest, PendingSlotTracksPartialUnit) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(4, 2.0).ok());  // first tick of hour 2
  ASSERT_TRUE(frame.Add(5, 4.0).ok());
  auto pending = frame.PendingSlot(1);  // hour level
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_EQ(pending->interval.tb, 4);
  EXPECT_EQ(pending->interval.te, 5);
  EXPECT_NEAR(pending->SeriesSum(), 6.0, 1e-12);
}

TEST(TiltFrameTest, RegressAcrossAllRetainedHours) {
  // Aggregating every hour slot must equal the fit over the whole
  // retained window.
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  std::vector<double> raw;
  for (TimeTick t = 0; t < 16; ++t) {  // 4 hours exactly
    double z = static_cast<double>(t % 5);
    raw.push_back(z);
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(16).ok());
  auto reg = frame.RegressLastSlots(1, 4);
  ASSERT_TRUE(reg.ok());
  ExpectIsbNear(MustFit(TimeSeries(0, std::move(raw))), *reg, 1e-9);
}

TEST(TiltFrameTest, RegressLastSlotsBoundsChecked) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  EXPECT_FALSE(frame.RegressLastSlots(0, 1).ok());  // nothing sealed yet
  ASSERT_TRUE(frame.AdvanceTo(8).ok());
  EXPECT_TRUE(frame.RegressLastSlots(0, 4).ok());
  EXPECT_FALSE(frame.RegressLastSlots(0, 5).ok());  // only 4 retained
  EXPECT_FALSE(frame.RegressLastSlots(0, 0).ok());
}

TEST(TiltFrameTest, MergeStandardDimCombinesCells) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame a(policy, 0), b(policy, 0);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(a.Add(t, 1.0 + static_cast<double>(t)).ok());
    ASSERT_TRUE(b.Add(t, 2.0 * static_cast<double>(t)).ok());
  }
  ASSERT_TRUE(a.AdvanceTo(8).ok());
  ASSERT_TRUE(b.AdvanceTo(8).ok());
  ASSERT_TRUE(a.MergeStandardDim(b).ok());
  auto hours = a.Slots(1);
  ASSERT_EQ(hours.size(), 2u);
  // Merged hour 0 = fit of (1+t) + 2t = 1 + 3t over [0,3].
  ExpectIsbNear(MustFit(TimeSeries(0, {1.0, 4.0, 7.0, 10.0})), hours[0],
                1e-9);
}

TEST(TiltFrameTest, MergeRejectsMisalignedFrames) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame a(policy, 0), b(policy, 0);
  ASSERT_TRUE(a.Add(5, 1.0).ok());
  ASSERT_TRUE(b.Add(3, 1.0).ok());
  const std::string before = RecordOf(a);
  EXPECT_FALSE(a.MergeStandardDim(b).ok());
  ExpectFrameIs(before, a);

  // A mismatch only in a later level: both policies are "uniform" with
  // the same level count, and level 0 agrees slot for slot, but level 1
  // retains 2 vs 3 hours. Validation runs before any fold, so level 0 of
  // `c` must not have been merged either.
  auto two_hours = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 4}, {"hour", 2}}, {1, 4}));
  auto three_hours = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 4}, {"hour", 3}}, {1, 4}));
  TiltTimeFrame c(two_hours, 0), d(three_hours, 0);
  for (TimeTick t = 0; t < 16; ++t) {
    ASSERT_TRUE(c.Add(t, 1.0 + static_cast<double>(t)).ok());
    ASSERT_TRUE(d.Add(t, 2.0).ok());
  }
  ASSERT_TRUE(c.AdvanceTo(16).ok());
  ASSERT_TRUE(d.AdvanceTo(16).ok());
  ASSERT_EQ(c.RawSlots(0).size(), d.RawSlots(0).size());
  const std::string c_before = RecordOf(c);
  const Status merged = c.MergeStandardDim(d);
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  ExpectFrameIs(c_before, c);

  // Same counts everywhere and level 0 identical, but the last level's
  // intervals are off: its units are 2 ticks wide instead of 4.
  auto narrow_hours = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 4}, {"hour", 2}}, {1, 2}));
  TiltTimeFrame e(narrow_hours, 0);
  for (TimeTick t = 0; t < 16; ++t) ASSERT_TRUE(e.Add(t, 3.0).ok());
  ASSERT_TRUE(e.AdvanceTo(16).ok());
  ASSERT_EQ(c.RawSlots(1).size(), e.RawSlots(1).size());
  ASSERT_EQ(c.RawSlots(0).front().interval, e.RawSlots(0).front().interval);
  EXPECT_EQ(c.MergeStandardDim(e).code(), StatusCode::kInvalidArgument);
  ExpectFrameIs(c_before, c);
}

TEST(TiltFrameTest, FoldSlotsSumsUnits) {
  // 6.2's folding: 8 sealed quarters folded 4-per-bucket (two "hours" of
  // totals), compared against hand-computed sums.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 8}}, {4}));
  TiltTimeFrame frame(policy, 0);
  double bucket_sums[2] = {0.0, 0.0};
  for (TimeTick t = 0; t < 32; ++t) {
    const double z = static_cast<double>(t % 3);
    bucket_sums[t / 16] += z;
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(32).ok());
  auto folded = frame.FoldSlots(0, 4, FoldOp::kSum);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  ASSERT_EQ(folded->size(), 2);
  EXPECT_NEAR(folded->at(0), bucket_sums[0], 1e-9);
  EXPECT_NEAR(folded->at(1), bucket_sums[1], 1e-9);
  // Folding with MIN on compressed slots is correctly refused.
  EXPECT_EQ(frame.FoldSlots(0, 4, FoldOp::kMin).status().code(),
            StatusCode::kUnimplemented);
}

TEST(TiltFrameTest, MemoryGrowsThenPlateaus) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(8).ok());
  const std::int64_t early = frame.MemoryBytes();
  ASSERT_TRUE(frame.AdvanceTo(96 * 40).ok());  // 40 days
  const std::int64_t late = frame.MemoryBytes();
  ASSERT_TRUE(frame.AdvanceTo(96 * 80).ok());  // 80 days
  const std::int64_t later = frame.MemoryBytes();
  EXPECT_GT(late, early);
  EXPECT_EQ(late, later);  // bounded by capacities
}

/// Reference model of the frame: the straightforward layout, one
/// std::deque of sealed slots per level, evicting with pop_front. The
/// block layout must be observationally identical to it.
class DequeFrame {
 public:
  DequeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start)
      : policy_(std::move(policy)), next_tick_(start) {
    levels_.resize(static_cast<size_t>(policy_->num_levels()));
    for (Level& level : levels_) level.pending_start = start;
  }

  /// True once every level has sealed more than 3x its capacity.
  bool WrappedThreeTimes() const {
    for (int li = 0; li < policy_->num_levels(); ++li) {
      if (levels_[static_cast<size_t>(li)].seals <=
          3 * static_cast<std::int64_t>(policy_->level(li).capacity)) {
        return false;
      }
    }
    return true;
  }

  void Add(TimeTick t, double z) {
    AdvanceTo(t);
    for (Level& level : levels_) {
      level.pending.Add(t, z);
      level.pending_active = true;
    }
  }

  void AdvanceTo(TimeTick t) {
    for (; next_tick_ < t; ++next_tick_) {
      for (int li = 0; li < policy_->num_levels(); ++li) {
        if (!policy_->IsUnitEnd(li, next_tick_)) continue;
        Level& level = levels_[static_cast<size_t>(li)];
        MomentSums slot = level.pending;
        slot.interval.tb = level.pending_start;
        slot.interval.te = next_tick_;
        level.slots.push_back(slot);
        ++level.seals;
        while (static_cast<int>(level.slots.size()) >
               policy_->level(li).capacity) {
          level.slots.pop_front();
        }
        level.pending = MomentSums();
        level.pending_active = false;
        level.pending_start = next_tick_ + 1;
      }
    }
  }

  const std::deque<MomentSums>& slots(int level) const {
    return levels_[static_cast<size_t>(level)].slots;
  }

  std::int64_t RetainedSlots() const {
    std::int64_t total = 0;
    for (const Level& level : levels_) {
      total += static_cast<std::int64_t>(level.slots.size());
    }
    return total;
  }

  /// Pre: 1 <= k <= slots(level).size().
  Isb RegressLastSlots(int level, int k) const {
    const auto& s = slots(level);
    std::vector<Isb> children;
    for (size_t i = s.size() - static_cast<size_t>(k); i < s.size(); ++i) {
      children.push_back(FitFromMoments(s[i]));
    }
    return *AggregateTimeDim(children);
  }

 private:
  struct Level {
    std::deque<MomentSums> slots;
    MomentSums pending;
    bool pending_active = false;
    TimeTick pending_start = 0;
    std::int64_t seals = 0;  // slots ever sealed, evicted ones included
  };
  std::shared_ptr<const TiltPolicy> policy_;
  std::vector<Level> levels_;
  TimeTick next_tick_;
};

void ExpectMatchesModel(const DequeFrame& model, const TiltTimeFrame& frame,
                        Pcg32& rng) {
  const int num_levels = frame.policy().num_levels();
  for (int li = 0; li < num_levels; ++li) {
    const auto& want = model.slots(li);
    const TiltTimeFrame::SlotView got = frame.RawSlots(li);
    ASSERT_EQ(want.size(), got.size()) << "level " << li;
    EXPECT_EQ(want.empty(), got.empty());
    for (size_t s = 0; s < want.size(); ++s) {
      ExpectMomentsIdentical(want[s], got[s]);
    }
    // Iteration walks the same oldest-first order as indexing.
    size_t s = 0;
    for (const MomentSums& m : got) ExpectMomentsIdentical(want[s++], m);
    EXPECT_EQ(s, want.size());
    if (!want.empty()) {
      ExpectMomentsIdentical(want.front(), got.front());
      const int k = 1 + static_cast<int>(rng.Uniform(
                            static_cast<std::uint32_t>(want.size())));
      auto reg = frame.RegressLastSlots(li, k);
      ASSERT_TRUE(reg.ok()) << reg.status().ToString();
      const Isb expected = model.RegressLastSlots(li, k);
      EXPECT_EQ(expected.interval, reg->interval);
      EXPECT_EQ(expected.base, reg->base);
      EXPECT_EQ(expected.slope, reg->slope);
    }
  }
  EXPECT_EQ(frame.RetainedSlots(), model.RetainedSlots());
  EXPECT_EQ(frame.MemoryBytes(),
            static_cast<std::int64_t>(sizeof(TiltTimeFrame)) +
                model.RetainedSlots() *
                    static_cast<std::int64_t>(sizeof(MomentSums)));
}

/// Drives a frame and the deque model through the same seeded stream of
/// Adds and clock jumps until every level has sealed more than 3x its
/// capacity (so every ring has wrapped several times), checking the two
/// agree along the way and that a record round trip (FromRecord) of the
/// wrapped frame restores it bitwise and continues in lockstep, while a
/// view of the same record answers like the frame it was taken from.
void RunModelCheck(std::shared_ptr<const TiltPolicy> policy,
                   std::uint64_t seed, TimeTick max_gap) {
  Pcg32 rng(seed);
  TiltTimeFrame frame(policy, 0);
  DequeFrame model(policy, 0);
  const int coarsest = policy->num_levels() - 1;
  TimeTick t = 0;
  int steps = 0;
  while (!model.WrappedThreeTimes()) {
    if (rng.Uniform(4) == 0) {
      t += 1 + static_cast<TimeTick>(
                   rng.Uniform(static_cast<std::uint32_t>(max_gap)));
      ASSERT_TRUE(frame.AdvanceTo(t).ok());
      model.AdvanceTo(t);
    } else {
      t += static_cast<TimeTick>(rng.Uniform(2));
      const double z = rng.NextGaussian() * 3.0 + 1.0;
      ASSERT_TRUE(frame.Add(t, z).ok());
      model.Add(t, z);
    }
    if (++steps % 64 == 0) {
      ExpectMatchesModel(model, frame, rng);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectMatchesModel(model, frame, rng);
  for (int li = 0; li <= coarsest; ++li) {
    EXPECT_EQ(static_cast<int>(frame.RawSlots(li).size()),
              policy->level(li).capacity)
        << "level " << li << " should be full after wrapping";
  }

  const std::string record = RecordOf(frame);
  auto restored = TiltTimeFrame::FromRecord(policy, record);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectFrameIs(record, *restored);
  ExpectMatchesModel(model, *restored, rng);
  auto words = AlignedCopy(record);
  auto view =
      TiltTimeFrame::ViewRecord(policy, BytesOf(*words, record.size()), words);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  words.reset();  // the view holds the memory it reads
  EXPECT_TRUE((*view)->is_view());
  ExpectFrameIs(record, **view);
  ExpectMatchesModel(model, **view, rng);
  // The restored ring (rotated exactly like the original's) and the
  // wrapped original keep agreeing with the model as they seal on.
  const TimeTick end = t + 4 * static_cast<TimeTick>(
                                   policy->NominalUnitTicks(coarsest));
  for (TimeTick u = t; u < end;
       u += 1 + static_cast<TimeTick>(rng.Uniform(3))) {
    const double z = rng.NextGaussian();
    ASSERT_TRUE(frame.Add(u, z).ok());
    ASSERT_TRUE(restored->Add(u, z).ok());
    model.Add(u, z);
  }
  ExpectMatchesModel(model, frame, rng);
  ExpectMatchesModel(model, *restored, rng);
  ExpectFrameIs(RecordOf(frame), *restored);
}

TEST(TiltFrameLayoutTest, RingMatchesDequeModelOnUniformPolicy) {
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"tick", 8}, {"octet", 8}}, {1, 8}));
  RunModelCheck(policy, 12, 20);
}

TEST(TiltFrameLayoutTest, RingMatchesDequeModelOnCalendarPolicy) {
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeNaturalCalendarTiltPolicy());
  // Clock jumps of up to ~2 days keep the 3+ years this takes to a few
  // thousand steps while still sealing every level densely.
  RunModelCheck(policy, 34, 2 * QuarterHourCalendar::kTicksPerDay);
}

TEST(TiltFrameLayoutTest, CopyIsIndependentOfOriginal) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame original(policy, 0);
  Pcg32 rng(5);
  // Wrap the quarter and hour rings, leave every level a pending unit.
  for (TimeTick t = 0; t < 4 * 30 + 2; ++t) {
    ASSERT_TRUE(original.Add(t, rng.NextGaussian()).ok());
  }
  const std::string before = RecordOf(original);

  TiltTimeFrame copy(original);
  ExpectFrameIs(before, copy);
  TiltTimeFrame assigned(QuarterHourDayPolicy(), 7);
  assigned = original;
  ExpectFrameIs(before, assigned);
  TiltTimeFrame other_shape(
      std::shared_ptr<const TiltPolicy>(
          MakeUniformTiltPolicy({{"tick", 2}}, {1})),
      0);
  other_shape = original;  // different block size: reallocated
  ExpectFrameIs(before, other_shape);

  for (TiltTimeFrame* mutated : {&copy, &assigned, &other_shape}) {
    for (TimeTick t = 4 * 30 + 2; t < 4 * 40; ++t) {
      ASSERT_TRUE(mutated->Add(t, 100.0).ok());
    }
    ASSERT_TRUE(mutated->AdvanceTo(96 * 3).ok());
    EXPECT_NE(mutated->next_tick(), original.next_tick());
  }
  ExpectFrameIs(before, original);

  // And the other way round: mutating the original leaves a copy alone.
  TiltTimeFrame frozen(original);
  const std::string frozen_before = RecordOf(frozen);
  ASSERT_TRUE(original.Add(96 * 2, 1.0).ok());
  ASSERT_TRUE(original.MergeStandardDim(original).ok());
  ExpectFrameIs(frozen_before, frozen);
}

TEST(TiltFrameLayoutTest, ViewReadsInPlaceAndCopiesOwnTheirBlock) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame original(policy, 0);
  for (TimeTick t = 0; t < 4 * 30 + 2; ++t) {
    ASSERT_TRUE(original.Add(t, 0.25 * static_cast<double>(t % 9)).ok());
  }
  const std::string record = RecordOf(original);
  auto words = AlignedCopy(record);
  std::weak_ptr<std::vector<std::uint64_t>> watch = words;
  auto view =
      TiltTimeFrame::ViewRecord(policy, BytesOf(*words, record.size()), words);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  words.reset();
  EXPECT_FALSE(watch.expired()) << "a view must hold its memory";
  EXPECT_TRUE((*view)->is_view());
  EXPECT_EQ((*view)->OwnedBytes(), 0);
  EXPECT_EQ((*view)->MemoryBytes(), original.MemoryBytes());
  ExpectFrameIs(record, **view);

  // A copy of the view owns its block and evolves like the original.
  TiltTimeFrame copy(**view);
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy.OwnedBytes(), copy.MemoryBytes());
  for (TiltTimeFrame* f : {&original, &copy}) {
    ASSERT_TRUE(f->Add(4 * 30 + 5, 2.0).ok());
    ASSERT_TRUE(f->AdvanceTo(96 * 2).ok());
  }
  ExpectFrameIs(RecordOf(original), copy);
  ExpectFrameIs(record, **view);  // the view never changed

  view->reset();
  EXPECT_TRUE(watch.expired()) << "the last view releases its memory";

  // A misaligned record cannot be viewed (restoring it still works).
  std::vector<std::uint64_t> shifted(record.size() / 8 + 2);
  char* odd = reinterpret_cast<char*>(shifted.data()) + 4;
  std::memcpy(odd, record.data(), record.size());
  EXPECT_EQ(TiltTimeFrame::ViewRecord(policy,
                                      std::string_view(odd, record.size()),
                                      nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto restored =
      TiltTimeFrame::FromRecord(policy, std::string_view(odd, record.size()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectFrameIs(record, *restored);
}

// ------------------------------------------------------------ as-of reads

/// Checks that `frame` read as of `as_of` is bitwise `advanced` (a copy
/// moved there with AdvanceTo): every level's slots through SlotsAsOf, and
/// RegressLastSlots for every k, the OutOfRange ones (0 and one past the
/// slots) included. One buffer serves every level, as in the kernels.
void ExpectReadsAsAdvanced(const TiltTimeFrame& frame, TimeTick as_of,
                           const TiltTimeFrame& advanced) {
  std::vector<MomentSums> sealed;
  for (int li = 0; li < frame.policy().num_levels(); ++li) {
    SCOPED_TRACE("level " + std::to_string(li));
    const TiltTimeFrame::SlotView want = advanced.RawSlots(li);
    const TiltTimeFrame::SlotView got = frame.SlotsAsOf(li, as_of, &sealed);
    ASSERT_EQ(want.size(), got.size());
    size_t i = 0;
    for (const MomentSums& slot : got) {  // the iterator walks both segments
      ExpectMomentsIdentical(want[i], slot);
      ExpectMomentsIdentical(want[i], got[i]);
      ++i;
    }
    ASSERT_EQ(i, want.size());
    for (int k = 0; k <= static_cast<int>(want.size()) + 1; ++k) {
      auto want_fit = advanced.RegressLastSlots(li, k);
      auto got_fit = frame.RegressLastSlots(li, k, as_of);
      ASSERT_EQ(want_fit.ok(), got_fit.ok()) << "k " << k;
      if (want_fit.ok()) {
        EXPECT_EQ(*want_fit, *got_fit) << "k " << k;
      } else {
        EXPECT_EQ(got_fit.status().code(), StatusCode::kOutOfRange);
        EXPECT_EQ(want_fit.status().message(), got_fit.status().message());
      }
    }
  }
}

/// The lags a frame at `now` is read at: none, a clock behind it, inside
/// and across every level's unit, across two of them, and past every
/// level's whole capacity.
std::vector<TimeTick> LagsToCheck(const TiltPolicy& policy, TimeTick now) {
  std::vector<TimeTick> lags = {0, -1, 1, 2};
  TimeTick widest_capacity = 0;
  for (int li = 0; li < policy.num_levels(); ++li) {
    // The first unit end of this level at or after `now`.
    TimeTick end = now;
    while (!policy.IsUnitEnd(li, end)) ++end;
    const TimeTick first = end - now;
    lags.push_back(first);      // stops short of the end: inside the unit
    lags.push_back(first + 1);  // seals the pending unit
    lags.push_back(first + 2 * policy.NominalUnitTicks(li) + 1);
    widest_capacity =
        std::max(widest_capacity, (policy.level(li).capacity + 2) *
                                      policy.NominalUnitTicks(li));
  }
  lags.push_back(widest_capacity);
  return lags;
}

/// Every lag of LagsToCheck, on the frame itself, a view of its record
/// and a frozen copy.
void ExpectAsOfReadsAt(std::shared_ptr<const TiltPolicy> policy,
                       const TiltTimeFrame& frame) {
  const std::string record = RecordOf(frame);
  auto words = AlignedCopy(record);
  auto view = TiltTimeFrame::ViewRecord(
      std::move(policy), BytesOf(*words, record.size()), words);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const auto frozen = frame.Freeze();
  for (TimeTick lag : LagsToCheck(frame.policy(), frame.next_tick())) {
    const TimeTick as_of = frame.next_tick() + lag;
    SCOPED_TRACE("as of " + std::to_string(as_of) + " (frame at " +
                 std::to_string(frame.next_tick()) + ")");
    TiltTimeFrame advanced(frame);
    ASSERT_TRUE(advanced.AdvanceTo(as_of).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectReadsAsAdvanced(frame, as_of, advanced));
    ASSERT_NO_FATAL_FAILURE(ExpectReadsAsAdvanced(**view, as_of, advanced));
    ASSERT_NO_FATAL_FAILURE(ExpectReadsAsAdvanced(*frozen, as_of, advanced));
  }
  ExpectFrameIs(record, frame);  // reading never moved the frame
}

/// Drives a frame through a seeded stream of Adds and clock jumps (so it
/// is caught with and without pending data, on and off unit boundaries,
/// with rings wrapped) and checks the as-of reads at every stop.
void RunAsOfCheck(std::shared_ptr<const TiltPolicy> policy, TimeTick start,
                  std::uint64_t seed, TimeTick max_gap, int stops) {
  Pcg32 rng(seed);
  TiltTimeFrame frame(policy, start);
  ASSERT_NO_FATAL_FAILURE(ExpectAsOfReadsAt(policy, frame));  // no data yet
  TimeTick t = start;
  for (int stop = 0; stop < stops; ++stop) {
    SCOPED_TRACE("stop " + std::to_string(stop));
    for (int step = 0; step < 24; ++step) {
      if (rng.Uniform(4) == 0) {
        t += 1 + static_cast<TimeTick>(
                     rng.Uniform(static_cast<std::uint32_t>(max_gap)));
        ASSERT_TRUE(frame.AdvanceTo(t).ok());
      } else {
        t += static_cast<TimeTick>(rng.Uniform(2));
        ASSERT_TRUE(frame.Add(t, rng.NextGaussian() * 3.0 + 1.0).ok());
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAsOfReadsAt(policy, frame));
  }
}

TEST(TiltFrameAsOfTest, MatchesAdvanceToOnTheBenchPolicies) {
  // The tilt policies of the end-to-end workloads.
  RunAsOfCheck(std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
                   {{"tick", 8}, {"octet", 8}}, {1, 8})),
               0, 3, 12, 12);
  RunAsOfCheck(std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
                   {{"tick", 4}, {"quad", 4}, {"hexa", 4}}, {1, 4, 16})),
               5, 4, 20, 12);
  RunAsOfCheck(QuarterHourDayPolicy(), 0, 5, 40, 8);
}

TEST(TiltFrameAsOfTest, MatchesAdvanceToOnCalendarPolicy) {
  RunAsOfCheck(
      std::shared_ptr<const TiltPolicy>(MakeNaturalCalendarTiltPolicy()), 0,
      6, 2 * QuarterHourCalendar::kTicksPerDay, 4);
}

TEST(TiltFrameAsOfTest, MatchesAdvanceToOnLogarithmicPolicy) {
  RunAsOfCheck(
      std::shared_ptr<const TiltPolicy>(MakeLogarithmicTiltPolicy(5, 3)), 2,
      7, 16, 12);
}

TEST(TiltFrameAsOfTest, AtOrBehindTheFrameReadsTheRingInPlace) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame frame(policy, 0);
  for (TimeTick t = 0; t < 4 * 30 + 2; ++t) {
    ASSERT_TRUE(frame.Add(t, 0.5 * static_cast<double>(t % 7)).ok());
  }
  std::vector<MomentSums> sealed;
  for (int li = 0; li < policy->num_levels(); ++li) {
    const TiltTimeFrame::SlotView raw = frame.RawSlots(li);
    // At the frame's clock, behind it, and ahead of it with no unit end of
    // this level in between (tick 121 ends no hour and no day): the ring
    // itself.
    for (TimeTick as_of : {frame.next_tick(), frame.next_tick() - 5,
                           frame.next_tick() + 1}) {
      if (as_of == frame.next_tick() + 1 && li == 0) continue;
      const TiltTimeFrame::SlotView got = frame.SlotsAsOf(li, as_of, &sealed);
      ASSERT_EQ(got.size(), raw.size());
      if (!raw.empty()) {
        EXPECT_EQ(&got.front(), &raw.front());
      }
    }
  }
  EXPECT_TRUE(sealed.empty()) << "an in-place read wrote the buffer";
}

TEST(TiltFrameLayoutTest, FreezeHoldsTheBlockInline) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame original(policy, 0);
  for (TimeTick t = 0; t < 4 * 30 + 2; ++t) {
    ASSERT_TRUE(original.Add(t, 0.25 * static_cast<double>(t % 9)).ok());
  }
  const std::string record = RecordOf(original);
  std::shared_ptr<const TiltTimeFrame> frozen = original.Freeze();
  ExpectFrameIs(record, *frozen);
  EXPECT_FALSE(frozen->is_view());
  EXPECT_EQ(frozen->OwnedBytes(), frozen->MemoryBytes());
  // The block rides in the frame's own allocation, right behind it.
  const auto* frame_at = reinterpret_cast<const std::byte*>(frozen.get());
  const auto* ring_at =
      reinterpret_cast<const std::byte*>(&frozen->RawSlots(0).front());
  EXPECT_GT(ring_at, frame_at);
  EXPECT_LT(ring_at - frame_at,
            static_cast<std::ptrdiff_t>(original.RecordBytes() +
                                        sizeof(TiltTimeFrame)));

  // Independent of the original, and a copy of it owns its block.
  ASSERT_TRUE(original.Add(4 * 30 + 5, 2.0).ok());
  ExpectFrameIs(record, *frozen);
  TiltTimeFrame copy(*frozen);
  EXPECT_NE(&copy.RawSlots(0).front(), &frozen->RawSlots(0).front());
  ASSERT_TRUE(copy.Add(4 * 30 + 5, 2.0).ok());
  ExpectFrameIs(RecordOf(original), copy);
  ExpectFrameIs(record, *frozen);

  // Frozen twice, then released in either order: each allocation is its
  // own (the sanitizer jobs check the frees).
  auto again = frozen->Freeze();
  frozen.reset();
  ExpectFrameIs(record, *again);
}

}  // namespace
}  // namespace regcube
