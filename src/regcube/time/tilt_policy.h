#ifndef REGCUBE_TIME_TILT_POLICY_H_
#define REGCUBE_TIME_TILT_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "regcube/regression/time_series.h"

namespace regcube {

/// One granularity level of a tilt time frame: a display name and the number
/// of most-recent units retained at that level ("the most recent 4 quarters,
/// then the last 24 hours, 31 days and 12 months" — Fig 4).
struct TiltLevelSpec {
  std::string name;
  int capacity = 0;
};

/// Defines the granularity structure of a tilt time frame (§4.1): how many
/// levels there are, how many units each retains, and where unit boundaries
/// fall on the tick axis. Level 0 is the finest; boundaries of level i+1
/// must be a subset of boundaries of level i (checked by the frame as it
/// runs).
class TiltPolicy {
 public:
  virtual ~TiltPolicy() = default;

  virtual int num_levels() const = 0;

  /// Pre: 0 <= level < num_levels() (checked by implementations).
  virtual const TiltLevelSpec& level(int level) const = 0;

  /// True iff a unit of `level` ends exactly at tick `t` (inclusive), i.e.
  /// t+1 starts a new unit of that level.
  virtual bool IsUnitEnd(int level, TimeTick t) const = 0;

  /// True iff any level's unit ends at some tick in [begin, end) — exactly
  /// the range TiltTimeFrame::AdvanceTo(end) seals when the frame sits at
  /// `begin`. When this is false, advancing a frame across the range is
  /// observationally a no-op (no slot sealed, no eviction), which is what
  /// lets a seal leave a cell clean, its frozen block still published, when
  /// the clock advance crossed no unit end. The default scans tick by tick with
  /// early exit (cost bounded by the finest unit width); fixed-width
  /// policies override with O(1) modular math.
  virtual bool AnyUnitEndIn(TimeTick begin, TimeTick end) const;

  /// Nominal unit width in ticks (calendar levels report the typical width;
  /// used only for reporting, never for boundary math).
  virtual std::int64_t NominalUnitTicks(int level) const = 0;

  virtual std::string name() const = 0;

  /// Sum of capacities: max units ever retained (Example 3's "71 units").
  std::int64_t TotalCapacity() const;
};

/// Fixed-width levels: widths[i] ticks per unit at level i. Each width must
/// be a positive multiple of the previous one.
std::unique_ptr<TiltPolicy> MakeUniformTiltPolicy(
    std::vector<TiltLevelSpec> levels, std::vector<std::int64_t> widths);

/// The paper's Fig 4 frame over quarter-hour ticks: 4 quarters, 24 hours,
/// 31 days, 12 months, aligned with the natural (non-leap) calendar.
std::unique_ptr<TiltPolicy> MakeNaturalCalendarTiltPolicy();

/// Logarithmic frame: level i has unit width 2^i ticks and retains
/// `capacity_per_level` units. The standard alternative in the follow-on
/// stream-cube literature; included for the A2 ablation.
std::unique_ptr<TiltPolicy> MakeLogarithmicTiltPolicy(int num_levels,
                                                      int capacity_per_level);

}  // namespace regcube

#endif  // REGCUBE_TIME_TILT_POLICY_H_
