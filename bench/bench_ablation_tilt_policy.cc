// A2 — ablation of the tilt-frame policy: the paper's natural-calendar frame
// (Fig 4) vs a uniform frame of the same levels vs a logarithmic frame.
// Reports retained slots, memory, covered horizon, and ingest throughput
// over one simulated year of quarter-hour ticks.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "regcube/common/pcg_random.h"
#include "regcube/time/calendar.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace {

struct PolicyCase {
  const char* name;
  std::shared_ptr<const TiltPolicy> policy;
};

void Run(int argc, char** argv) {
  const TimeTick year = QuarterHourCalendar::kTicksPerYear;
  const TimeTick ticks = bench::ArgInt(argc, argv, "ticks", year);

  bench::PrintHeader(StrPrintf(
      "Ablation A2: tilt policy over %lld quarter-hour ticks",
      static_cast<long long>(ticks)));

  std::vector<PolicyCase> cases;
  cases.push_back({"natural-calendar", MakeNaturalCalendarTiltPolicy()});
  cases.push_back(
      {"uniform(4q/24h/31d/12m)",
       MakeUniformTiltPolicy(
           {{"quarter", 4}, {"hour", 24}, {"day", 31}, {"month", 12}},
           {1, 4, 96, 96 * 30})});
  cases.push_back({"logarithmic(16 lvls x4)",
                   MakeLogarithmicTiltPolicy(16, 4)});

  bench::PrintRow({"policy", "slots", "bytes", "horizon(d)", "Mticks/s"});
  for (PolicyCase& c : cases) {
    TiltTimeFrame frame(c.policy, 0);
    Pcg32 rng(1);
    Stopwatch timer;
    for (TimeTick t = 0; t < ticks; ++t) {
      RC_CHECK(frame.Add(t, 10.0 + rng.NextDouble()).ok());
    }
    RC_CHECK(frame.AdvanceTo(ticks).ok());
    const double seconds = timer.ElapsedSeconds();

    // Horizon: oldest tick still represented in any sealed slot.
    TimeTick oldest = ticks;
    for (int level = 0; level < c.policy->num_levels(); ++level) {
      const TiltTimeFrame::SlotView slots = frame.RawSlots(level);
      if (!slots.empty()) oldest = std::min(oldest, slots.front().interval.tb);
    }
    const double horizon_days = static_cast<double>(ticks - oldest) /
                                QuarterHourCalendar::kTicksPerDay;
    bench::PrintRow(
        {c.name, StrPrintf("%lld", static_cast<long long>(frame.RetainedSlots())),
         StrPrintf("%lld", static_cast<long long>(frame.MemoryBytes())),
         StrPrintf("%.1f", horizon_days),
         StrPrintf("%.2f", static_cast<double>(ticks) / seconds / 1e6)});
  }
  std::printf(
      "note: the calendar policy tracks true month boundaries; the uniform\n"
      "frame drifts against the calendar; the logarithmic frame covers the\n"
      "longest horizon per slot but at power-of-two (non-calendar) units.\n");
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
