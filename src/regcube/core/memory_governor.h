#ifndef REGCUBE_CORE_MEMORY_GOVERNOR_H_
#define REGCUBE_CORE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace regcube {

/// Engine-level spill/eviction observability, assembled from the governor,
/// the frame store, and the per-shard spilled-cell counts. All counters
/// cumulative since the engine was built unless noted.
struct SpillStats {
  std::int64_t budget_bytes = 0;    // 0 = unbounded
  std::int64_t enforcements = 0;    // ladder runs that did work
  std::int64_t memo_evictions = 0;  // rung invocations, by rung
  std::int64_t cache_evictions = 0;
  std::int64_t spill_evictions = 0;
  std::int64_t export_evictions = 0;  // always 0; the e2e harness reads it
  std::int64_t evicted_bytes = 0;   // bytes reclaimed by all rungs
  std::int64_t spilled_cells = 0;   // cells currently cold (point in time)
  std::int64_t spilled_blocks = 0;  // blocks ever written to the cold tier
  std::int64_t spilled_bytes = 0;
  std::int64_t fault_ins = 0;       // cold reads decoded back into RAM
  std::int64_t fault_in_bytes = 0;
  double fault_in_p99_us = 0.0;
  std::int64_t disk_bytes = 0;      // cold-tier footprint (point in time)
  std::int64_t live_bytes = 0;      // cold-tier bytes still referenced
  std::int64_t garbage_bytes = 0;   // released bytes awaiting compaction
  std::int64_t io_errors = 0;       // spill attempts abandoned after retry
  std::int64_t retries = 0;         // spill attempts retried (transient)
  std::int64_t compactions = 0;     // segments rewritten without garbage
  std::int64_t compacted_bytes = 0; // live bytes copied by compactions
  std::int64_t reclaimed_bytes = 0; // garbage bytes compaction dropped
  std::int64_t compaction_failures = 0;
  std::int64_t budget_rejects = 0;  // ingest rejected: budget unreachable
};

/// The global memory budget shared by every shard: a byte ceiling, a usage
/// probe (the MemoryTracker's current total), and a typed eviction ladder.
///
/// Rungs are registered with a priority (lower runs first) and a reclaim
/// callback taking the bytes still over target; the canonical ladder is
///   drop the cube memo -> spill cold frames -> drop the snapshot cache
///   -> drop the shard publications and frozen copies
/// Spill is the lever for frames: reads view a spilled block in place, so
/// it costs a reader nothing, and any resident cell may go. The cache
/// rungs throw away work every later read redoes, so they run only when
/// spilling cannot reach the target (every cell is cold, the spill write
/// keeps failing, or there is no cold tier).
///
/// MaybeEnforce is called from the write paths (sync ingest, the owner
/// threads' post-drain hook, and seals) — never from a read. It is cheap
/// when under budget (one usage probe), and at most one thread runs the
/// ladder at a time — contenders skip rather than queue, so ingest never
/// stalls behind an eviction already in progress. Enforcement drains to a
/// target slightly below the budget (budget minus 1/8) so each run buys
/// headroom instead of thrashing at the ceiling.
class MemoryGovernor {
 public:
  /// `excess` is the bytes still above target; returns bytes reclaimed
  /// (best effort — the governor re-probes usage after every rung, so an
  /// optimistic estimate only skews stats, not enforcement).
  using ReclaimFn = std::function<std::int64_t(std::int64_t excess)>;

  MemoryGovernor(std::int64_t budget_bytes,
                 std::function<std::int64_t()> usage);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Registers an eviction rung. Lower `priority` runs first. Not
  /// thread-safe; call during engine construction only.
  void AddRung(int priority, std::string name, ReclaimFn fn);

  /// Registers an extra usage probe summed with the primary one — e.g.
  /// the api layer's pinned snapshot bytes, which the tracker stops
  /// seeing once engine-side caches evict while a cached snapshot still
  /// holds the frames. Not thread-safe; construction only.
  void AddUsageProbe(std::function<std::int64_t()> probe);

  /// Runs the ladder if usage exceeds the budget. Returns true if any
  /// rung ran. A no-op (false) when under budget or when another thread
  /// is already enforcing.
  bool MaybeEnforce();

  std::int64_t budget_bytes() const { return budget_; }

  /// True when the most recent full ladder run still left usage above the
  /// budget — every rung fired and the engine is out of things to evict.
  /// Cleared by the next enforcement (or probe) that finds usage back
  /// under budget. The engines use this to degrade ingest to typed
  /// ResourceExhausted rejects instead of overshooting without bound.
  bool exhausted() const;

  struct RungStats {
    std::string name;
    std::int64_t invocations = 0;
    std::int64_t reclaimed_bytes = 0;
  };
  struct Stats {
    std::int64_t budget_bytes = 0;
    std::int64_t checks = 0;        // MaybeEnforce calls
    std::int64_t enforcements = 0;  // calls that ran >= 1 rung
    std::int64_t exhausted_runs = 0;  // full-ladder runs still over budget
    std::int64_t max_over_bytes = 0;
    std::vector<RungStats> rungs;   // ladder order
  };
  Stats stats() const;

 private:
  struct Rung {
    int priority = 0;
    std::string name;
    ReclaimFn fn;
  };

  std::int64_t TotalUsage() const;

  const std::int64_t budget_;
  const std::function<std::int64_t()> usage_;
  std::vector<std::function<std::int64_t()>> probes_;
  std::vector<Rung> rungs_;

  std::mutex enforce_mu_;  // serializes the ladder; contenders skip

  mutable std::mutex stats_mu_;
  std::int64_t checks_ = 0;
  std::int64_t enforcements_ = 0;
  std::int64_t exhausted_runs_ = 0;
  std::int64_t max_over_bytes_ = 0;
  std::vector<RungStats> rung_stats_;  // parallel to rungs_

  std::atomic<bool> exhausted_{false};
};

}  // namespace regcube

#endif  // REGCUBE_CORE_MEMORY_GOVERNOR_H_
