#ifndef REGCUBE_E2E_BENCH_HARNESS_H_
#define REGCUBE_E2E_BENCH_HARNESS_H_

// Shared plumbing of the end-to-end benchmark: run configuration, the
// seeded tuple source, op counting for error_rate, latency samples, the
// metrics a pass reports, and the answer checks.

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "regcube/api/regcube.h"
#include "regcube/common/stopwatch.h"
#include "regcube/common/str.h"
#include "stats.h"
#include "trace.h"

namespace regcube::e2e {

/// One pass of one workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      // length of the measured loop
  std::string scratch_dir;    // fresh per run; spill/checkpoint dirs go here
};

/// Times an engine build plus warm-up is repeated; setup_s is the median.
inline constexpr int kSetupReps = 9;

/// Width of every engine's read pool: 1 keeps reads serial (no pool), so a
/// read never waits for the slowest of several pool threads. Set
/// explicitly, never the hardware default.
inline constexpr int kReadThreads = 1;

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per Next(). On a shared host the CPUs differ in speed and the
/// difference drifts, so a single-threaded loop left on the CPU the
/// scheduler picked measures that CPU as much as the program; stepping at
/// every tick or round spreads each run over all of them. Best effort: if
/// the affinity calls fail, the thread stays where it is. The destructor
/// restores the original CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  bool have_original_ = false;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Ops attempted and failed (non-OK status, refused or dropped tuple).
/// Every ingested tuple and every other API call is one op.
class OpCount {
 public:
  void Add(std::int64_t attempted, std::int64_t failed) {
    attempted_.fetch_add(attempted, std::memory_order_relaxed);
    failed_.fetch_add(failed, std::memory_order_relaxed);
  }
  /// Counts one call; returns status.ok().
  bool Check(const Status& status) {
    Add(1, status.ok() ? 0 : 1);
    return status.ok();
  }
  std::int64_t attempted() const { return attempted_.load(); }
  std::int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
};

/// Per-call samples of one latency (or per-round rates), in the unit and
/// order they were added in. P50 and TailValue split the run into reps of
/// consecutive samples and report the median over reps (stats.h).
struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  void Append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  double P50() const { return MedianOfReps(values); }
  Tail TailValue() const { return TailOfReps(values); }
  double Max() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // e.g. which percentile a tail is, over how many samples
};

/// What one pass of a workload reports.
struct PassResult {
  bool correct = true;
  std::string failure;  // first answer-check mismatch
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;    // untraced figures users see
  std::vector<Metric> layer;  // per-layer figures

  void E2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    e2e.push_back({name, value, unit, note});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    layer.push_back({name, value, unit, note});
  }
  /// Records setup_s: the median of the set-up reps.
  void E2eSetup(const Samples& setup_s);
  /// Records a latency as `<name>_p50_<unit>` and `<name>_tail_<unit>`.
  void E2eLatency(const std::string& name, const Samples& samples,
                  const std::string& unit);
  /// The same, into the per-layer list.
  void LayerLatency(const std::string& name, const Samples& samples,
                    const std::string& unit);
  /// Records the first mismatch; later ones are dropped.
  void Fail(const std::string& what);
};

/// "p90 of 120 samples" for a tail's note.
std::string TailNote(const Tail& tail);

/// Seeded synthetic stream in the paper's §5 shape: the m-layer cells of
/// StreamGenerator (keys, base, slope, anomaly flags), with per-(cell,
/// tick) values computed from a counter-based hash of (seed, cell, tick),
/// so any tick of any cell can be regenerated in any order — the replay
/// oracles rebuild exactly the stream a workload sent.
class TupleSource {
 public:
  TupleSource(const WorkloadSpec& spec, std::uint64_t seed);

  std::size_t num_cells() const { return cells_.size(); }
  const CellKey& key(std::size_t cell) const { return cells_[cell].key; }
  StreamTuple At(std::size_t cell, TimeTick tick) const;

  const std::shared_ptr<const CubeSchema>& schema() const { return schema_; }

 private:
  std::uint64_t seed_;
  std::shared_ptr<const CubeSchema> schema_;
  std::vector<StreamGenerator::CellParams> cells_;
};

/// Every TakeSnapshot of a pass. A take that saw a new revision is a fresh
/// read; for those the log also sums what the gather paid.
class TakeLog {
 public:
  /// Records one take of `ms`; returns true when it was a fresh read.
  bool Add(const CubeSnapshot& snapshot, double ms);
  /// fresh_read_* (end-to-end) and the core.sharded_engine take and
  /// gather metrics (per-layer).
  void Report(PassResult& result) const;

 private:
  Samples take_ms_, fresh_ms_;
  std::uint64_t last_revision_ = 0;
  double copy_share_sum_ = 0.0, shards_reused_sum_ = 0.0,
         copied_mb_sum_ = 0.0;
};

/// One point query: an m-layer cell projected onto some cuboid.
struct PointTarget {
  CuboidId cuboid;
  CellKey key;
  bool m_layer;
};

/// A random cell projected onto a random cuboid of the lattice.
PointTarget RandomPoint(Pcg32& rng, const TupleSource& source,
                        const CuboidLattice& lattice);

/// Engine::Query(kCell) latencies, split by target layer.
class PointLog {
 public:
  void Add(const PointTarget& target, double us);
  /// point_* (end-to-end) and core.member_index point_* (per-layer).
  void Report(PassResult& result) const;

 private:
  Samples all_us_, mlayer_us_, rollup_us_;
};

/// Cell indices split into `parts` groups by a remixed key hash, so the
/// producer split is independent of the engine's shard map.
std::vector<std::vector<std::size_t>> PartitionCells(const TupleSource& source,
                                                     int parts);

inline double ToMb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Tracks peaks of engine memory figures sampled at seals / rounds.
struct MemoryPeaks {
  std::int64_t engine_bytes = 0;
  std::int64_t tilt_frames = 0;
  std::int64_t frozen_frames = 0;
  std::int64_t gather_cache = 0;
  std::int64_t ingest_queue = 0;
  std::int64_t cube_memo = 0;
  std::int64_t members = 0;

  void Sample(const Engine& engine);
  /// Adds engine_mb to e2e and the tracker categories to the layer list.
  void Report(PassResult& result) const;
};

/// "" when the two cubes hold bit-identical m-, o-layer and exception
/// cells; else the first difference.
std::string CompareCubes(const RegressionCube& want,
                         const RegressionCube& got);

/// "" when both snapshots hold bit-identical windows at (level, k).
std::string CompareWindows(const CubeSnapshot& want, const CubeSnapshot& got,
                           int level, int k);

/// Adds the per-layer metrics every workload reports, from the engine's
/// exported stats; those of layers a workload bypasses read 0.
void ReportEngineStats(const Engine& engine, const MemoryPeaks& peaks,
                       std::int64_t budget_bytes, PassResult& result);

PassResult RunIngestChurn(const RunConfig& config, Tracer& tracer);
PassResult RunAnalystLoop(const RunConfig& config, Tracer& tracer);
PassResult RunBudgetRestart(const RunConfig& config, Tracer& tracer);

}  // namespace regcube::e2e

#endif  // REGCUBE_E2E_BENCH_HARNESS_H_
