#ifndef REGCUBE_BENCH_BENCH_UTIL_H_
#define REGCUBE_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure-reproduction harnesses: argument parsing
// (key=value overrides so CI can shrink workloads), fixed-width table
// printing, and a one-call runner that executes both cubing algorithms and
// reports the time/memory quantities Figures 8-10 plot.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "regcube/api/regcube.h"
#include "regcube/common/logging.h"
#include "regcube/common/stopwatch.h"
#include "regcube/common/str.h"

namespace regcube {
namespace bench {

/// Returns the integer value of "key=value" among argv, or `fallback`.
inline std::int64_t ArgInt(int argc, char** argv, const char* key,
                           std::int64_t fallback) {
  const std::string prefix = std::string(key) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    // First column is wider: it usually carries a configuration label.
    std::printf(i == 0 ? "%-26s" : "%-16s", cells[i].c_str());
  }
  std::printf("\n");
}

/// The checkout's `git describe --always --dirty`, read at run time (so
/// an uncommitted tree says so), or "unknown" outside a git checkout.
inline std::string GitDescribe() {
  std::string out;
  if (std::FILE* pipe = popen("git describe --always --dirty 2>/dev/null",
                              "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Machine-readable bench output: accumulates rows of numeric (or string)
/// fields and writes them as BENCH_<name>.json next to the binary's cwd,
/// so CI can track the perf trajectory across commits. The human-readable
/// table stays on stdout; this is the parseable twin. Every file carries
/// a provenance block: arguments, commit, build type, compiler, cores.
class JsonWriter {
 public:
  explicit JsonWriter(std::string name) : name_(std::move(name)) {}

  /// Records the bench's key=value arguments for the provenance block.
  void SetArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (!args_.empty()) args_ += ' ';
      args_ += argv[i];
    }
  }

  /// Adds one row; values must already be valid JSON literals
  /// (StrPrintf("%d", ...), "%.6f", or a quoted string).
  void Row(std::vector<std::pair<std::string, std::string>> fields) {
    rows_.push_back(std::move(fields));
  }

  /// Writes BENCH_<name>.json; prints the path so logs link the artifact.
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    RC_CHECK(f != nullptr) << "cannot write " << path;
#ifdef NDEBUG
    const char* build_type = "Release";
#else
    const char* build_type = "Debug";
#endif
    std::fprintf(f,
                 "{\"bench\": \"%s\", \"provenance\": {\"args\": \"%s\", "
                 "\"commit\": \"%s\", \"build_type\": \"%s\", "
                 "\"compiler\": \"%s\", \"nproc\": %u},\n \"rows\": [",
                 name_.c_str(), args_.c_str(), GitDescribe().c_str(),
                 build_type, __VERSION__,
                 std::thread::hardware_concurrency());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, r == 0 ? "\n  {" : ",\n  {");
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     rows_[r][i].first.c_str(), rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  std::string args_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// The writer-thread partitioning every multi-writer bench uses: thread
/// `thread_index` owns the tuples whose (m-layer) cell hashes to it, so
/// each cell's tick order is preserved within one thread — the
/// collector-per-source shape of real deployments, and the shape that
/// keeps concurrent ingest order-deterministic per cell.
inline std::vector<StreamTuple> SliceByCell(
    const std::vector<StreamTuple>& stream, int thread_index,
    int num_threads) {
  std::vector<StreamTuple> slice;
  slice.reserve(stream.size() / static_cast<size_t>(num_threads) + 1);
  for (const StreamTuple& t : stream) {
    // Remix the cell hash before the modulus so the writer assignment is
    // independent of the engine's shard assignment (which uses the raw
    // hash): real writers don't know the shard map, and an aligned split
    // would hand every writer a private shard — a contention-free layout
    // no deployment sees.
    std::uint64_t h = t.key.Hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    if (h % static_cast<std::uint64_t>(num_threads) ==
        static_cast<std::uint64_t>(thread_index)) {
      slice.push_back(t);
    }
  }
  return slice;
}

/// The q-th percentile (q clamped to [0, 100]) of a *sorted* sample by
/// nearest-rank: the smallest value with at least q% of the sample at or
/// below it. 0 for an empty sample; a single-sample vector answers every
/// quantile with that sample.
inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double q) {
  if (sorted.empty()) return 0.0;
  // Clamp before the rank math: a negative q would push a negative double
  // through the size_t cast below (undefined behavior), and q > 100 would
  // name a rank past the end.
  q = std::min(std::max(q, 0.0), 100.0);
  const double rank = q / 100.0 * static_cast<double>(sorted.size());
  auto index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index > 0) --index;                          // rank -> 0-based
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Five-number latency summary of one run's per-call samples.
struct LatencySummary {
  std::int64_t samples = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarizes `samples` (any unit; sorted in place).
inline LatencySummary SummarizeLatencies(std::vector<double>& samples) {
  LatencySummary s;
  s.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = PercentileOfSorted(samples, 50.0);
  s.p95 = PercentileOfSorted(samples, 95.0);
  s.p99 = PercentileOfSorted(samples, 99.0);
  s.max = samples.back();
  return s;
}

/// One measured cubing run.
struct RunResult {
  double seconds = 0.0;
  double peak_mb = 0.0;
  std::int64_t cells_computed = 0;
  std::int64_t exception_cells = 0;
};

inline double ToMb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Runs Algorithm 1 (m/o H-cubing) and returns the figures' quantities.
inline RunResult RunMoCubing(std::shared_ptr<const CubeSchema> schema,
                             const std::vector<MLayerTuple>& tuples,
                             double threshold) {
  MoCubingOptions options;
  options.policy = ExceptionPolicy(threshold);
  Stopwatch timer;
  auto cube = ComputeMoCubing(schema, tuples, options);
  RC_CHECK(cube.ok()) << cube.status().ToString();
  RunResult r;
  r.seconds = timer.ElapsedSeconds();
  r.peak_mb = ToMb(cube->stats().peak_memory_bytes);
  r.cells_computed = cube->stats().cells_computed;
  r.exception_cells = cube->stats().exception_cells;
  return r;
}

/// Runs Algorithm 2 (popular-path cubing).
inline RunResult RunPopularPath(std::shared_ptr<const CubeSchema> schema,
                                const std::vector<MLayerTuple>& tuples,
                                double threshold) {
  PopularPathOptions options;
  options.policy = ExceptionPolicy(threshold);
  Stopwatch timer;
  auto cube = ComputePopularPathCubing(schema, tuples, options);
  RC_CHECK(cube.ok()) << cube.status().ToString();
  RunResult r;
  r.seconds = timer.ElapsedSeconds();
  r.peak_mb = ToMb(cube->stats().peak_memory_bytes);
  r.cells_computed = cube->stats().cells_computed;
  r.exception_cells = cube->stats().exception_cells;
  return r;
}

}  // namespace bench
}  // namespace regcube

#endif  // REGCUBE_BENCH_BENCH_UTIL_H_
