#ifndef REGCUBE_E2E_BENCH_TRACE_H_
#define REGCUBE_E2E_BENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into the library's
// public API. Every timed call goes through Span, which always measures the
// call (the metrics need the time) and, when the run is traced, also
// appends a record — name, start, end, parent span, request id — to a
// per-thread buffer. Buffers stay in memory and are analysed and written
// out once, after the run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace regcube::e2e {

/// Every span the workloads record. A span's layer is the source module
/// its call lands in (the per-layer metric prefix).
enum class Op : std::uint8_t {
  kGenChunk,         // gen: build one chunk of tuples
  kSubmit,           // core.ingest_queue: Engine::IngestAsync
  kIngestBatch,      // core.sharded_engine: Engine::IngestBatch
  kFlush,            // core.sharded_engine: Engine::Flush
  kTake,             // core.sharded_engine: Engine::TakeSnapshot
  kSeal,             // time: Engine::SealThrough
  kFirstQuery,       // core.incremental_cube: first cube query after a seal
  kRepeatQuery,      // core.query: the same cube query, unchanged revision
  kDrill,            // core.query: drill sequence after one alert
  kDrillCall,        // core.query: one DrillDown / Supporters call
  kPoint,            // core.member_index: Engine::Query(kCell)
  kDeck,             // core.snapshot_reads: CubeSnapshot::ObservationDeck
  kScratchCube,      // htree: ComputeMoCubing over CubeSnapshot::Window
  kCompact,          // io.frame_store: Engine::CompactSegments
  kCheckpointWrite,  // io.checkpoint: Engine::Checkpoint
  kOpen,             // io.checkpoint: EngineBuilder::OpenFrom
  kRestartQuery,     // io.checkpoint: first query after OpenFrom
  kCount,
};

const char* OpName(Op op);
const char* OpLayer(Op op);

/// Nanoseconds on the steady clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  Op op = Op::kCount;
  std::int32_t parent = -1;  // index in the same buffer; -1 = top level
  std::int64_t request = 0;  // slot (analyst_loop) or round
  std::int64_t part = 0;     // chunk within the round, else 0
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // summed duration of direct children
};

/// One thread's spans. Not thread-safe: each thread records into its own.
class TraceBuffer {
 public:
  explicit TraceBuffer(int thread) : thread_(thread) {}

  int thread() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;
  int thread_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;  // stack of unfinished span indices
};

/// Times one call; records it when `buffer` is non-null.
class Span {
 public:
  Span(TraceBuffer* buffer, Op op, std::int64_t request,
       std::int64_t part = 0);
  ~Span() {
    if (!ended_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span; returns its duration in seconds.
  double End();

 private:
  TraceBuffer* buffer_;
  std::int64_t start_ns_;
  std::int32_t index_ = -1;
  bool ended_ = false;
};

/// Owns the per-thread buffers of one run. Disabled tracers hand out null
/// buffers, so Span only times.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A buffer for the calling thread (null when disabled). Thread-safe.
  TraceBuffer* NewBuffer();

  /// The interval whose top-level span coverage is reported.
  void SetWindow(std::int64_t start_ns, std::int64_t end_ns) {
    window_start_ns_ = start_ns;
    window_end_ns_ = end_ns;
  }

  struct Analysis {
    std::vector<std::pair<std::string, double>> self_ms;  // by layer
    double top_coverage = 0.0;  // share of the window under top spans
    std::int64_t spans = 0;
  };
  Analysis Analyze() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path,
                      const std::string& workload) const;

 private:
  bool enabled_;
  std::int64_t window_start_ns_ = 0;
  std::int64_t window_end_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

}  // namespace regcube::e2e

#endif  // REGCUBE_E2E_BENCH_TRACE_H_
