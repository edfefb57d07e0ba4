// ingest_churn — the async write path and the publish/gather read path,
// closed loop.
//
// kProducers threads each own a slice of the cells and stream
// tick-advancing chunks through Engine::IngestAsync (kBlock backpressure).
// A round is kTicksPerRound ticks of every cell; at each round boundary
// the main thread flushes, seals the round, takes the sealed snapshot and
// runs a batch of point queries. One reader thread polls TakeSnapshot every
// kReaderPollMs while the producers write. No cube query is ever issued:
// the workload bypasses the cube layer entirely.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "harness.h"

namespace regcube::e2e {
namespace {

constexpr int kCells = 5000;
constexpr int kShards = 2;
constexpr int kProducers = 2;
constexpr std::int64_t kQueueCapacity = 4096;  // tuples per shard queue
constexpr std::size_t kChunk = 256;            // tuples per IngestAsync
// Each seal makes the reader's next fresh take a full gather, while takes
// during ingest gather less. With 4 ticks per round the two kinds were
// about equally common and the median flipped between them from run to
// run; 16 keeps the post-seal gathers a small share.
constexpr TimeTick kTicksPerRound = 16;
constexpr TimeTick kWarmTicks = 8;
constexpr int kReaderPollMs = 1;
constexpr int kPointsPerRound = 16;
constexpr int kLevel = 0;
constexpr int kWindow = 4;

WorkloadSpec Spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 3;
  spec.fanout = 10;
  spec.num_tuples = kCells;
  spec.seed = seed;
  return spec;
}

/// What the async engine and its replay oracle share.
EngineBuilder BaseBuilder(const TupleSource& source) {
  EngineBuilder builder;
  builder.SetSchema(source.schema())
      .SetTiltPolicy(MakeUniformTiltPolicy({{"tick", 8}, {"octet", 8}}, {1, 8}))
      .SetExceptionPolicy(ExceptionPolicy(0.5))
      .SetReadThreads(kReadThreads);
  return builder;
}

Engine BuildAsync(const TupleSource& source) {
  auto engine = BaseBuilder(source)
                    .SetShardCount(kShards)
                    .SetIngestMode(IngestMode::kAsync)
                    .SetQueueCapacity(kQueueCapacity)
                    .SetBackpressure(BackpressurePolicy::kBlock)
                    .Build();
  RC_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::vector<StreamTuple> TickOf(const TupleSource& source, TimeTick tick) {
  std::vector<StreamTuple> out;
  out.reserve(source.num_cells());
  for (std::size_t i = 0; i < source.num_cells(); ++i) {
    out.push_back(source.At(i, tick));
  }
  return out;
}

/// Warm-up: ticks [0, kWarmTicks) through the async door, then a seal.
Engine SetUp(const TupleSource& source) {
  Engine engine = BuildAsync(source);
  for (TimeTick t = 0; t < kWarmTicks; ++t) {
    const IngestTicket ticket = engine.IngestAsync(TickOf(source, t));
    RC_CHECK(ticket.ok()) << ticket.status.ToString();
  }
  RC_CHECK(engine.Flush().ok());
  RC_CHECK(engine.SealThrough(kWarmTicks - 1).ok());
  RC_CHECK(engine.TakeSnapshot()->status().ok());
  return engine;
}

/// Releases the producers one round at a time.
struct RoundGate {
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t round = -1;  // the round producers may run
  int done = 0;             // producers finished with `round`
  bool stop = false;
  std::int64_t last_submit_ns = 0;
};

struct ProducerStats {
  Samples submit_us;
  std::int64_t tuples = 0;
  std::int64_t submits = 0;
};

void Produce(Engine& engine, const TupleSource& source,
             const std::vector<std::size_t>& cells, RoundGate& gate,
             TraceBuffer* trace, OpCount& ops, ProducerStats& stats) {
  for (std::int64_t round = 0;; ++round) {
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      gate.cv.wait(lock, [&] { return gate.stop || gate.round >= round; });
      if (gate.stop) return;
    }
    std::int64_t chunk_index = 0;
    for (TimeTick dt = 0; dt < kTicksPerRound; ++dt) {
      const TimeTick tick = kWarmTicks + round * kTicksPerRound + dt;
      for (std::size_t off = 0; off < cells.size(); off += kChunk) {
        std::vector<StreamTuple> chunk;
        {
          Span gen(trace, Op::kGenChunk, round, chunk_index);
          const std::size_t end = std::min(cells.size(), off + kChunk);
          chunk.reserve(end - off);
          for (std::size_t i = off; i < end; ++i) {
            chunk.push_back(source.At(cells[i], tick));
          }
        }
        Span submit(trace, Op::kSubmit, round, chunk_index++);
        const IngestTicket ticket = engine.IngestAsync(chunk);
        stats.submit_us.Add(submit.End() * 1e6);
        ++stats.submits;
        stats.tuples += static_cast<std::int64_t>(chunk.size());
        ops.Add(static_cast<std::int64_t>(chunk.size()),
                ticket.dropped + ticket.rejected);
      }
    }
    const std::int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      ++gate.done;
      gate.last_submit_ns = std::max(gate.last_submit_ns, now);
    }
    gate.cv.notify_all();
  }
}

struct ReaderStats {
  TakeLog takes;
  double depth_sum = 0.0;
  std::int64_t depth_samples = 0;
};

void Read(Engine& engine, const std::atomic<bool>& stop, TraceBuffer* trace,
          OpCount& ops, ReaderStats& stats) {
  for (std::int64_t take_index = 0; !stop.load(); ++take_index) {
    Span take(trace, Op::kTake, take_index);
    auto snapshot = engine.TakeSnapshot();
    stats.takes.Add(*snapshot, take.End() * 1e3);
    ops.Check(snapshot->status());
    stats.depth_sum += static_cast<double>(engine.IngestStats().total.depth);
    ++stats.depth_samples;
    std::this_thread::sleep_for(std::chrono::milliseconds(kReaderPollMs));
  }
}

/// The oracle: the same stream, sync, one shard, the same seals.
std::string CheckAgainstReplay(Engine& engine, const TupleSource& source,
                               std::int64_t rounds) {
  auto replay_built = BaseBuilder(source).SetShardCount(1).Build();
  if (!replay_built.ok()) return replay_built.status().ToString();
  Engine replay = std::move(replay_built).value();
  for (TimeTick t = 0; t < kWarmTicks; ++t) {
    if (!replay.IngestBatch(TickOf(source, t)).ok()) return "replay ingest";
  }
  if (!replay.SealThrough(kWarmTicks - 1).ok()) return "replay seal";
  for (std::int64_t r = 0; r < rounds; ++r) {
    const TimeTick first = kWarmTicks + r * kTicksPerRound;
    for (TimeTick t = first; t < first + kTicksPerRound; ++t) {
      if (!replay.IngestBatch(TickOf(source, t)).ok()) return "replay ingest";
    }
    if (!replay.SealThrough(first + kTicksPerRound - 1).ok()) {
      return "replay seal";
    }
  }
  auto want = replay.TakeSnapshot();
  auto got = engine.TakeSnapshot();
  if (!want->status().ok() || !got->status().ok()) return "snapshot failed";
  if (want->num_cells() != got->num_cells()) {
    return StrPrintf("%lld cells vs %lld replayed",
                     static_cast<long long>(got->num_cells()),
                     static_cast<long long>(want->num_cells()));
  }
  for (const auto& [level, k] : {std::pair{0, 8}, std::pair{1, 1}}) {
    const std::string diff = CompareWindows(*want, *got, level, k);
    if (!diff.empty()) return "snapshot " + diff;
  }
  auto want_cube = replay.ComputeCube(kLevel, kWindow);
  auto got_cube = engine.ComputeCube(kLevel, kWindow);
  if (!want_cube.ok() || !got_cube.ok()) return "cube failed";
  const std::string diff = CompareCubes(*want_cube, *got_cube);
  return diff.empty() ? "" : "cube " + diff;
}

}  // namespace

PassResult RunIngestChurn(const RunConfig& config, Tracer& tracer) {
  PassResult result;
  const TupleSource source(Spec(config.seed), config.seed);
  const auto slices = PartitionCells(source, kProducers);
  OpCount ops;

  Samples setup_s;
  std::optional<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    Stopwatch setup;
    engine.emplace(SetUp(source));
    setup_s.Add(setup.ElapsedSeconds());
  }

  RoundGate gate;
  std::vector<ProducerStats> producer_stats(kProducers);
  ReaderStats reader_stats;
  std::atomic<bool> reader_stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    TraceBuffer* trace = tracer.NewBuffer();
    producers.emplace_back([&, p, trace] {
      Produce(*engine, source, slices[static_cast<std::size_t>(p)], gate,
              trace, ops, producer_stats[static_cast<std::size_t>(p)]);
    });
  }
  TraceBuffer* reader_trace = tracer.NewBuffer();
  std::thread reader(
      [&] { Read(*engine, reader_stop, reader_trace, ops, reader_stats); });

  TraceBuffer* trace = tracer.NewBuffer();
  Samples alert_ms, seal_ms, flush_ms, ingest_rate;
  PointLog points;
  Pcg32 rng(config.seed * 104729 + 17);
  MemoryPeaks peaks;
  std::int64_t rounds = 0;
  bool failed_call = false;
  const std::int64_t t0 = NowNs();
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  while (NowNs() - t0 < budget_ns && !failed_call) {
    const std::int64_t round_start = NowNs();
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.round = rounds;
      gate.done = 0;
    }
    gate.cv.notify_all();
    std::int64_t last_submit_ns = 0;
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      gate.cv.wait(lock, [&] { return gate.done == kProducers; });
      last_submit_ns = gate.last_submit_ns;
    }
    {
      Span flush(trace, Op::kFlush, rounds);
      const Status flushed = engine->Flush();
      flush_ms.Add(flush.End() * 1e3);
      failed_call = !ops.Check(flushed);
    }
    ingest_rate.Add(static_cast<double>(kCells * kTicksPerRound) /
                    (static_cast<double>(NowNs() - round_start) * 1e-9));
    const TimeTick last_tick = kWarmTicks + (rounds + 1) * kTicksPerRound - 1;
    {
      Span seal(trace, Op::kSeal, rounds);
      const Status sealed = engine->SealThrough(last_tick);
      seal_ms.Add(seal.End() * 1e3);
      failed_call = !ops.Check(sealed) || failed_call;
    }
    {
      Span take(trace, Op::kTake, rounds);
      auto snapshot = engine->TakeSnapshot();
      take.End();
      alert_ms.Add(static_cast<double>(NowNs() - last_submit_ns) * 1e-6);
      failed_call = !ops.Check(snapshot->status()) || failed_call;
    }
    for (int i = 0; i < kPointsPerRound; ++i) {
      const PointTarget target = RandomPoint(rng, source, engine->lattice());
      Span point(trace, Op::kPoint, rounds, i);
      auto isb = engine->Query(
          QuerySpec::Cell(target.cuboid, target.key, kLevel, kWindow));
      points.Add(target, point.End() * 1e6);
      failed_call = !ops.Check(isb.status()) || failed_call;
    }
    peaks.Sample(*engine);
    ++rounds;
  }
  const std::int64_t t1 = NowNs();
  tracer.SetWindow(t0, t1);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.stop = true;
  }
  gate.cv.notify_all();
  for (std::thread& p : producers) p.join();
  reader_stop.store(true);
  reader.join();

  // ---- answer check (outside the timed loop) -----------------------------
  if (failed_call) result.Fail("an API call failed in the loop");
  const std::string diff = CheckAgainstReplay(*engine, source, rounds);
  if (!diff.empty()) result.Fail("async engine vs sync 1-shard replay: " + diff);

  // ---- report --------------------------------------------------------------
  Samples submit_us;
  std::int64_t tuples = 0, submits = 0;
  for (const ProducerStats& p : producer_stats) {
    submit_us.Append(p.submit_us);
    tuples += p.tuples;
    submits += p.submits;
  }
  result.attempted = ops.attempted();
  result.failed = ops.failed();
  result.E2eSetup(setup_s);
  result.E2e("ingest_tuples_per_s", ingest_rate.P50(), "tuples/s",
             StrPrintf("median over %lld rounds: first submit to Flush return",
                       static_cast<long long>(rounds)));
  reader_stats.takes.Report(result);
  result.E2eLatency("alert", alert_ms, "ms");
  points.Report(result);

  const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
  result.Layer("gen.offered_tuples_per_s", static_cast<double>(tuples) / wall_s,
               "tuples/s", "closed loop: tuples generated over the loop");
  result.LayerLatency("core.ingest_queue.submit", submit_us, "us");
  const IngestStats ingest = engine->IngestStats();
  result.Layer("core.ingest_queue.blocked_share",
               submits > 0 ? static_cast<double>(ingest.total.blocked) /
                                 static_cast<double>(submits)
                           : 0.0,
               "ratio", "blocked enqueues over IngestAsync calls");
  result.Layer("core.ingest_queue.depth_mean",
               reader_stats.depth_samples > 0
                   ? reader_stats.depth_sum /
                         static_cast<double>(reader_stats.depth_samples)
                   : 0.0,
               "tuples", "sampled by the reader");
  result.Layer("core.sharded_engine.flush_ms", flush_ms.P50(), "ms",
               "p50 per round");
  result.LayerLatency("time.seal", seal_ms, "ms");
  ReportEngineStats(*engine, peaks, 0, result);
  return result;
}

}  // namespace regcube::e2e
