// analyst_loop — the paper's §4.5 on-line analysis loop, open loop at a
// fixed offered rate, one thread, sync ingest.
//
// Each tick's tuples (one per cell) arrive in kChunksPerTick evenly spaced
// chunks on a fixed schedule. At every tick boundary the loop seals the
// tick (the level-0 slot is one tick, so every seal rolls the window),
// takes a snapshot, asks for the top exceptions (the alert), drills into
// each returned cell plus the supporters of the strongest, and runs a
// fixed batch of point queries on keys drawn from every cuboid. The alert
// is timed from the due time of the slot's last chunk, so a loop that
// falls behind its schedule pays the queueing in the alert latency.

#include <chrono>
#include <optional>
#include <thread>

#include "harness.h"

namespace regcube::e2e {
namespace {

constexpr int kCells = 1500;
constexpr std::int64_t kTickPeriodMs = 50;  // 20 ticks/s, 30k tuples/s
constexpr int kChunksPerTick = 10;
constexpr TimeTick kWarmTicks = 16;  // fills the level-0 window twice
constexpr int kLevel = 0;
constexpr int kWindow = 4;  // cube over the last 4 one-tick slots
constexpr std::size_t kTopN = 8;
constexpr int kPointsPerTick = 32;
constexpr int kCheckEvery = 10;  // slots between answer checks
constexpr int kShards = 2;

WorkloadSpec Spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 3;
  spec.fanout = 10;
  spec.num_tuples = kCells;
  spec.seed = seed;
  return spec;
}

ExceptionPolicy Policy() { return ExceptionPolicy(0.5); }

Engine BuildEngine(const TupleSource& source) {
  auto engine = EngineBuilder()
                    .SetSchema(source.schema())
                    .SetTiltPolicy(MakeUniformTiltPolicy(
                        {{"tick", 8}, {"octet", 8}}, {1, 8}))
                    .SetExceptionPolicy(Policy())
                    .SetShardCount(kShards)
                    .SetReadThreads(kReadThreads)
                    .Build();
  RC_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::vector<StreamTuple> Chunk(const TupleSource& source, TimeTick tick,
                               int chunk) {
  const std::size_t n = source.num_cells();
  const std::size_t begin = n * static_cast<std::size_t>(chunk) / kChunksPerTick;
  const std::size_t end =
      n * static_cast<std::size_t>(chunk + 1) / kChunksPerTick;
  std::vector<StreamTuple> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(source.At(i, tick));
  return out;
}

/// The slot's point queries: a fixed batch drawn from every cuboid.
std::vector<PointTarget> PointTargets(const TupleSource& source,
                                      const CuboidLattice& lattice,
                                      std::uint64_t seed, std::int64_t slot) {
  Pcg32 rng(seed * 7919 + static_cast<std::uint64_t>(slot));
  std::vector<PointTarget> targets;
  targets.reserve(kPointsPerTick);
  for (int i = 0; i < kPointsPerTick; ++i) {
    targets.push_back(RandomPoint(rng, source, lattice));
  }
  return targets;
}

/// Everything the loop measures; shared by warm-up and the timed loop.
struct LoopState {
  Samples alert_ms, seal_ms, first_query_ms, repeat_query_ms, drill_ms,
      drill_call_ms, ingest_batch_ms, lag_ms, ingest_rate;
  TakeLog takes;
  PointLog points;
  std::int64_t tuples = 0;
  double exceptions_returned_sum = 0.0;
};

/// The analysis at one tick boundary. Returns false on a failed call.
bool Analyze(Engine& engine, const TupleSource& source, std::uint64_t seed,
             TimeTick tick, std::int64_t slot, std::int64_t due_last_ns,
             TraceBuffer* trace, OpCount& ops, LoopState& s,
             MemoryPeaks& peaks) {
  {
    Span seal(trace, Op::kSeal, slot);
    const Status sealed = engine.SealThrough(tick);
    s.seal_ms.Add(seal.End() * 1e3);
    if (!ops.Check(sealed)) return false;
  }
  peaks.Sample(engine);
  {
    Span take(trace, Op::kTake, slot);
    auto snapshot = engine.TakeSnapshot();
    s.takes.Add(*snapshot, take.End() * 1e3);
    if (!ops.Check(snapshot->status())) return false;
  }
  const QuerySpec top = QuerySpec::TopExceptions(kTopN, kLevel, kWindow);
  Span first(trace, Op::kFirstQuery, slot);
  auto alert = engine.Query(top);
  s.first_query_ms.Add(first.End() * 1e3);
  s.alert_ms.Add(static_cast<double>(NowNs() - due_last_ns) * 1e-6);
  if (!ops.Check(alert.status())) return false;
  s.exceptions_returned_sum += static_cast<double>(alert->cells().size());
  {
    Span repeat(trace, Op::kRepeatQuery, slot);
    auto again = engine.Query(top);
    s.repeat_query_ms.Add(repeat.End() * 1e3);
    if (!ops.Check(again.status())) return false;
  }
  {
    Span drill(trace, Op::kDrill, slot);
    for (const CellResult& cell : alert->cells()) {
      Span call(trace, Op::kDrillCall, slot);
      auto children = engine.Query(
          QuerySpec::DrillDown(cell.cuboid, cell.key, kLevel, kWindow));
      s.drill_call_ms.Add(call.End() * 1e3);
      if (!ops.Check(children.status())) return false;
    }
    if (!alert->cells().empty()) {
      const CellResult& strongest = alert->cells().front();
      Span call(trace, Op::kDrillCall, slot);
      auto supporters = engine.Query(QuerySpec::Supporters(
          strongest.cuboid, strongest.key, kLevel, kWindow));
      s.drill_call_ms.Add(call.End() * 1e3);
      if (!ops.Check(supporters.status())) return false;
    }
    s.drill_ms.Add(drill.End() * 1e3);
  }
  for (const PointTarget& target :
       PointTargets(source, engine.lattice(), seed, slot)) {
    Span point(trace, Op::kPoint, slot);
    auto isb = engine.Query(
        QuerySpec::Cell(target.cuboid, target.key, kLevel, kWindow));
    s.points.Add(target, point.End() * 1e6);
    if (!ops.Check(isb.status())) return false;
  }
  return true;
}

/// Ingests ticks [0, kWarmTicks) sealing each, then runs one analysis.
Engine SetUp(const TupleSource& source, std::uint64_t seed, OpCount& ops) {
  Engine engine = BuildEngine(source);
  LoopState scratch;
  MemoryPeaks peaks;
  for (TimeTick t = 0; t < kWarmTicks; ++t) {
    for (int c = 0; c < kChunksPerTick; ++c) {
      const IngestReport report = engine.IngestBatch(Chunk(source, t, c));
      RC_CHECK(report.ok()) << report.status.ToString();
    }
    if (t + 1 < kWarmTicks) RC_CHECK(engine.SealThrough(t).ok());
  }
  RC_CHECK(Analyze(engine, source, seed, kWarmTicks - 1, -1, NowNs(),
                   nullptr, ops, scratch, peaks))
      << "warm-up analysis failed";
  return engine;
}

}  // namespace

PassResult RunAnalystLoop(const RunConfig& config, Tracer& tracer) {
  PassResult result;
  const TupleSource source(Spec(config.seed), config.seed);
  OpCount ops;

  // One thread does all the work; spread it over every CPU (see
  // CpuRotation), a step per set-up and per loop iteration.
  CpuRotation rotation;
  Samples setup_s;
  std::optional<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    rotation.Next();
    OpCount warm_ops;
    Stopwatch setup;
    engine.emplace(SetUp(source, config.seed, warm_ops));
    setup_s.Add(setup.ElapsedSeconds());
  }

  TraceBuffer* trace = tracer.NewBuffer();
  LoopState s;
  MemoryPeaks peaks;
  const std::int64_t period_ns = kTickPeriodMs * 1'000'000;
  const std::int64_t chunk_ns = period_ns / kChunksPerTick;
  const auto ticks = static_cast<std::int64_t>(
      config.seconds * 1000.0 / static_cast<double>(kTickPeriodMs));
  struct Kept {
    std::shared_ptr<const CubeSnapshot> snapshot;
    RegressionCube maintained;
  };
  std::vector<Kept> kept;
  bool failed_call = false;

  const std::int64_t t0 = NowNs();
  std::int64_t last_send_ns = t0;
  for (std::int64_t slot = 0; slot < ticks && !failed_call; ++slot) {
    const TimeTick tick = kWarmTicks + slot;
    rotation.Next();
    double tick_ingest_s = 0.0;
    for (int c = 0; c < kChunksPerTick; ++c) {
      const std::int64_t due = t0 + (slot * kChunksPerTick + c) * chunk_ns;
      const std::int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      last_send_ns = NowNs();
      s.lag_ms.Add(static_cast<double>(last_send_ns - due) * 1e-6);
      std::vector<StreamTuple> chunk;
      {
        Span gen(trace, Op::kGenChunk, slot, c);
        chunk = Chunk(source, tick, c);
      }
      Span ingest(trace, Op::kIngestBatch, slot, c);
      const IngestReport report = engine->IngestBatch(chunk);
      const double seconds = ingest.End();
      tick_ingest_s += seconds;
      s.ingest_batch_ms.Add(seconds * 1e3);
      s.tuples += static_cast<std::int64_t>(chunk.size());
      ops.Add(static_cast<std::int64_t>(chunk.size()),
              static_cast<std::int64_t>(chunk.size()) - report.absorbed);
      if (!report.ok()) {
        failed_call = true;
        break;
      }
    }
    if (failed_call) break;
    s.ingest_rate.Add(static_cast<double>(kCells) / tick_ingest_s);
    const std::int64_t due_last =
        t0 + (slot * kChunksPerTick + kChunksPerTick - 1) * chunk_ns;
    if (!Analyze(*engine, source, config.seed, tick, slot, due_last, trace,
                 ops, s, peaks)) {
      failed_call = true;
      break;
    }
    if (slot % kCheckEvery == kCheckEvery - 1) {
      // Held for the post-loop oracle: the snapshot of this slot and a
      // copy of the maintained cube that answered its alert.
      auto maintained = engine->ComputeCube(kLevel, kWindow);
      if (!ops.Check(maintained.status())) {
        failed_call = true;
        break;
      }
      kept.push_back({engine->TakeSnapshot(), std::move(*maintained)});
    }
  }
  const std::int64_t t1 = NowNs();
  tracer.SetWindow(t0, t1);

  // ---- answer checks (outside the timed loop) ----------------------------
  if (failed_call) result.Fail("an API call failed in the loop");
  Samples scratch_ms;
  std::int64_t cells_computed = 0, exception_cells = 0;
  MoCubingOptions oracle_options;
  oracle_options.policy = Policy();
  for (std::size_t i = 0; i < kept.size(); ++i) {
    auto window = kept[i].snapshot->Window(kLevel, kWindow);
    if (!window.ok()) {
      result.Fail("window: " + window.status().ToString());
      break;
    }
    Span scratch(trace, Op::kScratchCube, static_cast<std::int64_t>(i));
    auto oracle = ComputeMoCubing(source.schema(), *window, oracle_options);
    scratch_ms.Add(scratch.End() * 1e3);
    if (!oracle.ok()) {
      result.Fail("oracle cube: " + oracle.status().ToString());
      break;
    }
    cells_computed = oracle->stats().cells_computed;
    exception_cells = oracle->exceptions().total_cells();
    const std::string diff = CompareCubes(*oracle, kept[i].maintained);
    if (!diff.empty()) {
      result.Fail(StrPrintf("slot %zu maintained cube vs ComputeMoCubing: %s",
                            (i + 1) * kCheckEvery - 1, diff.c_str()));
    }
  }
  if (kept.empty()) result.Fail("no slot was checked");

  // ---- report --------------------------------------------------------------
  result.attempted = ops.attempted();
  result.failed = ops.failed();
  result.E2eSetup(setup_s);
  result.E2e("ingest_tuples_per_s", s.ingest_rate.P50(), "tuples/s",
             "per tick: tuples over time inside IngestBatch (sync: visible "
             "on return); median");
  s.takes.Report(result);
  result.E2eLatency("alert", s.alert_ms, "ms");
  s.points.Report(result);

  const double wall_s = static_cast<double>(last_send_ns - t0) * 1e-9 +
                        static_cast<double>(chunk_ns) * 1e-9;
  result.Layer("gen.lag_p50_ms", s.lag_ms.P50(), "ms");
  result.Layer("gen.lag_max_ms", s.lag_ms.Max(), "ms");
  result.Layer("gen.offered_tuples_per_s",
               static_cast<double>(s.tuples) / wall_s, "tuples/s",
               StrPrintf("schedule: %d tuples every %lld ms", kCells,
                         static_cast<long long>(kTickPeriodMs)));
  result.Layer("core.sharded_engine.ingest_batch_ms", s.ingest_batch_ms.P50(),
               "ms", "p50 per chunk");
  result.LayerLatency("time.seal", s.seal_ms, "ms");
  result.Layer("core.incremental_cube.first_query_p50_ms",
               s.first_query_ms.P50(), "ms");
  result.Layer("core.incremental_cube.maintained_over_scratch",
               scratch_ms.P50() > 0 ? s.first_query_ms.P50() / scratch_ms.P50()
                                    : 0.0,
               "ratio");
  result.Layer("htree.scratch_cube_p50_ms", scratch_ms.P50(), "ms",
               StrPrintf("median of %zu oracle cubes", scratch_ms.values.size()));
  result.Layer("htree.cells_computed", static_cast<double>(cells_computed),
               "count");
  result.Layer("htree.exception_cells", static_cast<double>(exception_cells),
               "count");
  result.Layer("core.query.repeat_query_p50_ms", s.repeat_query_ms.P50(), "ms");
  result.Layer("core.query.drill_call_p50_ms", s.drill_call_ms.P50(), "ms");
  result.Layer("core.query.exceptions_returned",
               s.exceptions_returned_sum /
                   static_cast<double>(std::max<std::size_t>(
                       1, s.alert_ms.values.size())),
               "count", "mean per alert");
  result.E2e("drill_p50_ms", s.drill_ms.P50(), "ms",
               StrPrintf("median of %zu drill sequences",
                         s.drill_ms.values.size()));
  ReportEngineStats(*engine, peaks, 0, result);
  return result;
}

}  // namespace regcube::e2e
