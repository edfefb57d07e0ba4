// budget_restart — the storage tier: memory budget, spill, fault-in,
// compaction, checkpoint and warm restart. Closed loop, one thread, sync
// ingest.
//
// The engine runs under a fixed SetMemoryBudget (kBudgetBytes, about a
// quarter of the unbounded peak of this stream) with a fresh spill
// directory. Each round writes one tick to a rotating quarter of the cells
// (the hot set), seals it, takes a snapshot and reads the observation deck
// (the round's answer), then reads point cells outside the hot set — the
// cold cells the governor spilled — and every kCompactEvery rounds calls
// CompactSegments. After the loop the engine is checkpointed and reopened
// kRestarts times with EngineBuilder::OpenFrom, each followed by its first
// query.

#include <filesystem>
#include <optional>

#include "harness.h"

namespace regcube::e2e {
namespace {

constexpr int kCells = 2000;
constexpr int kShards = 2;
constexpr int kHotSets = 4;  // round r writes the cells with i % 4 == r % 4
constexpr std::size_t kChunk = 500;
constexpr TimeTick kWarmTicks = 96;  // past the 84-tick tilt capacity
constexpr int kColdReadsPerRound = 16;
constexpr int kCompactEvery = 8;
constexpr int kRestarts = 3;
// About a quarter of the unbounded engine's peak tracked bytes on this
// stream (the "unbounded peak" line of the run prints this commit's).
constexpr std::int64_t kBudgetBytes = 550'000;

WorkloadSpec Spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 3;
  spec.fanout = 10;
  spec.num_tuples = kCells;
  spec.seed = seed;
  return spec;
}

EngineBuilder Builder(const TupleSource& source, std::int64_t budget,
                      const std::string& spill_dir) {
  EngineBuilder builder;
  builder.SetSchema(source.schema())
      .SetTiltPolicy(MakeUniformTiltPolicy(
          {{"tick", 4}, {"quad", 4}, {"hexa", 4}}, {1, 4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(0.5))
      .SetShardCount(kShards)
      .SetReadThreads(kReadThreads);
  if (budget > 0) builder.SetMemoryBudget(budget).SetSpillDir(spill_dir);
  return builder;
}

/// The tuples of tick `tick`: one per cell of that tick's hot set.
std::vector<StreamTuple> HotTick(const TupleSource& source, TimeTick tick) {
  std::vector<StreamTuple> out;
  for (std::size_t i = static_cast<std::size_t>(tick % kHotSets);
       i < source.num_cells(); i += kHotSets) {
    out.push_back(source.At(i, tick));
  }
  return out;
}

/// Ingests `tuples` in kChunk batches; returns false on a refusal.
bool IngestChunks(Engine& engine, const std::vector<StreamTuple>& tuples,
                  TraceBuffer* trace, std::int64_t round, OpCount& ops,
                  Samples* batch_ms) {
  for (std::size_t off = 0, part = 0; off < tuples.size();
       off += kChunk, ++part) {
    const std::vector<StreamTuple> chunk(
        tuples.begin() + static_cast<std::ptrdiff_t>(off),
        tuples.begin() +
            static_cast<std::ptrdiff_t>(std::min(tuples.size(), off + kChunk)));
    Span span(trace, Op::kIngestBatch, round, static_cast<std::int64_t>(part));
    const IngestReport report = engine.IngestBatch(chunk);
    const double seconds = span.End();
    if (batch_ms != nullptr) batch_ms->Add(seconds * 1e3);
    ops.Add(static_cast<std::int64_t>(chunk.size()),
            static_cast<std::int64_t>(chunk.size()) - report.absorbed);
    if (!report.ok()) return false;
  }
  return true;
}

Engine SetUp(const TupleSource& source, const std::string& spill_dir) {
  auto built = Builder(source, kBudgetBytes, spill_dir).Build();
  RC_CHECK(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  OpCount ops;
  for (TimeTick t = 0; t < kWarmTicks; ++t) {
    RC_CHECK(IngestChunks(engine, HotTick(source, t), nullptr, -1, ops,
                          nullptr));
    RC_CHECK(engine.SealThrough(t).ok());
  }
  auto snapshot = engine.TakeSnapshot();
  RC_CHECK(snapshot->ObservationDeck(0).ok());
  return engine;
}

std::string CompareAllLevels(const CubeSnapshot& want,
                             const CubeSnapshot& got) {
  if (want.num_cells() != got.num_cells()) {
    return StrPrintf("%lld cells vs %lld",
                     static_cast<long long>(got.num_cells()),
                     static_cast<long long>(want.num_cells()));
  }
  for (int level = 0; level < 3; ++level) {
    const std::string diff = CompareWindows(want, got, level, 4);
    if (!diff.empty()) return diff;
  }
  return "";
}

std::int64_t DirectoryBytes(const std::string& dir) {
  std::int64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

PassResult RunBudgetRestart(const RunConfig& config, Tracer& tracer) {
  PassResult result;
  const TupleSource source(Spec(config.seed), config.seed);
  OpCount ops;
  const std::string base = config.scratch_dir + "/budget_restart";

  // One thread does all the work; spread it over every CPU (see
  // CpuRotation), a step per set-up and per loop iteration.
  CpuRotation rotation;
  Samples setup_s;
  std::optional<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    rotation.Next();
    const std::string spill_dir = StrPrintf("%s/spill-%d", base.c_str(), rep);
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    Stopwatch setup;
    engine.emplace(SetUp(source, spill_dir));
    setup_s.Add(setup.ElapsedSeconds());
  }

  TraceBuffer* trace = tracer.NewBuffer();
  Samples alert_ms, cold_ms, batch_ms, seal_ms, compact_ms, ingest_rate;
  TakeLog takes;
  PointLog points;
  MemoryPeaks peaks;
  std::int64_t tuples = 0, rounds = 0;
  Pcg32 rng(config.seed * 15485863 + 3);
  bool failed_call = false;
  const std::int64_t t0 = NowNs();
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  while (NowNs() - t0 < budget_ns && !failed_call) {
    const TimeTick tick = kWarmTicks + rounds;
    rotation.Next();
    const std::vector<StreamTuple> hot = HotTick(source, tick);
    const std::int64_t ingest_start = NowNs();
    failed_call = !IngestChunks(*engine, hot, trace, rounds, ops, &batch_ms);
    const std::int64_t ingest_end = NowNs();
    ingest_rate.Add(static_cast<double>(hot.size()) /
                    (static_cast<double>(ingest_end - ingest_start) * 1e-9));
    tuples += static_cast<std::int64_t>(hot.size());
    {
      Span seal(trace, Op::kSeal, rounds);
      const Status sealed = engine->SealThrough(tick);
      seal_ms.Add(seal.End() * 1e3);
      failed_call = !ops.Check(sealed) || failed_call;
    }
    {
      Span take(trace, Op::kTake, rounds);
      auto snapshot = engine->TakeSnapshot();
      takes.Add(*snapshot, take.End() * 1e3);
      failed_call = !ops.Check(snapshot->status()) || failed_call;
      Span deck(trace, Op::kDeck, rounds);
      auto answer = snapshot->ObservationDeck(0);
      deck.End();
      alert_ms.Add(static_cast<double>(NowNs() - ingest_end) * 1e-6);
      failed_call = !ops.Check(answer.status()) || failed_call;
    }
    const CuboidLattice& lattice = engine->lattice();
    for (int i = 0; i < kColdReadsPerRound; ++i) {
      // A cell outside this tick's hot set: written at least one round
      // ago, so the governor may have spilled it since.
      std::size_t cell = rng.Uniform(static_cast<std::uint32_t>(kCells));
      if (static_cast<TimeTick>(cell % kHotSets) == tick % kHotSets) {
        cell = (cell + 1) % kCells;
      }
      const PointTarget target{lattice.m_layer_id(), source.key(cell), true};
      const std::int64_t faults_before = engine->SpillStats().fault_ins;
      Span point(trace, Op::kPoint, rounds, i);
      auto isb = engine->Query(QuerySpec::Cell(target.cuboid, target.key, 0, 4));
      const double seconds = point.End();
      points.Add(target, seconds * 1e6);
      if (engine->SpillStats().fault_ins > faults_before) {
        cold_ms.Add(seconds * 1e3);
      }
      failed_call = !ops.Check(isb.status()) || failed_call;
    }
    if (rounds % kCompactEvery == kCompactEvery - 1) {
      Span compact(trace, Op::kCompact, rounds);
      engine->CompactSegments();
      compact_ms.Add(compact.End() * 1e3);
    }
    peaks.Sample(*engine);
    ++rounds;
  }
  const std::int64_t t1 = NowNs();
  tracer.SetWindow(t0, t1);

  // ---- checkpoint + warm restarts ------------------------------------------
  const std::string ckpt_dir = base + "/checkpoint";
  std::filesystem::remove_all(ckpt_dir);
  Span write(trace, Op::kCheckpointWrite, rounds);
  const Status written = engine->Checkpoint(ckpt_dir);
  const double write_s = write.End();
  if (!ops.Check(written)) result.Fail("checkpoint: " + written.ToString());
  Samples restart_s, open_s, first_query_s, first_query_faults;
  std::optional<Engine> reopened;
  for (int rep = 0; rep < kRestarts && written.ok(); ++rep) {
    reopened.reset();
    const std::string spill_dir = StrPrintf("%s/reopen-%d", base.c_str(), rep);
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    const EngineBuilder builder = Builder(source, kBudgetBytes, spill_dir);
    Span open(trace, Op::kOpen, rep);
    auto opened = builder.OpenFrom(ckpt_dir);
    open_s.Add(open.End());
    if (!ops.Check(opened.status())) {
      result.Fail("OpenFrom: " + opened.status().ToString());
      break;
    }
    reopened.emplace(std::move(opened).value());
    Span query(trace, Op::kRestartQuery, rep);
    auto deck = reopened->Query(QuerySpec::ObservationDeck(0));
    first_query_s.Add(query.End());
    restart_s.Add(open_s.values.back() + first_query_s.values.back());
    first_query_faults.Add(static_cast<double>(reopened->SpillStats().fault_ins));
    if (!ops.Check(deck.status())) {
      result.Fail("first query after OpenFrom: " + deck.status().ToString());
      break;
    }
  }

  // ---- answer checks (outside the timed loop) ------------------------------
  if (failed_call) result.Fail("an API call failed in the loop");
  auto unbounded_built = Builder(source, 0, "").Build();
  RC_CHECK(unbounded_built.ok()) << unbounded_built.status().ToString();
  Engine unbounded = std::move(unbounded_built).value();
  OpCount replay_ops;
  for (TimeTick t = 0; t < kWarmTicks + rounds; ++t) {
    RC_CHECK(IngestChunks(unbounded, HotTick(source, t), nullptr, -1,
                          replay_ops, nullptr));
    RC_CHECK(unbounded.SealThrough(t).ok());
  }
  auto want = unbounded.TakeSnapshot();
  const std::string budget_diff = CompareAllLevels(*want, *engine->TakeSnapshot());
  if (!budget_diff.empty()) {
    result.Fail("budgeted engine vs unbounded: " + budget_diff);
  }
  if (reopened.has_value()) {
    const std::string reopen_diff =
        CompareAllLevels(*want, *reopened->TakeSnapshot());
    if (!reopen_diff.empty()) {
      result.Fail("reopened engine vs unbounded: " + reopen_diff);
    }
  }
  const std::int64_t unbounded_peak = unbounded.memory_tracker().peak_bytes();
  std::printf("budget_restart: budget %lld bytes = %.1f%% of this commit's "
              "unbounded peak (%lld bytes); spill dir under %s\n",
              static_cast<long long>(kBudgetBytes),
              100.0 * static_cast<double>(kBudgetBytes) /
                  static_cast<double>(std::max<std::int64_t>(1, unbounded_peak)),
              static_cast<long long>(unbounded_peak), base.c_str());

  // ---- report --------------------------------------------------------------
  result.attempted = ops.attempted();
  result.failed = ops.failed();
  result.E2eSetup(setup_s);
  result.E2e("ingest_tuples_per_s", ingest_rate.P50(), "tuples/s",
             StrPrintf("median over %lld rounds: time inside IngestBatch",
                       static_cast<long long>(rounds)));
  takes.Report(result);
  result.E2eLatency("alert", alert_ms, "ms");
  points.Report(result);
  result.E2e("cold_read_p50_ms", cold_ms.P50(), "ms",
               StrPrintf("median of %zu point reads that faulted in",
                         cold_ms.values.size()));
  result.E2e("restart_to_first_query_s", restart_s.P50(), "s",
               StrPrintf("median of %zu OpenFrom + first query",
                         restart_s.values.size()));

  const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
  result.Layer("gen.offered_tuples_per_s", static_cast<double>(tuples) / wall_s,
               "tuples/s", "closed loop: tuples generated over the loop");
  result.Layer("core.sharded_engine.ingest_batch_ms", batch_ms.P50(), "ms",
               "p50 per chunk");
  result.LayerLatency("time.seal", seal_ms, "ms");
  result.Layer("io.frame_store.compact_ms", compact_ms.P50(), "ms",
               "p50 per CompactSegments call");
  result.Layer("io.checkpoint.write_s", write_s, "s");
  result.Layer("io.checkpoint.mb",
               written.ok() ? ToMb(DirectoryBytes(ckpt_dir)) : 0.0, "MB");
  result.Layer("io.checkpoint.open_s", open_s.P50(), "s",
               StrPrintf("median of %zu", open_s.values.size()));
  result.Layer("io.checkpoint.first_query_s", first_query_s.P50(), "s",
               "ObservationDeck(0) after OpenFrom");
  result.Layer("io.checkpoint.first_query_fault_ins", first_query_faults.P50(),
               "count");
  ReportEngineStats(*engine, peaks, kBudgetBytes, result);
  return result;
}

}  // namespace regcube::e2e
