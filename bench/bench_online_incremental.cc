// E8 — the §4.5 claim: "In stream data applications ... one just needs to
// incrementally compute the newly generated stream data. In this case, the
// computation time should be substantially shorter."
//
// Phase 1 (maintained cube): the O(delta) figure this bench exists to
// prove. N cells are seeded and two level-0 slots sealed from the global
// clock's viewpoint (one pacer cell drives the clock; the population lags
// behind it), then per round p% of the cells receive late data into the
// globally sealed slot — the out-of-order-across-cells churn shape. The
// maintained cube (ShardedStreamEngine::ComputeCubeShared) folds only
// those changed cells into the memoized m/o-layers and exception set; the
// from-scratch path re-runs H-cubing over the whole window. Both are
// RC_CHECKed bit-identical every round — the incremental cube is a
// maintenance strategy, not a numerics change.
//
// Phase 2 (epoch rolls): the steady state of a long stream. One tick per
// level-0 slot and every round seals a new one, so every cell's window
// moves each round; the memo recomputes in place over its stored tree and
// member rows instead of re-running H-cubing. Bit-identity is RC_CHECKed
// every round, and every round must be a roll.
//
// Phase 3 (legacy replay): the original E8 comparison — one long-lived
// engine absorbing batches vs a from-scratch engine re-ingesting the full
// history per batch.
//
// Emits BENCH_online_incremental.json like the other benches.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench_util.h"

namespace regcube {
namespace {

void CheckCubesIdentical(const RegressionCube& a, const RegressionCube& b) {
  RC_CHECK(a.m_layer().size() == b.m_layer().size());
  for (const auto& [key, isb] : a.m_layer()) {
    auto it = b.m_layer().find(key);
    RC_CHECK(it != b.m_layer().end() && it->second == isb)
        << "m-layer diverged at " << key.ToString();
  }
  RC_CHECK(a.o_layer().size() == b.o_layer().size());
  for (const auto& [key, isb] : a.o_layer()) {
    auto it = b.o_layer().find(key);
    RC_CHECK(it != b.o_layer().end() && it->second == isb)
        << "o-layer diverged at " << key.ToString();
  }
  RC_CHECK(a.exceptions().total_cells() == b.exceptions().total_cells());
  for (CuboidId c : a.exceptions().Cuboids()) {
    const CellMap* want = a.exceptions().CellsOf(c);
    const CellMap* got = b.exceptions().CellsOf(c);
    RC_CHECK(got != nullptr) << "exception cuboid " << c << " missing";
    RC_CHECK(want->size() == got->size());
    for (const auto& [key, isb] : *want) {
      auto it = got->find(key);
      RC_CHECK(it != got->end() && it->second == isb)
          << "exceptions diverged at " << key.ToString();
    }
  }
}

/// Phase 1: maintained vs from-scratch cube under steady-state late-data
/// churn at several dirty ratios.
void RunMaintained(int argc, char** argv, bench::JsonWriter& json) {
  const std::int64_t num_cells = bench::ArgInt(argc, argv, "cells", 100'000);
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));
  const int shards = static_cast<int>(bench::ArgInt(argc, argv, "shards", 8));
  const int level = 0, k = 2;

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;  // key space 10^6 >= any realistic `cells`
  spec.num_tuples = num_cells;
  spec.series_length = 8;  // ticks 0..7: the cells' own frames end inside
                           // [4,8); the pacer seals it from the global view
  spec.seed = 31;

  bench::PrintHeader(StrPrintf(
      "Maintained cube vs from-scratch H-cubing (%lld cells, %d shards, "
      "%d rounds per dirty ratio, late churn into the sealed window)",
      static_cast<long long>(num_cells), shards, rounds));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();

  bench::PrintRow({"dirty%", "incremental(s)", "from-scratch(s)", "speedup",
                   "patched cells", "memo MB"});
  for (std::int64_t dirty_pct : {1, 5, 10}) {
    ShardedStreamEngine engine(*schema, options, shards, pool);
    StreamGenerator gen(spec);
    const auto& cells = gen.cells();
    IngestReport seed = engine.IngestBatch(gen.GenerateStream());
    RC_CHECK(seed.ok()) << seed.status.ToString();
    // The pacer drives the global clock into the open unit [8,12): the
    // aligned view seals [0,4) and [4,8) while every seeded cell's own
    // frame still sits at tick 7 — late data at tick 7 lands in the
    // globally sealed slot without rolling the window epoch. It must be a
    // key no generated cell occupies, or a seeded cell would be dragged to
    // tick 11 and reject its later tick-7 churn.
    std::unordered_set<CellKey, CellKeyHash> taken;
    taken.reserve(cells.size());
    for (const auto& cell : cells) taken.insert(cell.key);
    CellKey pacer = cells[0].key;
    for (ValueId v = 0; v < 100; ++v) {
      CellKey candidate = cells[0].key;
      candidate.set(0, v);
      if (taken.count(candidate) == 0) {
        pacer = candidate;
        break;
      }
    }
    RC_CHECK(taken.count(pacer) == 0) << "no free pacer key";
    RC_CHECK(engine.Ingest({pacer, 11, 1.0}).ok());

    // Warm: the rebuild, plus one representative patch round (the same
    // dirty count the timed rounds use) to amortize the lazy tree +
    // member-index machinery into the steady state it belongs to —
    // adaptive index strategies (seed vs complete build) must settle
    // before the clock starts, exactly like the tree build does.
    RC_CHECK(engine.ComputeCubeShared(level, k).ok());
    const std::int64_t dirty_n =
        std::max<std::int64_t>(1, num_cells * dirty_pct / 100);
    for (std::int64_t j = 0; j < dirty_n; ++j) {
      RC_CHECK(
          engine.Ingest({cells[static_cast<size_t>(j % num_cells)].key, 7,
                         0.5})
              .ok());
    }
    RC_CHECK(engine.ComputeCubeShared(level, k).ok());

    double incr_s = 0.0, scratch_s = 0.0;
    const auto stats_before = engine.cube_memo_stats();
    for (int round = 0; round < rounds; ++round) {
      for (std::int64_t j = 0; j < dirty_n; ++j) {
        const auto& cell = cells[static_cast<size_t>(
            (round * dirty_n + j) % num_cells)];
        RC_CHECK(engine.Ingest({cell.key, 7, 0.25 * (round + 1)}).ok());
      }

      // Both sides read the same warmed delta gather (a revision cache
      // hit), so the timings isolate cube maintenance vs recomputation —
      // the O(changed cells) gather itself is PR 3's separately
      // benchmarked win (bench_snapshot_reads).
      auto run = engine.GatherAlignedCells();

      Stopwatch incr_timer;
      auto maintained = engine.ComputeCubeShared(level, k);
      RC_CHECK(maintained.ok()) << maintained.status().ToString();
      incr_s += incr_timer.ElapsedSeconds();

      Stopwatch scratch_timer;
      auto scratch = SnapshotCubeOf(*schema, *run.cells, options, level, k,
                                    pool.get());
      RC_CHECK(scratch.ok()) << scratch.status().ToString();
      scratch_s += scratch_timer.ElapsedSeconds();

      CheckCubesIdentical(*scratch, **maintained);
    }
    const auto stats = engine.cube_memo_stats();
    RC_CHECK(stats.patches > stats_before.patches)
        << "late churn never exercised the patch path";
    const std::int64_t patched =
        stats.patched_cells - stats_before.patched_cells;
    const double speedup = incr_s > 0 ? scratch_s / incr_s : 0.0;
    const std::int64_t memo_bytes = engine.CubeMemoBytes();

    bench::PrintRow({StrPrintf("%lld", static_cast<long long>(dirty_pct)),
                     StrPrintf("%.4f", incr_s), StrPrintf("%.4f", scratch_s),
                     StrPrintf("%.2fx", speedup),
                     StrPrintf("%lld", static_cast<long long>(patched)),
                     StrPrintf("%.1f", bench::ToMb(memo_bytes))});
    json.Row({{"phase", "\"maintained\""},
              {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
              {"dirty_pct",
               StrPrintf("%lld", static_cast<long long>(dirty_pct))},
              {"rounds", StrPrintf("%d", rounds)},
              {"shards", StrPrintf("%d", shards)},
              {"incremental_s", StrPrintf("%.6f", incr_s)},
              {"scratch_s", StrPrintf("%.6f", scratch_s)},
              {"speedup", StrPrintf("%.3f", speedup)},
              {"patched_cells",
               StrPrintf("%lld", static_cast<long long>(patched))},
              {"memo_bytes",
               StrPrintf("%lld", static_cast<long long>(memo_bytes))}});
  }
}

/// Phase 2: epoch rolls — the §4.5 steady state. A fixed population, one
/// tick per level-0 slot: every round ingests one tick for every cell and
/// seals it, so every cell's window moves. The maintained cube rolls in
/// place (leaf rewrite + refold + a sweep of every cuboid's member rows);
/// the from-scratch path re-runs H-cubing over the rolled window.
void RunRoll(int argc, char** argv, bench::JsonWriter& json) {
  const std::int64_t num_cells = bench::ArgInt(argc, argv, "cells", 100'000);
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));
  const int shards = static_cast<int>(bench::ArgInt(argc, argv, "shards", 8));
  const int level = 0, k = 4;

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = num_cells;
  // Ticks 0..7 fill the window, one more warms the memo, then one per
  // round: the generator's own series for every tick.
  constexpr TimeTick kSeedTicks = 8;
  spec.series_length = kSeedTicks + 1 + rounds;
  spec.seed = 31;

  bench::PrintHeader(StrPrintf(
      "Epoch rolls: maintained vs from-scratch H-cubing (%lld cells, %d "
      "shards, %d rounds, every round seals a new level-0 slot)",
      static_cast<long long>(num_cells), shards, rounds));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"tick", 8}, {"octet", 8}}, {1, 8});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();
  ShardedStreamEngine engine(*schema, options, shards, pool);
  StreamGenerator gen(spec);
  // Tick-major: tick t's tuples are the t-th slice of num_cells.
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const auto per_tick = static_cast<size_t>(num_cells);
  auto seal_next = [&](TimeTick tick) {
    const auto begin = stream.begin() + static_cast<std::ptrdiff_t>(
                                            static_cast<size_t>(tick) * per_tick);
    IngestReport report = engine.IngestBatch(
        std::vector<StreamTuple>(begin, begin + static_cast<std::ptrdiff_t>(per_tick)));
    RC_CHECK(report.ok()) << report.status.ToString();
    RC_CHECK(engine.SealThrough(tick).ok());
  };
  TimeTick tick = 0;
  while (tick < kSeedTicks) seal_next(tick++);
  RC_CHECK(engine.ComputeCubeShared(level, k).ok());
  // Warm: the first roll after a rebuild builds the stored tree and every
  // cuboid's member rows — once per rebuild, not per roll.
  seal_next(tick++);
  RC_CHECK(engine.ComputeCubeShared(level, k).ok());

  double incr_s = 0.0, scratch_s = 0.0;
  const auto stats_before = engine.cube_memo_stats();
  for (int round = 0; round < rounds; ++round) {
    seal_next(tick++);
    // Both sides cube the same gathered run, so the timings isolate cube
    // maintenance vs recomputation.
    const auto run = engine.GatherAlignedCells();

    Stopwatch incr_timer;
    auto maintained = engine.ComputeCubeShared(run, level, k);
    RC_CHECK(maintained.ok()) << maintained.status().ToString();
    incr_s += incr_timer.ElapsedSeconds();

    Stopwatch scratch_timer;
    auto scratch =
        SnapshotCubeOf(*schema, *run.cells, options, level, k, pool.get());
    RC_CHECK(scratch.ok()) << scratch.status().ToString();
    scratch_s += scratch_timer.ElapsedSeconds();

    CheckCubesIdentical(*scratch, **maintained);
  }
  const auto stats = engine.cube_memo_stats();
  const std::int64_t rolls = stats.rolls - stats_before.rolls;
  RC_CHECK(rolls == rounds) << "a seal did not roll the memo";
  RC_CHECK(stats.rebuilds == stats_before.rebuilds) << "a roll rebuilt";
  const double speedup = incr_s > 0 ? scratch_s / incr_s : 0.0;
  const std::int64_t memo_bytes = engine.CubeMemoBytes();

  bench::PrintRow({"rolls", "incremental(s)", "from-scratch(s)", "speedup",
                   "memo MB"});
  bench::PrintRow({StrPrintf("%lld", static_cast<long long>(rolls)),
                   StrPrintf("%.4f", incr_s), StrPrintf("%.4f", scratch_s),
                   StrPrintf("%.2fx", speedup),
                   StrPrintf("%.1f", bench::ToMb(memo_bytes))});
  json.Row({{"phase", "\"roll\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
            {"rounds", StrPrintf("%d", rounds)},
            {"shards", StrPrintf("%d", shards)},
            {"incremental_s", StrPrintf("%.6f", incr_s)},
            {"scratch_s", StrPrintf("%.6f", scratch_s)},
            {"speedup", StrPrintf("%.3f", speedup)},
            {"rolls", StrPrintf("%lld", static_cast<long long>(rolls))},
            {"memo_bytes",
             StrPrintf("%lld", static_cast<long long>(memo_bytes))}});
}

/// Phase 3: the original E8 replay comparison, kept as the paper's framing.
void RunReplay(int argc, char** argv, bench::JsonWriter& json) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = bench::ArgInt(argc, argv, "tuples", 5'000);
  spec.series_length = bench::ArgInt(argc, argv, "ticks", 128);
  spec.seed = 7;

  bench::PrintHeader(StrPrintf(
      "Online incremental vs full recompute (%s, %lld ticks/stream)",
      spec.Name().c_str(), static_cast<long long>(spec.series_length)));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamGenerator gen(spec);
  std::vector<StreamTuple> stream = gen.GenerateStream();

  auto make_engine = [&schema] {
    auto engine = EngineBuilder()
                      .SetSchema(*schema)
                      .SetTiltPolicy(MakeUniformTiltPolicy(
                          {{"quarter", 8}, {"hour", 8}}, {4, 16}))
                      .SetExceptionPolicy(ExceptionPolicy(0.05))
                      .Build();
    RC_CHECK(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  };

  Engine incremental = make_engine();
  const int kBatches = 8;
  const size_t batch_size = stream.size() / kBatches;

  bench::PrintRow({"batch", "incr-ingest(s)", "incr-cube(s)",
                   "scratch-total(s)", "speedup"});
  double total_incremental = 0.0, total_scratch = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const size_t begin = static_cast<size_t>(b) * batch_size;
    const size_t end =
        b == kBatches - 1 ? stream.size() : begin + batch_size;

    Stopwatch ingest_timer;
    for (size_t i = begin; i < end; ++i) {
      RC_CHECK(incremental.Ingest(stream[i]).ok());
    }
    const TimeTick sealed = stream[end - 1].tick;
    RC_CHECK(incremental.SealThrough(sealed).ok());
    const double ingest_s = ingest_timer.ElapsedSeconds();

    const int sealed_quarters = static_cast<int>((sealed + 1) / 4);
    const int k = std::min(sealed_quarters, 8);
    if (k < 1) continue;

    Stopwatch cube_timer;
    auto cube = incremental.ComputeCube(0, k);
    RC_CHECK(cube.ok()) << cube.status().ToString();
    const double cube_s = cube_timer.ElapsedSeconds();

    // From scratch: replay the entire history, then compute.
    Stopwatch scratch_timer;
    Engine scratch = make_engine();
    for (size_t i = 0; i < end; ++i) {
      RC_CHECK(scratch.Ingest(stream[i]).ok());
    }
    RC_CHECK(scratch.SealThrough(sealed).ok());
    auto scratch_cube = scratch.ComputeCube(0, k);
    RC_CHECK(scratch_cube.ok());
    const double scratch_s = scratch_timer.ElapsedSeconds();

    total_incremental += ingest_s + cube_s;
    total_scratch += scratch_s;
    bench::PrintRow({StrPrintf("%d", b), StrPrintf("%.3f", ingest_s),
                     StrPrintf("%.3f", cube_s), StrPrintf("%.3f", scratch_s),
                     StrPrintf("%.2fx", scratch_s / (ingest_s + cube_s))});
  }
  std::printf("totals: incremental %.3f s vs from-scratch %.3f s (%.2fx)\n",
              total_incremental, total_scratch,
              total_scratch / total_incremental);
  std::printf("engine tilt-frame memory: %s across %lld cells\n",
              FormatBytes(incremental.MemoryBytes()).c_str(),
              static_cast<long long>(incremental.num_cells()));
  json.Row({{"phase", "\"replay\""},
            {"tuples",
             StrPrintf("%lld", static_cast<long long>(spec.num_tuples))},
            {"batches", StrPrintf("%d", kBatches)},
            {"incremental_s", StrPrintf("%.6f", total_incremental)},
            {"scratch_s", StrPrintf("%.6f", total_scratch)},
            {"speedup",
             StrPrintf("%.3f", total_scratch / total_incremental)}});
}

void Run(int argc, char** argv) {
  bench::JsonWriter json("online_incremental");
  json.SetArgs(argc, argv);
  RunMaintained(argc, argv, json);
  RunRoll(argc, argv, json);
  RunReplay(argc, argv, json);
  json.Write();
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
