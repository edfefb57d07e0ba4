// E10 — the snapshot-read figure: does a large ComputeCube stall ingest?
// The snapshot path locks each shard only to copy its publication pointer,
// then cubes lock-free. This harness runs writer threads that ingest
// continuously while the main thread recomputes the cube in a loop, and
// reports how many tuples the writers managed to absorb during the cubing
// window — the §4.5 "continuous ingest must not stall behind analysis"
// number. The cube's o-layer must have the population the replay
// reference (tests/reference_stream.h) defines.
//
// Phase 2 — steady-state churn: N cells sealed once, then rounds in which
// only p% of cells receive new observations before a snapshot is taken.
// Measures the delta gather (frozen blocks shared for clean cells, copies
// only for dirty ones) in latency and bytes actually copied, the
// member-only series query, and indexed point-query gathers. Every result
// is RC_CHECKed bit-identical to the replay reference fed the same writes
// — the delta machinery is a caching change, not a numerics change.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "tests/reference_stream.h"

namespace regcube {
namespace {

struct CubeLoopResult {
  double cube_s = 0.0;                // wall time of the cubing loop
  double ingested_during_cube = 0.0;  // tuples writers absorbed meanwhile
  std::size_t o_cells = 0;
};

StreamCubeEngine::Options BenchOptions() {
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  return options;
}

/// Runs `cube_rounds` cube computations with `threads` writers ingesting
/// continuously (each writer owns a disjoint cell slice and replays the
/// stream at ever-later ticks, keeping per-cell ticks monotone).
CubeLoopResult RunCubeLoop(const WorkloadSpec& spec,
                           const std::vector<StreamTuple>& stream,
                           int threads, int cube_rounds) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  auto pool = std::make_shared<ThreadPool>();
  auto engine = std::make_unique<ShardedStreamEngine>(
      *schema, BenchOptions(), /*num_shards=*/8, pool);

  IngestReport seed = engine->IngestBatch(stream);
  RC_CHECK(seed.ok()) << seed.status.ToString();
  RC_CHECK(engine->SealThrough(spec.series_length - 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> ingested{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    writers.emplace_back([&, w] {
      // Replay rounds shifted forward in time so ticks stay monotone.
      for (TimeTick round = 1; !stop.load(std::memory_order_relaxed);
           ++round) {
        const TimeTick shift = round * spec.series_length;
        for (const StreamTuple& t : stream) {
          if (t.key.Hash() % static_cast<std::uint64_t>(threads) !=
              static_cast<std::uint64_t>(w)) {
            continue;
          }
          Status s = engine->Ingest({t.key, t.tick + shift, t.value});
          RC_CHECK(s.ok()) << s.ToString();
          ingested.fetch_add(1, std::memory_order_relaxed);
          if (stop.load(std::memory_order_relaxed)) return;
        }
      }
    });
  }

  CubeLoopResult result;
  const std::int64_t before = ingested.load();
  Stopwatch cube_timer;
  for (int round = 0; round < cube_rounds; ++round) {
    auto cube = engine->ComputeCube(0, 8);
    RC_CHECK(cube.ok()) << cube.status().ToString();
    result.o_cells = cube->o_layer().size();
  }
  result.cube_s = cube_timer.ElapsedSeconds();
  result.ingested_during_cube =
      static_cast<double>(ingested.load() - before);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  return result;
}

/// Phase 2: the O(changed-cells) figure. Seeds `num_cells` cells, seals,
/// then per round dirties `dirty_pct`% of them at the open tick and takes
/// a delta gather, checking it against the reference bit for bit.
void RunChurn(int argc, char** argv, bench::JsonWriter& json) {
  const std::int64_t num_cells = bench::ArgInt(argc, argv, "cells", 20'000);
  const std::int64_t dirty_pct = bench::ArgInt(argc, argv, "dirty", 10);
  const int rounds =
      static_cast<int>(bench::ArgInt(argc, argv, "churn_rounds", 5));
  const int shards =
      static_cast<int>(bench::ArgInt(argc, argv, "churn_shards", 8));

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;  // key space 10^6 >= any realistic `cells`
  spec.num_tuples = num_cells;
  spec.series_length = 8;
  spec.seed = 31;

  bench::PrintHeader(StrPrintf(
      "Steady-state churn: delta gather (%lld cells, %lld%% dirty per "
      "round, %d rounds)",
      static_cast<long long>(num_cells), static_cast<long long>(dirty_pct),
      rounds));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  const StreamCubeEngine::Options options = BenchOptions();
  auto pool = std::make_shared<ThreadPool>();
  ShardedStreamEngine engine(*schema, options, shards, pool);
  ReferenceStream reference(*schema, options);

  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  IngestReport seed = engine.IngestBatch(stream);
  RC_CHECK(seed.ok()) << seed.status.ToString();
  RC_CHECK(reference.IngestBatch(stream).ok());
  RC_CHECK(engine.SealThrough(spec.series_length - 1).ok());
  RC_CHECK(reference.SealThrough(spec.series_length - 1).ok());
  engine.GatherAlignedCells();  // warm the frozen blocks and caches

  const TimeTick open_tick = spec.series_length;  // inside the open quarter
  const std::int64_t dirty_n = num_cells * dirty_pct / 100;
  double delta_s = 0.0, delta_bytes = 0.0;
  // The gather result lives across rounds so each timed gather also pays
  // the release of the previous round's run — the steady-state cost, not
  // just its allocation half.
  ShardedStreamEngine::GatheredCells delta;
  for (int round = 0; round < rounds; ++round) {
    for (std::int64_t j = 0; j < dirty_n; ++j) {
      const auto& cell =
          cells[static_cast<size_t>((round * dirty_n + j) %
                                    num_cells)];
      RC_CHECK(engine.Ingest({cell.key, open_tick, 1.0}).ok());
      RC_CHECK(reference.Ingest({cell.key, open_tick, 1.0}).ok());
    }
    Stopwatch delta_timer;
    delta = engine.GatherAlignedCells();
    delta_s += delta_timer.ElapsedSeconds();
    delta_bytes += static_cast<double>(delta.stats.bytes_copied);
    RC_CHECK(delta.stats.materialized <= dirty_n)
        << "delta gather copied " << delta.stats.materialized
        << " frames for " << dirty_n << " dirty cells";

    // Bit-identity: the delta gather is a caching strategy, not a new read.
    auto expected_window = SnapshotWindowOf(reference.Run(), 0, 2);
    auto delta_window = SnapshotWindowOf(*delta.cells, 0, 2);
    RC_CHECK(expected_window.ok() && delta_window.ok());
    RC_CHECK(expected_window->size() == delta_window->size());
    for (size_t i = 0; i < expected_window->size(); ++i) {
      RC_CHECK((*expected_window)[i].key == (*delta_window)[i].key &&
               (*expected_window)[i].measure == (*delta_window)[i].measure)
          << "delta gather diverged at row " << i;
    }
  }

  // The series query gathers only the members.
  const SnapshotCells run = reference.Run();
  const CuboidId o_id = engine.lattice().o_layer_id();
  const CellKey o_key =
      engine.lattice().ProjectMLayerKey(cells[0].key, o_id);
  Stopwatch member_timer;
  auto member_series = engine.QueryCellSeries(o_id, o_key, 0);
  const double member_s = member_timer.ElapsedSeconds();
  RC_CHECK(member_series.ok()) << member_series.status().ToString();
  auto expected_series =
      SnapshotCellSeriesOf(run, engine.lattice(), reference.num_levels(),
                           o_id, o_key, 0);
  RC_CHECK(expected_series.ok()) << expected_series.status().ToString();
  RC_CHECK(*member_series == *expected_series)
      << "member-only QueryCellSeries diverged from the reference";

  // Point phase — the index figure: member-only gathers through the
  // ingest-maintained per-cuboid member index (hash probe, O(matching
  // members)) over many distinct o-layer cells. Bit-identity with the
  // reference's projected members is RC_CHECKed per probe — the index is
  // a lookup strategy, not a numerics change.
  const int point_reps = std::max<int>(
      1, static_cast<int>(bench::ArgInt(argc, argv, "point_reps", 200)));
  std::vector<CellKey> probe_keys;
  probe_keys.reserve(static_cast<size_t>(point_reps));
  for (int r = 0; r < point_reps; ++r) {
    const auto& cell =
        cells[static_cast<size_t>((r * 7919) % num_cells)];
    probe_keys.push_back(engine.lattice().ProjectMLayerKey(cell.key, o_id));
  }
  engine.GatherCellsMatching(o_id, probe_keys[0]);  // activate the index
  double indexed_s = 0.0;
  std::int64_t indexed_members = 0;
  for (const CellKey& key : probe_keys) {
    Stopwatch indexed_timer;
    auto indexed = engine.GatherCellsMatching(o_id, key);
    indexed_s += indexed_timer.ElapsedSeconds();
    indexed_members += static_cast<std::int64_t>(indexed.cells.size());

    const SnapshotCells expected = reference.Members(run, o_id, key);
    RC_CHECK(indexed.cells.size() == expected.size())
        << "indexed member set diverged for " << key.ToString();
    for (size_t i = 0; i < indexed.cells.size(); ++i) {
      RC_CHECK(indexed.cells[i].key == expected[i].key);
      const TiltTimeFrame::SlotView a = indexed.cells[i].frame->RawSlots(0);
      const TiltTimeFrame::SlotView b = expected[i].frame->RawSlots(0);
      RC_CHECK(a.size() == b.size());
      for (size_t s = 0; s < a.size(); ++s) {
        RC_CHECK(a[s].interval == b[s].interval &&
                 a[s].sum_z == b[s].sum_z && a[s].sum_tz == b[s].sum_tz)
            << "indexed gather diverged at slot " << s << " of "
            << indexed.cells[i].key.ToString();
      }
    }
  }
  const double avg_members =
      static_cast<double>(indexed_members) / point_reps;
  const std::int64_t index_bytes = engine.MemberIndexBytes();

  bench::PrintRow({"gather(s)", "bytes copied", "series(s)", "point(s)"});
  bench::PrintRow({StrPrintf("%.4f", delta_s), StrPrintf("%.0f", delta_bytes),
                   StrPrintf("%.6f", member_s),
                   StrPrintf("%.6f", indexed_s)});
  std::printf("\npoint queries (indexed, %d probes, avg %.1f members); "
              "index bytes %lld\n",
              point_reps, avg_members, static_cast<long long>(index_bytes));
  json.Row({{"phase", "\"point\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
            {"reps", StrPrintf("%d", point_reps)},
            {"indexed_s", StrPrintf("%.6f", indexed_s)},
            {"avg_members", StrPrintf("%.2f", avg_members)},
            {"index_bytes",
             StrPrintf("%lld", static_cast<long long>(index_bytes))}});
  json.Row({{"phase", "\"churn\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
            {"dirty_pct", StrPrintf("%lld",
                                    static_cast<long long>(dirty_pct))},
            {"rounds", StrPrintf("%d", rounds)},
            {"delta_gather_s", StrPrintf("%.6f", delta_s)},
            {"delta_bytes_copied", StrPrintf("%.0f", delta_bytes)},
            {"series_member_s", StrPrintf("%.6f", member_s)}});
}

void Run(int argc, char** argv) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = bench::ArgInt(argc, argv, "tuples", 20'000);
  spec.series_length = bench::ArgInt(argc, argv, "ticks", 64);
  spec.seed = 29;
  const int threads =
      static_cast<int>(bench::ArgInt(argc, argv, "threads", 4));
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));

  bench::PrintHeader(StrPrintf(
      "Snapshot reads under concurrent ingest (%s, %d writer threads, "
      "%d cube rounds)",
      spec.Name().c_str(), threads, rounds));

  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  // Writers add no cells, so the o-layer population is the seeded one.
  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  ReferenceStream reference(*schema, BenchOptions());
  RC_CHECK(reference.IngestBatch(stream).ok());
  RC_CHECK(reference.SealThrough(spec.series_length - 1).ok());
  auto expected = reference.Cube(0, 8);
  RC_CHECK(expected.ok()) << expected.status().ToString();

  bench::JsonWriter json("snapshot_reads");
  const CubeLoopResult r = RunCubeLoop(spec, stream, threads, rounds);
  RC_CHECK(r.o_cells == expected->o_layer().size())
      << "snapshot cube has " << r.o_cells << " o-cells, the reference "
      << expected->o_layer().size();
  const double rate = r.ingested_during_cube / r.cube_s;
  bench::PrintRow({"mode", "cube(s)", "ingest during cube", "ingest/s",
                   "o-cells"});
  bench::PrintRow({"snapshot", StrPrintf("%.3f", r.cube_s),
                   StrPrintf("%.0f", r.ingested_during_cube),
                   StrPrintf("%.0f", rate), StrPrintf("%zu", r.o_cells)});
  json.Row({{"mode", "\"snapshot\""},
            {"threads", StrPrintf("%d", threads)},
            {"cube_rounds", StrPrintf("%d", rounds)},
            {"cube_s", StrPrintf("%.6f", r.cube_s)},
            {"ingested_during_cube",
             StrPrintf("%.0f", r.ingested_during_cube)},
            {"ingest_per_s", StrPrintf("%.1f", rate)},
            {"o_cells", StrPrintf("%zu", r.o_cells)}});
  RunChurn(argc, argv, json);
  json.Write();
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
