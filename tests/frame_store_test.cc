// The memory-governed storage tier's contracts: the mmap frame store must
// round-trip tilt-frame state bitwise (spill -> fault-in is lossless); an
// engine running under a byte budget with a spill directory must stay
// bit-identical to the all-RAM replay reference through randomized churn
// for shard counts {1, 2, 8} while actually spilling and faulting in,
// with or without reads between the writes; spill alone must bring a
// write-only engine back under budget; reads must never run the eviction
// ladder; an async engine under a budget must stay bit-identical while
// its owner threads spill and readers snapshot; Checkpoint -> OpenFrom must reproduce identical query results (including
// after resumed ingest, and across a different shard count); and corrupt /
// truncated checkpoint files must fail with the typed error contract
// (InvalidArgument / OutOfRange / NotFound), never mid-query.
//
// The randomized churn and the bitwise comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnPlan;
using equivalence::ChurnWorkload;
using equivalence::ExpectGatherMatchesReference;
using equivalence::ExpectGathersIdentical;
using equivalence::Key2;
using equivalence::PairedStream;
using equivalence::RunChurnRounds;
using equivalence::SmallTiltPolicy;
using testing_util::RecordOf;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Scrub leftovers from a previous run so attach/restore sees only what
  // this test wrote.
  std::remove(CheckpointManifestPath(dir).c_str());
  for (int i = 0; i < 16; ++i) {
    std::remove(CheckpointShardFilePath(dir, i).c_str());
    std::remove((dir + "/spill-" + std::to_string(i) + ".rcs").c_str());
  }
  return dir;
}

TiltTimeFrame MakeFrame(std::uint64_t seed, TimeTick ticks) {
  TiltTimeFrame frame(SmallTiltPolicy(), /*start_tick=*/0);
  Pcg32 rng(seed, 3);
  for (TimeTick t = 0; t < ticks; ++t) {
    EXPECT_TRUE(frame.Add(t, rng.NextDouble()).ok());
  }
  return frame;
}

Result<std::unique_ptr<FrameStore>> OpenStore(const std::string& dir) {
  return FrameStore::Open(dir, SmallTiltPolicy());
}

/// Appends one frame and returns its ref.
Result<BlockRef> AppendOne(FrameStore& store, int shard,
                           const TiltTimeFrame& frame) {
  RC_ASSIGN_OR_RETURN(std::vector<BlockRef> refs,
                      store.AppendFrames(shard, {&frame}));
  return refs.front();
}

// ------------------------------------------------------------- store basics

TEST(FrameStoreTest, AppendReadRoundTripsBitwise) {
  auto store = OpenStore(FreshDir("frame_store_roundtrip"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Two sweeps per shard-ish: each AppendFrames call is one write.
  std::vector<TiltTimeFrame> frames;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(MakeFrame(/*seed=*/100 + i, /*ticks=*/5 + 3 * i));
  }
  std::vector<BlockRef> refs(frames.size());
  for (int shard = 0; shard < 3; ++shard) {
    std::vector<const TiltTimeFrame*> sweep;
    std::vector<size_t> at;
    for (size_t i = static_cast<size_t>(shard); i < frames.size(); i += 3) {
      sweep.push_back(&frames[i]);
      at.push_back(i);
    }
    auto got = (*store)->AppendFrames(shard, sweep);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), sweep.size());
    for (size_t j = 0; j < at.size(); ++j) {
      ASSERT_TRUE((*got)[j].valid());
      EXPECT_EQ((*got)[j].offset % 8, 0);  // views need aligned records
      refs[at[j]] = (*got)[j];
    }
  }
  // Read back out of order: offsets are independent. The restored frame,
  // the view and the raw record all equal the original bitwise.
  for (int i = 7; i >= 0; --i) {
    const std::string want = RecordOf(frames[static_cast<size_t>(i)]);
    auto frame = (*store)->ReadFrame(refs[i]);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(RecordOf(*frame), want);
    auto view = (*store)->ViewFrame(refs[i]);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE((*view)->is_view());
    EXPECT_EQ(RecordOf(**view), want);
    auto raw = (*store)->ReadRawBlock(refs[i]);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, want);
  }
  const FrameStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.spilled_blocks, 8);
  EXPECT_EQ(stats.live_blocks, 8);
  EXPECT_EQ(stats.fault_ins, 8);  // views are not fault-ins
  EXPECT_EQ(stats.garbage_bytes, 0);
  EXPECT_GT(stats.disk_bytes, 0);
}

TEST(FrameStoreTest, ReleaseTurnsBytesIntoGarbage) {
  auto store = OpenStore(FreshDir("frame_store_release"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const TiltTimeFrame frame = MakeFrame(7, 12);
  auto ref = AppendOne(**store, 0, frame);
  ASSERT_TRUE(ref.ok());
  auto view = (*store)->ViewFrame(*ref);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*store)->Stats().garbage_bytes, 0);
  (*store)->Release(*ref);
  const FrameStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.live_blocks, 0);
  EXPECT_EQ(stats.garbage_bytes, stats.spilled_bytes);
  // A released ref is stale: reading or viewing it is a typed error, not
  // UB...
  EXPECT_EQ((*store)->ReadFrame(*ref).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->ViewFrame(*ref).status().code(),
            StatusCode::kInvalidArgument);
  // ...while a view taken before the release still reads its bytes.
  EXPECT_EQ(RecordOf(**view), RecordOf(frame));
}

TEST(FrameStoreTest, AttachOnlyStoreRefusesAppends) {
  auto store = OpenStore("");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(AppendOne(**store, 0, MakeFrame(9, 6)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FrameStoreTest, InvalidRefsAreTypedErrors) {
  auto store = OpenStore(FreshDir("frame_store_badref"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ref = AppendOne(**store, 0, MakeFrame(11, 10));
  ASSERT_TRUE(ref.ok());

  BlockRef bad_file = *ref;
  bad_file.file = 99;
  EXPECT_EQ((*store)->ReadFrame(bad_file).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->ViewFrame(bad_file).status().code(),
            StatusCode::kInvalidArgument);

  BlockRef past_end = *ref;
  past_end.offset += (*store)->DiskBytes();
  EXPECT_FALSE((*store)->ReadFrame(past_end).ok());
  EXPECT_FALSE((*store)->ViewFrame(past_end).ok());
}

TEST(FrameStoreTest, ViewsOutliveGrowthCompactionAndTheStore) {
  // A view holds the mapping it reads: the segment growing past it
  // (remapped), a compaction that retires its file, and the store's own
  // destruction (which unlinks the segment) must all leave it readable.
  auto store = OpenStore(FreshDir("frame_store_view_lifetime"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const TiltTimeFrame first = MakeFrame(21, 30);
  auto ref = AppendOne(**store, 0, first);
  ASSERT_TRUE(ref.ok());
  auto view = (*store)->ViewFrame(*ref);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Grow the segment well past its first mapping (1 MiB).
  std::vector<TiltTimeFrame> filler;
  for (int i = 0; i < 64; ++i) filler.push_back(MakeFrame(300 + i, 20));
  std::vector<const TiltTimeFrame*> sweep;
  for (const TiltTimeFrame& f : filler) sweep.push_back(&f);
  std::vector<BlockRef> live;
  for (int round = 0; round < 48; ++round) {
    auto refs = (*store)->AppendFrames(0, sweep);
    ASSERT_TRUE(refs.ok()) << refs.status().ToString();
    for (const BlockRef& r : *refs) {
      if (round == 0) {
        live.push_back(r);
      } else {
        (*store)->Release(r);
      }
    }
  }
  ASSERT_GT((*store)->DiskBytes(), std::int64_t{1} << 20);
  auto late = (*store)->ViewFrame(live.back());
  ASSERT_TRUE(late.ok()) << late.status().ToString();

  (*store)->Release(*ref);
  auto relocations = (*store)->CompactShardSegment(0);
  ASSERT_TRUE(relocations.ok()) << relocations.status().ToString();
  EXPECT_EQ(relocations->size(), live.size());
  EXPECT_EQ((*store)->Compactions().compactions, 1);

  store->reset();  // unlinks the segment; the views keep their mappings
  EXPECT_EQ(RecordOf(**view), RecordOf(first));
  EXPECT_EQ(RecordOf(**late), RecordOf(filler.back()));
}

TEST(FrameStoreTest, RecordOfAnotherLayoutIsInvalidArgument) {
  // A checkpoint file written under one tilt layout attached by a store
  // (an engine) of another: the records' layout fingerprint disagrees, so
  // attach fails typed before any cell is installed.
  auto other = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 6}}, {4, 16}));
  TiltTimeFrame frame(other, 0);
  ASSERT_TRUE(frame.Add(3, 1.5).ok());
  CellKey key(2);
  key.set(0, 1);
  key.set(1, 2);
  const std::string path =
      FreshDir("frame_store_foreign_layout") + "_frames.rcs";
  ASSERT_TRUE(EnsureDirectory(::testing::TempDir()).ok());
  ASSERT_TRUE(
      WriteFile(path, EncodeCheckpointShardFile(0, {{key, RecordOf(frame)}}))
          .ok());
  auto store = OpenStore("");
  ASSERT_TRUE(store.ok());
  auto attached = (*store)->AttachCheckpointFile(path);
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument)
      << attached.status().ToString();
  // The same file attaches under its own layout.
  auto own = FrameStore::Open("", other);
  ASSERT_TRUE(own.ok());
  EXPECT_TRUE((*own)->AttachCheckpointFile(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------- budgeted churn equivalence

/// Drives the shared churn plan through a budgeted+spilling engine and the
/// replay reference, then compares the engine's gathers with the
/// reference's run. With `gather_mid_stream` off nothing reads until the
/// end, so every spill takes cells with unexported writes.
void RunBudgetedChurnEquivalence(int num_shards, bool gather_mid_stream) {
  SCOPED_TRACE(gather_mid_stream ? "gather every other round"
                                 : "never gather");
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/150, /*ticks=*/16,
                                    /*seed=*/71);
  StreamGenerator gen(spec);
  const auto seeded = gen.GenerateStream();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  ReferenceStream reference(*schema, ChurnEngineOptions());
  ShardedStreamEngine budgeted(*schema, ChurnEngineOptions(), num_shards);
  ASSERT_TRUE(reference.IngestBatch(seeded).ok());
  ASSERT_TRUE(budgeted.IngestBatch(seeded).ok());

  // A budget far below the seeded working set, so every enforcement walks
  // the ladder down to the spill rung.
  MemoryBudgetConfig config;
  config.budget_bytes = budgeted.MemoryBytes() / 4;
  config.spill_dir = FreshDir("frame_store_churn_" +
                              std::to_string(num_shards) +
                              (gather_mid_stream ? "_gather" : "_blind"));
  ASSERT_TRUE(budgeted.ConfigureStorage(config).ok());

  ChurnPlan plan;
  plan.rounds = 12;
  plan.seed = 201;
  plan.advance_ticks = true;
  plan.base_tick = 16;
  plan.seal_every = 3;
  // Gather every other round (the steady-state read/write mix), or never:
  // then the spills take dirty cells, and only the final gather exports
  // their writes.
  RunChurnRounds(budgeted, gen.cells(), plan, [&](int round) {
    if (gather_mid_stream && round % 2 == 1) {
      (void)budgeted.GatherAlignedCells();
    }
  });
  // Re-drive the identical plan into the reference (RunChurnRounds is a
  // pure function of the plan, so the write sequences are identical;
  // gathers are reads and change nothing observable).
  RunChurnRounds(reference, gen.cells(), plan, [](int) {});

  // Budget actually bit: enforcements ran, cells were spilled, and the
  // churn's writes to cold cells faulted them back in.
  const SpillStats spill = budgeted.SpillStats();
  EXPECT_GT(spill.enforcements, 0);
  EXPECT_GT(spill.spill_evictions, 0);
  EXPECT_GT(spill.fault_ins, 0);
  EXPECT_GT(spill.disk_bytes, 0);

  // Bit-identity: the gather views every still-cold cell in place (reads
  // never fault a cell in) and matches the all-RAM reference exactly.
  const std::int64_t fault_ins_before = budgeted.SpillStats().fault_ins;
  ExpectGatherMatchesReference(budgeted.GatherAlignedCells(), reference);

  // A second gather, served from the publications, still matches.
  ExpectGatherMatchesReference(budgeted.GatherAlignedCells(), reference);
  EXPECT_EQ(budgeted.SpillStats().fault_ins, fault_ins_before);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleOneShard) {
  RunBudgetedChurnEquivalence(1, /*gather_mid_stream=*/true);
  RunBudgetedChurnEquivalence(1, /*gather_mid_stream=*/false);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleTwoShards) {
  RunBudgetedChurnEquivalence(2, /*gather_mid_stream=*/true);
  RunBudgetedChurnEquivalence(2, /*gather_mid_stream=*/false);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleEightShards) {
  RunBudgetedChurnEquivalence(8, /*gather_mid_stream=*/true);
  RunBudgetedChurnEquivalence(8, /*gather_mid_stream=*/false);
}

// ------------------------------------------------------- facade budget run

TEST(MemoryBudgetTest, FacadeStaysUnderBudgetAndAnswersIdentically) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/200, /*ticks=*/24,
                                    /*seed=*/33);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(4);

  // Unbounded first: measure the peak the budget will be set against and
  // capture the oracle answers.
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());
  ASSERT_TRUE(oracle->SealThrough(spec.series_length - 1).ok());
  auto oracle_snap = oracle->TakeSnapshot();
  const std::int64_t peak =
      oracle->memory_tracker().category_peak_bytes("stream.tilt_frames");
  ASSERT_GT(peak, 0);

  // Budget = 25% of the unbounded frame peak.
  auto engine = builder.SetMemoryBudget(peak / 4)
                    .SetSpillDir(FreshDir("mem_budget_facade"))
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Ingest in slices with interleaved snapshots, the steady-state shape.
  // Zero ingest failures throughout.
  const size_t slice = stream.size() / 8 + 1;
  for (size_t at = 0; at < stream.size(); at += slice) {
    const std::vector<StreamTuple> chunk(
        stream.begin() + at,
        stream.begin() + std::min(at + slice, stream.size()));
    IngestReport report = engine->IngestBatch(chunk);
    ASSERT_TRUE(report.ok()) << report.status.ToString();
    ASSERT_EQ(report.absorbed, static_cast<std::int64_t>(chunk.size()));
    (void)engine->TakeSnapshot();
  }
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());

  // The budget bit: enforcements ran, cells sit on disk, and resident
  // frame bytes ended at/below budget.
  const SpillStats spill = engine->SpillStats();
  EXPECT_EQ(spill.budget_bytes, peak / 4);
  EXPECT_GT(spill.enforcements, 0);
  EXPECT_GT(spill.spilled_cells, 0);
  std::int64_t frame_bytes = -1, disk_bytes = -1;
  for (const auto& [name, bytes] : engine->MemoryReport()) {
    if (name == "stream.tilt_frames") frame_bytes = bytes;
    if (name == "spill.disk_bytes") disk_bytes = bytes;
  }
  EXPECT_GE(frame_bytes, 0);
  EXPECT_LE(frame_bytes, spill.budget_bytes);
  EXPECT_GT(disk_bytes, 0);

  // Bit-identical answers: the snapshot views the cold cells in place (no
  // fault-in) and matches the all-RAM oracle cell for cell, and the
  // cube-side drill agrees too.
  const std::int64_t fault_ins_before = engine->SpillStats().fault_ins;
  auto snap = engine->TakeSnapshot();
  EXPECT_EQ(engine->SpillStats().fault_ins, fault_ins_before);
  ASSERT_EQ(snap->num_cells(), oracle_snap->num_cells());
  auto want_window = oracle_snap->Window(0, 4);
  auto got_window = snap->Window(0, 4);
  ASSERT_TRUE(want_window.ok());
  ASSERT_TRUE(got_window.ok());
  ASSERT_EQ(want_window->size(), got_window->size());
  for (size_t i = 0; i < want_window->size(); ++i) {
    EXPECT_EQ((*want_window)[i].key, (*got_window)[i].key);
    testing_util::ExpectIsbNear((*want_window)[i].measure, (*got_window)[i].measure,
                                /*tolerance=*/0.0);
  }
  auto want_top = oracle_snap->Query(QuerySpec::TopExceptions(10, 0, 4));
  auto got_top = snap->Query(QuerySpec::TopExceptions(10, 0, 4));
  ASSERT_TRUE(want_top.ok());
  ASSERT_TRUE(got_top.ok());
  ASSERT_EQ(want_top->cells().size(), got_top->cells().size());
  for (size_t i = 0; i < want_top->cells().size(); ++i) {
    EXPECT_EQ(want_top->cells()[i].key, got_top->cells()[i].key);
    EXPECT_EQ(want_top->cells()[i].isb, got_top->cells()[i].isb);
  }
}

// ------------------------------------------------- all-dirty convergence

/// The bytes the governor weighs: everything the memory tracker holds
/// plus the frame copies the cached snapshot pins.
std::int64_t GovernedBytes(const Engine& engine) {
  std::int64_t bytes = engine.memory_tracker().current_bytes();
  for (const auto& [name, value] : engine.MemoryReport()) {
    if (name == "snapshot.pinned_frames") bytes += value;
  }
  return bytes;
}

/// Randomized churn with NO interleaved reads: every resident cell stays
/// dirty-queued, and the spill rung takes them as they are. Spill alone
/// must return the engine to its budget within a bounded number of
/// enforcement cycles — no cache rung runs — and compaction must keep the
/// cold tier's footprint proportional to its live bytes despite the
/// re-spill churn.
void RunAllDirtyConvergence(int num_shards) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/150, /*ticks=*/20,
                                    /*seed=*/61);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(num_shards);

  // Measure the unbounded engine after the stream and one snapshot, then
  // re-run under two thirds of that. Every frame and its frozen copy is
  // about half of it, and the rest (keys, member index, run entries, the
  // snapshot's pinned copies) is what spill cannot free, so spill alone can
  // reach this budget — a smaller one would leave every enforcement over
  // budget whatever ran.
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());
  ASSERT_TRUE(oracle->TakeSnapshot()->status().ok());
  const std::int64_t budget = GovernedBytes(*oracle) * 2 / 3;
  ASSERT_GT(budget, 0);

  auto built =
      builder.SetMemoryBudget(budget)
          .SetSpillDir(FreshDir("all_dirty_conv_" +
                                std::to_string(num_shards)))
          .SetCompactThreshold(0.5)
          .SetCompactMinBytes(1)
          .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());

  // One snapshot first, so every shard has a published run that the
  // spills of dirty cells must patch forward.
  ASSERT_TRUE(engine.TakeSnapshot()->status().ok());

  // Randomized write-only churn: no snapshot ever exports the dirty set.
  // Every write is kept for the oracle replay below.
  std::vector<StreamTuple> writes;
  Pcg32 rng(613, 5);
  for (int round = 0; round < 10; ++round) {
    const std::uint32_t count = 20 + rng.Uniform(40);
    for (std::uint32_t j = 0; j < count; ++j) {
      const auto& cell = gen.cells()[static_cast<size_t>(
          rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
      writes.push_back({cell.key, spec.series_length + round, 0.5});
      ASSERT_TRUE(engine.Ingest(writes.back()).ok());
    }
  }

  // Convergence within N cycles: each probe write lands one enforcement
  // point; the ladder must put the engine at/under budget almost at once
  // (one sweep; the bound leaves slack for the probe's own fault-in).
  constexpr int kMaxCycles = 6;
  std::int64_t usage = -1;
  for (int cycle = 0; cycle < kMaxCycles; ++cycle) {
    writes.push_back({gen.cells()[0].key, spec.series_length + 10, 0.25});
    ASSERT_TRUE(engine.Ingest(writes.back()).ok());
    usage = GovernedBytes(engine);
    if (usage <= budget) break;
  }
  EXPECT_LE(usage, budget)
      << "still over budget after " << kMaxCycles << " cycles";

  const SpillStats spill = engine.SpillStats();
  // Spill did the converging, on dirty cells, without a cache rung.
  EXPECT_GT(spill.spill_evictions, 0);
  EXPECT_EQ(spill.cache_evictions, 0);
  EXPECT_EQ(spill.export_evictions, 0);
  EXPECT_GT(spill.spilled_cells, 0);

  // Disk stays proportional to live bytes: the re-spill churn turned old
  // blocks into garbage, and compaction sheds it.
  engine.CompactSegments();
  const SpillStats compacted = engine.SpillStats();
  EXPECT_LE(compacted.disk_bytes,
            3 * std::max<std::int64_t>(compacted.live_bytes, 1))
      << "garbage " << compacted.garbage_bytes << " live "
      << compacted.live_bytes;

  // And the survivor still answers every cell, bit-identical to the
  // unbounded oracle fed the same writes.
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(gen.cells().size()));
  ASSERT_TRUE(oracle->IngestBatch(writes).ok());
  auto got = snap->Window(0, 4);
  auto want = oracle->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].key, (*want)[i].key);
    EXPECT_EQ((*got)[i].measure, (*want)[i].measure);
  }
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesOneShard) {
  RunAllDirtyConvergence(1);
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesTwoShards) {
  RunAllDirtyConvergence(2);
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesEightShards) {
  RunAllDirtyConvergence(8);
}

// --------------------------------------------------- checkpoint / restart

TEST(CheckpointTest, ReopenReproducesIdenticalResults) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/120, /*ticks=*/20,
                                    /*seed=*/55);
  StreamGenerator gen(spec);

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(4);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());

  const std::string dir = FreshDir("checkpoint_reopen");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // Reopen under a *different* shard count: the checkpoint is sharding-
  // agnostic (cells re-route by the current hash).
  auto reopened = builder.SetShardCount(2).OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_cells(), engine->num_cells());
  EXPECT_EQ(reopened->now(), engine->now());

  auto want = engine->TakeSnapshot();
  auto got = reopened->TakeSnapshot();
  ASSERT_EQ(want->num_cells(), got->num_cells());
  for (int level = 0; level < 2; ++level) {
    const int k = level == 0 ? 4 : 1;  // the hour level sealed one slot
    auto w = want->Window(level, k);
    auto g = got->Window(level, k);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(w->size(), g->size());
    for (size_t i = 0; i < w->size(); ++i) {
      EXPECT_EQ((*w)[i].key, (*g)[i].key);
      EXPECT_EQ((*w)[i].measure, (*g)[i].measure);
    }
  }

  // Resumed ingest: the same post-checkpoint writes land identically on
  // both engines (clock and tilt positions survived the round trip).
  const TimeTick resume = spec.series_length;
  for (int i = 0; i < 10; ++i) {
    const StreamTuple tuple{gen.cells()[i].key, resume + (i % 3),
                            0.5 * (i + 1)};
    ASSERT_TRUE(engine->Ingest(tuple).ok());
    ASSERT_TRUE(reopened->Ingest(tuple).ok());
  }
  ASSERT_TRUE(engine->SealThrough(resume + 2).ok());
  ASSERT_TRUE(reopened->SealThrough(resume + 2).ok());
  auto want2 = engine->TakeSnapshot()->Window(0, 4);
  auto got2 = reopened->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want2.ok());
  ASSERT_TRUE(got2.ok());
  ASSERT_EQ(want2->size(), got2->size());
  for (size_t i = 0; i < want2->size(); ++i) {
    EXPECT_EQ((*want2)[i].key, (*got2)[i].key);
    EXPECT_EQ((*want2)[i].measure, (*got2)[i].measure);
  }
}

TEST(CheckpointTest, CheckpointOfSpilledEngineIsComplete) {
  // Spilled cells must be checkpointed from their raw disk blocks, not
  // silently dropped.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/100, /*ticks=*/16,
                                    /*seed=*/77);
  StreamGenerator gen(spec);

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  // A 1-byte budget keeps the engine permanently over it, so every
  // post-write enforcement spills every resident cell.
  auto budgeted = builder.SetMemoryBudget(1)
                      .SetSpillDir(FreshDir("checkpoint_spilled_spill"))
                      .Build();
  ASSERT_TRUE(budgeted.ok());
  ASSERT_TRUE(budgeted->IngestBatch(gen.GenerateStream()).ok());
  (void)budgeted->TakeSnapshot();
  ASSERT_TRUE(
      budgeted->Ingest({gen.cells()[0].key, spec.series_length, 0.125}).ok());
  ASSERT_GT(budgeted->SpillStats().spilled_cells, 0);

  const std::string dir = FreshDir("checkpoint_spilled");
  ASSERT_TRUE(budgeted->Checkpoint(dir).ok());
  // Reopen unbounded (and with a different spill dir story entirely): the
  // checkpoint owes nothing to the writer's spill segments.
  EngineBuilder unbounded;
  unbounded.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto reopened = unbounded.OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_cells(), budgeted->num_cells());

  auto want = budgeted->TakeSnapshot()->Window(0, 4);
  auto got = reopened->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(want->size(), got->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].key, (*got)[i].key);
    EXPECT_EQ((*want)[i].measure, (*got)[i].measure);
  }
}

TEST(CheckpointTest, RestoreAfterAnEmptyGatherServesEveryRestoredCell) {
  // A gather on the still-empty engine publishes an empty run per shard.
  // Restored cells never enter the dirty list, so unless the restore
  // retires those publications, the next gather patches the empty run with
  // an empty dirty list and serves zero cells.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12,
                                    /*seed=*/19);
  StreamGenerator gen(spec);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  ShardedStreamEngine writer(*schema, ChurnEngineOptions(), 2);
  ASSERT_TRUE(writer.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(writer.SealThrough(spec.series_length - 1).ok());
  const std::string dir = FreshDir("checkpoint_after_empty_gather");
  ASSERT_TRUE(writer.CheckpointTo(dir).ok());

  ShardedStreamEngine restored(*schema, ChurnEngineOptions(), 2);
  auto empty = restored.GatherAlignedCells();
  ASSERT_TRUE(empty.status.ok());
  EXPECT_TRUE(empty.cells->empty());
  ASSERT_TRUE(restored.RestoreFrom(dir).ok());
  ASSERT_EQ(restored.num_cells(), writer.num_cells());

  auto got = restored.GatherAlignedCells();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(static_cast<std::int64_t>(got.cells->size()), writer.num_cells());
  ExpectGathersIdentical(got, writer.GatherAlignedCells(), num_levels);
  auto window = restored.SnapshotWindow(0, 2);
  EXPECT_TRUE(window.ok()) << window.status().ToString();
}

// ----------------------------------------------------- concurrent spill

TEST(MemoryBudgetTest, ConcurrentChurnSnapshotsAndEnforcement) {
  // Writers churn while readers snapshot on a tightly-budgeted engine:
  // each write's enforcement spills cells the readers are viewing, and
  // the next write to a cold cell faults it back in, so spill / fault-in
  // / eviction race real reads and writes. Runs in the TSan CI job via the "concurrency" label.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/44);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();

  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(8)
      .SetReadThreads(3)
      .SetMemoryBudget(16 << 10)
      .SetSpillDir(FreshDir("mem_budget_concurrent"));
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  constexpr int kWriters = 3;
  constexpr int kRoundsPerWriter = 30;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        const TimeTick tick = spec.series_length + round;
        for (size_t c = static_cast<size_t>(w); c < cells.size();
             c += kWriters) {
          ASSERT_TRUE(engine.Ingest({cells[c].key, tick, 2.0}).ok());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.TakeSnapshot();
        auto window = snap->Window(0, 2);
        ASSERT_TRUE(window.ok()) << window.status().ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced: the budget machinery ran, and the end state still answers.
  const SpillStats spill = engine.SpillStats();
  EXPECT_GT(spill.enforcements, 0);
  auto snap = engine.TakeSnapshot();
  auto final_window = snap->Window(0, 2);
  ASSERT_TRUE(final_window.ok());
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(cells.size()));
}

TEST(MemoryBudgetTest, AsyncOwnersSpillWhileReadersSnapshot) {
  // The async enforcement point is each owner thread's post-batch hook:
  // there the spill rung takes dirty cells while a reader takes snapshots
  // from the publications without the shard mutex. Two producers write
  // disjoint cells (per-cell order is all that matters), first the seeded
  // stream, then rounds of later ticks that fault spilled cells back in.
  // Runs in the TSan CI job via the "concurrency" label.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/29);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const auto& cells = gen.cells();

  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2)
      .SetReadThreads(1)
      .SetIngestMode(IngestMode::kAsync)
      .SetQueueCapacity(16)
      .SetBackpressure(BackpressurePolicy::kBlock)
      .SetMemoryBudget(16 << 10)
      .SetSpillDir(FreshDir("mem_budget_async"));
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();

  constexpr int kProducers = 2;
  constexpr int kRounds = 12;
  auto owns = [](const CellKey& key, int p) {
    return key.Hash() % kProducers == static_cast<std::uint64_t>(p);
  };
  std::vector<StreamTuple> writes[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    for (const StreamTuple& t : stream) {
      if (owns(t.key, p)) writes[p].push_back(t);
    }
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& cell : cells) {
        if (!owns(cell.key, p)) continue;
        writes[p].push_back({cell.key, spec.series_length + round,
                             0.5 + static_cast<double>(round)});
      }
    }
  }

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = engine.TakeSnapshot();
      ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
      (void)snap->Window(0, 1);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<StreamTuple> chunk;
      for (const StreamTuple& t : writes[p]) {
        chunk.push_back(t);
        if (chunk.size() == 9) {
          ASSERT_TRUE(engine.IngestAsync(chunk).ok());
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        ASSERT_TRUE(engine.IngestAsync(chunk).ok());
      }
    });
  }
  for (std::thread& p : producers) p.join();
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(engine.Flush().ok());
  const TimeTick last = spec.series_length + kRounds - 1;
  ASSERT_TRUE(engine.SealThrough(last).ok());

  const SpillStats spill = engine.SpillStats();
  EXPECT_GT(spill.enforcements, 0);
  EXPECT_GT(spill.spill_evictions, 0);
  EXPECT_GT(spill.fault_ins, 0);

  ReferenceStream reference(*schema, ChurnEngineOptions());
  for (const auto& producer_writes : writes) {
    ASSERT_TRUE(reference.IngestBatch(producer_writes).ok());
  }
  ASSERT_TRUE(reference.SealThrough(last).ok());

  // Every sealed slot of every cell at every level, bit for bit.
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  EXPECT_EQ(snap->now(), reference.clock());
  const SnapshotCells run = reference.Run();
  ASSERT_EQ(snap->num_cells(), static_cast<std::int64_t>(run.size()));
  const CuboidId m_layer = engine.lattice().m_layer_id();
  for (const CellSnapshot& cell : run) {
    for (int level = 0; level < reference.num_levels(); ++level) {
      auto got = snap->QueryCellSeries(m_layer, cell.key, level);
      auto want = reference.CellSeries(m_layer, cell.key, level);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(*got, *want)
          << "cell " << cell.key.ToString() << " level " << level;
    }
  }
}

TEST(MemoryBudgetTest, ReadsNeverRunTheLadder) {
  // Enforcement belongs to writes and seals. Under a 1-byte budget every
  // enforcement point runs the ladder, so a read that enforced would show
  // up in the count.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12, /*seed=*/37);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const CellKey probe = gen.cells()[0].key;

  auto facade = EngineBuilder()
                    .SetSchema(*schema)
                    .SetTiltPolicy(SmallTiltPolicy())
                    .SetShardCount(2)
                    .SetMemoryBudget(1)
                    .SetSpillDir(FreshDir("reads_never_enforce_facade"))
                    .Build();
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  ASSERT_TRUE(facade->IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(facade->Ingest({probe, spec.series_length, 1.0}).ok());
  const std::int64_t facade_runs = facade->SpillStats().enforcements;
  ASSERT_GT(facade_runs, 0);
  ASSERT_TRUE(facade->TakeSnapshot()->status().ok());
  ASSERT_TRUE(facade->Query(QuerySpec::Cell(facade->lattice().m_layer_id(),
                                            probe, 0, 1))
                  .ok());
  EXPECT_EQ(facade->SpillStats().enforcements, facade_runs);

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 2);
  MemoryBudgetConfig config;
  config.budget_bytes = 1;
  config.spill_dir = FreshDir("reads_never_enforce_engine");
  ASSERT_TRUE(engine.ConfigureStorage(config).ok());
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.Ingest({probe, spec.series_length, 1.0}).ok());
  const std::int64_t engine_runs = engine.SpillStats().enforcements;
  ASSERT_GT(engine_runs, 0);
  ASSERT_TRUE(engine.GatherAlignedCells().status.ok());
  ASSERT_TRUE(engine.QueryCell(engine.lattice().m_layer_id(), probe, 0, 1)
                  .ok());
  EXPECT_EQ(engine.SpillStats().enforcements, engine_runs);
}

TEST(MemoryBudgetTest, ConcurrentCompactionAgainstLockFreeReads) {
  // Writers fault cold cells in and re-spill them, a compactor keeps
  // retiring spill segments, and readers take lock-free snapshots and
  // point reads whose cells are views into those segments — under a
  // 16 KiB budget. Runs in the TSan CI job via the "concurrency" label.
  // Writers own disjoint cells, so the final state is interleaving-free
  // and must equal an unbounded engine fed the same writes, bitwise.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/45);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(4)
      .SetReadThreads(2);
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok());
  auto built = builder.SetMemoryBudget(16 << 10)
                   .SetSpillDir(FreshDir("mem_budget_concurrent_compact"))
                   .SetCompactThreshold(0.25)
                   .SetCompactMinBytes(1)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  for (Engine* e : {&engine, &*oracle}) {
    ASSERT_TRUE(e->IngestBatch(stream).ok());
    ASSERT_TRUE(e->SealThrough(spec.series_length - 1).ok());
  }

  constexpr int kWriters = 2;
  constexpr int kRoundsPerWriter = 24;
  auto write = [&](Engine& target, int w, int round) {
    const TimeTick tick = spec.series_length + round;
    for (size_t c = static_cast<size_t>(w); c < cells.size(); c += kWriters) {
      ASSERT_TRUE(target.Ingest({cells[c].key, tick, 1.0 + w}).ok());
    }
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        write(engine, w, round);
      }
    });
  }
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.CompactSegments();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      size_t probe = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.TakeSnapshot();
        ASSERT_TRUE(snap->Window(0, 2).ok()) << snap->status().ToString();
        probe = (probe + 7) % cells.size();
        auto point = engine.Query(QuerySpec::Cell(
            engine.lattice().m_layer_id(), cells[probe].key, 0, 2));
        ASSERT_TRUE(point.ok()) << point.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  compactor.join();
  for (std::thread& r : readers) r.join();
  for (int w = 0; w < kWriters; ++w) {
    for (int round = 0; round < kRoundsPerWriter; ++round) {
      write(*oracle, w, round);
    }
  }

  EXPECT_GT(engine.SpillStats().compactions, 0);
  auto want = oracle->TakeSnapshot()->Window(0, 2);
  auto got = engine.TakeSnapshot()->Window(0, 2);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->size(), got->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].key, (*got)[i].key);
    EXPECT_EQ((*want)[i].measure, (*got)[i].measure);
  }
}

// ------------------------------------------------------ typed error paths

TEST(CheckpointTest, MissingDirectoryIsNotFound) {
  EngineBuilder builder;
  WorkloadSpec spec = ChurnWorkload(10, 8, 3);
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = builder.OpenFrom(::testing::TempDir() + "/no_such_ckpt");
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptManifestIsInvalidArgument) {
  const std::string dir = FreshDir("ckpt_corrupt_manifest");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(
      WriteFile(CheckpointManifestPath(dir), "definitely not a manifest")
          .ok());
  EngineBuilder builder;
  WorkloadSpec spec = ChurnWorkload(10, 8, 3);
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, TruncatedShardFileIsTypedError) {
  // Write a real checkpoint, then truncate a shard file: AttachCheckpoint
  // validation must catch it at OpenFrom with a typed error.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12, /*seed=*/5);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_truncated");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  const std::string victim = CheckpointShardFilePath(dir, 0);
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFile(victim, bytes->substr(0, bytes->size() / 2)).ok());

  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().code() == StatusCode::kOutOfRange ||
              opened.status().code() == StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

TEST(CheckpointTest, GarbledShardFileIsInvalidArgument) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12, /*seed=*/6);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_garbled");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  const std::string victim = CheckpointShardFilePath(dir, 1);
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok());
  std::string garbled = *bytes;
  for (size_t i = 0; i < garbled.size() && i < 64; ++i) garbled[i] ^= 0x5A;
  ASSERT_TRUE(WriteFile(victim, garbled).ok());

  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, SchemaMismatchIsInvalidArgument) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/8);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_schema_mismatch");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // 3 dims vs the checkpoint's 2.
  WorkloadSpec other = spec;
  other.num_dims = 3;
  EngineBuilder mismatched;
  mismatched.SetSchema(*MakeWorkloadSchemaPtr(other))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = mismatched.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, TiltLayoutMismatchIsInvalidArgument) {
  // Same level count, other capacities: the manifest's checks pass, the
  // records' layout fingerprint does not — OpenFrom fails typed at
  // attach, before any cell is installed or queried.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/9);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_layout_mismatch");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  EngineBuilder other;
  other.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(
          MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 4}}, {4, 16}));
  auto opened = other.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
  ASSERT_TRUE(builder.OpenFrom(dir).ok());  // its own layout still opens
}

TEST(CheckpointTest, VersionTwoDirectoryIsInvalidArgument) {
  // Format version 3 changed the record; a version-2 manifest or shard
  // file is refused with a typed error, never misread.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/10);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_version_two");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // Both files lead with magic u32 then version u32.
  const std::uint32_t two = 2;
  for (const std::string& path :
       {CheckpointManifestPath(dir), CheckpointShardFilePath(dir, 0)}) {
    auto pristine = ReadFile(path);
    ASSERT_TRUE(pristine.ok());
    std::string old = *pristine;
    std::memcpy(old.data() + 4, &two, sizeof(two));
    ASSERT_TRUE(WriteFile(path, old).ok());
    auto opened = builder.OpenFrom(dir);
    EXPECT_FALSE(opened.ok()) << path;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << path << ": " << opened.status().ToString();
    ASSERT_TRUE(WriteFile(path, *pristine).ok());
  }
  ASSERT_TRUE(builder.OpenFrom(dir).ok());
}

TEST(CheckpointTest, RestoredColdCellsRefuseTicksTheirSealCovered) {
  // A cell spilled before a seal keeps its pre-seal record; the
  // checkpoint copies that record and the manifest carries the sealed
  // watermark, so after OpenFrom the cell refuses the ticks the seal
  // covered, like the engine that wrote it — and reads fault nothing in.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/11);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const CellKey a = gen.cells()[0].key;
  const CellKey b = gen.cells()[1].key;
  EngineBuilder builder;
  builder.SetSchema(*schema).SetTiltPolicy(SmallTiltPolicy()).SetShardCount(2);
  auto built = EngineBuilder(builder)
                   .SetMemoryBudget(1)
                   .SetSpillDir(FreshDir("ckpt_restored_cold_spill"))
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ReferenceStream reference(*schema, ChurnEngineOptions());
  for (const StreamTuple& t : {StreamTuple{a, 3, 1.0}, StreamTuple{b, 3, 2.0}}) {
    ASSERT_TRUE(engine.Ingest(t).ok());
    ASSERT_TRUE(reference.Ingest(t).ok());
  }
  (void)engine.TakeSnapshot();
  ASSERT_TRUE(engine.SealThrough(10).ok());
  ASSERT_TRUE(reference.SealThrough(10).ok());
  ASSERT_EQ(engine.SpillStats().spilled_cells, 2);
  const std::string dir = FreshDir("ckpt_restored_cold");
  ASSERT_TRUE(engine.Checkpoint(dir).ok());

  auto opened = builder.OpenFrom(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto deck = opened->Query(QuerySpec::ObservationDeck(0));
  ASSERT_TRUE(deck.ok()) << deck.status().ToString();
  EXPECT_EQ(opened->SpillStats().fault_ins, 0);  // the first query views
  const StreamTuple late{b, 5, 1.0};
  EXPECT_EQ(opened->Ingest(late).code(), reference.Ingest(late).code());
  const StreamTuple fresh{b, 11, 1.0};
  EXPECT_EQ(opened->Ingest(fresh).code(), reference.Ingest(fresh).code());
  auto got = opened->TakeSnapshot()->Window(0, 2);
  auto want = SnapshotWindowOf(reference.Run(), 0, 2);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].key, (*want)[i].key);
    EXPECT_EQ((*got)[i].measure, (*want)[i].measure);
  }
}

}  // namespace
}  // namespace regcube
