// Randomized differential tests: each case derives its entire input from a
// seed (PCG32), so failures reproduce exactly. Four targets:
//   1. decoder robustness — every truncation point and random byte flips of
//      valid encodings must return Status, never crash or hang;
//   2. engine-vs-batch — streams with random gaps, duplicate ticks and
//      late-starting cells must produce the same cube as batch computation
//      (and bit for bit what the replay reference computes);
//   3. cross-algorithm — random workloads, thresholds and paths keep the
//      two algorithms' outputs in their proven relationship;
//   4. facade point queries — randomly projected kCell/kCellSeries specs
//      (valid members, zero-member keys, out-of-range cuboids/levels,
//      stale keys re-probed after churn) must match the replay
//      reference (members found by projecting every key) bit for bit,
//      errors included.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/sharded_engine.h"
#include "regcube/io/cube_io.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::MustFit;
using testing_util::RecordOf;
using testing_util::SmallWorkload;

TEST(DecoderFuzzTest, EveryTruncationPointFailsCleanly) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 20, 401);
  const std::string encoded = EncodeMLayerTuples(w.tuples);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeMLayerTuples(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(DecoderFuzzTest, RandomByteFlipsNeverCrash) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 30, 403);
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.02);
  auto cube = ComputeMoCubing(w.schema, w.tuples, mo);
  ASSERT_TRUE(cube.ok());
  const std::string encoded = EncodeRegressionCube(*cube);

  Pcg32 rng(403);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = encoded;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(static_cast<std::uint32_t>(
          corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 << rng.Uniform(8)));
    }
    // Must either decode (flip hit a measure payload double) or fail with
    // a Status — anything else (crash, UB) fails the test by construction.
    auto decoded = DecodeRegressionCube(w.schema, corrupted);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->m_layer().size(), cube->m_layer().size());
    }
  }
}

/// Reads every slot and pending unit of `frame`: under ASan, any level
/// header that let a ring index escape its block fails here.
void TouchEverySlot(const TiltTimeFrame& frame) {
  double sink = 0.0;
  for (int li = 0; li < frame.policy().num_levels(); ++li) {
    for (const MomentSums& m : frame.RawSlots(li)) sink += m.sum_z;
    (void)frame.PendingSlot(li);
  }
  EXPECT_GE(frame.RetainedSlots(), 0);
  (void)sink;
}

TEST(DecoderFuzzTest, TiltFrameRecordTruncationsAndFlips) {
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"q", 4}, {"h", 6}}, {1, 4}));
  TiltTimeFrame frame(policy, 0);
  for (TimeTick t = 0; t < 30; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  const std::string record = RecordOf(frame);
  // Every truncation is a typed error.
  for (size_t cut = 0; cut < record.size(); ++cut) {
    auto restored =
        TiltTimeFrame::FromRecord(policy, std::string_view(record).substr(0, cut));
    ASSERT_FALSE(restored.ok()) << "cut at " << cut;
    const StatusCode code = restored.status().code();
    EXPECT_TRUE(code == StatusCode::kOutOfRange ||
                code == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << restored.status().ToString();
  }
  // Random bit flips: a typed error, or a frame whose level headers
  // validated — restored by copy and viewed in place alike.
  Pcg32 rng(407);
  std::vector<std::uint64_t> aligned(record.size() / 8);
  int restored_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupted = record;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          rng.Uniform(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 << rng.Uniform(8)));
    }
    auto restored = TiltTimeFrame::FromRecord(policy, corrupted);
    std::memcpy(aligned.data(), corrupted.data(), corrupted.size());
    auto view = TiltTimeFrame::ViewRecord(
        policy,
        std::string_view(reinterpret_cast<const char*>(aligned.data()),
                         corrupted.size()),
        nullptr);
    ASSERT_EQ(restored.ok(), view.ok()) << "trial " << trial;
    if (!restored.ok()) {
      const StatusCode code = restored.status().code();
      EXPECT_TRUE(code == StatusCode::kOutOfRange ||
                  code == StatusCode::kInvalidArgument)
          << restored.status().ToString();
      continue;
    }
    ++restored_ok;
    EXPECT_EQ(RecordOf(*restored), corrupted);
    TouchEverySlot(*restored);
    TouchEverySlot(**view);
    // A restored frame stays usable for writes.
    ASSERT_TRUE(restored->AdvanceTo(restored->next_tick() + 8).ok());
  }
  // Flips in slot payloads restore; flips in headers fail. Both happen.
  EXPECT_GT(restored_ok, 0);
  EXPECT_LT(restored_ok, 2000);
}

TEST(DecoderFuzzTest, CheckpointShardFileRoundTripsRandomCells) {
  // Random cells with random frame shapes must survive the checkpoint
  // shard-file layout bitwise — the stored record, the restored frame and
  // the in-place view — and every truncation of the file must fail
  // attachment cleanly (never crash, never half-attach).
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"q", 4}, {"h", 6}}, {1, 4}));
  Pcg32 rng(409);
  std::vector<std::pair<CellKey, std::string>> cells;
  for (int i = 0; i < 20; ++i) {
    CellKey key(2);
    key.set(0, static_cast<ValueId>(rng.Uniform(64)));
    key.set(1, static_cast<ValueId>(i));  // distinct second coordinate
    TiltTimeFrame frame(policy, 0);
    const TimeTick ticks = 1 + static_cast<TimeTick>(rng.Uniform(40));
    for (TimeTick t = 0; t < ticks; ++t) {
      if (rng.Uniform(4) == 0) continue;  // gaps
      ASSERT_TRUE(frame.Add(t, rng.NextDouble() * 8.0 - 4.0).ok());
    }
    cells.emplace_back(key, RecordOf(frame));
  }
  const std::string file = EncodeCheckpointShardFile(0, cells);

  const std::string path =
      ::testing::TempDir() + "/regcube_fuzz_ckpt_shard.rcs";
  ASSERT_TRUE(WriteFile(path, file).ok());
  auto store = FrameStore::Open("", policy);
  ASSERT_TRUE(store.ok());
  auto entries = (*store)->AttachCheckpointFile(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), cells.size());
  for (size_t i = 0; i < entries->size(); ++i) {
    EXPECT_EQ((*entries)[i].key, cells[i].first);
    auto raw = (*store)->ReadRawBlock((*entries)[i].ref);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, cells[i].second);  // bitwise round trip
    auto frame = (*store)->ReadFrame((*entries)[i].ref);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(RecordOf(*frame), cells[i].second);
    auto view = (*store)->ViewFrame((*entries)[i].ref);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE((*view)->is_view());
    EXPECT_EQ(RecordOf(**view), cells[i].second);
  }

  for (size_t cut = 0; cut < file.size(); cut += 7) {
    ASSERT_TRUE(WriteFile(path, file.substr(0, cut)).ok());
    auto broken = FrameStore::Open("", policy);
    ASSERT_TRUE(broken.ok());
    EXPECT_FALSE((*broken)->AttachCheckpointFile(path).ok())
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTornWriteFuzzTest, EveryTruncationRestoresOrFailsTyped) {
  // A torn checkpoint write (power cut mid-write: an arbitrary prefix of
  // one file survives) must never crash OpenFrom and never half-restore:
  // every truncation of the manifest or of any shard segment either opens
  // bit-identically to the pristine checkpoint (the tear missed the
  // commit point) or fails with a typed error from the contract set.
  WorkloadSpec spec = equivalence::ChurnWorkload(/*tuples=*/60,
                                                 /*ticks=*/16, /*seed=*/77);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(equivalence::SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const std::string dir = ::testing::TempDir() + "/fuzz_torn_ckpt";
  ASSERT_TRUE(engine.Checkpoint(dir).ok());
  auto want = engine.TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok());

  // The checkpoint's file set: the manifest plus every shard segment the
  // writer produced.
  std::vector<std::string> paths = {CheckpointManifestPath(dir)};
  for (int i = 0; i < 2; ++i) {
    paths.push_back(CheckpointShardFilePath(dir, i));
  }
  for (const std::string& path : paths) {
    auto pristine = ReadFile(path);
    ASSERT_TRUE(pristine.ok()) << path;
    ASSERT_FALSE(pristine->empty());
    const size_t step = std::max<size_t>(1, pristine->size() / 48);
    for (size_t cut = 0; cut < pristine->size(); cut += step) {
      ASSERT_TRUE(WriteFile(path, pristine->substr(0, cut)).ok());
      auto opened = builder.OpenFrom(dir);
      if (opened.ok()) {
        // The tear was survivable: the restore must be complete and
        // bit-identical, never a silent partial state.
        EXPECT_EQ(opened->num_cells(), engine.num_cells())
            << path << " cut at " << cut;
        auto got = opened->TakeSnapshot()->Window(0, 4);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->size(), want->size());
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_EQ((*got)[i].key, (*want)[i].key);
          EXPECT_EQ((*got)[i].measure, (*want)[i].measure);
        }
      } else {
        const StatusCode code = opened.status().code();
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kOutOfRange ||
                    code == StatusCode::kNotFound ||
                    code == StatusCode::kFailedPrecondition)
            << path << " cut at " << cut << ": "
            << opened.status().ToString();
      }
    }
    // Restore the pristine file; the checkpoint must open again.
    ASSERT_TRUE(WriteFile(path, *pristine).ok());
    ASSERT_TRUE(builder.OpenFrom(dir).ok()) << path;
  }
}

struct EngineFuzzCase {
  int seed;
};

class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, GappyStreamsMatchBatchComputation) {
  // Random stream: each cell gets a random subset of ticks (gaps = zeros),
  // random duplicate observations at a tick, cells starting late. The
  // engine's window must equal a directly-constructed batch of the same
  // effective (zero-filled, summed) series.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const int num_cells = 4 + static_cast<int>(rng.Uniform(8));
  const TimeTick total = 32;

  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create(
      {Dimension("A", h), Dimension("B", h)}, {2, 2}, {1, 1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"q", 8}, {"h", 4}}, {4, 16});
  options.policy = ExceptionPolicy(0.01);
  ShardedStreamEngine engine(schema, options, /*num_shards=*/1);
  ReferenceStream replay(schema, options);
  equivalence::PairedStream paired{engine, replay};

  // Effective dense series per cell (what the engine semantics define).
  std::unordered_map<CellKey, std::vector<double>, CellKeyHash> dense;
  std::vector<CellKey> keys;
  for (int c = 0; c < num_cells; ++c) {
    CellKey key(2);
    key.set(0, rng.Uniform(9));
    key.set(1, rng.Uniform(9));
    if (dense.count(key)) continue;
    dense.emplace(key, std::vector<double>(total, 0.0));
    keys.push_back(key);
  }

  for (TimeTick t = 0; t < total; ++t) {
    for (const CellKey& key : keys) {
      // 70% chance of 1 observation, 15% of 2, 15% of none.
      const double dice = rng.NextDouble();
      const int obs = dice < 0.15 ? 0 : (dice < 0.30 ? 2 : 1);
      for (int i = 0; i < obs; ++i) {
        const double v = rng.NextDouble() * 4.0 - 1.0;
        dense[key][static_cast<size_t>(t)] += v;
        ASSERT_TRUE(paired.Ingest({key, t, v}).ok());
      }
    }
  }
  ASSERT_TRUE(paired.SealThrough(total - 1).ok());

  // Batch reference from the dense series.
  std::vector<MLayerTuple> reference;
  for (const CellKey& key : keys) {
    reference.push_back(
        MLayerTuple{key, MustFit(TimeSeries(0, dense[key]))});
  }

  auto window = engine.SnapshotWindow(/*level=*/0, /*k=*/8);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), reference.size());
  CellMap expected;
  for (const auto& t : reference) expected.emplace(t.key, t.measure);
  for (const auto& t : *window) {
    auto it = expected.find(t.key);
    ASSERT_NE(it, expected.end());
    ExpectIsbNear(it->second, t.measure, 1e-8);
  }
  auto replayed = SnapshotWindowOf(replay.Run(), 0, 8);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), window->size());
  for (size_t i = 0; i < window->size(); ++i) {
    EXPECT_EQ((*replayed)[i].key, (*window)[i].key);
    EXPECT_EQ((*replayed)[i].measure, (*window)[i].measure);
  }

  // And the cube over that window matches the batch cube.
  auto engine_cube = engine.ComputeCube(0, 8);
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.01);
  auto batch_cube = ComputeMoCubing(schema, reference, mo);
  ASSERT_TRUE(engine_cube.ok());
  ASSERT_TRUE(batch_cube.ok());
  ExpectCellMapsEqual(batch_cube->o_layer(), engine_cube->o_layer(), 1e-8);
  equivalence::ExpectCubesIdentical(equivalence::ScratchCube(replay, 0, 8),
                                    *engine_cube);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Range(0, 12));

class AlgorithmFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmFuzzTest, RandomWorkloadsKeepInvariants) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  const int dims = 1 + static_cast<int>(rng.Uniform(3));
  const int levels = 2 + static_cast<int>(rng.Uniform(2));
  const int fanout = 2 + static_cast<int>(rng.Uniform(3));
  // Clamp the tuple count to the m-layer key space (tiny for D1/fanout 2).
  double space = 1.0;
  for (int d = 0; d < dims; ++d) {
    space *= std::pow(static_cast<double>(fanout), levels);
  }
  const int tuples = std::min(20 + static_cast<int>(rng.Uniform(120)),
                              static_cast<int>(space));
  const double threshold = rng.NextDouble() * 0.1;
  SmallWorkload w = MakeSmallWorkload(
      dims, levels, fanout, tuples,
      static_cast<std::uint64_t>(GetParam()) + 9500);

  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(threshold);
  auto cube1 = ComputeMoCubing(w.schema, w.tuples, mo);
  ASSERT_TRUE(cube1.ok());

  // Random drill path.
  CuboidLattice lattice(*w.schema);
  std::vector<int> order(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) order[static_cast<size_t>(d)] = d;
  for (int d = dims - 1; d > 0; --d) {
    std::swap(order[static_cast<size_t>(d)],
              order[rng.Uniform(static_cast<std::uint32_t>(d + 1))]);
  }
  auto path = DrillPath::MakeDimOrderPath(lattice, order);
  ASSERT_TRUE(path.ok());

  PopularPathOptions pp;
  pp.policy = ExceptionPolicy(threshold);
  pp.path = *path;
  auto cube2 = ComputePopularPathCubing(w.schema, w.tuples, pp);
  ASSERT_TRUE(cube2.ok());

  // Invariants: identical critical layers; Algorithm 2's exceptions are a
  // measure-identical subset of Algorithm 1's.
  ExpectCellMapsEqual(cube1->o_layer(), cube2->o_layer(), 1e-8);
  ExpectCellMapsEqual(cube1->m_layer(), cube2->m_layer(), 1e-8);
  EXPECT_LE(cube2->exceptions().total_cells(),
            cube1->exceptions().total_cells());
  for (CuboidId c : cube2->exceptions().Cuboids()) {
    const CellMap* sub = cube2->exceptions().CellsOf(c);
    const CellMap* super = cube1->exceptions().CellsOf(c);
    ASSERT_NE(super, nullptr);
    for (const auto& [key, isb] : *sub) {
      auto it = super->find(key);
      ASSERT_NE(it, super->end());
      ExpectIsbNear(it->second, isb, 1e-8);
    }
  }

  // Serialization survives a round trip for both cubes.
  for (const RegressionCube* cube : {&*cube1, &*cube2}) {
    auto decoded =
        DecodeRegressionCube(w.schema, EncodeRegressionCube(*cube));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->exceptions().total_cells(),
              cube->exceptions().total_cells());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmFuzzTest, ::testing::Range(0, 20));

// --------------------------------------------------- facade point queries

class FacadePointQueryFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FacadePointQueryFuzzTest, IndexedQueriesMatchReference) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 11000);
  const int fanout = 3 + static_cast<int>(rng.Uniform(2));
  // Clamp to the m-layer key space ((fanout^2)^2 for 2 dims, 2 levels),
  // leaving room for the fresh-cell churn below.
  const auto space = static_cast<std::int64_t>(fanout) * fanout * fanout *
                     fanout;
  const std::int64_t tuples = std::min(
      30 + static_cast<std::int64_t>(rng.Uniform(70)), space - 5);
  const int shards = std::array<int, 3>{1, 2, 8}[GetParam() % 3];
  WorkloadSpec spec = equivalence::ChurnWorkload(
      tuples, /*ticks=*/16, static_cast<std::uint64_t>(GetParam()) + 11500,
      fanout);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  // The facade engine under test and the replay reference, fed the
  // identical stream — reads are a function of the stream, so agreeing
  // answers must agree bit for bit, not merely numerically.
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(equivalence::SmallTiltPolicy())
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(shards)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine facade = std::move(built).value();
  ReferenceStream reference(*schema, equivalence::ChurnEngineOptions());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  ASSERT_TRUE(facade.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(facade.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = reference.lattice();
  const int num_cuboids = static_cast<int>(lattice.num_cuboids());
  const int num_levels =
      equivalence::ChurnEngineOptions().tilt_policy->num_levels();
  const int value_space = fanout * fanout;  // per-dim m-layer cardinality

  // Random probes, regenerated per round so keys probed before churn are
  // re-probed after it (a maintained index must never serve stale frames
  // or stale member sets).
  auto probe = [&](int trials) {
    for (int t = 0; t < trials; ++t) {
      // Out-of-range cuboids on both ends; projection only for valid ids.
      const CuboidId cuboid =
          static_cast<CuboidId>(rng.Uniform(
              static_cast<std::uint32_t>(num_cuboids + 2))) -
          1;
      CellKey key(2);
      if (cuboid >= 0 && cuboid < num_cuboids && rng.NextDouble() < 0.6) {
        // A real member's projection.
        const auto& cell = gen.cells()[static_cast<size_t>(
            rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
        key = lattice.ProjectMLayerKey(cell.key, cuboid);
      } else {
        // Random values: often zero members, sometimes whole-space misses.
        key.set(0, rng.Uniform(static_cast<std::uint32_t>(value_space)));
        key.set(1, rng.Uniform(static_cast<std::uint32_t>(value_space)));
      }
      const int level = static_cast<int>(rng.Uniform(
          static_cast<std::uint32_t>(num_levels + 1)));  // may be invalid
      const int k = 1 + static_cast<int>(rng.Uniform(3));

      auto facade_cell = facade.Query(QuerySpec::Cell(cuboid, key, level, k));
      auto oracle_cell = reference.Cell(cuboid, key, level, k);
      ASSERT_EQ(facade_cell.ok(), oracle_cell.ok())
          << "cuboid " << cuboid << " key " << key.ToString() << " level "
          << level << ": " << facade_cell.status().ToString() << " vs "
          << oracle_cell.status().ToString();
      if (facade_cell.ok()) {
        EXPECT_EQ(facade_cell->cell(), *oracle_cell) << key.ToString();
      } else {
        EXPECT_EQ(facade_cell.status().code(), oracle_cell.status().code());
      }

      auto facade_series =
          facade.Query(QuerySpec::CellSeries(cuboid, key, level));
      auto oracle_series = reference.CellSeries(cuboid, key, level);
      ASSERT_EQ(facade_series.ok(), oracle_series.ok())
          << "cuboid " << cuboid << " key " << key.ToString();
      if (facade_series.ok()) {
        EXPECT_EQ(facade_series->series(), *oracle_series);
      } else {
        EXPECT_EQ(facade_series.status().code(),
                  oracle_series.status().code());
      }
    }
  };

  probe(20);

  // Churn engine and reference identically (late + advancing data, a brand-new
  // cell, a seal that rolls the epoch), then re-probe: previously indexed
  // keys are now stale and must refresh through the same dirty
  // bookkeeping every gather uses.
  for (int round = 0; round < 3; ++round) {
    const TimeTick tick = spec.series_length + round;
    for (int j = 0; j < 20; ++j) {
      const auto& cell = gen.cells()[static_cast<size_t>(
          rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
      const StreamTuple tuple{cell.key, tick, 1.0 + j};
      ASSERT_TRUE(facade.Ingest(tuple).ok());
      ASSERT_TRUE(reference.Ingest(tuple).ok());
    }
    if (round == 1) {
      const StreamTuple fresh{equivalence::FreshKeyOutside(gen, value_space),
                              tick, 3.0};
      ASSERT_TRUE(facade.Ingest(fresh).ok());
      ASSERT_TRUE(reference.Ingest(fresh).ok());
    }
    if (round == 2) {
      ASSERT_TRUE(facade.SealThrough(tick).ok());
      ASSERT_TRUE(reference.SealThrough(tick).ok());
    }
    probe(10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacadePointQueryFuzzTest,
                         ::testing::Range(0, 9));

}  // namespace
}  // namespace regcube
