#ifndef REGCUBE_TESTS_EQUIVALENCE_HARNESS_H_
#define REGCUBE_TESTS_EQUIVALENCE_HARNESS_H_

// The shared randomized equivalence harness. Every suite that claims
// "maintained structure X answers exactly what the stream defines" (delta
// gathers, the incremental cube memo, the member index, async ingest,
// spill, shard-count invariance) drives the same seeded churn through
// these helpers into the engine and into the one oracle,
// ReferenceStream (tests/reference_stream.h): a from-scratch replay into
// one tilt frame per cell, which shares nothing with the engine but
// TiltTimeFrame and the pure kernels of core/snapshot_reads — no shard,
// publication, dirty list, frozen block or member index. A new maintained
// structure gets the oracle treatment by adding one check callback.
//
// Everything here asserts *bitwise* equality: the structures under test
// are caching/indexing strategies, not numerics changes, so no tolerance
// is ever the right tolerance.

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/common/pcg_random.h"
#include "regcube/core/sharded_engine.h"
#include "regcube/core/snapshot_reads.h"
#include "regcube/gen/stream_generator.h"
#include "reference_stream.h"

namespace regcube {
namespace equivalence {

/// The tilt policy every churn suite shares: quarter = 4 ticks (8 slots),
/// hour = 16 ticks (8 slots).
inline std::shared_ptr<const TiltPolicy> SmallTiltPolicy() {
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

/// A 2-dim, 2-level workload sized for churn suites. `ticks` is the seeded
/// series length; the churn rounds write at or after it.
inline WorkloadSpec ChurnWorkload(std::int64_t tuples, std::int64_t ticks,
                                  std::uint64_t seed, int fanout = 4) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = fanout;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = seed;
  return spec;
}

/// Engine options matching SmallTiltPolicy, m/o cubing, a low exception
/// threshold (so the exception store participates in the comparisons).
inline StreamCubeEngine::Options ChurnEngineOptions(double threshold = 0.02) {
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallTiltPolicy();
  options.policy = ExceptionPolicy(threshold);
  return options;
}

/// A 3-dim, 3-level workload with a wide fanout: per-dimension m-layer
/// cardinality fanout^3 (512 at the default fanout) and a 4^3-spec deep
/// lattice. This is the packed-key stress shape — wide codec fields, many
/// cuboids, long chains — where the packed kernels and the CellKey oracle
/// must stay bit-identical under churn.
inline WorkloadSpec DeepChurnWorkload(std::int64_t tuples, std::int64_t ticks,
                                      std::uint64_t seed, int fanout = 8) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 3;
  spec.fanout = fanout;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = seed;
  return spec;
}

/// An n-dim key literal, values in dimension order.
inline CellKey KeyN(const std::vector<ValueId>& values) {
  CellKey key(static_cast<int>(values.size()));
  for (size_t d = 0; d < values.size(); ++d) {
    key.set(static_cast<int>(d), values[d]);
  }
  return key;
}

/// A 2-dim key literal.
inline CellKey Key2(ValueId a, ValueId b) {
  CellKey key(2);
  key.set(0, a);
  key.set(1, b);
  return key;
}

/// A key no generated cell occupies (ingesting it is a genuine structural
/// change). Prefers the diagonal below `fanout_values - 1`, then falls
/// back to any free pair — always skipping the top corner, which tests use
/// as the (15, 15)-style pacer key.
inline CellKey FreshKeyOutside(StreamGenerator& gen, int fanout_values) {
  std::unordered_set<CellKey, CellKeyHash> used;
  for (const auto& cell : gen.cells()) used.insert(cell.key);
  for (int v = fanout_values - 2; v >= 0; --v) {
    const CellKey candidate = Key2(static_cast<ValueId>(v),
                                   static_cast<ValueId>(v));
    if (used.find(candidate) == used.end()) return candidate;
  }
  for (int a = fanout_values - 1; a >= 0; --a) {
    for (int b = fanout_values - 2; b >= 0; --b) {
      const CellKey candidate = Key2(static_cast<ValueId>(a),
                                     static_cast<ValueId>(b));
      if (used.find(candidate) == used.end()) return candidate;
    }
  }
  ADD_FAILURE() << "no free key in the space";
  return CellKey(2);
}

/// FreshKeyOutside for any dimensionality: a diagonal m-layer key (below
/// the top corner reserved for pacer cells) that no generated cell uses.
inline CellKey FreshKeyOutsideDims(StreamGenerator& gen, int num_dims,
                                   int fanout_values) {
  std::unordered_set<CellKey, CellKeyHash> used;
  for (const auto& cell : gen.cells()) used.insert(cell.key);
  for (int v = fanout_values - 2; v >= 0; --v) {
    std::vector<ValueId> values(static_cast<size_t>(num_dims),
                                static_cast<ValueId>(v));
    const CellKey candidate = KeyN(values);
    if (used.find(candidate) == used.end()) return candidate;
  }
  ADD_FAILURE() << "every diagonal key is used";
  return CellKey(num_dims);
}

/// An m-layer key within the generated value range that no stream cell
/// uses — the "valid ids, absent combination" probe of the NotFound /
/// zero-members contracts.
inline CellKey UnusedMLayerKey(StreamGenerator& gen) {
  std::unordered_set<CellKey, CellKeyHash> used;
  ValueId max0 = 0, max1 = 0;
  for (const auto& cell : gen.cells()) {
    used.insert(cell.key);
    max0 = std::max(max0, cell.key[0]);
    max1 = std::max(max1, cell.key[1]);
  }
  for (ValueId a = 0; a <= max0; ++a) {
    for (ValueId b = 0; b <= max1; ++b) {
      const CellKey candidate = Key2(a, b);
      if (used.find(candidate) == used.end()) return candidate;
    }
  }
  ADD_FAILURE() << "every key in range is used";
  return CellKey(2);
}

// --------------------------------------------------------------- comparators

inline void ExpectMomentsIdentical(const MomentSums& a, const MomentSums& b) {
  EXPECT_EQ(a.interval, b.interval);
  EXPECT_EQ(a.sum_z, b.sum_z);
  EXPECT_EQ(a.sum_tz, b.sum_tz);
}

/// Bitwise equality of two frozen cell runs: same cells in the same
/// canonical order, every sealed slot of every level identical.
inline void ExpectCellRunsIdentical(const SnapshotCells& a,
                                    const SnapshotCells& b, int num_levels) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << "row " << i;
    for (int level = 0; level < num_levels; ++level) {
      const TiltTimeFrame::SlotView a_slots = a[i].frame->RawSlots(level);
      const TiltTimeFrame::SlotView b_slots = b[i].frame->RawSlots(level);
      ASSERT_EQ(a_slots.size(), b_slots.size())
          << "cell " << a[i].key.ToString() << " level " << level;
      for (size_t s = 0; s < a_slots.size(); ++s) {
        ExpectMomentsIdentical(a_slots[s], b_slots[s]);
      }
    }
  }
}

/// Bitwise equality of two engines' gathers (e.g. a restored engine and
/// the one that wrote the checkpoint).
inline void ExpectGathersIdentical(
    const ShardedStreamEngine::GatheredCells& actual,
    const ShardedStreamEngine::GatheredCells& expected, int num_levels) {
  EXPECT_EQ(actual.clock, expected.clock);
  ExpectCellRunsIdentical(*actual.cells, *expected.cells, num_levels);
}

/// Bitwise equality of an engine gather with the reference's run: same
/// clock, same cells in canonical order, every sealed slot identical.
inline void ExpectGatherMatchesReference(
    const ShardedStreamEngine::GatheredCells& gathered,
    const ReferenceStream& reference) {
  ASSERT_TRUE(gathered.status.ok()) << gathered.status.ToString();
  EXPECT_EQ(gathered.clock, reference.clock());
  ExpectCellRunsIdentical(*gathered.cells, reference.Run(),
                          reference.num_levels());
}

/// Bitwise equality of a member-only gather with the members the
/// reference finds by projecting every key of `run` (its Run()).
inline void ExpectMemberGatherMatchesReference(
    const ShardedStreamEngine::MemberGather& gathered,
    const ReferenceStream& reference, const SnapshotCells& run,
    CuboidId cuboid, const CellKey& key) {
  ASSERT_TRUE(gathered.status.ok()) << gathered.status.ToString();
  EXPECT_EQ(gathered.clock, reference.clock());
  EXPECT_EQ(gathered.total_cells, static_cast<std::int64_t>(run.size()));
  ExpectCellRunsIdentical(gathered.cells,
                          reference.Members(run, cuboid, key),
                          reference.num_levels());
}

inline void ExpectCellMapsIdentical(const CellMap& expected,
                                    const CellMap& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [key, isb] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "missing cell " << key.ToString();
    EXPECT_EQ(isb, it->second) << "cell " << key.ToString();
  }
}

/// Bitwise equality of two cubes' retained state: both critical layers and
/// the exception set (stats are run metadata, not cube content).
inline void ExpectCubesIdentical(const RegressionCube& expected,
                                 const RegressionCube& actual) {
  ExpectCellMapsIdentical(expected.m_layer(), actual.m_layer());
  ExpectCellMapsIdentical(expected.o_layer(), actual.o_layer());
  const auto cuboids = expected.exceptions().Cuboids();
  ASSERT_EQ(cuboids, actual.exceptions().Cuboids());
  EXPECT_EQ(expected.exceptions().total_cells(),
            actual.exceptions().total_cells());
  for (CuboidId c : cuboids) {
    const CellMap* want = expected.exceptions().CellsOf(c);
    const CellMap* got = actual.exceptions().CellsOf(c);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    ExpectCellMapsIdentical(*want, *got);
  }
}

// ------------------------------------------------------------------- oracles

/// The from-scratch oracle: cubing over the reference's window — the exact
/// computation the cube memo replaces, over frames no engine cache
/// touched.
inline RegressionCube ScratchCube(const ReferenceStream& reference,
                                  int level, int k) {
  auto cube = reference.Cube(level, k);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return std::move(cube).value();
}

/// Feeds a sync engine and its reference the same writes. Every verdict
/// must agree: a tuple the engine refuses as late, the reference refuses
/// too.
struct PairedStream {
  ShardedStreamEngine& engine;
  ReferenceStream& reference;

  Status Ingest(const StreamTuple& tuple) {
    Status status = engine.Ingest(tuple);
    EXPECT_EQ(reference.Ingest(tuple).code(), status.code())
        << "tick " << tuple.tick << " of " << tuple.key.ToString();
    return status;
  }

  IngestReport IngestBatch(const std::vector<StreamTuple>& tuples) {
    IngestReport report = engine.IngestBatch(tuples);
    EXPECT_EQ(reference.IngestBatch(tuples).ok(), report.ok());
    return report;
  }

  Status SealThrough(TimeTick t) {
    EXPECT_TRUE(reference.SealThrough(t).ok());
    return engine.SealThrough(t);
  }
};

// -------------------------------------------------------------- churn driver

/// One seeded randomized churn shape. Every round ingests a random 1..
/// max_dirty_per_round cells at the round's tick; the optional extras mix
/// in the other maintenance verdicts (open-slot writes that only
/// revalidate, a brand-new cell that forces structural rebuilds, seals
/// that roll window epochs).
struct ChurnPlan {
  int rounds = 10;
  std::uint64_t seed = 91;
  std::uint32_t max_dirty_per_round = 40;

  /// Tick the round's churn writes land on; with advance_ticks each round
  /// moves one tick later (crossing tilt-unit boundaries as it goes).
  TimeTick base_tick = 7;
  bool advance_ticks = false;

  /// Every `seal_every`-th round ends with SealThrough(tick) (0 = never).
  int seal_every = 0;

  /// Every `open_every`-th round writes `open_key` at `open_tick` (a cell
  /// ahead of the pack, so the write stays in the open unit; 0 = never).
  int open_every = 0;
  CellKey open_key;
  TimeTick open_tick = 11;

  /// Round on which `fresh_key` (a cell the workload never created) is
  /// ingested — the structural-change probe (-1 = never).
  int fresh_round = -1;
  CellKey fresh_key;
};

/// Runs the plan against `sink` — an engine, a ReferenceStream, or a
/// PairedStream feeding both — invoking `check(round)` after each round's
/// writes. The workload is a pure function of the plan's seed, so every
/// sink driven with the same plan sees the identical churn.
template <typename Sink>
void RunChurnRounds(Sink& sink,
                    const std::vector<StreamGenerator::CellParams>& cells,
                    const ChurnPlan& plan,
                    const std::function<void(int round)>& check) {
  Pcg32 rng(plan.seed, 7);
  for (int round = 0; round < plan.rounds; ++round) {
    const TimeTick tick =
        plan.base_tick + (plan.advance_ticks ? round : 0);
    const std::uint32_t dirty = 1 + rng.Uniform(plan.max_dirty_per_round);
    for (std::uint32_t j = 0; j < dirty; ++j) {
      const auto& cell = cells[static_cast<size_t>(
          rng.Uniform(static_cast<std::uint32_t>(cells.size())))];
      ASSERT_TRUE(
          sink.Ingest({cell.key, tick, 0.25 * static_cast<double>(j + 1)})
              .ok());
    }
    if (plan.open_every > 0 && round % plan.open_every == 1) {
      ASSERT_TRUE(sink.Ingest({plan.open_key, plan.open_tick, 0.5}).ok());
    }
    if (round == plan.fresh_round) {
      ASSERT_TRUE(sink.Ingest({plan.fresh_key, tick, 3.0}).ok());
    }
    if (plan.seal_every > 0 &&
        round % plan.seal_every == plan.seal_every - 1) {
      ASSERT_TRUE(sink.SealThrough(tick).ok());
    }
    check(round);
  }
}

}  // namespace equivalence
}  // namespace regcube

#endif  // REGCUBE_TESTS_EQUIVALENCE_HARNESS_H_
