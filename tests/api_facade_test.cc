// Facade contract tests: EngineBuilder validation, and every QuerySpec
// kind answering bit for bit what the replay reference
// (tests/reference_stream.h) computes from the same stream — its kernels
// for stream kinds, CubeView over its from-scratch cube for cube kinds.

#include "regcube/api/regcube.h"

#include <memory>

#include "gtest/gtest.h"
#include "reference_stream.h"

namespace regcube {
namespace {

std::shared_ptr<const TiltPolicy> SmallPolicy() {
  // quarter = 4 ticks, hour = 16 ticks.
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

WorkloadSpec FacadeSpec(std::int64_t tuples = 50, std::int64_t ticks = 32) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = 11;
  return spec;
}

/// Facade engine and replay reference fed the same sealed stream.
struct Paired {
  Engine facade;
  ReferenceStream reference;
};

Paired MakePaired(const WorkloadSpec& spec, double threshold = 0.02) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  auto policy = SmallPolicy();

  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(policy)
                   .SetExceptionPolicy(ExceptionPolicy(threshold))
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();

  StreamCubeEngine::Options options;
  options.tilt_policy = policy;
  options.policy = ExceptionPolicy(threshold);
  Paired pair{std::move(built).value(), ReferenceStream(*schema, options)};

  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  EXPECT_TRUE(pair.facade.IngestBatch(stream).ok());
  EXPECT_TRUE(pair.reference.IngestBatch(stream).ok());
  EXPECT_TRUE(pair.facade.SealThrough(spec.series_length - 1).ok());
  EXPECT_TRUE(pair.reference.SealThrough(spec.series_length - 1).ok());
  return pair;
}

// ---------------------------------------------------------------- builder

TEST(EngineBuilderTest, RequiresSchema) {
  auto result = EngineBuilder().SetTiltPolicy(SmallPolicy()).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RequiresTiltPolicy) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto result = EngineBuilder().SetSchema(*schema).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsBadShardCount) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  for (int shards : {0, -3, 100'000}) {
    auto result = EngineBuilder()
                      .SetSchema(*schema)
                      .SetTiltPolicy(SmallPolicy())
                      .SetShardCount(shards)
                      .Build();
    ASSERT_FALSE(result.ok()) << "shards=" << shards;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineBuilderTest, DrillPathRequiresPopularPath) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  CuboidLattice lattice(**schema);
  DrillPath path = DrillPath::MakeDefault(lattice);

  auto mo = EngineBuilder()
                .SetSchema(*schema)
                .SetTiltPolicy(SmallPolicy())
                .SetDrillPath(path)
                .Build();
  ASSERT_FALSE(mo.ok());
  EXPECT_EQ(mo.status().code(), StatusCode::kInvalidArgument);

  auto pp = EngineBuilder()
                .SetSchema(*schema)
                .SetTiltPolicy(SmallPolicy())
                .SetAlgorithm(Engine::Algorithm::kPopularPath)
                .SetDrillPath(path)
                .Build();
  EXPECT_TRUE(pp.ok()) << pp.status().ToString();
}

TEST(EngineBuilderTest, RejectsInvalidDrillPath) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  CuboidLattice lattice(**schema);
  DrillPath broken = DrillPath::MakeDefault(lattice);
  broken.steps.pop_back();  // no longer ends at the m-layer
  auto result = EngineBuilder()
                    .SetSchema(*schema)
                    .SetTiltPolicy(SmallPolicy())
                    .SetAlgorithm(Engine::Algorithm::kPopularPath)
                    .SetDrillPath(broken)
                    .Build();
  ASSERT_FALSE(result.ok());
}

TEST(EngineBuilderTest, BuildIsRepeatable) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  EngineBuilder builder;
  builder.SetSchema(*schema).SetTiltPolicy(SmallPolicy()).SetShardCount(2);
  auto first = builder.Build();
  auto second = builder.Build();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->num_shards(), 2);
  EXPECT_EQ(second->num_shards(), 2);
}

// ---------------------------------------------------------- stream kinds

TEST(ApiFacadeTest, CellMatchesReference) {
  Paired pair = MakePaired(FacadeSpec());
  const CuboidLattice& lattice = pair.reference.lattice();
  StreamGenerator gen(FacadeSpec());
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());

  auto expected = pair.reference.Cell(lattice.o_layer_id(), o_key, 0, 8);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto facade =
      pair.facade.Query(QuerySpec::Cell(lattice.o_layer_id(), o_key, 0, 8));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_EQ(facade->kind(), QueryKind::kCell);
  EXPECT_EQ(*expected, facade->cell());

  // Unknown cell surfaces NotFound through the facade too.
  CellKey bogus(2);
  bogus.set(0, 9);
  bogus.set(1, 9);
  EXPECT_EQ(pair.facade.Query(QuerySpec::Cell(lattice.o_layer_id(), bogus, 0, 8))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ApiFacadeTest, CellRejectsOutOfRangeCuboidWithTypedError) {
  // The error contract, not an RC_CHECK abort: a cuboid id outside the
  // lattice surfaces InvalidArgument through every point-query door — the
  // facade and the sharded engine behind it — exactly as the reference's
  // kernels define it.
  Paired pair = MakePaired(FacadeSpec());
  const CuboidId past_end = pair.reference.lattice().num_cuboids();
  const CellKey key(2);

  for (CuboidId bad : {past_end, CuboidId{-1}}) {
    EXPECT_EQ(pair.facade.Query(QuerySpec::Cell(bad, key, 0, 8))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
    EXPECT_EQ(pair.facade.Query(QuerySpec::CellSeries(bad, key, 0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
    EXPECT_EQ(pair.reference.Cell(bad, key, 0, 8).status().code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
    EXPECT_EQ(pair.reference.CellSeries(bad, key, 0).status().code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
  }

  // A held snapshot keeps the same contract.
  auto snap = pair.facade.TakeSnapshot();
  EXPECT_EQ(snap->Query(QuerySpec::Cell(past_end, key, 0, 8)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiFacadeTest, CellSeriesMatchesReference) {
  Paired pair = MakePaired(FacadeSpec());
  const CuboidLattice& lattice = pair.reference.lattice();
  StreamGenerator gen(FacadeSpec());
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());

  auto expected = pair.reference.CellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto facade = pair.facade.Query(
      QuerySpec::CellSeries(lattice.o_layer_id(), o_key, 1));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_EQ(*expected, facade->series());
}

TEST(ApiFacadeTest, ObservationDeckMatchesReference) {
  Paired pair = MakePaired(FacadeSpec());
  auto expected = pair.reference.Deck(1);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto facade = pair.facade.Query(QuerySpec::ObservationDeck(1));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  ASSERT_EQ(facade->deck().size(), expected->size());
  for (const auto& [key, series] : *expected) {
    auto it = facade->deck().find(key);
    ASSERT_NE(it, facade->deck().end()) << key.ToString();
    EXPECT_EQ(series, it->second) << key.ToString();
  }
}

TEST(ApiFacadeTest, TrendChangesMatchReference) {
  Paired pair = MakePaired(FacadeSpec());
  auto expected = pair.reference.TrendChanges(0, 0.05);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto facade = pair.facade.Query(QuerySpec::TrendChanges(0, 0.05));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  // Same changes in the same order (ties break by canonical key).
  ASSERT_EQ(facade->trend_changes().size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    const auto& want = (*expected)[i];
    const auto& got = facade->trend_changes()[i];
    EXPECT_EQ(want.key, got.key) << "at " << i;
    EXPECT_EQ(want.previous, got.previous) << "at " << i;
    EXPECT_EQ(want.current, got.current) << "at " << i;
    EXPECT_EQ(want.slope_delta, got.slope_delta) << "at " << i;
  }
}

// ------------------------------------------------------------ cube kinds

TEST(ApiFacadeTest, CubeKindsMatchCubeView) {
  Paired pair = MakePaired(FacadeSpec());
  auto cube = pair.reference.Cube(0, 8);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExceptionPolicy policy(0.02);
  CubeView view(*cube, policy);
  const CuboidLattice& lattice = pair.reference.lattice();

  // kTopExceptions.
  auto top = pair.facade.Query(QuerySpec::TopExceptions(5, 0, 8));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  auto expected_top = view.TopExceptions(5);
  ASSERT_EQ(top->cells().size(), expected_top.size());
  for (size_t i = 0; i < expected_top.size(); ++i) {
    EXPECT_EQ(top->cells()[i].cuboid, expected_top[i].cuboid);
    EXPECT_EQ(expected_top[i].key, top->cells()[i].key);
    EXPECT_EQ(expected_top[i].isb, top->cells()[i].isb);
  }

  // kCubeCell for a retained cell.
  ASSERT_FALSE(cube->o_layer().empty());
  const auto& [o_key, o_isb] = *cube->o_layer().begin();
  auto got = pair.facade.Query(
      QuerySpec::CubeCell(lattice.o_layer_id(), o_key, 0, 8));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(o_isb, got->cell());

  // kExceptionsAt / kDrillDown / kSupporters agree per exception root.
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    auto exceptions = pair.facade.Query(QuerySpec::ExceptionsAt(c, 0, 8));
    ASSERT_TRUE(exceptions.ok()) << exceptions.status().ToString();
    EXPECT_EQ(exceptions->cells().size(), view.ExceptionsAt(c).size());
  }
  if (!expected_top.empty()) {
    const CellResult& root = expected_top.front();
    auto drill =
        pair.facade.Query(QuerySpec::DrillDown(root.cuboid, root.key, 0, 8));
    ASSERT_TRUE(drill.ok());
    EXPECT_EQ(drill->cells().size(),
              view.DrillDown(root.cuboid, root.key).size());
    auto supporters =
        pair.facade.Query(QuerySpec::Supporters(root.cuboid, root.key, 0, 8));
    ASSERT_TRUE(supporters.ok());
    EXPECT_EQ(supporters->cells().size(),
              view.ExceptionSupporters(root.cuboid, root.key).size());
  }
}

TEST(ApiFacadeTest, CubeCellOnTheFlyComputesPrunedCells) {
  // Threshold high enough that intermediate cells are pruned; on-the-fly
  // aggregation must still answer them, matching CubeView.
  Paired pair = MakePaired(FacadeSpec(), /*threshold=*/1e9);
  auto cube = pair.reference.Cube(0, 8);
  ASSERT_TRUE(cube.ok());
  ExceptionPolicy policy(1e9);
  CubeView view(*cube, policy);
  const CuboidLattice& lattice = pair.reference.lattice();

  // Find an intermediate cuboid (not m, not o).
  CuboidId mid = -1;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c != lattice.m_layer_id() && c != lattice.o_layer_id()) {
      mid = c;
      break;
    }
  }
  ASSERT_NE(mid, -1);
  const CellKey mid_key =
      lattice.ProjectMLayerKey(cube->m_layer().begin()->first, mid);

  // Retained lookup fails (pruned), on-the-fly succeeds.
  EXPECT_EQ(
      pair.facade.Query(QuerySpec::CubeCell(mid, mid_key, 0, 8)).status().code(),
      StatusCode::kNotFound);
  auto fly = pair.facade.Query(
      QuerySpec::CubeCell(mid, mid_key, 0, 8, /*on_the_fly=*/true));
  ASSERT_TRUE(fly.ok()) << fly.status().ToString();
  auto expected = view.ComputeCellOnTheFly(mid, mid_key);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, fly->cell());
}

TEST(ApiFacadeTest, FreeQueryServesCubeKindsAndRejectsStreamKinds) {
  Paired pair = MakePaired(FacadeSpec());
  auto cube = pair.reference.Cube(0, 8);
  ASSERT_TRUE(cube.ok());
  ExceptionPolicy policy(0.02);

  auto top = Query(*cube, policy, QuerySpec::TopExceptions(3, 0, 8));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->cells().size(), CubeView(*cube, policy).TopExceptions(3).size());

  EXPECT_EQ(Query(*cube, policy, QuerySpec::ObservationDeck(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Query(*cube, policy,
                  QuerySpec::CubeCell(/*cuboid=*/-5, CellKey(2), 0, 8))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiFacadeTest, CubeCacheInvalidatedByWrites) {
  WorkloadSpec spec = FacadeSpec();
  Paired pair = MakePaired(spec);
  auto before = pair.facade.Query(QuerySpec::TopExceptions(3, 0, 4));
  ASSERT_TRUE(before.ok());

  // More stream data changes the window; the cached cube must not be
  // served stale.
  CellKey key(2);
  key.set(0, 0);
  key.set(1, 0);
  for (TimeTick t = spec.series_length; t < spec.series_length + 16; ++t) {
    ASSERT_TRUE(pair.facade.Ingest({key, t, 1000.0 * static_cast<double>(t)}).ok());
    ASSERT_TRUE(
        pair.reference.Ingest({key, t, 1000.0 * static_cast<double>(t)}).ok());
  }
  ASSERT_TRUE(pair.facade.SealThrough(spec.series_length + 15).ok());
  ASSERT_TRUE(pair.reference.SealThrough(spec.series_length + 15).ok());

  auto after = pair.facade.Query(QuerySpec::TopExceptions(3, 0, 4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto expected_cube = pair.reference.Cube(0, 4);
  ASSERT_TRUE(expected_cube.ok());
  ExceptionPolicy policy(0.02);
  auto expected = CubeView(*expected_cube, policy).TopExceptions(3);
  ASSERT_EQ(after->cells().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, after->cells()[i].key);
    EXPECT_EQ(expected[i].isb, after->cells()[i].isb);
  }
}

TEST(ApiFacadeTest, KeyMapperAppliedBeforeSharding) {
  // Primitive keys at level-2 granularity mapped to m-layer level 1; both
  // primitive keys map to one m-layer cell, so the engine sees one cell
  // regardless of shard count.
  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  auto built = EngineBuilder()
                   .SetSchema(schema)
                   .SetTiltPolicy(SmallPolicy())
                   .SetKeyMapper([&h](const CellKey& primitive) {
                     CellKey m(1);
                     m.set(0, h->Parent(2, primitive[0]));
                     return m;
                   })
                   .SetShardCount(8)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();

  CellKey u0(1), u1(1);
  u0.set(0, 0);  // both map to group 0
  u1.set(0, 1);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Ingest({u0, t, 1.0}).ok());
    ASSERT_TRUE(engine.Ingest({u1, t, 2.0}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(7).ok());
  EXPECT_EQ(engine.num_cells(), 1);
}

}  // namespace
}  // namespace regcube
