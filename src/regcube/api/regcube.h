#ifndef REGCUBE_API_REGCUBE_H_
#define REGCUBE_API_REGCUBE_H_

/// regcube/api/regcube.h — the public facade of the regression-cube
/// library. Applications (the CLI, the examples, embedders) include this
/// one header and speak three nouns:
///
///   * EngineBuilder  — fluent configuration, validated at Build();
///   * Engine         — the sharded, thread-safe on-line analysis loop
///                      (ingest -> seal -> snapshot -> cube -> drill);
///   * CubeSnapshot   — an immutable frozen read view (take → query many
///                      → drop) whose queries are lock-free and never
///                      stall ingest;
///   * QuerySpec      — every read, stream- or cube-side, through one
///                      Query() entry point returning a typed QueryResult.
///
/// The building blocks below the facade are re-exported too: the sharded
/// engine (ShardedStreamEngine, whose reads the facade wraps), CubeView,
/// the batch cubing functions, generators and IO. The batch path — cube
/// files on disk, ComputeMoCubing over archived windows — remains
/// first-class. StreamCubeEngine is one shard of the sharded engine: it
/// ingests, seals and publishes runs of frozen frames, and has no read
/// methods of its own (every read goes through the facade or
/// ShardedStreamEngine).

// ---- the facade --------------------------------------------------------
#include "regcube/api/engine.h"
#include "regcube/api/query_spec.h"
#include "regcube/api/snapshot.h"

// ---- building blocks the facade hands out or accepts -------------------
#include "regcube/common/status.h"
#include "regcube/cube/dimension.h"
#include "regcube/cube/exception_policy.h"
#include "regcube/cube/schema.h"
#include "regcube/time/calendar.h"
#include "regcube/time/tilt_policy.h"

// ---- re-exported engine layer + batch surface --------------------------
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/query.h"
#include "regcube/core/regression_cube.h"
#include "regcube/core/sharded_engine.h"
#include "regcube/core/stream_engine.h"

// ---- the 6.2 multiple-regression extension -----------------------------
#include "regcube/core/ncr_cube.h"
#include "regcube/regression/basis.h"
#include "regcube/regression/ncr.h"

// ---- data in and out ---------------------------------------------------
#include "regcube/gen/stream_generator.h"
#include "regcube/gen/workload.h"
#include "regcube/io/binary_io.h"
#include "regcube/io/cube_io.h"

#endif  // REGCUBE_API_REGCUBE_H_
