#include "harness.h"

#include <cmath>
#include <cstdio>
#include <numbers>

namespace regcube::e2e {
namespace {

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double UnitInterval(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

}  // namespace

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  have_original_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
  if (!have_original_) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (have_original_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  sched_setaffinity(0, sizeof(one), &one);
}

double Samples::Max() const {
  double best = 0.0;
  for (double v : values) best = std::max(best, v);
  return best;
}

std::string TailNote(const Tail& tail) {
  if (tail.percentile == 0.0) {
    return StrPrintf("median: %lld samples are too few for a tail",
                     static_cast<long long>(tail.samples));
  }
  return StrPrintf("p%g of %lld samples (median over reps)", tail.percentile,
                   static_cast<long long>(tail.samples));
}

void PassResult::E2eSetup(const Samples& setup_s) {
  const auto q = Quartiles(setup_s.values);
  E2e("setup_s", Median(setup_s.values), "s",
      StrPrintf("median of %zu set-ups; q1 %.4g q3 %.4g",
                setup_s.values.size(), q[0], q[2]));
}

void PassResult::E2eLatency(const std::string& name, const Samples& samples,
                            const std::string& unit) {
  const Tail tail = samples.TailValue();
  std::vector<double> rep_medians;
  for (const auto& rep : SplitReps(samples.values)) {
    rep_medians.push_back(Median(rep));
  }
  const auto q = Quartiles(rep_medians);
  E2e(name + "_p50_" + unit, samples.P50(), unit,
      StrPrintf("%lld samples in %zu reps; rep medians q1 %.4g q3 %.4g",
                static_cast<long long>(samples.values.size()),
                rep_medians.size(), q[0], q[2]));
  E2e(name + "_tail_" + unit, tail.value, unit, TailNote(tail));
}

void PassResult::LayerLatency(const std::string& name, const Samples& samples,
                              const std::string& unit) {
  const Tail tail = samples.TailValue();
  Layer(name + "_p50_" + unit, samples.P50(), unit);
  Layer(name + "_tail_" + unit, tail.value, unit, TailNote(tail));
}

void PassResult::Fail(const std::string& what) {
  if (correct) failure = what;
  correct = false;
}

TupleSource::TupleSource(const WorkloadSpec& spec, std::uint64_t seed)
    : seed_(seed) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok()) << schema.status().ToString();
  schema_ = *schema;
  StreamGenerator generator(spec);
  cells_ = generator.cells();
}

StreamTuple TupleSource::At(std::size_t cell, TimeTick tick) const {
  const StreamGenerator::CellParams& c = cells_[cell];
  const std::uint64_t h =
      SplitMix(seed_ ^ SplitMix(static_cast<std::uint64_t>(cell) * 2 + 1) ^
               (static_cast<std::uint64_t>(tick) << 1));
  const double u1 = UnitInterval(h);
  const double u2 = UnitInterval(SplitMix(h));
  const double noise = 0.25 * std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * std::numbers::pi * u2);
  const auto t = static_cast<double>(tick);
  const double value = c.base + c.slope * t +
                       0.5 * std::sin(2.0 * std::numbers::pi * t / 8.0 +
                                      c.phase) +
                       noise;
  return StreamTuple{c.key, tick, value};
}

bool TakeLog::Add(const CubeSnapshot& snapshot, double ms) {
  take_ms_.Add(ms);
  if (!snapshot.status().ok() || snapshot.revision() == last_revision_) {
    return false;
  }
  last_revision_ = snapshot.revision();
  fresh_ms_.Add(ms);
  const GatherStats& g = snapshot.gather_stats();
  if (g.cells > 0) {
    copy_share_sum_ +=
        static_cast<double>(g.materialized) / static_cast<double>(g.cells);
  }
  shards_reused_sum_ += static_cast<double>(g.shards_reused);
  copied_mb_sum_ += ToMb(g.bytes_copied);
  return true;
}

void TakeLog::Report(PassResult& result) const {
  result.E2eLatency("fresh_read", fresh_ms_, "ms");
  result.LayerLatency("core.sharded_engine.take", take_ms_, "ms");
  const double fresh =
      static_cast<double>(std::max<std::size_t>(1, fresh_ms_.values.size()));
  result.Layer("core.sharded_engine.copy_share", copy_share_sum_ / fresh,
               "ratio", "materialized over cells, mean per fresh take");
  result.Layer("core.sharded_engine.shards_reused", shards_reused_sum_ / fresh,
               "count", "mean per fresh take");
  result.Layer("core.sharded_engine.gather_copied_mb", copied_mb_sum_ / fresh,
               "MB", "mean per fresh take");
}

PointTarget RandomPoint(Pcg32& rng, const TupleSource& source,
                        const CuboidLattice& lattice) {
  const std::size_t cell =
      rng.Uniform(static_cast<std::uint32_t>(source.num_cells()));
  const auto cuboid = static_cast<CuboidId>(
      rng.Uniform(static_cast<std::uint32_t>(lattice.num_cuboids())));
  return {cuboid, lattice.ProjectMLayerKey(source.key(cell), cuboid),
          cuboid == lattice.m_layer_id()};
}

void PointLog::Add(const PointTarget& target, double us) {
  all_us_.Add(us);
  (target.m_layer ? mlayer_us_ : rollup_us_).Add(us);
}

void PointLog::Report(PassResult& result) const {
  result.E2eLatency("point", all_us_, "us");
  result.Layer("core.member_index.point_mlayer_p50_us", mlayer_us_.P50(), "us");
  result.Layer("core.member_index.point_rollup_p50_us", rollup_us_.P50(), "us");
}

std::vector<std::vector<std::size_t>> PartitionCells(const TupleSource& source,
                                                     int parts) {
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i < source.num_cells(); ++i) {
    const std::uint64_t h = SplitMix(source.key(i).Hash());
    out[h % static_cast<std::uint64_t>(parts)].push_back(i);
  }
  return out;
}

void MemoryPeaks::Sample(const Engine& engine) {
  engine_bytes = std::max(engine_bytes, engine.MemoryBytes());
  for (const auto& [name, bytes] : engine.MemoryReport()) {
    std::int64_t* slot = nullptr;
    if (name == "stream.tilt_frames") slot = &tilt_frames;
    if (name == "snapshot.frozen_frames") slot = &frozen_frames;
    if (name == "snapshot.gather_cache") slot = &gather_cache;
    if (name == "ingest.queue") slot = &ingest_queue;
    if (name == "cube.memo") slot = &cube_memo;
    if (name == "index.members") slot = &members;
    if (slot != nullptr) *slot = std::max(*slot, bytes);
  }
}

void MemoryPeaks::Report(PassResult& result) const {
  result.E2e("engine_mb", ToMb(engine_bytes), "MB",
             "peak Engine::MemoryBytes() at seals/rounds");
  result.Layer("common.memory_tracker.stream.tilt_frames_mb",
               ToMb(tilt_frames), "MB");
  result.Layer("common.memory_tracker.snapshot.frozen_frames_mb",
               ToMb(frozen_frames), "MB");
  result.Layer("common.memory_tracker.snapshot.gather_cache_mb",
               ToMb(gather_cache), "MB");
  result.Layer("common.memory_tracker.ingest.queue_mb", ToMb(ingest_queue),
               "MB");
  result.Layer("core.incremental_cube.memo_mb", ToMb(cube_memo), "MB");
  result.Layer("core.member_index.mb", ToMb(members), "MB");
}

namespace {

std::string CompareCellMaps(const CellMap& want, const CellMap& got,
                            const char* what) {
  if (want.size() != got.size()) {
    return StrPrintf("%s: %zu cells vs %zu", what, want.size(), got.size());
  }
  for (const auto& [key, isb] : want) {
    auto it = got.find(key);
    if (it == got.end() || !(it->second == isb)) {
      return StrPrintf("%s: cell %s differs", what, key.ToString().c_str());
    }
  }
  return "";
}

}  // namespace

std::string CompareCubes(const RegressionCube& want,
                         const RegressionCube& got) {
  std::string diff = CompareCellMaps(want.m_layer(), got.m_layer(), "m-layer");
  if (diff.empty()) {
    diff = CompareCellMaps(want.o_layer(), got.o_layer(), "o-layer");
  }
  if (!diff.empty()) return diff;
  if (want.exceptions().total_cells() != got.exceptions().total_cells()) {
    return StrPrintf("exceptions: %lld cells vs %lld",
                     static_cast<long long>(want.exceptions().total_cells()),
                     static_cast<long long>(got.exceptions().total_cells()));
  }
  for (CuboidId c : want.exceptions().Cuboids()) {
    const CellMap* got_cells = got.exceptions().CellsOf(c);
    if (got_cells == nullptr) {
      return StrPrintf("exceptions: cuboid %d missing", static_cast<int>(c));
    }
    diff = CompareCellMaps(*want.exceptions().CellsOf(c), *got_cells,
                           "exceptions");
    if (!diff.empty()) return diff;
  }
  return "";
}

std::string CompareWindows(const CubeSnapshot& want, const CubeSnapshot& got,
                           int level, int k) {
  auto a = want.Window(level, k);
  auto b = got.Window(level, k);
  if (!a.ok() || !b.ok()) {
    return StrPrintf("window(%d, %d): %s / %s", level, k,
                     a.status().ToString().c_str(),
                     b.status().ToString().c_str());
  }
  if (a->size() != b->size()) {
    return StrPrintf("window(%d, %d): %zu cells vs %zu", level, k, a->size(),
                     b->size());
  }
  for (std::size_t i = 0; i < a->size(); ++i) {
    if (!((*a)[i].key == (*b)[i].key) || !((*a)[i].measure == (*b)[i].measure)) {
      return StrPrintf("window(%d, %d): cell %s differs", level, k,
                       (*a)[i].key.ToString().c_str());
    }
  }
  return "";
}

void ReportEngineStats(const Engine& engine, const MemoryPeaks& peaks,
                       std::int64_t budget_bytes, PassResult& result) {
  peaks.Report(result);

  const IngestStats ingest = engine.IngestStats();
  result.Layer("core.ingest_queue.enqueue_p99_us",
               ingest.total.p99_enqueue_us, "us",
               "engine histogram, power-of-two buckets");
  result.Layer("core.ingest_queue.high_water",
               static_cast<double>(ingest.total.high_water), "tuples");

  const SpillStats spill = engine.SpillStats();
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  result.Layer("core.memory_governor.enforcements", count(spill.enforcements),
               "count");
  result.Layer("core.memory_governor.evicted_mb", ToMb(spill.evicted_bytes),
               "MB");
  result.Layer("core.memory_governor.memo_evictions",
               count(spill.memo_evictions), "count");
  result.Layer("core.memory_governor.cache_evictions",
               count(spill.cache_evictions), "count");
  result.Layer("core.memory_governor.spill_evictions",
               count(spill.spill_evictions), "count");
  result.Layer("core.memory_governor.export_evictions",
               count(spill.export_evictions), "count");
  result.Layer("core.memory_governor.budget_rejects",
               count(spill.budget_rejects), "count");
  result.Layer("core.memory_governor.resident_over_budget",
               budget_bytes > 0 ? static_cast<double>(peaks.tilt_frames) /
                                      static_cast<double>(budget_bytes)
                                : 0.0,
               "ratio", "peak tilt-frame bytes over the budget");
  result.Layer("io.frame_store.spilled_blocks", count(spill.spilled_blocks),
               "count");
  result.Layer("io.frame_store.spilled_mb", ToMb(spill.spilled_bytes), "MB");
  result.Layer("io.frame_store.fault_ins", count(spill.fault_ins), "count");
  result.Layer("io.frame_store.fault_in_mb", ToMb(spill.fault_in_bytes),
               "MB");
  result.Layer("io.frame_store.fault_in_p99_us", spill.fault_in_p99_us, "us");
  result.Layer("io.frame_store.io_errors", count(spill.io_errors), "count");
  result.Layer("io.frame_store.retries", count(spill.retries), "count");
  result.Layer("io.frame_store.compactions", count(spill.compactions),
               "count");
  result.Layer("io.frame_store.reclaimed_mb", ToMb(spill.reclaimed_bytes),
               "MB");
  result.Layer("io.frame_store.garbage_over_live",
               spill.live_bytes > 0
                   ? static_cast<double>(spill.garbage_bytes) /
                         static_cast<double>(spill.live_bytes)
                   : 0.0,
               "ratio");
}

}  // namespace regcube::e2e
