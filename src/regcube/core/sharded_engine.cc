#include "regcube/core/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"

namespace regcube {

namespace {
// The per-shard published runs, reported through MemoryTracker as each
// run's own entry footprint. The frame blocks they point at are shared
// with the per-cell frozen cache and counted there
// ("snapshot.frozen_frames"). The api facade registers its cached merged
// run under the same category.
constexpr char kGatherCacheCategory[] = "snapshot.gather_cache";

// The per-shard ingest queues' preallocated ring slots (async mode only).
// Analytic like the rest: capacity * sizeof(StreamTuple) per shard, fixed
// for the engine's lifetime; heap storage retained by queued keys varies
// per tuple and is not tracked.
constexpr char kIngestQueueCategory[] = "ingest.queue";

std::int64_t SliceBytes(const SnapshotCells& cells) {
  return static_cast<std::int64_t>(cells.size() * sizeof(CellSnapshot));
}

/// Moves `bytes` of `category` from one tracker (either may be null) to
/// the other — the hand-over every set_memory_tracker performs.
void MoveTracked(MemoryTracker* from, MemoryTracker* to,
                 std::string_view category, std::int64_t bytes) {
  if (bytes <= 0) return;
  if (from != nullptr) from->Release(category, bytes);
  if (to != nullptr) to->Add(category, bytes);
}

/// Re-materializes one frozen block iff a tilt unit ends between its
/// freeze tick and `target` — otherwise advancing it would seal nothing
/// and the block is shared as-is. Returns the bytes retained by the new
/// copy (0 when shared). The single sharing condition every realignment
/// path goes through.
std::int64_t RealignCellToClock(CellSnapshot& cell, TimeTick target,
                                const TiltPolicy& policy) {
  const TimeTick from = cell.frame->next_tick();
  if (from >= target || !policy.AnyUnitEndIn(from, target)) return 0;
  auto advanced = std::make_shared<TiltTimeFrame>(*cell.frame);
  Status s = advanced->AdvanceTo(target);
  RC_CHECK(s.ok()) << s.ToString();
  const std::int64_t bytes = advanced->MemoryBytes();
  cell.frame = std::move(advanced);
  return bytes;
}

/// Aligns every block in `cells` to `target` (copy-on-write per block via
/// RealignCellToClock). Parallel across `pool` when available — the
/// O(all cells) half of boundary rounds.
void AlignRunToClock(std::vector<CellSnapshot>& cells, TimeTick target,
                     const TiltPolicy& policy, ThreadPool* pool,
                     GatherStats* stats) {
  std::atomic<std::int64_t> materialized{0};
  std::atomic<std::int64_t> bytes{0};
  auto align_one = [&](std::int64_t idx) {
    const std::int64_t copied = RealignCellToClock(
        cells[static_cast<size_t>(idx)], target, policy);
    if (copied > 0) {
      materialized.fetch_add(1, std::memory_order_relaxed);
      bytes.fetch_add(copied, std::memory_order_relaxed);
    }
  };
  const auto total = static_cast<std::int64_t>(cells.size());
  if (pool != nullptr && total > 1) {
    pool->ParallelFor(total, align_one);
  } else {
    for (std::int64_t i = 0; i < total; ++i) align_one(i);
  }
  if (stats != nullptr) {
    stats->materialized += materialized.load(std::memory_order_relaxed);
    stats->bytes_copied += bytes.load(std::memory_order_relaxed);
  }
}
}  // namespace

ShardedStreamEngine::ShardedStreamEngine(
    std::shared_ptr<const CubeSchema> schema, Options options, int num_shards,
    std::shared_ptr<ThreadPool> pool, IngestConfig ingest)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)),
      ingest_(ingest),
      mapper_(std::move(options_.key_mapper)),
      pool_(std::move(pool)),
      clock_(options_.start_tick) {
  RC_CHECK(schema_ != nullptr);
  RC_CHECK(options_.tilt_policy != nullptr);
  RC_CHECK(num_shards >= 1) << "num_shards must be >= 1, got " << num_shards;
  options_.key_mapper = nullptr;  // applied here, before shard hashing
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(schema_, options_));
  }
  if (ingest_.mode == IngestMode::kAsync) {
    RC_CHECK(ingest_.queue_capacity >= 1)
        << "ingest queue capacity must be >= 1, got "
        << ingest_.queue_capacity;
    queues_.reserve(static_cast<size_t>(num_shards));
    writers_.reserve(static_cast<size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
      queues_.push_back(std::make_unique<IngestQueue>(ingest_.queue_capacity,
                                                      ingest_.backpressure));
    }
    // Writers start only after every queue exists: an owner thread's
    // absorb callback touches shards_ and the counters, all built above.
    // The post-batch hook is the async-mode budget enforcement point: it
    // runs after the batch is acknowledged (Flush waiters are already
    // unblocked) and is a no-op until ConfigureStorage installs a
    // governor.
    for (int i = 0; i < num_shards; ++i) {
      const size_t shard_index = static_cast<size_t>(i);
      writers_.push_back(std::make_unique<ShardWriter>(
          queues_[shard_index].get(),
          [this, shard_index](const std::vector<StreamTuple>& batch) {
            return AbsorbDrained(shard_index, batch);
          },
          [this] { MaybeEnforceBudget(); }));
    }
  }
  if (options_.algorithm == StreamCubeEngine::Algorithm::kMoCubing) {
    cube_memo_ = std::make_unique<IncrementalCubeCache>(schema_, options_);
    // Patches seed their per-cuboid node indexes from the ingest-maintained
    // member index instead of chain-scanning the memoized tree. The memo is
    // owned by this engine, so the raw `this` capture cannot dangle.
    cube_memo_->set_member_lookup(
        [this](CuboidId cuboid, const std::vector<CellKey>& keys) {
          return MemberKeysForBatch(cuboid, keys);
        });
  }
}

int ShardedStreamEngine::ShardIndex(const CellKey& mapped_key) const {
  return static_cast<int>(mapped_key.Hash() % shards_.size());
}

void ShardedStreamEngine::BumpClock(TimeTick t) {
  TimeTick cur = clock_.load(std::memory_order_relaxed);
  while (cur < t &&
         !clock_.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
  }
}

void ShardedStreamEngine::set_memory_tracker(MemoryTracker* tracker) {
  // Every shard locked, so no publish posts to the old tracker after its
  // bytes moved: detach / re-attach keeps every tracker balanced.
  auto locks = LockAll();
  std::int64_t published = 0;
  for (auto& shard : shards_) {
    shard->engine.set_memory_tracker(tracker);
    published += shard->published_bytes;
  }
  MoveTracked(tracker_, tracker, kGatherCacheCategory, published);
  MoveTracked(tracker_, tracker, kIngestQueueCategory, IngestQueueBytes());
  tracker_ = tracker;
  // The memo's lock is taken after the shard locks drop: a memo patch
  // holds it while probing the shards' member indexes.
  locks.clear();
  if (cube_memo_ != nullptr) cube_memo_->set_memory_tracker(tracker);
}

Status ShardedStreamEngine::PublishLocked(Shard& shard, GatherStats* stats) {
  // Writers hold shard.mu, so `published` is read here without pub_mu.
  StreamCubeEngine::FrozenSlice run;
  RC_RETURN_IF_ERROR(shard.engine.RefreshPublishedRun(
      shard.published != nullptr ? shard.published->cells : nullptr, &run,
      stats));
  auto pub = std::make_shared<ShardPublication>();
  pub->cells = std::move(run);
  pub->now = shard.engine.now();
  pub->revision = shard.engine.revision();
  InstallPublicationLocked(shard, std::move(pub));
  shard.version.store(shard.engine.revision(), std::memory_order_release);
  return Status::OK();
}

std::int64_t ShardedStreamEngine::InstallPublicationLocked(
    Shard& shard, std::shared_ptr<const ShardPublication> next) {
  const std::int64_t bytes = next != nullptr ? SliceBytes(*next->cells) : 0;
  const std::int64_t previous = shard.published_bytes;
  if (tracker_ != nullptr && bytes > previous) {
    tracker_->Add(kGatherCacheCategory, bytes - previous);
  } else if (tracker_ != nullptr && bytes < previous) {
    tracker_->Release(kGatherCacheCategory, previous - bytes);
  }
  shard.published_bytes = bytes;
  {
    std::lock_guard<std::mutex> lock(shard.pub_mu);
    shard.published.swap(next);
  }
  return previous;  // `next` now holds the retired generation
}

std::shared_ptr<const ShardedStreamEngine::ShardPublication>
ShardedStreamEngine::PublicationFor(size_t i, GatherStats* stats,
                                    Status* status) {
  Shard& shard = *shards_[i];
  // Fast path: the published generation reflects every completed write
  // (its revision matches the mirror, and both stores happened inside the
  // shard mutex before the write completed), so it can be served without
  // touching that mutex. A mismatch in either direction just means "take
  // the slow path" — a torn view can never be served fresh.
  std::shared_ptr<const ShardPublication> pub;
  {
    std::lock_guard<std::mutex> lock(shard.pub_mu);
    pub = shard.published;
  }
  if (pub != nullptr &&
      pub->revision == shard.version.load(std::memory_order_acquire)) {
    if (stats != nullptr) {
      stats->cells += static_cast<std::int64_t>(pub->cells->size());
      ++stats->shards_reused;
    }
    return pub;
  }
  // Slow path (stale generation — sync-mode writes, seals, or a publish
  // the owner skipped on error): republish under the shard mutex.
  std::lock_guard<std::mutex> lock(shard.mu);
  Status s = PublishLocked(shard, stats);
  if (!s.ok()) {
    *status = std::move(s);
    return nullptr;
  }
  return shard.published;
}

void ShardedStreamEngine::MirrorVersionsLocked() {
  for (auto& shard : shards_) {
    shard->version.store(shard->engine.revision(), std::memory_order_release);
  }
}

ShardWriter::AbsorbResult ShardedStreamEngine::AbsorbDrained(
    size_t i, const std::vector<StreamTuple>& batch) {
  ShardWriter::AbsorbResult out;
  Shard& shard = *shards_[i];
  bool changed;
  IngestReport report;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::uint64_t before = shard.engine.revision();
    report = shard.engine.IngestBatch(batch);
    changed = shard.engine.revision() != before;
    if (changed) {
      // Eager publish: the successor generation (only this batch's cells
      // re-frozen) is swapped in before MarkAbsorbed resolves the batch,
      // so a reader returning from Flush() takes the mutex-free path to
      // the flushed data. Best-effort — on a cold-read failure the old
      // generation stays up and readers republish on their slow path.
      Status published = PublishLocked(shard, nullptr);
      (void)published;
    }
    shard.version.store(shard.engine.revision(), std::memory_order_release);
  }
  out.absorbed = report.absorbed;
  out.status = std::move(report.status);
  NoteAbsorbed(batch.data(), out.absorbed, changed);
  return out;
}

void ShardedStreamEngine::NoteAbsorbed(const StreamTuple* fed,
                                       std::int64_t absorbed, bool changed) {
  // The shard engine absorbs a strict prefix of what it was fed (it stops
  // at the first error), so the clock follows the max over that prefix.
  if (absorbed > 0) {
    TimeTick max_tick = fed[0].tick;
    for (std::int64_t j = 1; j < absorbed; ++j) {
      max_tick = std::max(max_tick, fed[j].tick);
    }
    BumpClock(max_tick);
  }
  // The shard engine's revision moves exactly when observable state did
  // (an absorbed tuple, or a rejected one that still created its cell's
  // frame) — mirror that, so snapshot caches are invalidated precisely
  // when they must be and never when nothing changed.
  if (changed) {
    revision_.fetch_add(1, std::memory_order_release);
  }
}

IngestTicket ShardedStreamEngine::IngestAsync(
    const std::vector<StreamTuple>& tuples) {
  RC_CHECK(ingest_.mode == IngestMode::kAsync)
      << "IngestAsync requires IngestMode::kAsync";
  // Budget-exhausted degradation precedes the queues: accepting tuples the
  // owner threads would only pile onto an engine that cannot shed bytes
  // turns overload into unbounded growth. A refused ticket is typed and
  // complete — nothing entered any queue.
  {
    Status admission = CheckIngestAdmission();
    if (!admission.ok()) {
      IngestTicket refused;
      refused.attempted = static_cast<std::int64_t>(tuples.size());
      refused.rejected = refused.attempted;
      refused.status = std::move(admission);
      return refused;
    }
  }
  // Map before hashing (same as the sync path) so the tuples queued for a
  // shard are exactly what its engine will absorb — the owner thread never
  // touches the mapper.
  std::vector<std::vector<StreamTuple>> partitions(shards_.size());
  for (const StreamTuple& t : tuples) {
    const CellKey key = mapper_ ? mapper_(t.key) : t.key;
    partitions[static_cast<size_t>(ShardIndex(key))].push_back(
        {key, t.tick, t.value});
  }
  IngestTicket ticket;
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].empty()) continue;
    ticket.Merge(queues_[i]->Enqueue(
        partitions[i].data(),
        static_cast<std::int64_t>(partitions[i].size())));
  }
  return ticket;
}

Status ShardedStreamEngine::Flush() {
  if (ingest_.mode != IngestMode::kAsync) return Status::OK();
  // Snapshot every queue's accept point first, then wait: tuples enqueued
  // by other producers after this line don't extend the wait, so Flush
  // terminates under sustained concurrent ingest.
  std::vector<std::uint64_t> targets(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    targets[i] = queues_[i]->enqueued_seq();
  }
  for (size_t i = 0; i < queues_.size(); ++i) {
    queues_[i]->WaitResolved(targets[i]);
  }
  Status first;
  for (auto& queue : queues_) {
    Status s = queue->TakeFirstError();
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

regcube::IngestStats ShardedStreamEngine::IngestStats() const {
  regcube::IngestStats out;
  out.mode = ingest_.mode;
  out.backpressure = ingest_.backpressure;
  if (ingest_.mode != IngestMode::kAsync) return out;
  out.queue_capacity = ingest_.queue_capacity;
  out.per_shard.reserve(queues_.size());
  for (const auto& queue : queues_) {
    out.per_shard.push_back(queue->Stats());
    out.total.Merge(out.per_shard.back());
  }
  return out;
}

std::int64_t ShardedStreamEngine::IngestQueueBytes() const {
  std::int64_t bytes = 0;
  for (const auto& queue : queues_) bytes += queue->SlotBytes();
  return bytes;
}

Status ShardedStreamEngine::CheckIngestAdmission() {
  // Degraded admission is opt-in through the backpressure policy: kBlock
  // and kDropOldest keep the legacy lossless/lossy semantics (the engine
  // absorbs and stays over budget, best effort); only kReject turns an
  // unreachable budget into typed rejects.
  if (ingest_.backpressure != BackpressurePolicy::kReject) {
    return Status::OK();
  }
  if (governor_ == nullptr || !governor_->exhausted()) return Status::OK();
  // One more chance before degrading: pressure may have dropped since the
  // exhausted run (a reader released a snapshot, a compaction landed), and
  // MaybeEnforce clears the flag the moment usage probes under budget.
  MaybeEnforceBudget();
  if (!governor_->exhausted()) return Status::OK();
  budget_rejects_.fetch_add(1, std::memory_order_relaxed);
  return Status::ResourceExhausted(StrPrintf(
      "memory budget of %lld bytes is unreachable: every eviction rung ran "
      "and usage is still over; ingest degraded to rejects until pressure "
      "drops",
      static_cast<long long>(budget_config_.budget_bytes)));
}

Status ShardedStreamEngine::Ingest(const StreamTuple& tuple) {
  if (ingest_.mode == IngestMode::kAsync) {
    return IngestAsync({tuple}).status;
  }
  RC_RETURN_IF_ERROR(CheckIngestAdmission());
  const CellKey key = mapper_ ? mapper_(tuple.key) : tuple.key;
  Shard& shard = *shards_[static_cast<size_t>(ShardIndex(key))];
  Status status;
  bool changed;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::uint64_t before = shard.engine.revision();
    status = shard.engine.Ingest({key, tuple.tick, tuple.value});
    changed = shard.engine.revision() != before;
    // Sync mode mirrors the version but does not publish: readers
    // republish on demand (their slow path), which is exactly the
    // mutex-gather baseline the async benches compare against.
    shard.version.store(shard.engine.revision(), std::memory_order_release);
  }
  NoteAbsorbed(&tuple, status.ok() ? 1 : 0, changed);
  MaybeEnforceBudget();
  return status;
}

IngestReport ShardedStreamEngine::IngestBatch(
    const std::vector<StreamTuple>& tuples) {
  if (ingest_.mode == IngestMode::kAsync) {
    // Legacy door in async mode: `absorbed` counts acceptance into the
    // queues, not absorption — IngestAsync's ticket is the precise story.
    const IngestTicket ticket = IngestAsync(tuples);
    IngestReport report;
    report.attempted = ticket.attempted;
    report.absorbed = ticket.enqueued;
    report.status = ticket.status;
    return report;
  }
  IngestReport report;
  report.attempted = static_cast<std::int64_t>(tuples.size());
  {
    Status admission = CheckIngestAdmission();
    if (!admission.ok()) {
      report.status = std::move(admission);
      return report;
    }
  }
  std::vector<std::vector<StreamTuple>> partitions(shards_.size());
  for (const StreamTuple& t : tuples) {
    const CellKey key = mapper_ ? mapper_(t.key) : t.key;
    partitions[static_cast<size_t>(ShardIndex(key))].push_back(
        {key, t.tick, t.value});
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (partitions[i].empty()) continue;
    Shard& shard = *shards_[i];
    IngestReport shard_report;
    bool changed;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const std::uint64_t before = shard.engine.revision();
      shard_report = shard.engine.IngestBatch(partitions[i]);
      changed = shard.engine.revision() != before;
      shard.version.store(shard.engine.revision(),
                          std::memory_order_release);
    }
    // Earlier shards keep what they absorbed even if a later one fails,
    // so each shard's landed prefix moves the clock and the revision.
    NoteAbsorbed(partitions[i].data(), shard_report.absorbed, changed);
    report.absorbed += shard_report.absorbed;
    if (!shard_report.ok()) {
      report.status = std::move(shard_report.status);
      break;
    }
  }
  MaybeEnforceBudget();
  return report;
}

std::vector<std::unique_lock<std::mutex>> ShardedStreamEngine::LockAll()
    const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  return locks;
}

Status ShardedStreamEngine::AlignLocked() {
  // The global clock must dominate every shard's local view before the
  // shards are driven to it (a writer may have raced ahead of clock_).
  TimeTick target = clock_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    target = std::max(target, shard->engine.now());
  }
  BumpClock(target);
  // Every shard seals, also one whose clock already reached the target:
  // its lagging cells must advance too, or whether a late tick is refused
  // would depend on which shard its cell hashes to.
  for (auto& shard : shards_) {
    RC_RETURN_IF_ERROR(shard->engine.SealThrough(target - 1));
  }
  return Status::OK();
}

std::uint64_t ShardedStreamEngine::SumShardRevisionsLocked() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->engine.revision();
  return sum;
}

Status ShardedStreamEngine::SealThrough(TimeTick t) {
  // In async mode tuples with ticks <= t may still be in flight in the
  // queues; sealing past them would refuse them as late on absorption.
  // Drain first — and surface any pending absorb error rather than
  // silently sealing over it.
  RC_RETURN_IF_ERROR(Flush());
  auto locks = LockAll();
  const TimeTick clock_before = clock_.load(std::memory_order_acquire);
  BumpClock(t + 1);
  const std::uint64_t before = SumShardRevisionsLocked();
  RC_RETURN_IF_ERROR(AlignLocked());
  // A seal that neither sealed a slot anywhere nor advanced the global
  // clock changes nothing a read can see — re-sealing an already-aligned
  // engine keeps every revision-memoized snapshot valid. A clock advance
  // must move the revision even without a sealed slot, or cached
  // snapshots would keep reporting the pre-seal now(); the refresh is
  // cheap (the next gather patches zero cells).
  if (SumShardRevisionsLocked() != before || t + 1 > clock_before) {
    revision_.fetch_add(1, std::memory_order_release);
  }
  MirrorVersionsLocked();
  locks.clear();
  // Alignment grows frames (rolled-up slots materialize in coarser
  // levels), so a seal can carry the engine over budget even with no
  // ingest in flight; enforce after releasing the shard locks.
  MaybeEnforceBudget();
  return Status::OK();
}

ShardedStreamEngine::GatheredCells ShardedStreamEngine::GatherAlignedCells() {
  GatheredCells out;
  out.revision = revision_.load(std::memory_order_acquire);

  // Phase 1 — publications: copy each shard's last published generation.
  // A fresh publication (the steady-state async case: the owner thread
  // republished inside its absorb) is served without touching the shard
  // mutex at all; only a stale shard pays a locked republish, and that
  // refreezes just its changed cells — O(changed cells).
  const size_t n = shards_.size();
  std::vector<std::shared_ptr<const ShardPublication>> pubs(n);
  std::vector<GatherStats> stats(n);
  std::vector<Status> statuses(n);
  auto gather_one = [&](std::int64_t idx) {
    const size_t i = static_cast<size_t>(idx);
    pubs[i] = PublicationFor(i, &stats[i], &statuses[i]);
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(static_cast<std::int64_t>(n), gather_one);
  } else {
    for (size_t i = 0; i < n; ++i) gather_one(static_cast<std::int64_t>(i));
  }

  // A failed republish (read error on a spilled cell) poisons the
  // whole run: return the typed error. Nothing was lost — the failing
  // shard kept its dirty list and its publication, so the retry repeats
  // exactly the failed work; fresh shards still serve their publications
  // for free.
  for (size_t i = 0; i < n; ++i) {
    if (pubs[i] == nullptr) {
      out.status = std::move(statuses[i]);
      out.cells = std::make_shared<std::vector<CellSnapshot>>();
      return out;
    }
  }

  TimeTick target = clock_.load(std::memory_order_acquire);
  for (const auto& pub : pubs) target = std::max(target, pub->now);
  out.clock = target;
  const TiltPolicy& policy = *options_.tilt_policy;

  // Phase 2 — fold, outside every lock. The published runs are sorted and
  // key-disjoint (cells are hash-partitioned), so a cascade of in-place
  // merges over copies yields the canonical merged run — pointer copies
  // only; no frame is touched here. The copies matter: alignment below
  // swaps frame pointers per cell, and the publications stay live for
  // concurrent point queries and later gathers.
  auto merged = std::make_shared<std::vector<CellSnapshot>>();
  size_t total = 0;
  for (const auto& pub : pubs) total += pub->cells->size();
  merged->reserve(total);
  for (const auto& pub : pubs) {
    if (pub->cells->empty()) continue;
    const auto middle = static_cast<std::ptrdiff_t>(merged->size());
    merged->insert(merged->end(), pub->cells->begin(), pub->cells->end());
    std::inplace_merge(merged->begin(), merged->begin() + middle,
                       merged->end(), CellSnapshotCanonicalLess);
  }
  // Per-block copy-on-write alignment: a block is re-materialized only if
  // a tilt unit ends between its freeze tick and the target (see
  // TiltPolicy::AnyUnitEndIn) — a run already at the clock shares every
  // block and this pass copies nothing.
  AlignRunToClock(*merged, target, policy, pool_.get(), &out.stats);
  out.cells = std::move(merged);
  for (const GatherStats& s : stats) out.stats.Merge(s);
  out.stats.cells = static_cast<std::int64_t>(out.cells->size());
  return out;
}

ShardedStreamEngine::MemberGather ShardedStreamEngine::GatherCellsMatching(
    CuboidId cuboid, const CellKey& key) {
  MemberGather out;
  const size_t n = shards_.size();
  std::vector<std::vector<CellSnapshot>> slices(n);
  std::vector<TimeTick> shard_now(n, 0);
  std::vector<std::int64_t> totals(n, 0);

  // The shard lock covers only the member-index hash probe (no frame work
  // at all); the members are then resolved against the shard's published
  // run outside the lock. The probe-then-load order makes the RC_CHECK
  // safe: a key the index held when we unlocked is in any publication at
  // least that fresh (cells are never erased, and PublicationFor never
  // serves a generation older than the last completed write).
  std::vector<std::vector<CellKey>> members(n);
  for (size_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard_now[i] = shard.engine.now();
    totals[i] = shard.engine.num_cells();
    shard.engine.AppendMemberKeys(cuboid, key, &members[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (members[i].empty()) continue;
    Status status;
    auto pub = PublicationFor(i, nullptr, &status);
    if (pub == nullptr) {
      out.status = std::move(status);
      out.cells.clear();
      return out;
    }
    shard_now[i] = std::max(shard_now[i], pub->now);
    slices[i].reserve(members[i].size());
    for (const CellKey& member : members[i]) {
      auto it = std::lower_bound(
          pub->cells->begin(), pub->cells->end(), member,
          [](const CellSnapshot& a, const CellKey& b) {
            return CanonicalKeyLess(a.key, b);
          });
      RC_CHECK(it != pub->cells->end() && it->key == member)
          << "member key missing from published run";
      slices[i].push_back(*it);
    }
  }

  TimeTick target = clock_.load(std::memory_order_acquire);
  for (TimeTick t : shard_now) target = std::max(target, t);
  out.clock = target;
  for (std::int64_t t : totals) out.total_cells += t;

  size_t matches = 0;
  for (const auto& slice : slices) matches += slice.size();
  out.cells.reserve(matches);
  for (auto& slice : slices) {
    out.cells.insert(out.cells.end(), std::make_move_iterator(slice.begin()),
                     std::make_move_iterator(slice.end()));
  }
  AlignRunToClock(out.cells, target, *options_.tilt_policy,
                  /*pool=*/nullptr, /*stats=*/nullptr);
  std::sort(out.cells.begin(), out.cells.end(), CellSnapshotCanonicalLess);
  return out;
}

std::vector<std::vector<CellKey>> ShardedStreamEngine::MemberKeysForBatch(
    CuboidId cuboid, const std::vector<CellKey>& keys) {
  std::vector<std::vector<CellKey>> members(keys.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (size_t i = 0; i < keys.size(); ++i) {
      shard->engine.AppendMemberKeys(cuboid, keys[i], &members[i]);
    }
  }
  // Canonical order — the order the memoized window (and therefore its
  // H-tree) was built in, which the seeded node indexes rely on.
  for (auto& list : members) {
    std::sort(list.begin(), list.end(), CanonicalKeyLess);
  }
  return members;
}

Result<std::vector<MLayerTuple>> ShardedStreamEngine::SnapshotWindow(int level,
                                                                     int k) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotWindowOf(*gathered.cells, level, k);
}

Result<RegressionCube> ShardedStreamEngine::ComputeCube(int level, int k) {
  return ComputeCube(GatherAlignedCells(), level, k);
}

Result<RegressionCube> ShardedStreamEngine::ComputeCube(
    const GatheredCells& gathered, int level, int k) {
  RC_RETURN_IF_ERROR(gathered.status);
  // The by-value export door must not evict a live memo of a different
  // window (a caller alternating a (level, k) export with cube-kind
  // drilling would otherwise force a full rebuild on every call): when
  // the windows disagree, compute from scratch and leave the memo alone.
  if (cube_memo_ == nullptr ||
      cube_memo_->WouldEvictDifferentWindow(level, k)) {
    return SnapshotCubeOf(schema_, *gathered.cells, options_, level, k,
                          pool_.get());
  }
  auto shared = ComputeCubeShared(gathered, level, k);
  if (!shared.ok()) return shared.status();
  return (*shared)->Clone();
}

Result<std::shared_ptr<const RegressionCube>>
ShardedStreamEngine::ComputeCubeShared(int level, int k) {
  return ComputeCubeShared(GatherAlignedCells(), level, k);
}

Result<std::shared_ptr<const RegressionCube>>
ShardedStreamEngine::ComputeCubeShared(const GatheredCells& gathered,
                                       int level, int k) {
  RC_RETURN_IF_ERROR(gathered.status);
  if (cube_memo_ == nullptr) {
    auto cube = SnapshotCubeOf(schema_, *gathered.cells, options_, level, k,
                               pool_.get());
    if (!cube.ok()) return cube.status();
    return std::shared_ptr<const RegressionCube>(
        std::make_shared<RegressionCube>(std::move(*cube)));
  }
  return cube_memo_->CubeFor(gathered.cells, gathered.revision, level, k,
                             pool_.get());
}

IncrementalCubeCache::Stats ShardedStreamEngine::cube_memo_stats() const {
  return cube_memo_ != nullptr ? cube_memo_->stats()
                               : IncrementalCubeCache::Stats{};
}

std::int64_t ShardedStreamEngine::CubeMemoBytes() const {
  return cube_memo_ != nullptr ? cube_memo_->MemoryBytes() : 0;
}

Result<ShardedStreamEngine::DeckSeries> ShardedStreamEngine::ObservationDeck(
    int level) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotDeckOf(*gathered.cells, lattice_,
                        options_.tilt_policy->num_levels(), level);
}

Result<std::vector<ShardedStreamEngine::TrendChange>>
ShardedStreamEngine::DetectTrendChanges(int level, double threshold) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotTrendChangesOf(*gathered.cells, lattice_,
                                options_.tilt_policy->num_levels(), level,
                                threshold);
}

Result<Isb> ShardedStreamEngine::QueryCell(CuboidId cuboid, const CellKey& key,
                                           int level, int k) {
  // Validation precedes the gather; every point-query door shares it.
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  MemberGather gathered = GatherCellsMatching(cuboid, key);
  RC_RETURN_IF_ERROR(gathered.status);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  return SnapshotCellOf(gathered.cells, lattice_, cuboid, key, level, k);
}

Result<std::vector<Isb>> ShardedStreamEngine::QueryCellSeries(
    CuboidId cuboid, const CellKey& key, int level) {
  // Validation precedes the gather, in the kernels' order: cuboid, then
  // level, then no-data / no-members.
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  MemberGather gathered = GatherCellsMatching(cuboid, key);
  RC_RETURN_IF_ERROR(gathered.status);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  return SnapshotCellSeriesOf(gathered.cells, lattice_,
                              options_.tilt_policy->num_levels(), cuboid, key,
                              level);
}

std::int64_t ShardedStreamEngine::num_cells() const {
  std::int64_t cells = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    cells += shard->engine.num_cells();
  }
  return cells;
}

std::int64_t ShardedStreamEngine::MemoryBytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->engine.MemoryBytes();
  }
  return bytes;
}

std::int64_t ShardedStreamEngine::FrozenBytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->engine.FrozenBytes();
  }
  return bytes;
}

std::int64_t ShardedStreamEngine::MemberIndexBytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->engine.MemberIndexBytes();
  }
  return bytes;
}

Status ShardedStreamEngine::ConfigureStorage(const MemoryBudgetConfig& config) {
  if (config.budget_bytes < 0) {
    return Status::InvalidArgument(
        StrPrintf("memory budget must be >= 0, got %lld",
                  static_cast<long long>(config.budget_bytes)));
  }
  if (config.compact_garbage_ratio <= 0.0) {
    return Status::InvalidArgument(
        StrPrintf("compaction garbage ratio must be > 0, got %g",
                  config.compact_garbage_ratio));
  }
  if (config.compact_min_bytes < 0) {
    return Status::InvalidArgument(
        StrPrintf("compaction min bytes must be >= 0, got %lld",
                  static_cast<long long>(config.compact_min_bytes)));
  }
  budget_config_ = config;
  if (!config.spill_dir.empty()) {
    auto store = FrameStore::Open(config.spill_dir, options_.tilt_policy);
    if (!store.ok()) return store.status();
    frame_store_ = std::move(*store);
    frame_store_->set_fault_injector(fault_injector_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i]->mu);
      shards_[i]->engine.set_frame_store(frame_store_.get(),
                                         static_cast<int>(i));
    }
  }
  if (config.budget_bytes > 0) {
    governor_ = std::make_unique<MemoryGovernor>(
        config.budget_bytes, [this] { return UsageBytes(); });
    // The typed eviction ladder. Spill is the lever for frames: reads view
    // a spilled block in place, so it costs a reader nothing, while the
    // cache rungs after it throw away work every later read redoes. They
    // run only when spilling cannot reach the target. The api layer
    // registers its snapshot cache at priority 30, before the shard
    // publications.
    governor_->AddRung(10, "cube.memo",
                       [this](std::int64_t) { return DropCubeMemoRung(); });
    if (frame_store_ != nullptr) {
      governor_->AddRung(20, "frames.spill", [this](std::int64_t excess) {
        return SpillColdFramesRung(excess);
      });
    }
    governor_->AddRung(40, "gather.caches", [this](std::int64_t) {
      return DropGatherCachesRung();
    });
  }
  return Status::OK();
}

void ShardedStreamEngine::MaybeEnforceBudget() {
  if (governor_ == nullptr) return;
  governor_->MaybeEnforce();
  // Compaction rides the enforcement heartbeat, sampled so the per-call
  // cost stays one relaxed fetch_add: garbage accrues a block at a time,
  // so a ~256-call probe period bounds staleness without a new thread.
  if (frame_store_ != nullptr &&
      (enforce_calls_.fetch_add(1, std::memory_order_relaxed) & 0xFF) == 0) {
    MaybeCompactSegments();
  }
}

void ShardedStreamEngine::MaybeCompactSegments() {
  if (frame_store_ == nullptr) return;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const int shard = static_cast<int>(i);
    if (!frame_store_->ShouldCompact(shard,
                                     budget_config_.compact_garbage_ratio,
                                     budget_config_.compact_min_bytes)) {
      continue;
    }
    // The shard lock spans the rewrite *and* the re-pointing: a reader on
    // this shard either sees the old refs before the swap or the new refs
    // after — never a ref into a retired segment.
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    auto relocations = frame_store_->CompactShardSegment(shard);
    if (!relocations.ok()) continue;  // counted in CompactionStats.failures
    shards_[i]->engine.RepointSpilledBlocks(*relocations);
  }
}

void ShardedStreamEngine::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  if (frame_store_ != nullptr) frame_store_->set_fault_injector(injector);
}

std::int64_t ShardedStreamEngine::UsageBytes() const {
  if (tracker_ != nullptr) return tracker_->current_bytes();
  return MemoryBytes() + FrozenBytes() + MemberIndexBytes() +
         CubeMemoBytes() + IngestQueueBytes();
}

std::int64_t ShardedStreamEngine::DropCubeMemoRung() {
  if (cube_memo_ == nullptr) return 0;
  const std::int64_t bytes = cube_memo_->MemoryBytes();
  cube_memo_->Invalidate();
  return bytes;
}

std::int64_t ShardedStreamEngine::DropGatherCachesRung() {
  // Retire each shard's publication along with its frozen blocks: a block
  // is only truly freed once no run shares it. Readers that arrive before
  // the next publish pay one locked full refreeze (the eviction trade).
  std::int64_t freed = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    freed += InstallPublicationLocked(*shard, nullptr);
    freed += shard->engine.DropFrozenBlocks();
  }
  return freed;
}

std::int64_t ShardedStreamEngine::SpillColdFramesRung(std::int64_t excess) {
  const size_t n = shards_.size();
  std::vector<std::int64_t> resident(n, 0);
  std::int64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    resident[i] = shards_[i]->engine.MemoryBytes();
    total += resident[i];
  }
  if (total <= 0 || excess <= 0) return 0;
  std::int64_t freed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (resident[i] <= 0) continue;
    // Each shard spills its proportional share, rounded up so a small
    // excess still makes progress somewhere.
    const std::int64_t target = (excess * resident[i] + total - 1) / total;
    if (target <= 0) continue;
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    freed += shards_[i]->engine.SpillColdFrames(target).bytes;
  }
  return freed;
}

regcube::SpillStats ShardedStreamEngine::SpillStats() const {
  regcube::SpillStats out;
  out.budget_bytes = budget_config_.budget_bytes;
  if (governor_ != nullptr) {
    const MemoryGovernor::Stats g = governor_->stats();
    out.enforcements = g.enforcements;
    for (const auto& rung : g.rungs) {
      out.evicted_bytes += rung.reclaimed_bytes;
      if (rung.name == "cube.memo") {
        out.memo_evictions += rung.invocations;
      } else if (rung.name == "frames.spill") {
        out.spill_evictions += rung.invocations;
      } else {
        out.cache_evictions += rung.invocations;
      }
    }
  }
  out.budget_rejects = budget_rejects_.load(std::memory_order_relaxed);
  if (frame_store_ != nullptr) {
    const FrameStoreStats s = frame_store_->Stats();
    out.spilled_blocks = s.spilled_blocks;
    out.spilled_bytes = s.spilled_bytes;
    out.fault_ins = s.fault_ins;
    out.fault_in_bytes = s.fault_in_bytes;
    out.fault_in_p99_us = s.fault_in_p99_us;
    out.disk_bytes = s.disk_bytes;
    out.live_bytes = s.live_bytes;
    out.garbage_bytes = s.garbage_bytes;
    const CompactionStats c = frame_store_->Compactions();
    out.compactions = c.compactions;
    out.compacted_bytes = c.compacted_bytes;
    out.reclaimed_bytes = c.reclaimed_bytes;
    out.compaction_failures = c.failures;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.spilled_cells += shard->engine.SpilledCells();
    out.io_errors += shard->engine.SpillIoErrors();
    out.retries += shard->engine.SpillRetries();
  }
  return out;
}

Status ShardedStreamEngine::CheckpointTo(const std::string& dir) {
  // Queued tuples must land before the cut (async mode); then every shard
  // lock is held so the files describe one consistent instant.
  RC_RETURN_IF_ERROR(Flush());
  RC_RETURN_IF_ERROR(EnsureDirectory(dir));
  auto locks = LockAll();
  const size_t n = shards_.size();
  std::vector<Status> statuses(n);
  std::vector<std::int64_t> counts(n, 0);
  auto write_one = [&](std::int64_t idx) {
    const size_t i = static_cast<size_t>(idx);
    std::vector<std::pair<CellKey, std::string>> cells;
    Status s = shards_[i]->engine.ExportFrameRecords(&cells);
    if (s.ok()) {
      counts[i] = static_cast<std::int64_t>(cells.size());
      s = WriteFile(CheckpointShardFilePath(dir, static_cast<int>(i)),
                    EncodeCheckpointShardFile(static_cast<int>(i), cells));
    }
    statuses[i] = std::move(s);
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(static_cast<std::int64_t>(n), write_one);
  } else {
    for (size_t i = 0; i < n; ++i) write_one(static_cast<std::int64_t>(i));
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  CheckpointManifest manifest;
  manifest.num_shard_files = num_shards();
  manifest.num_dims = schema_->num_dims();
  manifest.num_levels = options_.tilt_policy->num_levels();
  manifest.start_tick = options_.start_tick;
  TimeTick clock = clock_.load(std::memory_order_acquire);
  TimeTick sealed = options_.start_tick;
  for (const auto& shard : shards_) {
    clock = std::max(clock, shard->engine.now());
    sealed = std::max(sealed, shard->engine.sealed());
  }
  manifest.clock = clock;
  manifest.sealed = sealed;
  for (std::int64_t c : counts) manifest.num_cells += c;
  // The manifest is the commit point: written (atomically) last, so a
  // directory with a valid manifest always has complete shard files.
  return WriteFile(CheckpointManifestPath(dir),
                   EncodeCheckpointManifest(manifest));
}

Status ShardedStreamEngine::RestoreFrom(const std::string& dir) {
  if (num_cells() != 0) {
    return Status::FailedPrecondition(
        "RestoreFrom requires a freshly built, empty engine");
  }
  auto manifest_data = ReadFile(CheckpointManifestPath(dir));
  if (!manifest_data.ok()) return manifest_data.status();
  auto manifest = DecodeCheckpointManifest(*manifest_data);
  if (!manifest.ok()) return manifest.status();
  if (manifest->num_dims != schema_->num_dims()) {
    return Status::InvalidArgument(
        StrPrintf("checkpoint was written with %d dims, schema has %d",
                  manifest->num_dims, schema_->num_dims()));
  }
  if (manifest->num_levels != options_.tilt_policy->num_levels()) {
    return Status::InvalidArgument(StrPrintf(
        "checkpoint was written with %d tilt levels, policy has %d",
        manifest->num_levels, options_.tilt_policy->num_levels()));
  }
  if (manifest->start_tick != options_.start_tick) {
    return Status::InvalidArgument(StrPrintf(
        "checkpoint starts at tick %lld, engine at %lld (OpenFrom sets "
        "this automatically)",
        static_cast<long long>(manifest->start_tick),
        static_cast<long long>(options_.start_tick)));
  }
  if (frame_store_ == nullptr) {
    // No spill dir configured: an attach-only store maps the checkpoint
    // files; later evictions just stop at the cache rungs.
    auto store = FrameStore::Open("", options_.tilt_policy);
    if (!store.ok()) return store.status();
    frame_store_ = std::move(*store);
    frame_store_->set_fault_injector(fault_injector_);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    shards_[i]->engine.set_frame_store(frame_store_.get(),
                                       static_cast<int>(i));
  }
  // Cells are re-routed by the *current* shard hash — the checkpoint's
  // shard count is just its file layout, not a constraint on ours.
  std::int64_t restored = 0;
  for (std::int32_t f = 0; f < manifest->num_shard_files; ++f) {
    auto entries =
        frame_store_->AttachCheckpointFile(CheckpointShardFilePath(dir, f));
    if (!entries.ok()) return entries.status();
    for (const auto& entry : *entries) {
      Shard& shard = *shards_[static_cast<size_t>(ShardIndex(entry.key))];
      std::lock_guard<std::mutex> lock(shard.mu);
      RC_RETURN_IF_ERROR(shard.engine.RestoreCell(entry.key, entry.ref));
      ++restored;
    }
  }
  if (restored != manifest->num_cells) {
    return Status::InvalidArgument(
        StrPrintf("checkpoint manifest promises %lld cells, files held %lld",
                  static_cast<long long>(manifest->num_cells),
                  static_cast<long long>(restored)));
  }
  BumpClock(manifest->clock);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->engine.RestoreClock(manifest->clock, manifest->sealed);
    // Restored cells are not on the dirty list, so a run published before
    // the restore (even an empty one) cannot be patched into the restored
    // state: retire it, and the next read exports in full.
    InstallPublicationLocked(*shard, nullptr);
    shard->version.store(shard->engine.revision(), std::memory_order_release);
  }
  revision_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace regcube
