#include "regcube/core/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "regcube/core/snapshot_reads.h"
#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"

namespace regcube {

namespace {
// Frozen snapshot blocks cached per cell, reported through MemoryTracker.
constexpr char kFrozenCategory[] = "snapshot.frozen_frames";
// The ingest-maintained per-cuboid member index (see MemberIndex).
constexpr char kMemberIndexCategory[] = "index.members";
// Resident per-cell state (keys, map overhead, live tilt frames).
constexpr char kTiltFramesCategory[] = "stream.tilt_frames";
// Estimated unordered_map node overhead per cell, matching the historical
// MemoryBytes formula.
constexpr std::int64_t kMapEntryOverhead = 16;
}  // namespace

StreamCubeEngine::StreamCubeEngine(std::shared_ptr<const CubeSchema> schema,
                                   Options options)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)),
      now_(options_.start_tick),
      sealed_(options_.start_tick),
      member_index_(&lattice_) {
  RC_CHECK(schema_ != nullptr);
  RC_CHECK(options_.tilt_policy != nullptr);
}

void StreamCubeEngine::MarkDirty(const CellKey& key, CellState& state) {
  QueueForRefresh(key, state);
  state.last_modified = ++revision_;
}

void StreamCubeEngine::QueueForRefresh(const CellKey& key, CellState& state) {
  // Queue the cell for the next export's patch pass at most once; while it
  // is queued, further changes add nothing the export needs to know.
  if (!state.queued) {
    dirty_cells_.push_back({key, &state});
    state.queued = true;
  }
}

StreamCubeEngine::CellState& StreamCubeEngine::CellFor(const CellKey& key) {
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    it = cells_
             .emplace(key, CellState(std::make_unique<TiltTimeFrame>(
                               options_.tilt_policy, options_.start_tick)))
             .first;
    // Creation is observable (num_cells, window errors) even if the first
    // Add is rejected.
    it->second.last_modified = ++revision_;
    dirty_cells_.push_back({key, &it->second});
    it->second.queued = true;
    // The index half of creation: the new cell gets the next dense id and
    // is folded into every active cuboid map — membership is fixed at
    // birth (keys never change, cells are never erased), so this is the
    // only write the member index ever needs.
    const auto id = static_cast<MemberIndex::MemberId>(cells_by_id_.size());
    cells_by_id_.push_back({key, &it->second});
    member_index_.AddCell(key, id);
    AccountMemberIndex();
    AccountCell(it->second);
  }
  return it->second;
}

void StreamCubeEngine::AccountCell(CellState& state) {
  const std::int64_t bytes =
      static_cast<std::int64_t>(sizeof(CellKey)) + kMapEntryOverhead +
      (state.frame != nullptr ? state.frame->MemoryBytes() : 0);
  const std::int64_t delta = bytes - state.tracked_bytes;
  if (delta == 0) return;
  frame_bytes_ += delta;
  if (tracker_ != nullptr) {
    if (delta > 0) {
      tracker_->Add(kTiltFramesCategory, delta);
    } else {
      tracker_->Release(kTiltFramesCategory, -delta);
    }
  }
  state.tracked_bytes = bytes;
}

Result<TiltTimeFrame*> StreamCubeEngine::LiveFrame(CellState& state) {
  if (state.frame != nullptr) return state.frame.get();
  // Fault-in. A failed read (injected fault, lost mapping) leaves the cell
  // spilled and its ref intact: the typed error propagates to the ingest
  // that touched the cell, and the next write retries — never an abort,
  // never a partially-restored frame.
  if (store_ == nullptr) {
    return Status::Internal("spilled cell without a frame store");
  }
  auto frame = store_->ReadFrame(state.spill);
  if (!frame.ok()) return frame.status();
  // The seals this cell missed while cold. Reads of its view already
  // take it as of their clock, so the advance changes nothing a read
  // sees; it makes the write below refuse what the resident frame would.
  Status advanced = frame->AdvanceTo(sealed_);
  RC_CHECK(advanced.ok()) << advanced.ToString();
  state.frame = std::make_unique<TiltTimeFrame>(*std::move(frame));
  store_->Release(state.spill);
  state.spill = BlockRef{};
  --spilled_cells_;
  return state.frame.get();
}

void StreamCubeEngine::EnsureIndexed(CuboidId cuboid) {
  if (member_index_.active(cuboid)) return;
  member_index_.Activate(cuboid);
  for (size_t id = 0; id < cells_by_id_.size(); ++id) {
    member_index_.AddCellTo(cuboid, cells_by_id_[id].first,
                            static_cast<MemberIndex::MemberId>(id));
  }
  AccountMemberIndex();
}

void StreamCubeEngine::AccountMemberIndex() {
  // Register only the delta: this runs on every cell creation, so a
  // release-all/re-add cycle would double the tracker traffic for a
  // 16-byte growth.
  const std::int64_t bytes = MemberIndexBytes();
  const std::int64_t delta = bytes - member_index_tracked_;
  if (tracker_ != nullptr && delta != 0) {
    if (delta > 0) {
      tracker_->Add(kMemberIndexCategory, delta);
    } else {
      tracker_->Release(kMemberIndexCategory, -delta);
    }
  }
  member_index_tracked_ = bytes;
}

Status StreamCubeEngine::Ingest(const StreamTuple& tuple) {
  const CellKey key =
      options_.key_mapper ? options_.key_mapper(tuple.key) : tuple.key;
  CellState& state = CellFor(key);
  RC_ASSIGN_OR_RETURN(TiltTimeFrame * frame, LiveFrame(state));
  const Status added = frame->Add(tuple.tick, tuple.value);
  AccountCell(state);  // a fault-in changes the bytes even if Add refuses
  RC_RETURN_IF_ERROR(added);
  MarkDirty(key, state);
  now_ = std::max(now_, tuple.tick);
  return Status::OK();
}

IngestReport StreamCubeEngine::IngestBatch(
    const std::vector<StreamTuple>& tuples) {
  IngestReport report;
  report.attempted = static_cast<std::int64_t>(tuples.size());
  for (const StreamTuple& t : tuples) {
    Status s = Ingest(t);
    if (!s.ok()) {
      report.status = std::move(s);
      return report;
    }
    ++report.absorbed;
  }
  return report;
}

Status StreamCubeEngine::SealThrough(TimeTick t) {
  now_ = std::max(now_, t + 1);
  AlignFrames();
  return Status::OK();
}

void StreamCubeEngine::AlignFrames() {
  sealed_ = now_;
  for (auto& [key, state] : cells_) {
    if (state.frame == nullptr) {
      // Spilled: alignment is deferred to the write that faults it in
      // (LiveFrame advances to sealed_). AdvanceTo over the skipped ticks
      // is deterministic (missing ticks contribute zero), so the late
      // advance yields bit-identical slots — and a seal sweep never has to
      // touch the cold tier.
      continue;
    }
    const TimeTick from = state.frame->next_tick();
    if (from >= now_) continue;
    Status s = state.frame->AdvanceTo(now_);
    RC_CHECK(s.ok()) << s.ToString();
    AccountCell(state);
    // Only an advance that sealed a slot changes what any read can see;
    // moving next_tick within an open unit leaves every slot untouched, so
    // the cell's frozen block (and any revision-memoized snapshot) stays
    // valid.
    if (options_.tilt_policy->AnyUnitEndIn(from, now_)) {
      MarkDirty(key, state);
    }
  }
}

Result<RegressionCube> ComputeCubeFromWindow(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples,
    const StreamCubeEngine::Options& options, ThreadPool* pool) {
  if (options.algorithm == StreamCubeEngine::Algorithm::kMoCubing) {
    MoCubingOptions mo;
    mo.policy = options.policy;
    mo.pool = pool;
    return ComputeMoCubing(std::move(schema), tuples, mo);
  }
  PopularPathOptions pp;
  pp.policy = options.policy;
  pp.path = options.path;
  pp.pool = pool;
  return ComputePopularPathCubing(std::move(schema), tuples, pp);
}

void StreamCubeEngine::set_memory_tracker(MemoryTracker* tracker) {
  // Hand the registered bytes from the old tracker to the new one, so
  // detach / re-attach keeps every tracker balanced.
  if (tracker_ != nullptr) {
    if (frozen_tracked_ > 0) {
      tracker_->Release(kFrozenCategory, frozen_tracked_);
    }
    if (member_index_tracked_ > 0) {
      tracker_->Release(kMemberIndexCategory, member_index_tracked_);
    }
    if (frame_bytes_ > 0) tracker_->Release(kTiltFramesCategory, frame_bytes_);
  }
  if (tracker != nullptr) {
    if (frozen_bytes_ > 0) tracker->Add(kFrozenCategory, frozen_bytes_);
    if (member_index_tracked_ > 0) {
      tracker->Add(kMemberIndexCategory, member_index_tracked_);
    }
    if (frame_bytes_ > 0) tracker->Add(kTiltFramesCategory, frame_bytes_);
  }
  tracker_ = tracker;
  frozen_tracked_ = tracker != nullptr ? frozen_bytes_ : 0;
}

void StreamCubeEngine::set_frame_store(FrameStore* store, int shard_index) {
  store_ = store;
  shard_index_ = shard_index;
}

void StreamCubeEngine::PublishFrozen(
    CellState& state, std::shared_ptr<const TiltTimeFrame> block) {
  // Views are charged nothing: their blocks are the cold tier's page
  // cache, not RAM the budget owns.
  const std::int64_t old_bytes =
      state.frozen != nullptr ? state.frozen->OwnedBytes() : 0;
  frozen_bytes_ += block->OwnedBytes() - old_bytes;
  state.frozen = std::move(block);
}

void StreamCubeEngine::PostFrozenBytes() {
  if (tracker_ == nullptr) return;
  const std::int64_t delta = frozen_bytes_ - frozen_tracked_;
  if (delta > 0) {
    tracker_->Add(kFrozenCategory, delta);
  } else if (delta < 0) {
    tracker_->Release(kFrozenCategory, -delta);
  }
  frozen_tracked_ = frozen_bytes_;
}

Result<std::shared_ptr<const TiltTimeFrame>> StreamCubeEngine::FrozenFor(
    CellState& state, GatherStats* stats) {
  if (state.frozen != nullptr &&
      state.frozen_revision == state.last_modified) {
    return state.frozen;
  }
  std::shared_ptr<const TiltTimeFrame> block;
  if (state.frame == nullptr) {
    // Cold: view the spilled block in place instead of faulting it in.
    if (store_ == nullptr) {
      return Status::Internal("spilled cell without a frame store");
    }
    RC_ASSIGN_OR_RETURN(block, store_->ViewFrame(state.spill));
    if (stats != nullptr) ++stats->cold_views;
  } else {
    block = state.frame->Freeze();
    if (stats != nullptr) {
      ++stats->materialized;
      stats->bytes_copied += block->MemoryBytes();
    }
  }
  PublishFrozen(state, std::move(block));
  state.frozen_revision = state.last_modified;
  return state.frozen;
}

Status StreamCubeEngine::RefreshPublishedRun(const FrozenSlice& base,
                                             FrozenSlice* out,
                                             GatherStats* stats) {
  FrozenPostGuard post{this};
  if (stats != nullptr) stats->cells += num_cells();
  if (base != nullptr && dirty_cells_.empty()) {
    // Nothing observable changed since the base was built: hand it back.
    if (stats != nullptr) ++stats->shards_reused;
    *out = base;
    return Status::OK();
  }
  auto next = std::make_shared<std::vector<CellSnapshot>>();
  if (base == nullptr) {
    // No base (first refresh, or the caller retired its run): full sorted
    // export.
    next->reserve(cells_.size());
    for (auto& [key, state] : cells_) {
      auto frozen = FrozenFor(state, stats);
      if (!frozen.ok()) return frozen.status();
      next->push_back({key, *std::move(frozen)});
    }
    std::sort(next->begin(), next->end(), CellSnapshotCanonicalLess);
  } else {
    // Patch refresh: re-freeze only the dirty cells, then splice them over
    // a pointer-copy of the base in one tandem merge — O(changed cells)
    // frame work, O(cells) pointer moves.
    std::vector<CellSnapshot> patches;
    patches.reserve(dirty_cells_.size());
    for (auto& [key, state] : dirty_cells_) {
      auto frozen = FrozenFor(*state, stats);
      // Leave the dirty list untouched: the next refresh retries exactly
      // this work.
      if (!frozen.ok()) return frozen.status();
      patches.push_back({key, *std::move(frozen)});
    }
    std::sort(patches.begin(), patches.end(), CellSnapshotCanonicalLess);
    next->reserve(base->size() + patches.size());
    auto base_it = base->begin();
    for (CellSnapshot& patch : patches) {
      while (base_it != base->end() &&
             CanonicalKeyLess(base_it->key, patch.key)) {
        next->push_back(*base_it++);
      }
      if (base_it != base->end() && base_it->key == patch.key) {
        ++base_it;  // replaced by the patch
      }
      next->push_back(std::move(patch));
    }
    next->insert(next->end(), base_it, base->end());
  }
  for (auto& entry : dirty_cells_) entry.second->queued = false;
  dirty_cells_.clear();
  *out = std::move(next);
  return Status::OK();
}

void StreamCubeEngine::AppendMemberKeys(CuboidId cuboid, const CellKey& key,
                                        std::vector<CellKey>* out) {
  EnsureIndexed(cuboid);
  const auto* ids = member_index_.MembersOf(cuboid, key);
  if (ids == nullptr) return;
  out->reserve(out->size() + ids->size());
  for (const MemberIndex::MemberId id : *ids) {
    out->push_back(cells_by_id_[id].first);
  }
}

StreamCubeEngine::SpillSweep StreamCubeEngine::SpillColdFrames(
    std::int64_t target_bytes) {
  SpillSweep sweep;
  if (store_ == nullptr || target_bytes <= 0) return sweep;
  // Cold-first: every resident cell, dirty or clean, least recently
  // modified first. A dirty cell needs no export first: the refresh that
  // patches it views the spilled block, which holds the unexported write.
  std::vector<std::pair<const CellKey*, CellState*>> candidates;
  candidates.reserve(cells_.size());
  for (auto& [key, state] : cells_) {
    if (state.frame == nullptr) continue;
    candidates.push_back({&key, &state});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.second->last_modified < b.second->last_modified;
            });
  // The sweep: the coldest cells until their RAM covers the target.
  std::vector<const TiltTimeFrame*> frames;
  std::int64_t freed = 0;
  for (const auto& [key, state] : candidates) {
    if (freed >= target_bytes) break;
    freed += state->frame->MemoryBytes() +
             (state->frozen != nullptr ? state->frozen->OwnedBytes() : 0);
    frames.push_back(state->frame.get());
  }
  if (frames.empty()) return sweep;
  // One write for the whole sweep, retried a bounded number of times with
  // a short backoff: a transiently failing disk (injected fault, momentary
  // ENOSPC) gets a few more chances before the sweep gives up and leaves
  // everything resident. Either way no state is lost — cells spill only
  // after the append succeeded.
  constexpr int kMaxAttempts = 3;
  Result<std::vector<BlockRef>> refs = Status::Internal("unset");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      ++spill_retries_;
      std::this_thread::sleep_for(std::chrono::microseconds(50ll << attempt));
    }
    refs = store_->AppendFrames(shard_index_, frames);
    if (refs.ok() || refs.status().code() != StatusCode::kUnavailable) {
      break;  // success, or an error a retry cannot fix
    }
  }
  if (!refs.ok()) {
    ++spill_io_errors_;
    return sweep;
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    auto [key, state] = candidates[i];
    if (state->frozen != nullptr) {
      frozen_bytes_ -= state->frozen->OwnedBytes();
      state->frozen = nullptr;
      state->frozen_revision = 0;
    }
    state->frame.reset();
    state->spill = (*refs)[i];
    ++spilled_cells_;
    AccountCell(*state);
    // The published run may still hold this cell's owned copy: the next
    // refresh swaps a view in, so the spill frees the RAM for real.
    QueueForRefresh(*key, *state);
  }
  sweep.cells = static_cast<std::int64_t>(frames.size());
  sweep.bytes = freed;
  PostFrozenBytes();
  return sweep;
}

void StreamCubeEngine::RepointSpilledBlocks(
    const std::vector<FrameStore::Relocation>& relocations) {
  if (relocations.empty()) return;
  // A compaction rewrites exactly one segment, so every relocation names
  // the same source file.
  const std::int32_t from_file = relocations.front().from.file;
  std::unordered_map<std::int64_t, BlockRef> moved;
  moved.reserve(relocations.size());
  for (const FrameStore::Relocation& r : relocations) {
    moved[r.from.offset] = r.to;
  }
  for (auto& [key, state] : cells_) {
    if (state.frame != nullptr || state.spill.file != from_file) continue;
    auto it = moved.find(state.spill.offset);
    if (it == moved.end()) continue;
    state.spill = it->second;
    // Its view (charged nothing) reads the old segment: drop it and let
    // the next refresh view the new one, so the old mapping can go.
    if (state.frozen != nullptr && state.frozen->is_view()) {
      state.frozen = nullptr;
      state.frozen_revision = 0;
      QueueForRefresh(key, state);
    }
  }
}

std::int64_t StreamCubeEngine::DropFrozenBlocks() {
  std::int64_t freed = 0;
  for (auto& [key, state] : cells_) {
    // Views stay: they hold no RAM the budget charges, and dropping them
    // would only make the next export view the same blocks again.
    if (state.frozen == nullptr || state.frozen->is_view()) continue;
    const std::int64_t bytes = state.frozen->OwnedBytes();
    frozen_bytes_ -= bytes;
    state.frozen = nullptr;
    state.frozen_revision = 0;
    freed += bytes;
  }
  PostFrozenBytes();
  return freed;
}

Status StreamCubeEngine::RestoreCell(const CellKey& key, const BlockRef& ref) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "RestoreCell requires an attached frame store");
  }
  if (!ref.valid()) {
    return Status::InvalidArgument("invalid block ref for restored cell");
  }
  if (cells_.find(key) != cells_.end()) {
    return Status::InvalidArgument("duplicate cell key in checkpoint");
  }
  auto it = cells_.emplace(key, CellState(nullptr)).first;
  CellState& state = it->second;
  state.spill = ref;
  // Creation is observable; the cell is NOT dirty-queued — the caller
  // retires its published run, so the next export is a full one and picks
  // the cell up there (a view into the checkpoint mapping).
  state.last_modified = ++revision_;
  const auto id = static_cast<MemberIndex::MemberId>(cells_by_id_.size());
  cells_by_id_.push_back({it->first, &state});
  member_index_.AddCell(key, id);
  AccountMemberIndex();
  ++spilled_cells_;
  AccountCell(state);
  return Status::OK();
}

Status StreamCubeEngine::ExportFrameRecords(
    std::vector<std::pair<CellKey, std::string>>* out) {
  out->reserve(out->size() + cells_.size());
  for (auto& [key, state] : cells_) {
    if (state.frame != nullptr) {
      std::string record(state.frame->RecordBytes(), '\0');
      state.frame->WriteRecord(reinterpret_cast<std::byte*>(record.data()));
      out->push_back({key, std::move(record)});
    } else {
      // Cold cells are copied record-to-record — no fault-in:
      // checkpointing a mostly-cold engine stays cheap.
      auto raw = store_->ReadRawBlock(state.spill);
      if (!raw.ok()) return raw.status();
      out->push_back({key, *std::move(raw)});
    }
  }
  return Status::OK();
}

}  // namespace regcube
