#include "regcube/core/incremental_cube.h"

#include <unordered_set>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/stream_engine.h"

namespace regcube {

namespace {
// The maintained cube's retained state, reported through MemoryTracker:
// the window's H-tree, the per-cuboid member indexes, the canonical window
// and the materialized cube itself — the space the O(delta) maintenance
// trades for not re-running H-cubing per snapshot.
constexpr char kMemoCategory[] = "cube.memo";

/// Every cuboid the memo recomputes: all but the m-layer, whose cells are
/// the window itself.
std::vector<CuboidId> MaintainedCuboids(const CuboidLattice& lattice) {
  std::vector<CuboidId> cuboids;
  cuboids.reserve(static_cast<size_t>(lattice.num_cuboids()));
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c != lattice.m_layer_id()) cuboids.push_back(c);
  }
  return cuboids;
}

}  // namespace

IncrementalCubeCache::IncrementalCubeCache(
    std::shared_ptr<const CubeSchema> schema,
    StreamCubeEngine::Options options)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)) {
  RC_CHECK(schema_ != nullptr);
  RC_CHECK(options_.algorithm == StreamCubeEngine::Algorithm::kMoCubing)
      << "only m/o H-cubing is incrementally maintainable";
}

IncrementalCubeCache::~IncrementalCubeCache() {
  if (tracker_ != nullptr && tracked_bytes_ > 0) {
    tracker_->Release(kMemoCategory, tracked_bytes_);
  }
}

void IncrementalCubeCache::AccountLocked() {
  std::int64_t bytes =
      static_cast<std::int64_t>(window_.size() * sizeof(MLayerTuple));
  if (tree_.has_value()) bytes += tree_->MemoryBytes();
  for (const auto& index : indexes_) {
    if (index.has_value()) bytes += index->MemoryBytes();
  }
  if (cube_ != nullptr) {
    bytes += CellMapMemoryBytes(cube_->m_layer()) +
             CellMapMemoryBytes(cube_->o_layer()) +
             cube_->exceptions().MemoryBytes();
  }
  if (tracker_ != nullptr) {
    if (tracked_bytes_ > 0) tracker_->Release(kMemoCategory, tracked_bytes_);
    if (bytes > 0) tracker_->Add(kMemoCategory, bytes);
  }
  tracked_bytes_ = bytes;
}

void IncrementalCubeCache::set_memory_tracker(MemoryTracker* tracker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tracker_ != nullptr && tracked_bytes_ > 0) {
    tracker_->Release(kMemoCategory, tracked_bytes_);
  }
  if (tracker != nullptr && tracked_bytes_ > 0) {
    tracker->Add(kMemoCategory, tracked_bytes_);
  }
  tracker_ = tracker;
}

void IncrementalCubeCache::ResetLocked() {
  valid_ = false;
  run_.reset();
  window_.clear();
  window_.shrink_to_fit();
  tree_.reset();
  indexes_.clear();
  index_full_.clear();
  index_seed_budget_.clear();
  prefix_depth_.clear();
  cube_.reset();
}

void IncrementalCubeCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  ResetLocked();
  AccountLocked();
}

void IncrementalCubeCache::set_member_lookup(MemberLookup lookup) {
  std::lock_guard<std::mutex> lock(mu_);
  member_lookup_ = std::move(lookup);
}

IncrementalCubeCache::Stats IncrementalCubeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::int64_t IncrementalCubeCache::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracked_bytes_;
}

IncrementalCubeCache::DiffVerdict IncrementalCubeCache::DiffLocked(
    const SnapshotCells& run, int level, int k,
    std::vector<ChangedCell>* changed, std::vector<Isb>* rolled) {
  // The memoized run and the new one are both in canonical key order, so
  // equal populations walk in lockstep; any key divergence is a structural
  // change (a cell appeared) and forces a rebuild — neither a patch nor a
  // roll could reproduce a freshly built tree's chain order bit for bit.
  const SnapshotCells& base = *run_;
  if (base.size() != run.size()) return DiffVerdict::kRebuild;
  const TimeInterval& window_interval = window_.front().measure.interval;
  for (size_t i = 0; i < run.size(); ++i) {
    if (!(base[i].key == run[i].key)) return DiffVerdict::kRebuild;
    const bool shared = base[i].frame.get() == run[i].frame.get();
    if (!rolled->empty()) {
      // Rolling: every cell must have moved to the new interval. A shared
      // frame still regresses to the old one, and a mixed window is the
      // from-scratch kernel's error to report.
      if (shared) return DiffVerdict::kRebuild;
      auto isb = run[i].frame->RegressLastSlots(level, k);
      if (!isb.ok() || !(isb->interval == rolled->front().interval)) {
        return DiffVerdict::kRebuild;
      }
      rolled->push_back(*isb);
      continue;
    }
    // A cell whose frozen block is shared with the memoized run cannot
    // have changed any slot — skip without touching the frame.
    if (shared) continue;
    auto isb = run[i].frame->RegressLastSlots(level, k);
    // A failing regression (or any other anomaly) falls back to the
    // from-scratch kernel, which reproduces the exact legacy error.
    if (!isb.ok()) return DiffVerdict::kRebuild;
    if (!(isb->interval == window_interval)) {
      // The window moved (a new slot sealed at this level): an epoch roll,
      // valid only if it moves every cell — the cells walked so far all
      // stayed on the old interval.
      if (i != 0) return DiffVerdict::kRebuild;
      rolled->reserve(run.size());
      rolled->push_back(*isb);
      continue;
    }
    if (*isb == window_[i].measure) continue;  // open-slot churn only
    changed->push_back(ChangedCell{&run[i].key, *isb, i});
  }
  if (!rolled->empty()) return DiffVerdict::kRoll;
  return changed->empty() ? DiffVerdict::kClean : DiffVerdict::kPatch;
}

Status IncrementalCubeCache::EnsureTreeLocked() {
  if (tree_.has_value()) return Status::OK();
  // Built from the same canonical tuple sequence a fresh cubing run would
  // use, so its structure, chains and hash layouts are identical to the
  // tree the from-scratch kernel would build — the property every
  // bit-identity argument below rests on.
  HTree::Options tree_options;
  tree_options.attribute_order = CardinalityAscendingOrder(*schema_);
  // Stored subtree measures make every chain node's contribution an O(1)
  // read during cell re-aggregation. The build-time fold is bitwise equal
  // to the lazy subtree walk of the from-scratch (m/o) tree, so the oracle
  // relationship is unchanged; patches keep the stored measures current
  // along the dirty paths, rolls refold them all.
  tree_options.store_nonleaf_measures = true;
  auto built = HTree::Build(*schema_, window_, std::move(tree_options));
  if (!built.ok()) return built.status();
  tree_ = std::move(built).value();
  const auto num_cuboids = static_cast<size_t>(lattice_.num_cuboids());
  indexes_.assign(num_cuboids, std::nullopt);
  index_full_.assign(num_cuboids, 0);
  index_seed_budget_.assign(num_cuboids, -1);
  // Tree-prefix cuboids (the deepest introduced level per dimension over
  // each attribute-order prefix, when that spec lies in the lattice) get
  // the node-is-cell shortcut on the patch path.
  prefix_depth_.assign(num_cuboids, -1);
  const LayerSpec& o = schema_->o_layer();
  const LayerSpec& m = schema_->m_layer();
  LayerSpec deepest(static_cast<size_t>(schema_->num_dims()), 0);
  for (int pos = 0; pos < tree_->num_attributes(); ++pos) {
    const Attribute& a = tree_->attribute(pos);
    auto& level = deepest[static_cast<size_t>(a.dim)];
    level = std::max(level, a.level);
    bool in_lattice = true;
    for (size_t d = 0; d < deepest.size(); ++d) {
      in_lattice = in_lattice && deepest[d] >= o[d] && deepest[d] <= m[d];
    }
    if (in_lattice) {
      prefix_depth_[static_cast<size_t>(lattice_.id(deepest))] = pos + 1;
    }
  }
  return Status::OK();
}

Status IncrementalCubeCache::ApplyPatchLocked(
    const std::vector<ChangedCell>& changed, ThreadPool* pool) {
  RC_RETURN_IF_ERROR(EnsureTreeLocked());

  // Fold the new leaf measures into the tree and the memoized window, then
  // refresh the stored aggregates along the dirty paths (shared ancestors
  // refold once, deepest first).
  std::vector<const HTreeNode*> dirty_leaves;
  dirty_leaves.reserve(changed.size());
  for (const ChangedCell& cell : changed) {
    auto leaf = tree_->UpdateLeafMeasure(*schema_, *cell.key, cell.measure);
    if (!leaf.ok()) return leaf.status();
    dirty_leaves.push_back(*leaf);
    window_[cell.pos].measure = cell.measure;
  }
  std::vector<std::vector<const HTreeNode*>> dirty_by_depth;
  tree_->RefreshAncestorMeasures(dirty_leaves, &dirty_by_depth);

  // Recompute every cuboid cell a changed m-cell rolls up into, each from
  // its member index in kernel order. Cuboids are independent, so the work
  // partitions across the pool exactly like from-scratch per-cuboid
  // H-cubing.
  const std::vector<CuboidId> cuboids = MaintainedCuboids(lattice_);
  std::vector<PatchedCells> recomputed(cuboids.size());
  auto patch_one = [&](std::int64_t i) {
    const CuboidId cuboid = cuboids[static_cast<size_t>(i)];
    const int depth = prefix_depth_[static_cast<size_t>(cuboid)];
    if (depth >= 0) {
      // Prefix shortcut: the refreshed dirty nodes at this depth are the
      // touched cells, measures already folded.
      recomputed[static_cast<size_t>(i)] = PrefixCellsFromNodes(
          *tree_, lattice_, cuboid, depth,
          dirty_by_depth[static_cast<size_t>(depth)]);
      return;
    }
    std::unordered_set<CellKey, CellKeyHash> seen;
    seen.reserve(changed.size() * 2);
    std::vector<CellKey> touched;
    touched.reserve(changed.size());
    for (const ChangedCell& cell : changed) {
      CellKey key = lattice_.ProjectMLayerKey(*cell.key, cuboid);
      if (seen.insert(key).second) touched.push_back(std::move(key));
    }
    // Make every touched cell resolvable. Small deltas — the online
    // trickle the maintained cube exists for — seed their missing entries
    // from the ingest-maintained member lookup: O(members of the touched
    // cells), no chain scan, so a handful of late cells never pays the
    // cuboid-wide O(chain nodes) build. Bulk patches go straight to the
    // complete chain-scan build (the pre-seeding behavior): per-cell
    // resolution has real constant costs (cross-shard probes, leaf
    // walks), and once the member volume rivals one chain scan the scan
    // is strictly better — it serves the tree's whole lifetime. A
    // cumulative per-cuboid budget (the cuboid's own chain length) caps
    // total seeding spend the same way, and any disagreement with the
    // memoized tree (a member newer than the window) falls back too.
    auto& index = indexes_[static_cast<size_t>(cuboid)];
    if (!index.has_value()) index.emplace();
    if (index_full_[static_cast<size_t>(cuboid)] == 0) {
      std::vector<CellKey> missing;
      missing.reserve(touched.size());
      for (const CellKey& key : touched) {
        if (index->Find(*tree_, key) < 0) missing.push_back(key);
      }
      std::int64_t& budget = index_seed_budget_[static_cast<size_t>(cuboid)];
      if (budget < 0) budget = CuboidChainLength(*tree_, lattice_, cuboid);
      bool seeded = missing.empty();
      // The trickle gate: beyond this many missing cells the complete
      // build amortizes better than per-cell resolution (and an
      // undersized budget is known before paying for the lookup).
      constexpr size_t kSeedMissingMax = 64;
      if (!seeded &&
          (missing.size() > kSeedMissingMax ||
           static_cast<std::int64_t>(missing.size()) * 2 > budget)) {
        budget = 0;
      }
      if (!seeded && member_lookup_ && budget > 0) {
        const auto member_lists = member_lookup_(cuboid, missing);
        RC_CHECK(member_lists.size() == missing.size());
        for (const auto& members : member_lists) {
          budget -= static_cast<std::int64_t>(members.size());
        }
        seeded = true;
        for (size_t m = 0; m < missing.size(); ++m) {
          auto nodes = SeedCellNodesFromMembers(*tree_, lattice_, cuboid,
                                                member_lists[m]);
          if (!nodes.has_value()) {
            seeded = false;  // a member newer than the tree: fall back
            break;
          }
          index->Insert(*tree_, missing[m], *nodes);
        }
      }
      if (!seeded) {
        *index = BuildCuboidMemberIndex(*tree_, lattice_, cuboid);
        index_full_[static_cast<size_t>(cuboid)] = 1;
      }
    }
    recomputed[static_cast<size_t>(i)] =
        RecomputeCellsFromIndex(*tree_, *index, touched);
  };
  const auto n = static_cast<std::int64_t>(cuboids.size());
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(n, patch_one);
  } else {
    for (std::int64_t i = 0; i < n; ++i) patch_one(i);
  }

  // Publish: never mutate a cube some snapshot or caller still holds.
  if (cube_.use_count() > 1) {
    cube_ = std::make_shared<RegressionCube>(cube_->Clone());
  }
  RegressionCube& cube = *cube_;
  const CuboidId o_id = lattice_.o_layer_id();
  const CuboidId m_id = lattice_.m_layer_id();
  for (const ChangedCell& cell : changed) {
    auto it = cube.mutable_m_layer().find(*cell.key);
    RC_CHECK(it != cube.mutable_m_layer().end());
    it->second = cell.measure;
    if (o_id == m_id) {
      // Degenerate lattice: the single cuboid is both critical layers.
      cube.mutable_o_layer()[*cell.key] = cell.measure;
    }
  }
  for (size_t i = 0; i < cuboids.size(); ++i) {
    const CuboidId cuboid = cuboids[i];
    if (cuboid == o_id) {
      for (const auto& [key, isb] : recomputed[i]) {
        auto it = cube.mutable_o_layer().find(key);
        RC_CHECK(it != cube.mutable_o_layer().end());
        it->second = isb;
      }
      continue;
    }
    const int depth = SpecDepth(lattice_.spec(cuboid));
    for (const auto& [key, isb] : recomputed[i]) {
      if (options_.policy.IsException(isb, cuboid, depth)) {
        cube.mutable_exceptions().Insert(cuboid, key, isb);
      } else {
        cube.mutable_exceptions().Erase(cuboid, key);
      }
    }
  }
  stats_.patches += 1;
  stats_.patched_cells += static_cast<std::int64_t>(changed.size());
  return Status::OK();
}

Status IncrementalCubeCache::ApplyRollLocked(const std::vector<Isb>& rolled,
                                             ThreadPool* pool) {
  RC_CHECK(rolled.size() == window_.size());
  // The window and the tree take the rolled measures: the first roll after
  // a rebuild builds the stored-measure tree over the rolled window, later
  // rolls rewrite its leaves and refold its stored measures in place —
  // bitwise the tree HTree::Build would produce over the rolled window.
  for (size_t i = 0; i < rolled.size(); ++i) window_[i].measure = rolled[i];
  if (tree_.has_value()) {
    RC_RETURN_IF_ERROR(tree_->ReplaceLeafMeasures(*schema_, window_));
  } else {
    RC_RETURN_IF_ERROR(EnsureTreeLocked());
  }

  // Never mutate a cube some snapshot or caller still holds.
  if (cube_.use_count() > 1) {
    cube_ = std::make_shared<RegressionCube>(cube_->Clone());
  }
  RegressionCube& cube = *cube_;

  // Recompute every cell of every cuboid from its complete member rows,
  // each row folded in chain order — the from-scratch kernel's operand
  // sequence. The o-layer keeps every value; intermediate cuboids keep
  // what the kernel's exception test keeps. Cuboids are independent, so
  // the work partitions across the pool like from-scratch H-cubing.
  const std::vector<CuboidId> cuboids = MaintainedCuboids(lattice_);
  const CuboidId o_id = lattice_.o_layer_id();
  std::vector<CellMap> retained(cuboids.size());
  auto roll_one = [&](std::int64_t i) {
    const CuboidId cuboid = cuboids[static_cast<size_t>(i)];
    auto& index = indexes_[static_cast<size_t>(cuboid)];
    if (index_full_[static_cast<size_t>(cuboid)] == 0) {
      index = BuildCuboidMemberIndex(*tree_, lattice_, cuboid);
      index_full_[static_cast<size_t>(cuboid)] = 1;
    }
    const size_t rows = index->num_rows();
    if (cuboid == o_id) {
      // The one task that touches the o-layer: overwrite in place.
      for (size_t r = 0; r < rows; ++r) {
        auto it = cube.mutable_o_layer().find(index->RowKey(*tree_, r));
        RC_CHECK(it != cube.mutable_o_layer().end());
        it->second = index->FoldRow(*tree_, r);
      }
      return;
    }
    const auto is_exception = options_.policy.TestFor(
        cuboid, SpecDepth(lattice_.spec(cuboid)));
    CellMap& cells = retained[static_cast<size_t>(i)];
    for (size_t r = 0; r < rows; ++r) {
      const Isb isb = index->FoldRow(*tree_, r);
      if (is_exception(isb)) cells.emplace(index->RowKey(*tree_, r), isb);
    }
  };
  const auto n = static_cast<std::int64_t>(cuboids.size());
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(n, roll_one);
  } else {
    for (std::int64_t i = 0; i < n; ++i) roll_one(i);
  }

  // The m-layer is the window itself.
  const bool degenerate = o_id == lattice_.m_layer_id();
  for (const MLayerTuple& cell : window_) {
    auto it = cube.mutable_m_layer().find(cell.key);
    RC_CHECK(it != cube.mutable_m_layer().end());
    it->second = cell.measure;
    if (degenerate) {
      // The single cuboid is both critical layers.
      cube.mutable_o_layer()[cell.key] = cell.measure;
    }
  }
  ExceptionStore exceptions;
  for (size_t i = 0; i < cuboids.size(); ++i) {
    exceptions.Adopt(cuboids[i], std::move(retained[i]));  // o-layer: empty
  }
  cube.mutable_exceptions() = std::move(exceptions);
  stats_.rolls += 1;
  return Status::OK();
}

Result<std::shared_ptr<const RegressionCube>>
IncrementalCubeCache::RebuildLocked(
    const std::shared_ptr<const SnapshotCells>& run, std::uint64_t revision,
    int level, int k, ThreadPool* pool) {
  auto window = SnapshotWindowOf(*run, level, k);
  if (!window.ok()) return window.status();
  auto cube = ComputeCubeFromWindow(schema_, *window, options_, pool);
  if (!cube.ok()) return cube.status();

  ResetLocked();
  window_ = std::move(*window);
  run_ = run;
  revision_ = revision;
  level_ = level;
  k_ = k;
  cube_ = std::make_shared<RegressionCube>(std::move(*cube));
  valid_ = true;
  stats_.rebuilds += 1;
  AccountLocked();
  return std::shared_ptr<const RegressionCube>(cube_);
}

bool IncrementalCubeCache::WouldEvictDifferentWindow(int level,
                                                     int k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_ && (level != level_ || k != k_);
}

Result<std::shared_ptr<const RegressionCube>> IncrementalCubeCache::CubeFor(
    std::shared_ptr<const SnapshotCells> run, std::uint64_t revision,
    int level, int k, ThreadPool* pool) {
  RC_CHECK(run != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  // A reader that gathered before the memo last advanced must not rewind
  // the shared state (revisions are monotonic): serve its stale run from
  // scratch without memoizing, so up-to-date readers keep their memo.
  if (valid_ && revision < revision_) {
    auto window = SnapshotWindowOf(*run, level, k);
    if (!window.ok()) return window.status();
    auto cube = ComputeCubeFromWindow(schema_, *window, options_, pool);
    if (!cube.ok()) return cube.status();
    return std::shared_ptr<const RegressionCube>(
        std::make_shared<RegressionCube>(std::move(*cube)));
  }
  if (valid_ && level == level_ && k == k_) {
    if (revision == revision_) {
      stats_.hits += 1;
      return std::shared_ptr<const RegressionCube>(cube_);
    }
    std::vector<ChangedCell> changed;
    std::vector<Isb> rolled;
    const DiffVerdict verdict = DiffLocked(*run, level, k, &changed, &rolled);
    switch (verdict) {
      case DiffVerdict::kClean:
        // The writes since the memo touched only open slots; the sealed
        // windows (and therefore the cube) are untouched.
        stats_.revalidations += 1;
        revision_ = revision;
        run_ = std::move(run);
        return std::shared_ptr<const RegressionCube>(cube_);
      case DiffVerdict::kPatch:
      case DiffVerdict::kRoll: {
        const Status applied = verdict == DiffVerdict::kRoll
                                   ? ApplyRollLocked(rolled, pool)
                                   : ApplyPatchLocked(changed, pool);
        if (applied.ok()) {
          revision_ = revision;
          run_ = std::move(run);
          AccountLocked();
          return std::shared_ptr<const RegressionCube>(cube_);
        }
        // A failed patch or roll may have written part of its change:
        // drop the memo and fall back to the from-scratch kernel.
        ResetLocked();
        AccountLocked();
        break;
      }
      case DiffVerdict::kRebuild:
        break;
    }
  }
  return RebuildLocked(run, revision, level, k, pool);
}

}  // namespace regcube
