#include "regcube/core/query.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

namespace {

/// (cuboid, canonical key) order — a function of the cells alone, never of
/// a cell map's insertion history.
bool CuboidKeyLess(const CellResult& a, const CellResult& b) {
  if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
  return CanonicalKeyLess(a.key, b.key);
}

}  // namespace

CubeView::CubeView(const RegressionCube& cube, const ExceptionPolicy& policy)
    : cube_(&cube), policy_(&policy) {}

bool CubeView::IsExceptionCell(CuboidId cuboid, const CellKey& key,
                               const Isb& isb) const {
  (void)key;
  return policy_->IsException(isb, cuboid,
                              SpecDepth(cube_->lattice().spec(cuboid)));
}

Result<Isb> CubeView::GetCell(CuboidId cuboid, const CellKey& key) const {
  const CellMap* cells = cube_->CellsAt(cuboid);
  if (cells != nullptr) {
    auto it = cells->find(key);
    if (it != cells->end()) return it->second;
  }
  return Status::NotFound(StrPrintf("cell %s of cuboid %s was not retained",
                                    key.ToString().c_str(),
                                    cube_->lattice().CuboidName(cuboid).c_str()));
}

Result<Isb> CubeView::ComputeCellOnTheFly(CuboidId cuboid,
                                          const CellKey& key) const {
  const CuboidLattice& lattice = cube_->lattice();
  Isb acc;
  bool found = false;
  for (const auto& [m_key, isb] : cube_->m_layer()) {
    if (lattice.ProjectMLayerKey(m_key, cuboid) == key) {
      AccumulateStandardDim(acc, isb);
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound(StrPrintf(
        "cell %s of cuboid %s has no descendant m-layer cells",
        key.ToString().c_str(), lattice.CuboidName(cuboid).c_str()));
  }
  return acc;
}

std::vector<CellResult> CubeView::ExceptionsAt(CuboidId cuboid) const {
  std::vector<CellResult> out;
  const CellMap* cells = cube_->CellsAt(cuboid);
  if (cells == nullptr) return out;
  for (const auto& [key, isb] : *cells) {
    if (IsExceptionCell(cuboid, key, isb)) {
      out.push_back(CellResult{cuboid, key, isb, true});
    }
  }
  std::sort(out.begin(), out.end(), CuboidKeyLess);
  return out;
}

std::vector<CellResult> CubeView::DrillDown(CuboidId cuboid,
                                            const CellKey& key) const {
  const CuboidLattice& lattice = cube_->lattice();
  std::vector<CellResult> out;
  for (CuboidId child : lattice.DrillChildren(cuboid)) {
    const CellMap* cells = cube_->CellsAt(child);
    if (cells == nullptr) continue;
    for (const auto& [child_key, isb] : *cells) {
      if (!lattice.KeyIsDescendant(child_key, child, key, cuboid)) continue;
      if (!IsExceptionCell(child, child_key, isb)) continue;
      out.push_back(CellResult{child, child_key, isb, true});
    }
  }
  std::sort(out.begin(), out.end(), CuboidKeyLess);
  return out;
}

std::vector<CellResult> CubeView::ExceptionSupporters(
    CuboidId cuboid, const CellKey& key) const {
  std::vector<CellResult> out;
  std::unordered_set<std::uint64_t> seen;  // (cuboid, key-hash) dedupe
  std::deque<CellRef> frontier;
  frontier.push_back(CellRef{cuboid, key});
  while (!frontier.empty()) {
    CellRef cur = frontier.front();
    frontier.pop_front();
    for (const CellResult& child : DrillDown(cur.cuboid, cur.key)) {
      const std::uint64_t tag =
          child.key.Hash() * 31 + static_cast<std::uint64_t>(child.cuboid);
      if (!seen.insert(tag).second) continue;
      out.push_back(child);
      frontier.push_back(CellRef{child.cuboid, child.key});
    }
  }
  return out;
}

std::vector<CellResult> CubeView::TopExceptions(std::size_t n) const {
  std::vector<CellResult> all;
  for (CuboidId cuboid : cube_->exceptions().Cuboids()) {
    const CellMap* cells = cube_->exceptions().CellsOf(cuboid);
    for (const auto& [key, isb] : *cells) {
      all.push_back(CellResult{cuboid, key, isb, true});
    }
  }
  // Strongest first; exact |slope| ties (common: a cuboid cell with one
  // member node equals that node's cell in another cuboid) break by
  // (cuboid, canonical key), so the top n never depend on map order.
  const size_t top = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(top),
                    all.end(), [](const CellResult& a, const CellResult& b) {
                      const double sa = std::fabs(a.isb.slope);
                      const double sb = std::fabs(b.isb.slope);
                      if (sa != sb) return sa > sb;
                      return CuboidKeyLess(a, b);
                    });
  all.resize(top);
  return all;
}

std::string RenderCellWith(const CubeSchema& schema,
                           const CuboidLattice& lattice,
                           const CellResult& cell) {
  const LayerSpec& spec = lattice.spec(cell.cuboid);
  std::vector<std::string> parts;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const int level = spec[static_cast<size_t>(d)];
    if (level == 0) {
      parts.push_back("*");
    } else {
      parts.push_back(schema.dim(d).hierarchy().Label(level, cell.key[d]));
    }
  }
  return StrPrintf("[%s] slope=%+.5f base=%.4f%s",
                   StrJoin(parts, ", ").c_str(), cell.isb.slope,
                   cell.isb.base, cell.is_exception ? "  (EXCEPTION)" : "");
}

std::string CubeView::RenderCell(const CellResult& cell) const {
  return RenderCellWith(cube_->schema(), cube_->lattice(), cell);
}

}  // namespace regcube
