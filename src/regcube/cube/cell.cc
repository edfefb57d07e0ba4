#include "regcube/cube/cell.h"

#include <vector>

#include "regcube/common/str.h"

namespace regcube {

std::uint64_t CellKey::Hash() const {
  // FNV-1a over the live prefix, finished with a splitmix mix step.
  std::uint64_t h = 1469598103934665603ULL;
  for (int d = 0; d < num_dims_; ++d) {
    h ^= values_[static_cast<size_t>(d)];
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

bool CanonicalKeyLess(const CellKey& a, const CellKey& b) {
  if (a.num_dims() != b.num_dims()) return a.num_dims() < b.num_dims();
  for (int d = 0; d < a.num_dims(); ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return false;
}

std::string CellKey::ToString() const {
  std::vector<std::string> parts;
  for (int d = 0; d < num_dims_; ++d) {
    ValueId v = values_[static_cast<size_t>(d)];
    parts.push_back(v == kStarValue ? "*" : StrPrintf("%u", v));
  }
  std::string out = "(";
  out += StrJoin(parts, ", ");
  out += ")";
  return out;
}

std::string CellRef::ToString() const {
  return StrPrintf("cuboid#%d%s", cuboid, key.ToString().c_str());
}

}  // namespace regcube
