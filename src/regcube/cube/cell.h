#ifndef REGCUBE_CUBE_CELL_H_
#define REGCUBE_CUBE_CELL_H_

#include <array>
#include <cstdint>
#include <string>

#include "regcube/cube/schema.h"

namespace regcube {

/// Sentinel value id stored in a cell key for a dimension that is "*" in the
/// cell's cuboid. (Distinct from value 0 so keys print unambiguously; cells
/// of the same cuboid never mix the two.)
inline constexpr ValueId kStarValue = 0xFFFFFFFFu;

/// Key of one cell inside a cuboid: one value id per dimension (kStarValue
/// where the cuboid's level is "*"). Fixed-size for cheap hashing/equality;
/// the cuboid id lives alongside the key in CellRef, not inside it.
class CellKey {
 public:
  CellKey() { values_.fill(kStarValue); }

  explicit CellKey(int num_dims) : num_dims_(num_dims) {
    values_.fill(kStarValue);
  }

  int num_dims() const { return num_dims_; }

  ValueId operator[](int d) const {
    return values_[static_cast<size_t>(d)];
  }
  void set(int d, ValueId v) { values_[static_cast<size_t>(d)] = v; }

  friend bool operator==(const CellKey& a, const CellKey& b) {
    return a.num_dims_ == b.num_dims_ && a.values_ == b.values_;
  }

  /// 64-bit mix hash over the value array.
  std::uint64_t Hash() const;

  /// "(3, *, 17)".
  std::string ToString() const;

 private:
  std::array<ValueId, kMaxDims> values_;
  int num_dims_ = 0;
};

/// Canonical total order on cell keys: dimensionality, then values in
/// dimension order. Merged rows are always reduced in this order, which is
/// what makes results shard-count invariant, and every list a query
/// returns is ordered by it, which is what makes list order a function of
/// the cube's content.
bool CanonicalKeyLess(const CellKey& a, const CellKey& b);

struct CellKeyHash {
  std::size_t operator()(const CellKey& k) const {
    return static_cast<std::size_t>(k.Hash());
  }
};

/// Identifier of a cuboid inside a lattice (dense index, see CuboidLattice).
using CuboidId = std::int32_t;

/// Fully-qualified cell reference: which cuboid, which cell.
struct CellRef {
  CuboidId cuboid = -1;
  CellKey key;

  friend bool operator==(const CellRef&, const CellRef&) = default;

  std::string ToString() const;
};

struct CellRefHash {
  std::size_t operator()(const CellRef& c) const {
    return static_cast<std::size_t>(c.key.Hash() * 1099511628211ULL) ^
           static_cast<std::size_t>(c.cuboid);
  }
};

}  // namespace regcube

#endif  // REGCUBE_CUBE_CELL_H_
