#ifndef REGCUBE_MATH_SYMMETRIC_MATRIX_H_
#define REGCUBE_MATH_SYMMETRIC_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

namespace regcube {

/// Dense symmetric matrix stored in lower-triangular packed form
/// (n*(n+1)/2 doubles). This is the storage format for the normal-equation
/// matrix X'X of the multiple-regression measure (NCR): a regression cell
/// must be as small as possible, and packed-symmetric halves the footprint
/// relative to a full dense matrix.
class SymmetricMatrix {
 public:
  /// Creates an n-by-n zero matrix.
  explicit SymmetricMatrix(std::size_t n = 0);

  SymmetricMatrix(const SymmetricMatrix&) = default;
  SymmetricMatrix& operator=(const SymmetricMatrix&) = default;
  SymmetricMatrix(SymmetricMatrix&&) noexcept = default;
  SymmetricMatrix& operator=(SymmetricMatrix&&) noexcept = default;

  std::size_t size() const { return n_; }

  /// Number of stored doubles: n*(n+1)/2.
  std::size_t packed_size() const { return data_.size(); }

  /// Element access; (i, j) and (j, i) refer to the same storage.
  double operator()(std::size_t i, std::size_t j) const {
    return data_[PackedIndex(i, j)];
  }
  double& operator()(std::size_t i, std::size_t j) {
    return data_[PackedIndex(i, j)];
  }

  /// Adds `other` element-wise. Sizes must match (checked).
  SymmetricMatrix& operator+=(const SymmetricMatrix& other);

  /// Adds the rank-1 update w * x x' (only the lower triangle is touched).
  void AddOuterProduct(const std::vector<double>& x, double weight = 1.0);

  /// Matrix-vector product y = A x. `x.size()` must equal size() (checked).
  std::vector<double> MatVec(const std::vector<double>& x) const;

  /// Maximum absolute element difference vs `other` (sizes must match).
  double MaxAbsDiff(const SymmetricMatrix& other) const;

  /// Multi-line human-readable rendering (tests / debugging).
  std::string ToString() const;

  /// Raw packed storage (row-major lower triangle), for serialization.
  const std::vector<double>& packed() const { return data_; }
  std::vector<double>& mutable_packed() { return data_; }

 private:
  std::size_t PackedIndex(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace regcube

#endif  // REGCUBE_MATH_SYMMETRIC_MATRIX_H_
