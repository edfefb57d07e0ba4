#include "regcube/math/symmetric_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"

namespace regcube {

SymmetricMatrix::SymmetricMatrix(std::size_t n)
    : n_(n), data_(n * (n + 1) / 2, 0.0) {}

std::size_t SymmetricMatrix::PackedIndex(std::size_t i, std::size_t j) const {
  RC_DCHECK(i < n_ && j < n_);
  if (i < j) std::swap(i, j);  // lower triangle: i >= j
  return i * (i + 1) / 2 + j;
}

SymmetricMatrix& SymmetricMatrix::operator+=(const SymmetricMatrix& other) {
  RC_CHECK_EQ(n_, other.n_);
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += other.data_[k];
  return *this;
}

void SymmetricMatrix::AddOuterProduct(const std::vector<double>& x,
                                      double weight) {
  RC_CHECK_EQ(x.size(), n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      data_[i * (i + 1) / 2 + j] += weight * x[i] * x[j];
    }
  }
}

std::vector<double> SymmetricMatrix::MatVec(
    const std::vector<double>& x) const {
  RC_CHECK_EQ(x.size(), n_);
  std::vector<double> y(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      y[i] += (*this)(i, j) * x[j];
    }
  }
  return y;
}

double SymmetricMatrix::MaxAbsDiff(const SymmetricMatrix& other) const {
  RC_CHECK_EQ(n_, other.n_);
  double max_diff = 0.0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    max_diff = std::max(max_diff, std::fabs(data_[k] - other.data_[k]));
  }
  return max_diff;
}

std::string SymmetricMatrix::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      out += StrPrintf("%12.5g ", (*this)(i, j));
    }
    out += '\n';
  }
  return out;
}

}  // namespace regcube
