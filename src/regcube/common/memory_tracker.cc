#include "regcube/common/memory_tracker.h"

#include <algorithm>

#include "regcube/common/logging.h"

namespace regcube {

void MemoryTracker::Add(std::string_view category, std::int64_t bytes) {
  RC_CHECK_GE(bytes, 0);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_category_.find(category);
  if (it == by_category_.end()) {
    it = by_category_.emplace(std::string(category), Pool{}).first;
  }
  Pool& pool = it->second;
  pool.current += bytes;
  pool.peak = std::max(pool.peak, pool.current);
  current_ += bytes;
  peak_ = std::max(peak_, current_);
}

void MemoryTracker::Release(std::string_view category, std::int64_t bytes) {
  RC_CHECK_GE(bytes, 0);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_category_.find(category);
  RC_CHECK(it != by_category_.end()) << "unknown category " << category;
  RC_CHECK_GE(it->second.current, bytes)
      << "category " << category << " underflow";
  it->second.current -= bytes;
  current_ -= bytes;
}

std::int64_t MemoryTracker::current_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::int64_t MemoryTracker::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

std::int64_t MemoryTracker::category_bytes(std::string_view category) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_category_.find(category);
  return it == by_category_.end() ? 0 : it->second.current;
}

std::int64_t MemoryTracker::category_peak_bytes(
    std::string_view category) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_category_.find(category);
  return it == by_category_.end() ? 0 : it->second.peak;
}

std::vector<std::pair<std::string, std::int64_t>> MemoryTracker::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(by_category_.size());
  for (const auto& [name, pool] : by_category_) {
    out.emplace_back(name, pool.current);
  }
  return out;
}

std::vector<MemoryTracker::CategoryUsage> MemoryTracker::SnapshotWithPeaks()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CategoryUsage> out;
  out.reserve(by_category_.size());
  for (const auto& [name, pool] : by_category_) {
    out.push_back({name, pool.current, pool.peak});
  }
  return out;
}

void MemoryTracker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  by_category_.clear();
  current_ = 0;
  peak_ = 0;
}

}  // namespace regcube
