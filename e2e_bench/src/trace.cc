#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace regcube::e2e {
namespace {

struct OpInfo {
  const char* name;
  const char* layer;
};

constexpr OpInfo kOps[] = {
    {"gen.chunk", "gen"},
    {"core.ingest_queue.submit", "core.ingest_queue"},
    {"core.sharded_engine.ingest_batch", "core.sharded_engine"},
    {"core.sharded_engine.flush", "core.sharded_engine"},
    {"core.sharded_engine.take", "core.sharded_engine"},
    {"time.seal", "time"},
    {"core.incremental_cube.first_query", "core.incremental_cube"},
    {"core.query.repeat_query", "core.query"},
    {"core.query.drill", "core.query"},
    {"core.query.drill_call", "core.query"},
    {"core.member_index.point", "core.member_index"},
    {"core.snapshot_reads.deck", "core.snapshot_reads"},
    {"htree.scratch_cube", "htree"},
    {"io.frame_store.compact", "io.frame_store"},
    {"io.checkpoint.write", "io.checkpoint"},
    {"io.checkpoint.open", "io.checkpoint"},
    {"io.checkpoint.first_query", "io.checkpoint"},
};
static_assert(sizeof(kOps) / sizeof(kOps[0]) ==
              static_cast<std::size_t>(Op::kCount));

}  // namespace

const char* OpName(Op op) { return kOps[static_cast<int>(op)].name; }
const char* OpLayer(Op op) { return kOps[static_cast<int>(op)].layer; }

Span::Span(TraceBuffer* buffer, Op op, std::int64_t request,
           std::int64_t part)
    : buffer_(buffer), start_ns_(NowNs()) {
  if (buffer_ == nullptr) return;
  SpanRecord record;
  record.op = op;
  record.parent = buffer_->open_.empty() ? -1 : buffer_->open_.back();
  record.request = request;
  record.part = part;
  record.start_ns = start_ns_;
  index_ = static_cast<std::int32_t>(buffer_->spans_.size());
  buffer_->spans_.push_back(record);
  buffer_->open_.push_back(index_);
}

double Span::End() {
  const std::int64_t end_ns = NowNs();
  ended_ = true;
  if (buffer_ != nullptr) {
    SpanRecord& record = buffer_->spans_[static_cast<std::size_t>(index_)];
    record.end_ns = end_ns;
    buffer_->open_.pop_back();
    if (record.parent >= 0) {
      buffer_->spans_[static_cast<std::size_t>(record.parent)].child_ns +=
          end_ns - start_ns_;
    }
  }
  return static_cast<double>(end_ns - start_ns_) * 1e-9;
}

TraceBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(
      std::make_unique<TraceBuffer>(static_cast<int>(buffers_.size())));
  return buffers_.back().get();
}

Tracer::Analysis Tracer::Analyze() const {
  std::lock_guard<std::mutex> lock(mu_);
  Analysis analysis;
  std::map<std::string, std::int64_t> self_ns;
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans()) {
      ++analysis.spans;
      self_ns[OpLayer(span.op)] += span.end_ns - span.start_ns - span.child_ns;
      if (span.parent >= 0) continue;
      const std::int64_t lo = std::max(span.start_ns, window_start_ns_);
      const std::int64_t hi = std::min(span.end_ns, window_end_ns_);
      if (lo < hi) top.emplace_back(lo, hi);
    }
  }
  for (const auto& [layer, ns] : self_ns) {
    analysis.self_ms.emplace_back(layer, static_cast<double>(ns) * 1e-6);
  }
  // Union of the top-level intervals across every thread.
  std::sort(top.begin(), top.end());
  std::int64_t covered = 0, reach = window_start_ns_;
  for (const auto& [lo, hi] : top) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  const std::int64_t window = window_end_ns_ - window_start_ns_;
  analysis.top_coverage =
      window > 0 ? static_cast<double>(covered) / static_cast<double>(window)
                 : 0.0;
  return analysis;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"thread\": %d, \"id\": %zu, "
                   "\"parent\": %d, \"name\": \"%s\", \"request\": %lld, "
                   "\"part\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   workload.c_str(), buffer->thread(), i, s.parent,
                   OpName(s.op), static_cast<long long>(s.request),
                   static_cast<long long>(s.part),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace regcube::e2e
