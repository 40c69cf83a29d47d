#include "obs/trace.h"

#include <cstdio>

namespace brep::obs {

size_t TraceLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceLog::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void TraceLog::Record(QueryTraceEntry entry) {
  if (entry.total_ms < threshold_ms_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  entry.seq = recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(entry));
}

std::vector<QueryTraceEntry> TraceLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

namespace {

const char* OpName(char op) {
  switch (op) {
    case 'k': return "knn";
    case 'r': return "range";
    case 'i': return "insert";
    case 'd': return "delete";
    case 'j': return "knn-join";
    default: return "?";
  }
}

void AppendSpan(std::string* out, const char* name, double ms,
                double total_ms) {
  if (ms <= 0.0) return;
  char buf[128];
  const double share = total_ms > 0.0 ? 100.0 * ms / total_ms : 0.0;
  std::snprintf(buf, sizeof(buf), "  %-12s %10.3f ms  (%5.1f%%)\n", name, ms,
                share);
  out->append(buf);
}

}  // namespace

std::string FormatQueryTrace(const QueryTraceEntry& e) {
  std::string out;
  char buf[320];
  if (e.op == 'k') {
    std::snprintf(buf, sizeof(buf),
                  "trace #%llu: knn(k=%zu) -> %zu results in %.3f ms\n",
                  (unsigned long long)e.seq, e.k, e.results, e.total_ms);
  } else if (e.op == 'j') {
    std::snprintf(buf, sizeof(buf),
                  "trace #%llu: knn-join(k=%zu) over %zu rows in %.3f ms "
                  "(node pairs: %llu visited, %llu pruned)\n",
                  (unsigned long long)e.seq, e.k, e.results, e.total_ms,
                  (unsigned long long)e.nodes_visited,
                  (unsigned long long)e.node_pairs_pruned);
  } else if (e.op == 'r') {
    std::snprintf(buf, sizeof(buf),
                  "trace #%llu: range(radius=%g) -> %zu results in %.3f ms\n",
                  (unsigned long long)e.seq, e.radius, e.results, e.total_ms);
  } else {
    std::snprintf(buf, sizeof(buf), "trace #%llu: %s in %.3f ms\n",
                  (unsigned long long)e.seq, OpName(e.op), e.total_ms);
  }
  out.append(buf);

  AppendSpan(&out, "bound", e.bound_ms, e.total_ms);
  AppendSpan(&out, "filter", e.filter_ms, e.total_ms);
  AppendSpan(&out, "refine", e.refine_ms, e.total_ms);
  AppendSpan(&out, "wal-append", e.wal_append_ms, e.total_ms);
  AppendSpan(&out, "wal-fsync", e.wal_fsync_ms, e.total_ms);
  const double accounted = e.bound_ms + e.filter_ms + e.refine_ms +
                           e.wal_append_ms + e.wal_fsync_ms;
  AppendSpan(&out, "other", e.total_ms - accounted, e.total_ms);

  std::snprintf(buf, sizeof(buf),
                "  work: io_reads=%llu pool=%llu/%llu hit/miss "
                "nodes=%llu leaves=%llu candidates=%llu evaluated=%llu "
                "exact=%llu steps=%llu\n",
                (unsigned long long)e.io_reads,
                (unsigned long long)e.pool_hits,
                (unsigned long long)e.pool_misses,
                (unsigned long long)e.nodes_visited,
                (unsigned long long)e.leaves_visited,
                (unsigned long long)e.candidates,
                (unsigned long long)e.points_evaluated,
                (unsigned long long)e.exact_evals,
                (unsigned long long)e.ball_steps);
  out.append(buf);
  return out;
}

}  // namespace brep::obs
