#ifndef BREP_OBS_TRACE_H_
#define BREP_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/work_counters.h"

/// \file
/// Per-operation trace spans and the ring-buffered slow-query log.
///
/// Every instrumented call (kNN, range, insert, delete) assembles one
/// QueryTraceEntry describing where its time went -- the bound/filter/refine
/// spans, WAL append + fsync wait for writes -- and how much work each phase
/// did (I/O reads, buffer-pool hits/misses, nodes, candidates). Entries
/// whose total latency crosses the log's threshold are kept in a bounded
/// ring (newest evicts oldest), so "what were the slowest recent calls and
/// why" is answerable without any external collector. The threshold check
/// is one relaxed atomic load, so tracing costs nothing until a call is
/// actually slow; a threshold of 0 traces everything (tests, walkthroughs).

namespace brep::obs {

/// One traced call's lifecycle: its work (WorkCounters; a join's mapping is
/// documented there) and its spans (Spans), the same values the call
/// reports through its own stats.
struct QueryTraceEntry : WorkCounters, Spans {
  /// Assigned by the TraceLog in admission order (1-based, lifetime).
  uint64_t seq = 0;
  /// 'k' kNN, 'r' range, 'i' insert, 'd' delete, 'j' kNN-join.
  char op = 'k';
  size_t k = 0;            // kNN / join
  double radius = 0.0;     // range
  size_t results = 0;      // neighbors / matches returned (1 for updates;
                           // R rows for joins)

  /// Write spans, milliseconds.
  double wal_append_ms = 0.0;  // updates under a WAL: encode + pwrite
  double wal_fsync_ms = 0.0;   // updates in kAlways mode: fsync wait
};

/// Bounded ring of slow-call traces. Record() is concurrent-safe; entries
/// below the threshold never touch the mutex.
class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 128, double threshold_ms = 100.0)
      : threshold_ms_(threshold_ms), capacity_(capacity) {}

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }
  /// Calls with total_ms >= `ms` are admitted; 0 admits everything.
  void set_threshold_ms(double ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }

  size_t capacity() const;
  /// Resize the ring, dropping oldest entries if shrinking below the
  /// current population.
  void set_capacity(size_t capacity);

  /// Admit `entry` if it crosses the threshold (its seq is assigned here).
  void Record(QueryTraceEntry entry);

  /// Ring contents, oldest first.
  std::vector<QueryTraceEntry> Snapshot() const;

  /// Lifetime count of admitted entries (including ones the ring has since
  /// evicted).
  uint64_t recorded_total() const {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> threshold_ms_;
  std::atomic<uint64_t> recorded_{0};
  mutable std::mutex mu_;
  size_t capacity_;                  // guarded by mu_
  std::deque<QueryTraceEntry> ring_;  // guarded by mu_; back = newest
};

/// Multi-line human-readable walkthrough of one traced call: the span
/// timeline with per-phase shares, then the work counters.
std::string FormatQueryTrace(const QueryTraceEntry& entry);

}  // namespace brep::obs

#endif  // BREP_OBS_TRACE_H_
