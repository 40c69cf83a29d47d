#ifndef BREP_SHARD_REPLICA_INDEX_H_
#define BREP_SHARD_REPLICA_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/durable_index.h"
#include "api/search_index.h"
#include "wal/wal_reader.h"

/// \file
/// WAL-shipping read replica: Open a primary's checkpoint file, then tail
/// the primary's live WAL through WalReader::ReadFrom and apply each
/// shipped record through the same locked replay path crash recovery uses.
/// The replica serves read-only traffic the whole time -- readers pin MVCC
/// snapshots lock-free while the tailing thread applies and publishes
/// under the replica's own writer mutex, exactly like a local writer.
///
/// The transport is pluggable (see wal/wal_reader.h); the bundled
/// file-tail transport polls the primary's log file, which covers the
/// single-machine and shared-filesystem topologies. A replica that falls
/// behind a primary checkpoint (the log's base ran past what the replica
/// applied) gets a clean kDataLoss from Poll() and must re-seed from the
/// primary's current checkpoint file.

namespace brep {

class BrePartition;
class QueryEngine;

class ReplicaIndex final : public SearchIndex {
 public:
  /// Open the primary's checkpoint at `checkpoint_path` and tail the log
  /// at `wal_path`. The replica starts at the checkpoint's durable LSN;
  /// call Poll() (or StartTailing) to catch up and stay current.
  static StatusOr<std::unique_ptr<ReplicaIndex>> Open(
      const std::string& checkpoint_path, const std::string& wal_path);

  /// Same, over a caller-provided shipping transport.
  static StatusOr<std::unique_ptr<ReplicaIndex>> Open(
      const std::string& checkpoint_path,
      std::unique_ptr<WalTransport> transport);

  ~ReplicaIndex() override;

  /// One shipping round: read every newly visible record past the applied
  /// LSN and apply it. Returns the number of records applied this round.
  /// Safe concurrently with serving and with a running tail thread (polls
  /// serialize). kDataLoss when the primary's log no longer reaches back
  /// to the replica's state (re-seed required) or ships corrupt bytes.
  StatusOr<size_t> Poll();

  /// Spawn a background thread that Polls every `interval_ms` until
  /// StopTailing (or destruction). A background error stops the loop and
  /// is reported by tail_status(). kFailedPrecondition if already tailing.
  Status StartTailing(double interval_ms = 10.0);
  void StopTailing();
  bool tailing() const;
  /// First error the tail thread hit (sticky; OK while healthy).
  Status tail_status() const;

  /// Highest LSN applied to the serving state.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_relaxed);
  }
  /// Records known shipped but not yet applied as of the last poll (an
  /// in-flight torn append counts as one); 0 once converged. Exported as
  /// obs::kReplicationLagLsnsGauge.
  uint64_t replication_lag_lsns() const {
    return lag_.load(std::memory_order_relaxed);
  }

  // SearchIndex surface (read-only: Insert/Delete inherit the
  // kFailedPrecondition default) -------------------------------------------
  std::string Describe() const override;
  size_t dim() const override;
  size_t num_points() const override;
  bool exact() const override { return true; }
  /// The replica's own registry (its reads land here, not the primary's)
  /// plus the replication series: lag gauge, applied/polls/resets totals.
  obs::MetricsSnapshot Metrics() const override;
  std::vector<obs::QueryTraceEntry> SlowQueries() const override;

  ReplicaIndex(const ReplicaIndex&) = delete;
  ReplicaIndex& operator=(const ReplicaIndex&) = delete;

 protected:
  const BregmanDivergence* QueryDivergence() const override;
  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* stats) const override;
  StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                            double radius,
                                            Stats* stats) const override;

 private:
  ReplicaIndex(std::unique_ptr<Pager> pager, std::unique_ptr<BrePartition> bp,
               std::unique_ptr<WalTransport> transport);

  void TailLoop(double interval_ms);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BrePartition> bp_;
  /// One-thread engine serving every kNN and range call (mirrors
  /// brep::Index); re-entrant, so concurrent callers share it.
  std::unique_ptr<QueryEngine> engine_;

  /// Shipping cursor; poll_mutex_ serializes polls (explicit Poll calls vs
  /// the tail thread) -- the reader's cursor is single-consumer state.
  mutable std::mutex poll_mutex_;
  WalReader reader_;

  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> lag_{0};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> resets_{0};

  /// Tail thread state, guarded by tail_mutex_.
  mutable std::mutex tail_mutex_;
  std::condition_variable tail_cv_;
  std::thread tail_thread_;
  bool tail_stop_ = false;
  Status tail_status_;
};

}  // namespace brep

#endif  // BREP_SHARD_REPLICA_INDEX_H_
