#include "api/durable_index.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/timer.h"
#include "core/brepartition.h"
#include "storage/file_pager.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace brep {
namespace durable {

std::unique_ptr<MemPager> LoadIntoMemory(const Pager& from) {
  auto mem = std::make_unique<MemPager>(from.page_size());
  PageBuffer buf;
  for (PageId id = 0; id < from.num_pages(); ++id) {
    from.Read(id, &buf);
    const PageId copied = mem->Allocate();
    BREP_CHECK(copied == id);  // fresh pager: ids stay aligned
    mem->Write(copied, buf);
  }
  // The free-page records travelled inside the raw pages; adopt the chain
  // head so the snapshot allocates exactly like the file would have.
  mem->RestoreFreeList(from.free_list_head(), from.num_free_pages());
  mem->CommitCatalog(from.catalog());
  mem->ResetStats();  // the copy is setup, not query I/O
  return mem;
}

Status ApplyWalRecordsLocked(BrePartition* bp,
                             std::span<const WalRecord> records,
                             uint64_t* applied, WalRecoveryStats* stats) {
  BREP_CHECK(bp != nullptr && applied != nullptr && stats != nullptr);
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecordType::kCheckpoint) {
      // A checkpoint marker promises the index file absorbed everything up
      // to its LSN. One pointing past what this index has applied (e.g.
      // past the end of a log that never reached that LSN) means the
      // records it vouches for are gone -- unrecoverable, and worth a
      // clean error.
      if (rec.checkpoint_lsn > *applied) {
        return Status::DataLoss(
            "WAL checkpoint record at lsn " +
            std::to_string(rec.checkpoint_lsn) +
            " points past this index's applied state (lsn " +
            std::to_string(*applied) + "): operations are missing");
      }
      ++stats->skipped_records;
      continue;
    }
    if (rec.lsn <= *applied) {
      // Already in the checkpoint (or a duplicated record): replay is
      // idempotent, apply-at-most-once.
      ++stats->skipped_records;
      continue;
    }
    if (rec.lsn != *applied + 1) {
      return Status::DataLoss("gap in WAL lsn sequence: expected " +
                              std::to_string(*applied + 1) + ", found " +
                              std::to_string(rec.lsn));
    }
    switch (rec.type) {
      case WalRecordType::kInsert: {
        // Validate before applying: the locked entry points CHECK-abort on
        // programmer error, and checksum-colliding file input must never
        // reach them.
        if (rec.point.size() != bp->divergence().dim() ||
            !bp->divergence().EvalFinite(rec.point)) {
          return Status::DataLoss(
              "WAL insert record at lsn " + std::to_string(rec.lsn) +
              " carries a point outside the index's domain/dimensionality");
        }
        if (bp->NextInsertIdLocked() != rec.id) {
          return Status::DataLoss(
              "WAL does not match the checkpoint state: insert at lsn " +
              std::to_string(rec.lsn) + " logged id " +
              std::to_string(rec.id) + " but replay would assign " +
              std::to_string(bp->NextInsertIdLocked()));
        }
        const auto got = bp->InsertLocked(rec.point);
        BREP_CHECK(got.has_value() && *got == rec.id);
        ++stats->replayed_inserts;
        break;
      }
      case WalRecordType::kDelete: {
        if (!bp->ContainsLocked(rec.id)) {
          return Status::DataLoss(
              "WAL does not match the checkpoint state: delete at lsn " +
              std::to_string(rec.lsn) + " names id " +
              std::to_string(rec.id) + ", which is not live");
        }
        const auto outcome = bp->DeleteLocked(rec.id);
        BREP_CHECK(outcome == BrePartition::UpdateOutcome::kApplied);
        ++stats->replayed_deletes;
        break;
      }
      case WalRecordType::kCheckpoint:
        break;  // handled above
    }
    *applied = rec.lsn;
  }
  return Status::Ok();
}

Status ReplayWal(BrePartition* bp, const WalScan& scan, uint64_t durable_lsn,
                 WalRecoveryStats* stats) {
  BREP_CHECK(bp != nullptr && stats != nullptr);
  Timer timer;
  std::lock_guard<std::mutex> lock(bp->writer_mutex());
  uint64_t applied = durable_lsn;
  BREP_RETURN_IF_ERROR(
      ApplyWalRecordsLocked(bp, scan.records, &applied, stats));
  stats->last_lsn = applied;
  stats->dropped_tail_bytes = scan.dropped_bytes;
  stats->replay_ms = timer.ElapsedMillis();
  // The locked entry points do not publish; expose the fully replayed
  // state to readers in one shot (replay is Open-time, single-threaded,
  // so per-record publication would only burn snapshot churn).
  bp->PublishVersionLocked();
  return Status::Ok();
}

Status SaveDurable(const BrePartition& bp, WalWriter* wal,
                   const std::string& path, bool truncate_wal,
                   uint64_t* pinned_lsn) {
  // Phase 1, under the writer mutex (cheap, in-memory): flush the log,
  // commit the catalog on the serving pager, and pin the published
  // snapshot. What the snapshot holds and what the log carries agree at
  // LSN `lsn` because no write can land inside this section.
  uint64_t lsn = 0;
  std::unique_ptr<BrePartition::ReadView> view;
  {
    std::lock_guard<std::mutex> lock(bp.writer_mutex());
    if (wal != nullptr) {
      BREP_RETURN_IF_ERROR(wal->Flush());
      lsn = wal->last_lsn();
    }
    view = bp.CheckpointViewLocked(lsn);
  }
  if (pinned_lsn != nullptr) *pinned_lsn = lsn;

  // Phase 2, with NO lock held: copy the pinned snapshot into `path.tmp`
  // and atomically rename it over `path`. Readers keep querying and
  // writers keep publishing the whole time; the view's epoch pin keeps
  // the snapshot's backend pages from being flushed over. Early returns
  // drop the view, which is a single atomic unpin.
  const PageSnapshot& snap = view->pages();
  const std::string tmp = path + ".tmp";
  std::string error;
  auto out = FilePager::Create(tmp, snap.page_size(), &error);
  if (out == nullptr) {
    return Status::Internal("cannot create index file \"" + tmp +
                            "\": " + error);
  }
  PageBuffer buf(snap.page_size());
  for (PageId id = 0; id < snap.num_pages(); ++id) {
    snap.FetchPage(id, buf.data());
    const PageId copied = out->Allocate();
    BREP_CHECK(copied == id);  // fresh pager: ids stay aligned
    out->Write(copied, buf);
    if ((id + 1) % 1024 == 0) out->FlushToBase();  // bound copy memory
  }
  // The free-page records travelled inside the raw pages; adopt the chain
  // head so the copy allocates exactly like the original would have.
  out->RestoreFreeList(snap.free_list_head(), snap.num_free_pages());
  out->CommitCatalog(snap.catalog());
  out.reset();  // CommitCatalog already fsynced the finished snapshot
  view.reset();  // unpin: the writer may flush over these pages again
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Status::Internal(
        "cannot move \"" + tmp + "\" over \"" + path +
        "\": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename only mutated the directory; make it durable too, or a crash
  // could resurrect the old file under this name.
  if (!FilePager::SyncDirectory(path)) {
    return Status::Internal("cannot fsync the directory holding \"" + path +
                            "\"");
  }

  // Phase 3: reset the log -- but only if nothing was appended since the
  // snapshot, because truncating past concurrent appends would lose them.
  // When writes did land, the log simply keeps growing until the next
  // checkpoint; replay skips records at or below the file's watermark.
  if (wal != nullptr && truncate_wal) {
    std::lock_guard<std::mutex> lock(bp.writer_mutex());
    if (wal->last_lsn() == lsn) return wal->Checkpoint(lsn);
  }
  return Status::Ok();
}

Status SaveDurableLocked(const BrePartition& bp, WalWriter* wal,
                         const std::string& path, bool truncate_wal) {
  uint64_t lsn = 0;
  if (wal != nullptr) {
    BREP_RETURN_IF_ERROR(wal->Flush());
    lsn = wal->last_lsn();
  }
  const std::string tmp = path + ".tmp";
  std::string error;
  auto out = FilePager::Create(tmp, bp.pager()->page_size(), &error);
  if (out == nullptr) {
    return Status::Internal("cannot create index file \"" + tmp +
                            "\": " + error);
  }
  bp.SaveToLocked(out.get(), lsn);
  out.reset();  // CommitCatalog already fsynced the finished snapshot
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Status::Internal(
        "cannot move \"" + tmp + "\" over \"" + path +
        "\": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename only mutated the directory; make it durable too, or a crash
  // could resurrect the old file under this name.
  if (!FilePager::SyncDirectory(path)) {
    return Status::Internal("cannot fsync the directory holding \"" + path +
                            "\"");
  }
  if (wal != nullptr && truncate_wal) {
    return wal->Checkpoint(lsn);
  }
  return Status::Ok();
}

}  // namespace durable
}  // namespace brep
