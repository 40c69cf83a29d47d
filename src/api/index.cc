#include "api/index.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "divergence/factory.h"
#include "engine/query_engine.h"
#include "join/scan_join.h"
#include "obs/index_metrics.h"
#include "storage/file_pager.h"
#include "storage/pager.h"
#include "storage/point_store.h"

namespace brep {
namespace {

/// Upper bound on Parallel() threads: far above any sane serving pool, low
/// enough that a garbage argument cannot exhaust the process.
constexpr size_t kMaxThreads = 1024;

/// Checkpoint-target identity must survive aliased spellings
/// ("./home.idx" vs "home.idx"), or a Save the user believes is a
/// checkpoint would quietly stop truncating the log.
std::string CanonicalPath(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path canon =
      std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

Status ValidateTraceOptions(const IndexOptions& options) {
  if (!std::isfinite(options.slow_query_threshold_ms) ||
      options.slow_query_threshold_ms < 0.0) {
    return Status::InvalidArgument(
        "slow_query_threshold_ms must be finite and >= 0");
  }
  return Status::Ok();
}

/// Record one applied facade mutation: its latency histogram, and a trace
/// entry when it crosses the slow-call threshold (the WAL spans tell slow
/// writes apart from slow index maintenance).
void RecordUpdate(const BrePartition& bp, char op, double total_ms,
                  const WalWriter::AppendTiming& wal) {
  const obs::IndexMetrics& im = bp.index_metrics();
  obs::LatencyHistogram* latency =
      op == 'i' ? im.insert_latency : im.delete_latency;
  latency->RecordStripe(obs::CurrentThreadStripe(), total_ms);
  obs::TraceLog& trace = bp.trace_log();
  if (total_ms < trace.threshold_ms()) return;
  obs::QueryTraceEntry entry;
  entry.op = op;
  entry.results = 1;
  entry.wal_append_ms = wal.append_ms;
  entry.wal_fsync_ms = wal.fsync_ms;
  entry.total_ms = total_ms;
  trace.Record(std::move(entry));
}

/// The join's work in the shared vocabulary (the mapping documented on
/// WorkCounters): S blocks streamed and pair distances.
WorkCounters JoinWork(const JoinStats& js) {
  WorkCounters w;
  w.leaves_visited = js.leaf_blocks;
  w.points_evaluated = js.pairs_evaluated;
  w.candidates = js.pairs_evaluated;
  return w;
}

/// The shared join body of Index and ParallelIndex: pin a read snapshot,
/// materialize the live point set S from its point store (ascending id
/// order, so the (distance, id) tie-break matches single queries), run the
/// blocked scan and fold its counters into the facade stats.
StatusOr<JoinResult> JoinOnBrePartition(const BrePartition& bp,
                                        const Matrix& r, size_t k,
                                        ThreadPool* pool,
                                        SearchIndex::Stats* stats) {
  const auto view = bp.OpenReadViewHandle();
  const PointStore& store = view->forest().point_store();
  const size_t d = bp.divergence().dim();
  // S is allocated before the id list so that each join can reuse the heap
  // block the previous join's S freed; allocated after it, S stops fitting
  // there once retained results take part of the block, and the heap grows
  // by a whole S.
  std::vector<double> s_data(view->num_points() * d);
  std::vector<uint32_t> live;
  live.reserve(view->num_points());
  for (uint32_t id = 0; id < store.id_space(); ++id) {
    if (store.Contains(id)) live.push_back(id);
  }
  // The wrapper validated k against the advisory count; re-check against
  // the pinned snapshot (a concurrent delete may have shrunk it).
  if (k > live.size()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) +
        " exceeds the number of indexed points (" +
        std::to_string(live.size()) + ")");
  }
  s_data.resize(live.size() * d);
  store.FetchMany(live, [&](uint32_t id, std::span<const double> x) {
    const size_t row =
        std::lower_bound(live.begin(), live.end(), id) - live.begin();
    std::copy(x.begin(), x.end(), s_data.begin() + row * d);
  });
  const Matrix s(live.size(), d, std::move(s_data));

  JoinResult result = ScanKnnJoin(r, s, live, bp.divergence(), k, pool);
  *stats += JoinWork(result.stats);
  return result;
}

/// Record one finished join into the shared registry and, when slow
/// enough, the trace ring (op 'j'; the scan lands in the refine span, the
/// materialization of S only in the total).
void RecordJoin(const BrePartition& bp, size_t rows, size_t k,
                const JoinResult& result, double total_ms) {
  const obs::IndexMetrics& im = bp.index_metrics();
  const size_t stripe = obs::CurrentThreadStripe();
  im.joins->AddStripe(stripe, 1);
  im.join_rows->AddStripe(stripe, rows);
  im.join_latency->RecordStripe(stripe, total_ms);
  obs::TraceLog& trace = bp.trace_log();
  if (total_ms < trace.threshold_ms()) return;
  obs::QueryTraceEntry entry;
  static_cast<WorkCounters&>(entry) = JoinWork(result.stats);
  entry.op = 'j';
  entry.k = k;
  entry.results = rows;
  entry.refine_ms = result.stats.descent_ms;
  entry.total_ms = total_ms;
  trace.Record(entry);
}

}  // namespace

// ------------------------------------------------------------------------
// Index

Index::Index(std::unique_ptr<Pager> pager, std::unique_ptr<BrePartition> bp)
    : pager_(std::move(pager)), bp_(std::move(bp)) {
  QueryEngineOptions options;
  options.num_threads = 1;  // sequential, hence re-entrant (see QueryEngine)
  engine_ = std::make_unique<QueryEngine>(*bp_, options);
}

Index::Index(Index&&) noexcept = default;
Index& Index::operator=(Index&&) noexcept = default;
Index::~Index() = default;

StatusOr<Index> Index::Build(const Matrix& data,
                             const BregmanDivergence& divergence,
                             const IndexOptions& options) {
  if (options.page_size == 0) {
    return Status::InvalidArgument("page_size must be > 0");
  }
  if (options.durability.enabled()) {
    // Fail fast on a WAL that still holds someone's logged operations:
    // building over it would silently discard recoverable writes.
    auto scanned = ReadWal(options.durability.wal_path);
    if (scanned.ok()) {
      for (const WalRecord& rec : scanned->records) {
        if (rec.type != WalRecordType::kCheckpoint) {
          return Status::FailedPrecondition(
              "WAL \"" + options.durability.wal_path +
              "\" already holds logged operations; recover them via "
              "Index::Open (or remove the file) instead of building over "
              "them");
        }
      }
    } else if (scanned.status().code() != StatusCode::kNotFound) {
      return scanned.status();
    }
    if (options.durability.fsync_mode == FsyncMode::kGroup &&
        !(options.durability.group_window_ms > 0.0)) {
      return Status::InvalidArgument("group_window_ms must be > 0");
    }
  }
  BREP_RETURN_IF_ERROR(ValidateTraceOptions(options));
  auto pager = std::make_unique<MemPager>(options.page_size);
  BREP_RETURN_IF_ERROR(ValidateBrePartitionConfig(options.config, data,
                                                  divergence, pager.get()));
  auto bp = std::make_unique<BrePartition>(pager.get(), data, divergence,
                                           options.config);
  Index index(std::move(pager), std::move(bp));
  index.durability_ = options.durability;
  index.bp_->trace_log().set_threshold_ms(options.slow_query_threshold_ms);
  index.bp_->trace_log().set_capacity(options.trace_capacity);
  return index;
}

StatusOr<Index> Index::Build(const Matrix& data, const std::string& divergence,
                             const IndexOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("dataset is empty (zero rows)");
  }
  BREP_ASSIGN_OR_RETURN(auto generator, ParseGenerator(divergence));
  return Build(data, BregmanDivergence(std::move(generator), data.cols()),
               options);
}

StatusOr<Index> Index::Open(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("no index file at \"" + path + "\"");
  }
  std::string error;
  auto pager = FilePager::Open(path, &error);
  if (pager == nullptr) {
    return Status::DataLoss("cannot open index file \"" + path +
                            "\": " + error);
  }
  auto bp = BrePartition::Open(pager.get(), &error);
  if (bp == nullptr) {
    return Status::DataLoss("index file \"" + path +
                            "\" has no serviceable index: " + error);
  }
  return Index(std::move(pager), std::move(bp));
}

StatusOr<Index> Index::Open(const std::string& path,
                            const DurabilityOptions& durability) {
  if (!durability.enabled()) return Open(path);
  if (durability.fsync_mode == FsyncMode::kGroup &&
      !(durability.group_window_ms > 0.0)) {
    return Status::InvalidArgument("group_window_ms must be > 0");
  }
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("no index file at \"" + path + "\"");
  }
  std::string error;
  auto file = FilePager::Open(path, &error);
  if (file == nullptr) {
    return Status::DataLoss("cannot open index file \"" + path +
                            "\": " + error);
  }
  // Serve from a memory snapshot: between checkpoints the index FILE is
  // never written, so every crash point keeps the previous checkpoint
  // intact -- the property that makes logical WAL replay sound.
  auto mem = durable::LoadIntoMemory(*file);
  file.reset();
  auto bp = BrePartition::Open(mem.get(), &error);
  if (bp == nullptr) {
    return Status::DataLoss("index file \"" + path +
                            "\" has no serviceable index: " + error);
  }

  const uint64_t durable_lsn = mem->catalog().durable_lsn;
  WalScan scan;
  auto scanned = ReadWal(durability.wal_path);
  if (scanned.ok()) {
    scan = *std::move(scanned);
  } else if (scanned.status().code() == StatusCode::kNotFound) {
    scan.base_lsn = durable_lsn;  // fresh log; the writer creates it below
  } else {
    return scanned.status();
  }
  if (scan.base_lsn > durable_lsn) {
    return Status::DataLoss(
        "WAL \"" + durability.wal_path + "\" starts at lsn " +
        std::to_string(scan.base_lsn) + " but index file \"" + path +
        "\" is only durable to lsn " + std::to_string(durable_lsn) +
        ": the index file is stale (restored from an older snapshot?)");
  }
  WalRecoveryStats recovery;
  BREP_RETURN_IF_ERROR(
      durable::ReplayWal(bp.get(), scan, durable_lsn, &recovery));
  BREP_ASSIGN_OR_RETURN(
      auto wal, WalWriter::Attach(durability.wal_path, durability.fsync_mode,
                                  durability.group_window_ms,
                                  /*append_offset=*/scan.valid_bytes,
                                  /*next_lsn=*/recovery.last_lsn + 1,
                                  /*fresh_base_lsn=*/durable_lsn));
  Index index(std::move(mem), std::move(bp));
  index.durability_ = durability;
  index.wal_ = std::move(wal);
  index.home_path_ = CanonicalPath(path);
  index.recovery_ = recovery;
  return index;
}

Status Index::Save(const std::string& path) const {
  if (durability_.enabled()) {
    // wal_ and home_path_ are guarded by the writer mutex (their only
    // transition is the first checkpoint below; InsertImpl/DeleteImpl
    // check them under the same lock).
    std::unique_lock<std::mutex> lock(bp_->writer_mutex());
    if (wal_ != nullptr) {
      // Checkpoint to the home path resets the log; a Save elsewhere is
      // a consistent snapshot (stamped with the current watermark so
      // the home log is a no-op against it) that leaves the log alone.
      WalWriter* wal = wal_.get();
      const bool home = CanonicalPath(path) == home_path_;
      // SaveDurable pins a published snapshot under a brief writer-mutex
      // acquisition of its own and copies it to disk with NO lock held:
      // concurrent readers and writers proceed throughout.
      lock.unlock();
      return durable::SaveDurable(*bp_, wal, path, /*truncate_wal=*/home);
    }
    // First checkpoint: persist the base state, then start the log fresh.
    // Only from here on can logged writes be replayed, so this is also
    // what unlocks Insert/Delete (see InsertImpl). Snapshot, log creation
    // and publication all happen under ONE writer-mutex acquisition: a
    // racing first Save blocks above and takes the established-writer
    // branch instead of truncating a live log.
    BREP_RETURN_IF_ERROR(durable::SaveDurableLocked(*bp_, nullptr, path,
                                                    /*truncate_wal=*/false));
    BREP_ASSIGN_OR_RETURN(
        wal_, WalWriter::Attach(durability_.wal_path,
                                durability_.fsync_mode,
                                durability_.group_window_ms,
                                /*append_offset=*/0, /*next_lsn=*/1,
                                /*fresh_base_lsn=*/0));
    home_path_ = CanonicalPath(path);
    return Status::Ok();
  }

  // If the backing IS the target file, committing the catalog is the whole
  // durability story.
  if (auto* fp = dynamic_cast<FilePager*>(pager_.get());
      fp != nullptr && fp->path() == path) {
    bp_->Save();
    return Status::Ok();
  }

  // Otherwise snapshot into a fresh paged file, atomically replacing any
  // previous file at `path` (write to path.tmp + rename: a failed Save can
  // never destroy the last good save).
  return durable::SaveDurable(*bp_, nullptr, path, /*truncate_wal=*/false);
}

StatusOr<uint64_t> Index::SaveSnapshot(const std::string& path) const {
  if (!durability_.enabled()) {
    BREP_RETURN_IF_ERROR(
        durable::SaveDurable(*bp_, nullptr, path, /*truncate_wal=*/false));
    return uint64_t{0};
  }
  std::unique_lock<std::mutex> lock(bp_->writer_mutex());
  if (wal_ != nullptr) {
    WalWriter* wal = wal_.get();
    lock.unlock();
    uint64_t pinned = 0;
    BREP_RETURN_IF_ERROR(durable::SaveDurable(*bp_, wal, path,
                                              /*truncate_wal=*/false,
                                              &pinned));
    return pinned;
  }
  // First checkpoint: same single-acquisition protocol as Save (snapshot,
  // log creation and publication together), minus the home-path baggage --
  // callers running an external checkpoint protocol own log truncation.
  BREP_RETURN_IF_ERROR(durable::SaveDurableLocked(*bp_, nullptr, path,
                                                  /*truncate_wal=*/false));
  BREP_ASSIGN_OR_RETURN(
      wal_, WalWriter::Attach(durability_.wal_path, durability_.fsync_mode,
                              durability_.group_window_ms,
                              /*append_offset=*/0, /*next_lsn=*/1,
                              /*fresh_base_lsn=*/0));
  home_path_ = CanonicalPath(path);
  return uint64_t{0};
}

Status Index::TruncateWal(uint64_t lsn) const {
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  if (wal_ == nullptr) return Status::Ok();
  // Writes that landed past the pinned watermark must keep their records;
  // the next checkpoint covers them.
  if (wal_->last_lsn() != lsn) return Status::Ok();
  return wal_->Checkpoint(lsn);
}

StatusOr<ParallelIndex> Index::Parallel(size_t threads) const {
  if (threads > kMaxThreads) {
    return Status::InvalidArgument(
        "threads = " + std::to_string(threads) + " exceeds the cap of " +
        std::to_string(kMaxThreads) + " (0 means hardware concurrency)");
  }
  QueryEngineOptions options;
  options.num_threads = threads;
  return ParallelIndex(std::make_unique<QueryEngine>(*bp_, options));
}

StatusOr<std::unique_ptr<SearchIndex>> Index::Approximate(
    const ApproximateConfig& config) const {
  // Freeze-then-build: the mutation check and the read-only pin happen
  // under one exclusive lock acquisition inside FreezeUpdates, so no
  // insert can slip in between and leave a view sampling a matrix that no
  // longer describes the indexed points.
  const auto frozen = bp_->FreezeUpdates();
  if (frozen == BrePartition::FreezeOutcome::kMutated) {
    return Status::FailedPrecondition(
        "this index has been mutated; the approximate extension samples the "
        "raw data matrix, which no longer describes the indexed point set");
  }
  auto view = MakeApproximateIndex(*bp_, config);
  if (!view.ok()) {
    // Undo only OUR transition: an earlier call's live view keeps its pin.
    if (frozen == BrePartition::FreezeOutcome::kFroze) {
      bp_->UnfreezeUpdates();
    }
    return view.status();
  }
  return view;
}

SearchIndex::Stats Index::UpdateStats() const {
  Stats stats;
  // One acquisition for both lanes: the WAL pointer is published under the
  // same mutex every write holds while it appends and applies.
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  std::tie(stats.inserts, stats.deletes) = bp_->UpdateTotalsLocked();
  if (wal_ != nullptr) {
    const WalWriter::Stats ws = wal_->stats();
    stats.wal_appends = ws.appends;
    stats.wal_fsyncs = ws.fsyncs;
  }
  stats.wal_replayed = recovery_.replayed_inserts + recovery_.replayed_deletes;
  return stats;
}

WalWriter::Stats Index::wal_stats() const {
  // Writer mutex for the pointer read: the first checkpoint publishes wal_
  // under it.
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  return wal_ != nullptr ? wal_->stats() : WalWriter::Stats{};
}

uint64_t Index::wal_durable_lsn() const {
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  return wal_ != nullptr ? wal_->durable_lsn() : 0;
}

obs::MetricsSnapshot Index::Metrics() const {
  // One writer-mutex acquisition covers both the index collection pass and
  // the wal_ pointer read (published by the first checkpoint under the
  // same mutex); the WAL's own stats are behind its internal mutex.
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  obs::MetricsSnapshot out = bp_->CollectMetricsLocked();
  if (wal_ != nullptr) {
    const WalWriter::Stats ws = wal_->stats();
    out.AddCounter(obs::kWalAppendsTotal, ws.appends);
    out.AddCounter(obs::kWalFsyncsTotal, ws.fsyncs);
    out.AddCounter(obs::kWalAppendedBytesTotal, ws.appended_bytes);
    out.AddGauge(obs::kWalLastLsnGauge, double(wal_->last_lsn()));
    out.AddGauge(obs::kWalDurableLsnGauge, double(wal_->durable_lsn()));
    out.AddHistogram(obs::kWalAppendLatencyMs, wal_->append_latency());
    out.AddHistogram(obs::kWalFsyncLatencyMs, wal_->fsync_latency());
  }
  if (durability_.enabled()) {
    out.AddCounter(obs::kRecoveryReplayedInserts, recovery_.replayed_inserts);
    out.AddCounter(obs::kRecoveryReplayedDeletes, recovery_.replayed_deletes);
    out.AddCounter(obs::kRecoverySkippedRecords, recovery_.skipped_records);
    out.AddCounter(obs::kRecoveryDroppedTailBytes,
                   recovery_.dropped_tail_bytes);
    out.AddGauge(obs::kRecoveryReplayMsGauge, recovery_.replay_ms);
  }
  out.Sort();
  return out;
}

std::vector<obs::QueryTraceEntry> Index::SlowQueries() const {
  return bp_->trace_log().Snapshot();
}

void Index::SetSlowQueryThreshold(double ms) {
  bp_->trace_log().set_threshold_ms(ms);
}

void Index::SetTraceCapacity(size_t entries) {
  bp_->trace_log().set_capacity(entries);
}

namespace {

Status FrozenByViewError() {
  return Status::FailedPrecondition(
      "an Approximate() view borrows this index; updates would invalidate "
      "its sampled distance distributions");
}

}  // namespace

namespace {

Status NoCheckpointYetError() {
  return Status::FailedPrecondition(
      "durable index has no checkpoint yet: call Save(path) once before "
      "accepting writes (the WAL can only be replayed against a durable "
      "base state)");
}

}  // namespace

StatusOr<uint32_t> Index::InsertImpl(std::span<const double> point,
                                     Stats* stats) {
  // EvalFinite, not just InDomain: an in-domain point whose phi overflows
  // (exponential at t >= ~710) would poison every later divergence with
  // NaN. The public wrapper already rejects it; this guards the internal
  // entry points (WAL replay routes elsewhere and re-validates).
  if (!bp_->divergence().EvalFinite(point)) {
    return Status::InvalidArgument(
        "point cannot be evaluated under divergence " +
        bp_->divergence().Name() + " (outside the domain or phi overflows)");
  }
  Timer op_timer;
  WalWriter::AppendTiming wal_timing;
  if (!durability_.enabled()) {
    const auto id = bp_->Insert(point);
    if (!id.has_value()) return FrozenByViewError();
    RecordUpdate(*bp_, 'i', op_timer.ElapsedMillis(), wal_timing);
    return *id;
  }
  // Log, sync (per mode), THEN apply -- all under one writer-mutex
  // section, so the log order is the apply order and a crash after the ack
  // can always redo this operation from the record. The wal_ null-check
  // sits under the same lock: a concurrent first Save publishes it there.
  // Readers never touch this mutex: they keep serving their pinned
  // snapshots while the fsync runs.
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  if (wal_ == nullptr) return NoCheckpointYetError();
  if (bp_->UpdatesFrozenLocked()) return FrozenByViewError();
  const uint32_t id = bp_->NextInsertIdLocked();
  BREP_ASSIGN_OR_RETURN(const uint64_t lsn,
                        wal_->AppendInsert(id, point, &wal_timing));
  (void)lsn;
  stats->wal_appends += 1;
  // kAlways issues exactly one barrier per append; group/none syncs run in
  // the background and are (correctly) not attributed to any one call.
  stats->wal_fsyncs += durability_.fsync_mode == FsyncMode::kAlways ? 1 : 0;
  const auto applied = bp_->InsertLocked(point);
  BREP_CHECK(applied.has_value() && *applied == id);
  // The locked entry points do not publish; expose the new state to
  // readers now that log and index agree.
  bp_->PublishVersionLocked();
  RecordUpdate(*bp_, 'i', op_timer.ElapsedMillis(), wal_timing);
  return id;
}

Status Index::DeleteImpl(uint32_t id, Stats* stats) {
  Timer op_timer;
  WalWriter::AppendTiming wal_timing;
  if (!durability_.enabled()) {
    switch (bp_->Delete(id)) {
      case BrePartition::UpdateOutcome::kApplied:
        RecordUpdate(*bp_, 'd', op_timer.ElapsedMillis(), wal_timing);
        return Status::Ok();
      case BrePartition::UpdateOutcome::kNotFound:
        return Status::NotFound("no live point with id " +
                                std::to_string(id));
      case BrePartition::UpdateOutcome::kFrozen:
        return FrozenByViewError();
    }
    return Status::Internal("unreachable");
  }
  std::lock_guard<std::mutex> lock(bp_->writer_mutex());
  if (wal_ == nullptr) return NoCheckpointYetError();
  if (bp_->UpdatesFrozenLocked()) return FrozenByViewError();
  // Refuse BEFORE logging: a logged-then-refused delete would replay as a
  // log/state mismatch.
  if (!bp_->ContainsLocked(id)) {
    return Status::NotFound("no live point with id " + std::to_string(id));
  }
  BREP_ASSIGN_OR_RETURN(const uint64_t lsn, wal_->AppendDelete(id, &wal_timing));
  (void)lsn;
  stats->wal_appends += 1;
  stats->wal_fsyncs += durability_.fsync_mode == FsyncMode::kAlways ? 1 : 0;
  const auto outcome = bp_->DeleteLocked(id);
  BREP_CHECK(outcome == BrePartition::UpdateOutcome::kApplied);
  bp_->PublishVersionLocked();
  RecordUpdate(*bp_, 'd', op_timer.ElapsedMillis(), wal_timing);
  return Status::Ok();
}

std::string Index::Describe() const {
  return "index(brepartition, M=" + std::to_string(bp_->num_partitions()) +
         ", divergence=" + bp_->divergence().Name() +
         ", n=" + std::to_string(bp_->num_points()) +
         ", d=" + std::to_string(bp_->divergence().dim()) + ", exact)";
}

size_t Index::dim() const { return bp_->divergence().dim(); }
size_t Index::num_points() const { return bp_->num_points(); }
size_t Index::num_partitions() const { return bp_->num_partitions(); }
const CostModelFit& Index::cost_model() const { return bp_->cost_model(); }
const BregmanDivergence& Index::divergence() const {
  return bp_->divergence();
}

StatusOr<std::vector<Neighbor>> Index::KnnImpl(std::span<const double> y,
                                               size_t k, Stats* stats) const {
  QueryStats qs;
  auto result = engine_->KnnSearch(y, k, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<std::vector<uint32_t>> Index::RangeImpl(std::span<const double> y,
                                                 double radius,
                                                 Stats* stats) const {
  QueryStats qs;
  auto result = engine_->RangeSearch(y, radius, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<JoinResult> Index::KnnJoinImpl(const Matrix& r, size_t k,
                                        Stats* stats) const {
  Timer timer;
  BREP_ASSIGN_OR_RETURN(
      JoinResult result,
      JoinOnBrePartition(*bp_, r, k, /*pool=*/nullptr, stats));
  RecordJoin(*bp_, r.rows(), k, result, timer.ElapsedMillis());
  return result;
}

// ------------------------------------------------------------------------
// IndexBuilder

IndexBuilder& IndexBuilder::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
  return *this;
}

IndexBuilder& IndexBuilder::Divergence(std::string name) {
  if (name.empty()) return Fail(Status::InvalidArgument("empty divergence"));
  divergence_ = std::move(name);
  return *this;
}

IndexBuilder& IndexBuilder::Partitions(size_t m) {
  options_.config.num_partitions = m;
  return *this;
}

IndexBuilder& IndexBuilder::DerivedPartitionBounds(size_t min_m,
                                                   size_t max_m) {
  if (max_m == 0 || min_m > max_m) {
    return Fail(Status::InvalidArgument(
        "derived-partition bounds need 1 <= min <= max, got [" +
        std::to_string(min_m) + ", " + std::to_string(max_m) + "]"));
  }
  options_.config.min_partitions = min_m;
  options_.config.max_partitions = max_m;
  return *this;
}

IndexBuilder& IndexBuilder::Strategy(PartitionStrategy strategy) {
  options_.config.strategy = strategy;
  return *this;
}

IndexBuilder& IndexBuilder::FitSamples(size_t samples) {
  if (samples == 0) {
    return Fail(Status::InvalidArgument("fit_samples must be >= 1"));
  }
  options_.config.fit_samples = samples;
  return *this;
}

IndexBuilder& IndexBuilder::PageSize(size_t bytes) {
  if (bytes == 0) {
    return Fail(Status::InvalidArgument("page_size must be > 0"));
  }
  options_.page_size = bytes;
  return *this;
}

IndexBuilder& IndexBuilder::PoolPages(size_t pages) {
  if (pages == 0) {
    return Fail(Status::InvalidArgument("pool_pages must be >= 1"));
  }
  options_.config.forest.pool_pages = pages;
  return *this;
}

IndexBuilder& IndexBuilder::MaxLeafSize(size_t points) {
  if (points == 0) {
    return Fail(Status::InvalidArgument("max_leaf_size must be >= 1"));
  }
  options_.config.forest.tree.max_leaf_size = points;
  return *this;
}

IndexBuilder& IndexBuilder::Seed(uint64_t seed) {
  options_.config.seed = seed;
  options_.config.forest.tree.seed = seed;
  return *this;
}

IndexBuilder& IndexBuilder::Durability(DurabilityOptions durability) {
  options_.durability = std::move(durability);
  return *this;
}

IndexBuilder& IndexBuilder::SlowQueryThreshold(double ms) {
  if (!std::isfinite(ms) || ms < 0.0) {
    return Fail(Status::InvalidArgument(
        "slow_query_threshold_ms must be finite and >= 0"));
  }
  options_.slow_query_threshold_ms = ms;
  return *this;
}

IndexBuilder& IndexBuilder::TraceCapacity(size_t entries) {
  options_.trace_capacity = entries;
  return *this;
}

StatusOr<Index> IndexBuilder::Build(const Matrix& data) const {
  BREP_RETURN_IF_ERROR(status_);
  return Index::Build(data, divergence_, options_);
}

// ------------------------------------------------------------------------
// ParallelIndex

ParallelIndex::ParallelIndex(std::unique_ptr<QueryEngine> engine)
    : engine_(std::move(engine)) {}

ParallelIndex::ParallelIndex(ParallelIndex&&) noexcept = default;
ParallelIndex& ParallelIndex::operator=(ParallelIndex&&) noexcept = default;
ParallelIndex::~ParallelIndex() = default;

std::string ParallelIndex::Describe() const {
  const BrePartition& bp = engine_->index();
  return "parallel(brepartition, threads=" +
         std::to_string(engine_->num_threads()) +
         ", M=" + std::to_string(bp.num_partitions()) +
         ", divergence=" + bp.divergence().Name() +
         ", n=" + std::to_string(bp.num_points()) +
         ", d=" + std::to_string(bp.divergence().dim()) + ", exact)";
}

size_t ParallelIndex::dim() const {
  return engine_->index().divergence().dim();
}
const BregmanDivergence* ParallelIndex::QueryDivergence() const {
  return &engine_->index().divergence();
}
size_t ParallelIndex::num_points() const {
  return engine_->index().num_points();
}
size_t ParallelIndex::threads() const { return engine_->num_threads(); }

obs::MetricsSnapshot ParallelIndex::Metrics() const {
  // The registry lives on the BrePartition, so this is the same series the
  // owning Index exports (minus its WAL/recovery section, which only the
  // facade can attribute).
  return engine_->index().CollectMetrics();
}

std::vector<obs::QueryTraceEntry> ParallelIndex::SlowQueries() const {
  return engine_->index().trace_log().Snapshot();
}

StatusOr<std::vector<Neighbor>> ParallelIndex::KnnImpl(
    std::span<const double> y, size_t k, Stats* stats) const {
  QueryStats qs;
  auto result = engine_->KnnSearch(y, k, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<std::vector<uint32_t>> ParallelIndex::RangeImpl(
    std::span<const double> y, double radius, Stats* stats) const {
  QueryStats qs;
  auto result = engine_->RangeSearch(y, radius, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<std::vector<std::vector<Neighbor>>> ParallelIndex::KnnBatchImpl(
    const Matrix& queries, size_t k, Stats* stats) const {
  QueryStats qs;
  auto result = engine_->KnnSearchBatch(queries, k, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<std::vector<std::vector<uint32_t>>> ParallelIndex::RangeBatchImpl(
    const Matrix& queries, double radius, Stats* stats) const {
  QueryStats qs;
  auto result = engine_->RangeSearchBatch(queries, radius, &qs);
  stats->Add(qs);
  return result;
}

StatusOr<JoinResult> ParallelIndex::KnnJoinImpl(const Matrix& r, size_t k,
                                                Stats* stats) const {
  Timer timer;
  BREP_ASSIGN_OR_RETURN(
      JoinResult result,
      JoinOnBrePartition(engine_->index(), r, k, &engine_->thread_pool(),
                         stats));
  RecordJoin(engine_->index(), r.rows(), k, result, timer.ElapsedMillis());
  return result;
}

}  // namespace brep
