#include "shard/sharded_index.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "common/top_k.h"
#include "obs/index_metrics.h"

namespace brep {
namespace {

/// Far above any sane deployment, low enough that a garbage argument
/// cannot exhaust file descriptors or threads.
constexpr size_t kMaxShards = 256;
constexpr size_t kMaxThreads = 1024;

std::string CanonicalPath(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path canon =
      std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

std::string ShardWalPath(const std::string& prefix, size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

/// Per-shard options: same construction knobs, a private WAL.
IndexOptions ShardOptions(const ShardedIndexOptions& options, size_t shard) {
  IndexOptions opt = options.shard;
  if (opt.durability.enabled()) {
    opt.durability.wal_path = ShardWalPath(opt.durability.wal_path, shard);
  }
  return opt;
}

/// Fold one shard call's backend lanes into the facade's stats record. The
/// wrapper-owned lanes (queries, inserts, deletes, wall_ms) stay with the
/// FACADE wrapper -- the shard's own wrapper counted them for the shard's
/// registry already.
void AddShardLanes(SearchIndex::Stats* dst, const SearchIndex::Stats& s) {
  static_cast<WorkCounters&>(*dst) += s;
  dst->wal_appends += s.wal_appends;
  dst->wal_fsyncs += s.wal_fsyncs;
  dst->wal_replayed += s.wal_replayed;
  dst->radius_total += s.radius_total;
}

/// Bucket-wise histogram sum for the cluster-wide view.
obs::HistogramSnapshot MergeHistograms(const obs::HistogramSnapshot& a,
                                       const obs::HistogramSnapshot& b) {
  obs::HistogramSnapshot out = a;
  out.count += b.count;
  out.sum_ms += b.sum_ms;
  out.max_ms = std::max(out.max_ms, b.max_ms);
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    out.buckets[i] += b.buckets[i];
  }
  return out;
}

Status ValidateOptions(const ShardedIndexOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards = " + std::to_string(options.num_shards) +
        " exceeds the cap of " + std::to_string(kMaxShards));
  }
  if (options.threads > kMaxThreads) {
    return Status::InvalidArgument(
        "threads = " + std::to_string(options.threads) +
        " exceeds the cap of " + std::to_string(kMaxThreads) +
        " (0 means hardware concurrency)");
  }
  return Status::Ok();
}

}  // namespace

ShardedIndex::ShardedIndex(std::vector<std::unique_ptr<Index>> shards,
                           size_t threads)
    : shards_(std::move(shards)) {
  const size_t total = threads == 0
                           ? std::max<size_t>(1, std::thread::hardware_concurrency())
                           : threads;
  pool_ = std::make_unique<ThreadPool>(total - 1);
  scatter_latency_ = &registry_.GetHistogram(obs::kShardScatterLatencyMs);
  merge_latency_ = &registry_.GetHistogram(obs::kShardMergeLatencyMs);
  size_t points = 0;
  for (const auto& shard : shards_) points += shard->num_points();
  next_shard_.store(points % shards_.size(), std::memory_order_relaxed);
}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    const Matrix& data, const std::string& divergence,
    const ShardedIndexOptions& options) {
  BREP_RETURN_IF_ERROR(ValidateOptions(options));
  const size_t n = options.num_shards;
  if (data.rows() < n) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(data.rows()) + " rows but " +
        std::to_string(n) + " shards were requested; every shard must hold "
        "at least one point");
  }
  std::vector<std::unique_ptr<Index>> shards;
  shards.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    // Row i -> shard i % n as local id i / n, so global ids equal row ids.
    std::vector<size_t> rows;
    rows.reserve(data.rows() / n + 1);
    for (size_t i = k; i < data.rows(); i += n) rows.push_back(i);
    const Matrix part = data.GatherRows(rows);
    BREP_ASSIGN_OR_RETURN(
        Index shard, Index::Build(part, divergence, ShardOptions(options, k)));
    shards.push_back(std::make_unique<Index>(std::move(shard)));
  }
  auto index = std::unique_ptr<ShardedIndex>(
      new ShardedIndex(std::move(shards), options.threads));
  index->durable_ = options.shard.durability.enabled();
  return index;
}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Open(
    const std::string& path, const ShardedIndexOptions& options) {
  BREP_RETURN_IF_ERROR(ValidateOptions(options));
  shard::Manifest m;
  bool fell_back = false;
  BREP_RETURN_IF_ERROR(shard::ReadManifestOrPrev(path, &m, &fell_back));
  const bool durable = options.shard.durability.enabled();
  std::vector<std::unique_ptr<Index>> shards;
  shards.reserve(m.num_shards());
  for (size_t k = 0; k < m.num_shards(); ++k) {
    const std::string file = shard::ResolveShardPath(path, m.shards[k].file);
    if (durable) {
      BREP_ASSIGN_OR_RETURN(
          Index shard,
          Index::Open(file, ShardOptions(options, k).durability));
      shards.push_back(std::make_unique<Index>(std::move(shard)));
    } else {
      BREP_ASSIGN_OR_RETURN(Index shard, Index::Open(file));
      shards.push_back(std::make_unique<Index>(std::move(shard)));
    }
  }
  auto index = std::unique_ptr<ShardedIndex>(
      new ShardedIndex(std::move(shards), options.threads));
  index->durable_ = durable;
  index->fell_back_ = fell_back;
  index->generation_ = m.generation;
  index->home_path_ = CanonicalPath(path);
  return index;
}

Status ShardedIndex::Save(const std::string& path) const {
  // One checkpoint at a time; queries and writes keep flowing (each shard's
  // SaveSnapshot copies a pinned MVCC view with no lock held).
  std::lock_guard<std::mutex> lock(save_mutex_);
  const std::string canon = CanonicalPath(path);
  if (home_path_.empty()) home_path_ = canon;
  const bool home = canon == home_path_;

  // Pick the next generation past whatever the target already holds (a
  // non-home Save must not collide with that manifest's own lineage).
  uint64_t base_gen = home ? generation_ : 0;
  shard::Manifest existing;
  if (shard::ReadManifestOrPrev(path, &existing).ok()) {
    base_gen = std::max(base_gen, existing.generation);
  }
  const uint64_t gen = base_gen + 1;

  // Phase 1: snapshot every shard under the new generation. Nothing here
  // is visible to Open() -- the old manifest still names the old files.
  shard::Manifest m;
  m.generation = gen;
  std::vector<uint64_t> watermarks(shards_.size(), 0);
  for (size_t k = 0; k < shards_.size(); ++k) {
    const std::string file = shard::ShardFileName(path, gen, k);
    BREP_ASSIGN_OR_RETURN(
        watermarks[k],
        shards_[k]->SaveSnapshot(shard::ResolveShardPath(path, file)));
    m.shards.push_back({file, watermarks[k]});
  }

  // Phase 2: the commit point. One atomic rename flips every shard to the
  // new generation together; the previous manifest survives as `.prev`.
  BREP_RETURN_IF_ERROR(shard::WriteManifest(path, m));

  // Phase 3: only now is it safe to let the logs go -- and only for the
  // home manifest (a Save elsewhere must leave the home lineage's redo
  // records alone). TruncateWal declines per shard when writes landed past
  // the snapshot watermark.
  if (home) {
    generation_ = gen;
    for (size_t k = 0; k < shards_.size(); ++k) {
      BREP_RETURN_IF_ERROR(shards_[k]->TruncateWal(watermarks[k]));
    }
  }

  // Best-effort cleanup: generations before `.prev`'s can no longer be
  // reached by any recovery path.
  if (gen >= 3) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      ::unlink(shard::ResolveShardPath(path,
                                       shard::ShardFileName(path, gen - 2, k))
                   .c_str());
    }
  }
  return Status::Ok();
}

uint64_t ShardedIndex::generation() const {
  std::lock_guard<std::mutex> lock(save_mutex_);
  return generation_;
}

std::string ShardedIndex::Describe() const {
  return "sharded(shards=" + std::to_string(shards_.size()) +
         ", n=" + std::to_string(num_points()) +
         ", threads=" + std::to_string(pool_->num_lanes()) + ") over " +
         shards_[0]->Describe();
}

size_t ShardedIndex::dim() const { return shards_[0]->dim(); }

const BregmanDivergence* ShardedIndex::QueryDivergence() const {
  return &shards_[0]->divergence();
}

size_t ShardedIndex::num_points() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_points();
  return total;
}

obs::MetricsSnapshot ShardedIndex::Metrics() const {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  obs::MetricsSnapshot out;
  for (size_t k = 0; k < shards_.size(); ++k) {
    obs::MetricsSnapshot snap = shards_[k]->Metrics();
    for (auto& [name, value] : snap.counters) counters[name] += value;
    for (auto& [name, value] : snap.gauges) gauges[name] += value;
    for (auto& [name, value] : snap.histograms) {
      auto [it, fresh] = histograms.emplace(name, value);
      if (!fresh) it->second = MergeHistograms(it->second, value);
    }
    const double* points = snap.FindGauge(obs::kPointsGauge);
    out.AddGauge(std::string(obs::kPointsGauge) + "_shard" +
                     std::to_string(k),
                 points != nullptr ? *points : 0.0);
  }
  for (auto& [name, value] : counters) out.AddCounter(name, value);
  for (auto& [name, value] : gauges) out.AddGauge(name, value);
  for (auto& [name, value] : histograms) out.AddHistogram(name, value);
  out.AddGauge(obs::kShardsGauge, double(shards_.size()));
  obs::MetricsSnapshot own = registry_.Snapshot();
  for (auto& [name, value] : own.counters) out.AddCounter(name, value);
  for (auto& [name, value] : own.gauges) out.AddGauge(name, value);
  for (auto& [name, value] : own.histograms) out.AddHistogram(name, value);
  out.Sort();
  return out;
}

std::vector<obs::QueryTraceEntry> ShardedIndex::SlowQueries() const {
  std::vector<obs::QueryTraceEntry> out;
  for (const auto& shard : shards_) {
    auto entries = shard->SlowQueries();
    out.insert(out.end(), entries.begin(), entries.end());
  }
  return out;
}

Status ShardedIndex::KnnOne(std::span<const double> y, size_t k,
                            bool parallel, std::vector<Neighbor>* out,
                            Stats* stats) const {
  const size_t n = shards_.size();
  std::vector<std::vector<Neighbor>> per(n);
  std::vector<Stats> shard_stats(n);
  std::vector<Status> shard_status(n);
  Timer scatter_timer;
  auto run_shard = [&](size_t i) {
    const size_t avail = shards_[i]->num_points();
    if (avail == 0) return;  // empty shard contributes nothing
    auto result = shards_[i]->Knn(y, std::min(k, avail), &shard_stats[i]);
    if (!result.ok()) {
      shard_status[i] = result.status();
      return;
    }
    per[i] = *std::move(result);
    // A shard's ascending local order IS ascending global order, so the
    // id rewrite preserves each list's (distance, id) sort.
    for (Neighbor& nb : per[i]) nb.id = GlobalId(nb.id, i, n);
  };
  if (parallel && n > 1) {
    pool_->ParallelFor(n, [&](size_t i, size_t) { run_shard(i); });
  } else {
    for (size_t i = 0; i < n; ++i) run_shard(i);
  }
  scatter_latency_->Record(scatter_timer.ElapsedMillis());
  for (size_t i = 0; i < n; ++i) {
    BREP_RETURN_IF_ERROR(shard_status[i]);
    AddShardLanes(stats, shard_stats[i]);
  }
  Timer merge_timer;
  *out = MergeKnn(per, k);
  merge_latency_->Record(merge_timer.ElapsedMillis());
  return Status::Ok();
}

Status ShardedIndex::RangeOne(std::span<const double> y, double radius,
                              bool parallel, std::vector<uint32_t>* out,
                              Stats* stats) const {
  const size_t n = shards_.size();
  std::vector<std::vector<uint32_t>> per(n);
  std::vector<Stats> shard_stats(n);
  std::vector<Status> shard_status(n);
  Timer scatter_timer;
  auto run_shard = [&](size_t i) {
    if (shards_[i]->num_points() == 0) return;
    auto result = shards_[i]->Range(y, radius, &shard_stats[i]);
    if (!result.ok()) {
      shard_status[i] = result.status();
      return;
    }
    per[i] = *std::move(result);
    for (uint32_t& id : per[i]) id = GlobalId(id, i, n);
  };
  if (parallel && n > 1) {
    pool_->ParallelFor(n, [&](size_t i, size_t) { run_shard(i); });
  } else {
    for (size_t i = 0; i < n; ++i) run_shard(i);
  }
  scatter_latency_->Record(scatter_timer.ElapsedMillis());
  for (size_t i = 0; i < n; ++i) {
    BREP_RETURN_IF_ERROR(shard_status[i]);
    AddShardLanes(stats, shard_stats[i]);
  }
  Timer merge_timer;
  *out = MergeRange(per);
  merge_latency_->Record(merge_timer.ElapsedMillis());
  return Status::Ok();
}

StatusOr<std::vector<Neighbor>> ShardedIndex::KnnImpl(
    std::span<const double> y, size_t k, Stats* stats) const {
  std::vector<Neighbor> out;
  BREP_RETURN_IF_ERROR(KnnOne(y, k, /*parallel=*/true, &out, stats));
  return out;
}

StatusOr<std::vector<uint32_t>> ShardedIndex::RangeImpl(
    std::span<const double> y, double radius, Stats* stats) const {
  std::vector<uint32_t> out;
  BREP_RETURN_IF_ERROR(RangeOne(y, radius, /*parallel=*/true, &out, stats));
  return out;
}

StatusOr<std::vector<std::vector<Neighbor>>> ShardedIndex::KnnBatchImpl(
    const Matrix& queries, size_t k, Stats* stats) const {
  std::vector<std::vector<Neighbor>> out(queries.rows());
  const size_t lanes = pool_->num_lanes();
  std::vector<Stats> lane_stats(lanes);
  std::vector<Status> lane_status(lanes);
  // Parallelize ACROSS queries; each row scatters over its shards inline
  // (the lanes are already busy, nesting fan-outs would just add queueing).
  pool_->ParallelFor(queries.rows(), [&](size_t q, size_t lane) {
    if (!lane_status[lane].ok()) return;
    lane_status[lane] = KnnOne(queries.Row(q), k, /*parallel=*/false,
                               &out[q], &lane_stats[lane]);
  });
  for (size_t lane = 0; lane < lanes; ++lane) {
    BREP_RETURN_IF_ERROR(lane_status[lane]);
    AddShardLanes(stats, lane_stats[lane]);
  }
  return out;
}

StatusOr<std::vector<std::vector<uint32_t>>> ShardedIndex::RangeBatchImpl(
    const Matrix& queries, double radius, Stats* stats) const {
  std::vector<std::vector<uint32_t>> out(queries.rows());
  const size_t lanes = pool_->num_lanes();
  std::vector<Stats> lane_stats(lanes);
  std::vector<Status> lane_status(lanes);
  pool_->ParallelFor(queries.rows(), [&](size_t q, size_t lane) {
    if (!lane_status[lane].ok()) return;
    lane_status[lane] = RangeOne(queries.Row(q), radius, /*parallel=*/false,
                                 &out[q], &lane_stats[lane]);
  });
  for (size_t lane = 0; lane < lanes; ++lane) {
    BREP_RETURN_IF_ERROR(lane_status[lane]);
    AddShardLanes(stats, lane_stats[lane]);
  }
  return out;
}

StatusOr<JoinResult> ShardedIndex::KnnJoinImpl(const Matrix& r, size_t k,
                                               Stats* stats) const {
  // One scatter pass: every shard joins R against its own slice (k clamped
  // to the shard's population), lists are rewritten into global id space,
  // and each R row merges through the global (distance, id) TopK.
  const size_t n = shards_.size();
  std::vector<JoinResult> per(n);
  std::vector<Stats> shard_stats(n);
  std::vector<Status> shard_status(n);
  Timer scatter_timer;
  const auto run_shard = [&](size_t i) {
    const size_t avail = shards_[i]->num_points();
    if (avail == 0) return;  // empty shard contributes nothing
    auto result =
        shards_[i]->KnnJoin(r, std::min(k, avail), &shard_stats[i]);
    if (!result.ok()) {
      shard_status[i] = result.status();
      return;
    }
    per[i] = *std::move(result);
    // A shard's ascending local order IS ascending global order, so the
    // id rewrite preserves each list's (distance, id) sort.
    for (std::vector<Neighbor>& row : per[i].neighbors) {
      for (Neighbor& nb : row) nb.id = GlobalId(nb.id, i, n);
    }
  };
  if (n > 1) {
    pool_->ParallelFor(n, [&](size_t i, size_t) { run_shard(i); });
  } else {
    run_shard(0);
  }
  scatter_latency_->Record(scatter_timer.ElapsedMillis());
  JoinResult out;
  for (size_t i = 0; i < n; ++i) {
    BREP_RETURN_IF_ERROR(shard_status[i]);
    AddShardLanes(stats, shard_stats[i]);
    out.stats.node_pairs_visited += per[i].stats.node_pairs_visited;
    out.stats.node_pairs_pruned += per[i].stats.node_pairs_pruned;
    out.stats.leaf_blocks += per[i].stats.leaf_blocks;
    out.stats.pairs_evaluated += per[i].stats.pairs_evaluated;
    out.stats.build_ms += per[i].stats.build_ms;
    out.stats.descent_ms += per[i].stats.descent_ms;
  }
  Timer merge_timer;
  out.neighbors.resize(r.rows());
  std::vector<std::vector<Neighbor>> rows(n);
  for (size_t q = 0; q < r.rows(); ++q) {
    for (size_t i = 0; i < n; ++i) {
      rows[i] = per[i].neighbors.size() == r.rows()
                    ? std::move(per[i].neighbors[q])
                    : std::vector<Neighbor>{};
    }
    out.neighbors[q] = MergeKnn(rows, k);
  }
  merge_latency_->Record(merge_timer.ElapsedMillis());
  return out;
}

StatusOr<uint32_t> ShardedIndex::InsertImpl(std::span<const double> point,
                                            Stats* stats) {
  const size_t n = shards_.size();
  // The routing decision is the facade's ONLY cross-shard write state:
  // writers on different shards proceed under different per-shard writer
  // mutexes from here on.
  const size_t target =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % n;
  Stats shard_stats;
  auto local = shards_[target]->Insert(point, &shard_stats);
  AddShardLanes(stats, shard_stats);
  if (!local.ok()) {
    // A rejected insert gives its slot back (the cursor is load balancing,
    // not correctness), keeping routing deterministic for sequential
    // callers even across validation failures.
    next_shard_.fetch_sub(1, std::memory_order_relaxed);
    return local.status();
  }
  return GlobalId(*local, target, n);
}

Status ShardedIndex::DeleteImpl(uint32_t id, Stats* stats) {
  const size_t n = shards_.size();
  Stats shard_stats;
  const Status status =
      shards_[ShardOf(id, n)]->Delete(LocalId(id, n), &shard_stats);
  AddShardLanes(stats, shard_stats);
  if (status.code() == StatusCode::kNotFound) {
    // The shard speaks local ids; rewrite in the caller's space.
    return Status::NotFound("no live point with id " + std::to_string(id));
  }
  return status;
}

}  // namespace brep
