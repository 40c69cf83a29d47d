// write_mix: one client churning a durable index (WAL in group-commit mode)
// with inserts and deletes, and a trickle of kNN reads against the churning
// index. Every read and the final state are checked against a brute-force
// mirror rebuilt from the recorded op sequence.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "api/index.h"
#include "bench.h"
#include "core/brepartition.h"
#include "gen.h"
#include "layers.h"
#include "obs/index_metrics.h"

namespace perfbench {
namespace {

// The mix, per block of 100 ops shuffled with the op seed: the shares are
// exact, so a run's read/write balance does not depend on the seed.
constexpr size_t kBlock = 100;
constexpr size_t kInsertsPerBlock = 49;
constexpr size_t kDeletesPerBlock = 49;  // the other 2 are kNN reads
constexpr size_t kFinalChecks = 4;     // kNN checks against the final state
// Ops are sub-millisecond, so the host is sampled once per block of ops.
constexpr size_t kOpsPerHostSample = 64;

struct Op {
  char kind;     // 'i' insert, 'd' delete, 'k' kNN
  uint32_t id;   // inserted (as assigned) or deleted id
  uint32_t row;  // held-out row inserted, or query row read
  bool ok;
  bool traced;
  double ms;     // raw
  double scale;  // to reference host speed
  uint64_t ring_before, ring_after;
  std::vector<brep::Neighbor> answer;
};

/// Replay the recorded op sequence into a brute-force mirror and check
/// every read whose index has parity `parity` (two of these run at once).
/// Returns the reads that differ from the oracle; `live_out` (parity 0
/// only) receives the final live set.
uint64_t CheckReads(const std::vector<Op>& ops, const brep::Matrix& data,
                    const brep::Matrix& held, const brep::Matrix& queries,
                    const brep::BregmanDivergence& div, size_t k, int parity,
                    brep::Matrix* mirror_out, std::vector<char>* live_out) {
  size_t inserts = 0;
  for (const Op& op : ops) inserts += op.kind == 'i' ? 1 : 0;
  brep::Matrix mirror(data.rows() + inserts, data.cols());
  std::vector<char> live(mirror.rows(), 0);
  for (size_t i = 0; i < data.rows(); ++i) {
    const auto row = data.Row(i);
    std::copy(row.begin(), row.end(), mirror.MutableRow(i).begin());
    live[i] = 1;
  }
  uint64_t mismatches = 0;
  size_t reads = 0;
  for (const Op& op : ops) {
    if (!op.ok) continue;
    if (op.kind == 'i') {
      // An insert may only hand out an id that is not live.
      if (op.id >= mirror.rows() || live[op.id] != 0) {
        mismatches += parity == 0 ? 1 : 0;
        continue;
      }
      const auto row = held.Row(op.row);
      std::copy(row.begin(), row.end(), mirror.MutableRow(op.id).begin());
      live[op.id] = 1;
    } else if (op.kind == 'd') {
      live[op.id] = 0;
    } else if (reads++ % 2 == size_t(parity)) {
      const auto exact = BruteForceKnn(mirror, live, div, queries.Row(op.row), k);
      mismatches += SameAnswer(op.answer, exact) ? 0 : 1;
    }
  }
  if (mirror_out != nullptr) *mirror_out = std::move(mirror);
  if (live_out != nullptr) *live_out = std::move(live);
  return mismatches;
}

}  // namespace

Outcome RunWriteMix(const RunConfig& config) {
  const Shape& s = config.shape;
  Outcome out;
  HostSpeed host;
  Timings time;
  const brep::Matrix data = EnergyProfileIsd(kDataSeed, s.n, s.d);
  const brep::Matrix held = EnergyProfileIsd(StreamSeed(config.seed, 2), s.held,
                                             s.d);
  const brep::Matrix queries =
      NoisyRows(StreamSeed(kDataSeed, 4), StreamSeed(config.seed, 1), data,
                s.queries, 0.1, /*keep_positive=*/true);
  const uint64_t op_seed = StreamSeed(config.seed, 3);
  out.input_digest = Digest(queries, Digest(held, Digest(data))) ^ op_seed;

  // Setup = durable build + the first checkpoint, repeated; serve from the
  // last one.
  std::optional<brep::Index> index;
  for (size_t i = 0; i < s.setups; ++i) {
    index.reset();
    const std::string base = config.workdir + "/write_mix." + std::to_string(i);
    std::filesystem::remove(base + ".idx");
    std::filesystem::remove(base + ".wal");
    brep::DurabilityOptions durability;
    durability.wal_path = base + ".wal";
    durability.fsync_mode = brep::FsyncMode::kGroup;
    durability.group_window_ms = 2.0;
    TimeSetup(&host, &time, [&] {
      auto built = brep::IndexBuilder("itakura_saito")
                       .PageSize(s.page_size)
                       .DerivedPartitionBounds(4, 64)
                       .Durability(durability)
                       .Build(data);
      CheckOk(built.status(), "build");
      CheckOk(built->Save(base + ".idx"), "checkpoint");
      index.emplace(*std::move(built));
    });
  }
  brep::Index& idx = *index;
  const double default_threshold = idx.impl().trace_log().threshold_ms();
  if (config.trace) idx.SetTraceCapacity(size_t{1} << 18);
  const brep::obs::TraceLog& ring = idx.impl().trace_log();

  for (size_t i = 0; i < s.warmup; ++i) {
    out.attempted += 1;
    out.failed += idx.Knn(queries.Row(i % s.queries), s.k).ok() ? 0 : 1;
  }

  // The mix. `live` mirrors the live ids in a deterministic order, so the
  // op stream (which position to delete) is a function of the seed.
  std::vector<uint32_t> live(s.n);
  for (uint32_t i = 0; i < s.n; ++i) live[i] = i;
  Rng rng(op_seed);
  std::vector<char> block;
  size_t next_held = 0, next_query = 0;
  std::vector<Op> ops;
  ReplaySums replay;
  uint64_t replay_mismatches = 0;
  const brep::Pager* pager = idx.impl().pager();
  const uint64_t wal_bytes0 = idx.wal_stats().appended_bytes;
  const uint64_t page_writes0 = pager->stats().writes;
  double free_pages_at_count = 0.0;

  const brep::obs::MetricsSnapshot m0 = idx.Metrics();
  const Clock::time_point start = Clock::now();
  double window_ms = 0.0;
  for (size_t i = 0;; ++i) {
    const bool traced = config.trace && (i / kBlock) % 2 == 0;
    if (config.trace) {
      idx.SetSlowQueryThreshold(traced ? 0.0 : default_threshold);
    }
    if (i % kOpsPerHostSample == 0) host.Sample();
    if (i % kBlock == 0) {
      block.assign(kBlock, 'k');
      std::fill_n(block.begin(), kInsertsPerBlock, 'i');
      std::fill_n(block.begin() + kInsertsPerBlock, kDeletesPerBlock, 'd');
      for (size_t j = kBlock - 1; j > 0; --j) {
        std::swap(block[j], block[rng.Below(j + 1)]);
      }
    }
    const char kind = block[i % kBlock];
    Op op{};
    op.traced = traced;
    op.scale = host.Scale();
    op.ring_before = ring.recorded_total();
    if (kind == 'i' || live.empty()) {
      op.kind = 'i';
      op.row = static_cast<uint32_t>(next_held++ % s.held);
      const Clock::time_point t = Clock::now();
      auto r = idx.Insert(held.Row(op.row));
      op.ms = MsSince(t);
      op.ok = r.ok();
      if (op.ok) {
        op.id = *r;
        live.push_back(op.id);
      }
    } else if (kind == 'd') {
      op.kind = 'd';
      const size_t p = rng.Below(live.size());
      op.id = live[p];
      const Clock::time_point t = Clock::now();
      op.ok = idx.Delete(op.id).ok();
      op.ms = MsSince(t);
      if (op.ok) {
        live[p] = live.back();
        live.pop_back();
      }
    } else {
      op.kind = 'k';
      op.row = static_cast<uint32_t>(next_query++ % s.queries);
      brep::SearchIndex::Stats st;
      const Clock::time_point t = Clock::now();
      auto r = idx.Knn(queries.Row(op.row), s.k, &st);
      op.ms = MsSince(t);
      op.ok = r.ok();
      if (op.ok) op.answer = *std::move(r);
      if (i < s.counted) AddCounts(st, &out.counts);
      // The index cannot change between the read and its replay: this is
      // the only client.
      if (traced && op.ok &&
          !ReplayKnn(idx, queries.Row(op.row), s.k, op.answer, &replay)) {
        replay_mismatches += 1;
      }
    }
    op.ring_after = ring.recorded_total();
    if (op.kind != 'k' && i < s.counted) out.counts.writes += op.ok ? 1 : 0;
    ops.push_back(std::move(op));
    if (i + 1 == s.counted) {
      out.counts.wal_bytes = idx.wal_stats().appended_bytes - wal_bytes0;
      out.counts.page_writes = pager->stats().writes - page_writes0;
      free_pages_at_count = double(pager->num_free_pages());
    }
    window_ms = MsSince(start);
    if (window_ms >= config.seconds * 1e3 && i + 1 >= s.counted) break;
  }
  const brep::obs::MetricsSnapshot m1 = idx.Metrics();
  idx.SetSlowQueryThreshold(default_threshold);

  // Oracle gate: every op's status, every read against the mirror, then
  // the final state.
  std::vector<double> read_lat, traced_writes, plain_writes;
  size_t reads = 0, writes = 0;
  for (const Op& op : ops) {
    out.attempted += 1;
    out.failed += op.ok ? 0 : 1;
    if (op.kind == 'k') {
      ++reads;
      read_lat.push_back(op.ms);
      time.AddBusy(op.ms, op.scale);
    } else {
      ++writes;
      time.AddLatency(op.ms, op.scale);
      (op.traced ? traced_writes : plain_writes).push_back(op.ms * op.scale);
    }
  }
  time.units = double(ops.size());
  time.window_ms = window_ms;
  const brep::BregmanDivergence& div = idx.divergence();
  brep::Matrix mirror;
  std::vector<char> mirror_live;
  uint64_t odd_mismatches = 0;
  std::thread helper([&] {
    odd_mismatches = CheckReads(ops, data, held, queries, div, s.k, 1, nullptr,
                                nullptr);
  });
  out.failed += CheckReads(ops, data, held, queries, div, s.k, 0, &mirror,
                           &mirror_live);
  helper.join();
  out.failed += odd_mismatches;

  size_t live_count = 0;
  for (size_t id = 0; id < mirror_live.size(); ++id) {
    if (mirror_live[id] == 0) continue;
    ++live_count;
    out.attempted += 1;
    out.failed += idx.impl().Contains(static_cast<uint32_t>(id)) ? 0 : 1;
  }
  out.attempted += 1;
  out.failed += idx.num_points() == live_count ? 0 : 1;
  for (size_t q = 0; q < std::min(kFinalChecks, s.queries); ++q) {
    out.attempted += 1;
    auto r = idx.Knn(queries.Row(q), s.k);
    out.failed +=
        r.ok() && SameAnswer(*r, BruteForceKnn(mirror, mirror_live, div,
                                               queries.Row(q), s.k))
            ? 0
            : 1;
  }

  out.meta.emplace_back("partitions_M (derived)",
                        std::to_string(idx.num_partitions()));
  out.meta.emplace_back("fsync_mode", "group, 2 ms window");
  out.meta.emplace_back("filesystem", FilesystemType(config.workdir));
  out.meta.emplace_back("mix", std::to_string(writes) + " writes, " +
                                   std::to_string(reads) + " reads, " +
                                   std::to_string(live_count) +
                                   " live points at the end");
  TailNotes(time.lat_raw_ms, "write latency", &out);
  TailNotes(read_lat, "Knn latency under churn", &out);

  if (!config.trace) {
    out.metrics = EndToEndMetrics(
        time, host,
        double(pager->num_pages()) * double(pager->page_size()) /
            (double(live_count) * double(s.d) * sizeof(double)),
        &out);
  } else {
    out.attempted += replay.queries;
    out.failed += replay_mismatches;
    const std::vector<brep::obs::QueryTraceEntry> entries = idx.SlowQueries();
    std::vector<double> traced_reads, write_total, wal_append, overhead;
    std::vector<brep::obs::QueryTraceEntry> read_entries;
    for (const Op& op : ops) {
      const auto* e = RingEntry(entries, op.ring_before, op.ring_after);
      if (!op.traced || e == nullptr) continue;
      overhead.push_back(op.ms - e->total_ms);
      if (op.kind == 'k') {
        traced_reads.push_back(op.ms);
        read_entries.push_back(*e);
      } else {
        write_total.push_back(e->total_ms);
        wal_append.push_back(e->wal_append_ms);
      }
    }
    LayerValues v;
    const double read_ms = Mean(traced_reads);
    KnnLayers(replay, out.counts, s.k, &out, &v);
    TraceRingLayers(read_entries, 'k', &out, &v);
    v["divergence.backend"] = Gauge(m1, brep::obs::kSimdKernelGauge);

    const double write_ms = Mean(write_total);
    const auto append = HistogramDelta(m0, m1, brep::obs::kWalAppendLatencyMs);
    const auto fsync = HistogramDelta(m0, m1, brep::obs::kWalFsyncLatencyMs);
    const auto publish =
        HistogramDelta(m0, m1, brep::obs::kSnapshotPublishLatencyMs);
    const uint64_t fsyncs = CounterDelta(m0, m1, brep::obs::kWalFsyncsTotal);
    const double counted_writes = double(std::max<uint64_t>(out.counts.writes, 1));
    v["wal.append_ms"] = append.MeanMs();
    v["wal.fsync_ms"] = fsync.MeanMs();
    v["wal.writes_per_fsync"] = fsyncs > 0 ? double(writes) / double(fsyncs) : 0;
    v["wal.bytes_per_write"] = double(out.counts.wal_bytes) / counted_writes;
    v["storage.page_writes_per_write"] =
        double(out.counts.page_writes) / counted_writes;
    v["storage.free_pages"] = free_pages_at_count;
    v["core.publish_ms"] = publish.MeanMs();
    v["core.cow_retained_pages"] =
        Gauge(m1, brep::obs::kSnapshotCowRetainedPagesGauge);
    const double apply = write_ms - Mean(wal_append) - publish.MeanMs();
    v["core.apply_ms"] = apply;
    v["api.overhead_ms"] = Mean(overhead);
    const double tracing = Median(traced_writes) / Median(plain_writes) - 1.0;
    v["trace.overhead_share"] = tracing;

    out.layers.push_back({"wal", "append: encode + pwrite", append.MeanMs(),
                          append.MeanMs() / write_ms,
                          Fmt(v["wal.bytes_per_write"], 1) + " B/write"});
    out.layers.push_back(
        {"wal", "group fsync (background flusher)", fsync.MeanMs(), -1.0,
         Fmt(v["wal.writes_per_fsync"], 2) + " writes/fsync"});
    out.layers.push_back({"core", "publish: MVCC version", publish.MeanMs(),
                          publish.MeanMs() / write_ms,
                          Fmt(v["core.cow_retained_pages"], 0) +
                              " COW pages retained at the end"});
    out.layers.push_back(
        {"core", "apply: trees + store (write - WAL - publish)", apply,
         apply / write_ms,
         Fmt(v["storage.page_writes_per_write"], 2) + " page writes/write, " +
             Fmt(free_pages_at_count, 0) + " free pages"});
    out.layers.push_back({"api", "facade span - trace total_ms (all ops)",
                          Mean(overhead), -1.0, ""});
    out.notes.push_back("write shares are of the mean traced write (" +
                        Fmt(write_ms, 4) + " ms); the mean traced read took " +
                        Fmt(read_ms) + " ms");
    out.notes.push_back("tracing overhead (traced vs untraced write p50): " +
                        Fmt(100.0 * tracing, 2) + "%");
    out.metrics = LayerMetrics(v);
  }

  RunMeta(m1, time, std::to_string(ops.size()) + " ops", &out);
  return out;
}

}  // namespace perfbench
