// knn_disk and knn_batch: the paper's ISD kNN served from a file with a
// buffer pool smaller than the working set, and the same index served from
// memory through the concurrent engine.

#include <algorithm>
#include <filesystem>
#include <optional>

#include "api/index.h"
#include "bench.h"
#include "core/brepartition.h"
#include "gen.h"
#include "layers.h"
#include "obs/index_metrics.h"

namespace perfbench {
namespace {

struct KnnInputs {
  brep::Matrix data;
  brep::Matrix queries;
  uint64_t digest = 0;
};

KnnInputs MakeKnnInputs(const RunConfig& config) {
  const Shape& s = config.shape;
  KnnInputs in;
  in.data = EnergyProfileIsd(kDataSeed, s.n, s.d);
  in.queries = NoisyRows(StreamSeed(kDataSeed, 4), StreamSeed(config.seed, 1),
                         in.data, s.queries, 0.1, /*keep_positive=*/true);
  in.digest = Digest(in.queries, Digest(in.data));
  return in;
}

brep::StatusOr<brep::Index> BuildIsd(const brep::Matrix& data,
                                     const Shape& s) {
  return brep::IndexBuilder("itakura_saito")
      .PageSize(s.page_size)
      .PoolPages(s.pool_pages)
      .DerivedPartitionBounds(4, 64)
      .Build(data);
}

brep::Matrix Rows(const brep::Matrix& m, size_t first, size_t count) {
  brep::Matrix out(count, m.cols());
  for (size_t i = 0; i < count; ++i) {
    const auto row = m.Row((first + i) % m.rows());
    std::copy(row.begin(), row.end(), out.MutableRow(i).begin());
  }
  return out;
}

}  // namespace

Outcome RunKnnDisk(const RunConfig& config) {
  const Shape& s = config.shape;
  Outcome out;
  HostSpeed host;
  Timings time;
  const KnnInputs in = MakeKnnInputs(config);
  out.input_digest = in.digest;

  // Setup = build + Save + Open, repeated; serve from the last one.
  std::optional<brep::Index> index;
  std::string path;
  for (size_t i = 0; i < s.setups; ++i) {
    index.reset();
    if (!path.empty()) std::filesystem::remove(path);
    path = config.workdir + "/knn_disk." + std::to_string(i) + ".idx";
    TimeSetup(&host, &time, [&] {
      {
        auto built = BuildIsd(in.data, s);
        CheckOk(built.status(), "build");
        CheckOk(built->Save(path), "save");
      }
      auto opened = brep::Index::Open(path);
      CheckOk(opened.status(), "open");
      index.emplace(*std::move(opened));
    });
  }
  brep::Index& idx = *index;
  const double default_threshold = idx.impl().trace_log().threshold_ms();
  if (config.trace) idx.SetTraceCapacity(size_t{1} << 18);

  const size_t nq = in.queries.rows();
  struct Call {
    uint32_t q;
    bool traced;
    double ms;      // raw
    double scale;   // to reference host speed
    uint64_t ring_before, ring_after;
    std::vector<brep::Neighbor> answer;
  };
  std::vector<Call> calls;
  const brep::obs::TraceLog& ring = idx.impl().trace_log();
  auto submit = [&](size_t q, bool traced, brep::SearchIndex::Stats* st) {
    if (config.trace) {
      idx.SetSlowQueryThreshold(traced ? 0.0 : default_threshold);
    }
    host.Sample();
    const uint64_t before = ring.recorded_total();
    const Clock::time_point t = Clock::now();
    auto r = idx.Knn(in.queries.Row(q), s.k, st);
    const double ms = MsSince(t);
    calls.push_back({static_cast<uint32_t>(q), traced, ms, host.Scale(), before,
                     ring.recorded_total(),
                     r.ok() ? *std::move(r) : std::vector<brep::Neighbor>{}});
    if (!r.ok()) out.failed += 1;
  };

  for (size_t i = 0; i < s.warmup; ++i) submit(i % nq, false, nullptr);
  const size_t warm = calls.size();

  const brep::obs::MetricsSnapshot m0 = idx.Metrics();
  const Clock::time_point start = Clock::now();
  double window_ms = 0.0;
  for (size_t i = 0;; ++i) {
    // In the traced run every other pass traces the other half of the
    // queries, so each arm sees the same query mix.
    const bool traced = config.trace && (i + i / nq) % 2 == 0;
    brep::SearchIndex::Stats st;
    submit(i % nq, traced, &st);
    if (i < s.counted) AddCounts(st, &out.counts);
    window_ms = MsSince(start);
    if (window_ms >= config.seconds * 1e3 && i + 1 >= s.counted) break;
  }
  const brep::obs::MetricsSnapshot m1 = idx.Metrics();
  idx.SetSlowQueryThreshold(default_threshold);

  // Oracle gate, outside the window and outside setup.
  const brep::BregmanDivergence& div = idx.divergence();
  const auto exact = BruteForceKnnAll(in.data, div, in.queries, s.k);
  for (const Call& c : calls) {
    out.attempted += 1;
    if (!c.answer.empty() && !SameAnswer(c.answer, exact[c.q])) out.failed += 1;
  }

  std::vector<double> traced_lat, plain_lat, traced_ref, plain_ref;
  for (size_t i = warm; i < calls.size(); ++i) {
    const Call& c = calls[i];
    time.AddLatency(c.ms, c.scale);
    (c.traced ? traced_lat : plain_lat).push_back(c.ms);
    (c.traced ? traced_ref : plain_ref).push_back(c.ms * c.scale);
  }
  const std::vector<double>& lat = time.lat_raw_ms;
  time.units = double(lat.size());
  time.window_ms = window_ms;
  const double raw_bytes = double(s.n) * double(s.d) * sizeof(double);

  IndexMeta(idx, s, &out);
  out.meta.emplace_back("fsync_mode", "none (read-only file index)");
  out.meta.emplace_back("filesystem", FilesystemType(config.workdir));
  TailNotes(lat, "Knn latency", &out);

  if (!config.trace) {
    out.metrics = EndToEndMetrics(
        time, host, double(std::filesystem::file_size(path)) / raw_bytes, &out);
  } else {
    ReplaySums r;
    for (size_t i = warm; i < calls.size(); ++i) {
      if (!calls[i].traced) continue;
      out.attempted += 1;
      if (!ReplayKnn(idx, in.queries.Row(calls[i].q), s.k, calls[i].answer,
                     &r)) {
        out.failed += 1;
      }
    }
    const double call_ms = Mean(traced_lat);
    LayerValues v;
    KnnLayers(r, out.counts, s.k, &out, &v);
    const auto io = HistogramDelta(m0, m1, brep::obs::kIoReadLatencyMs);
    const double pager_ms = io.sum_ms / double(std::max<size_t>(lat.size(), 1));
    v["storage.pager_read_ms"] = pager_ms;
    v["storage.pager_read_share"] = pager_ms / Mean(lat);
    out.layers.push_back({"storage", "pager: FilePager pread (metrics delta)",
                          pager_ms, pager_ms / Mean(lat),
                          Fmt(double(io.count) / double(lat.size()), 1) +
                              " reads/query"});
    v["divergence.backend"] = Gauge(m1, brep::obs::kSimdKernelGauge);

    // Each traced call admitted exactly one ring entry: pair them by seq.
    const std::vector<brep::obs::QueryTraceEntry> entries = idx.SlowQueries();
    std::vector<brep::obs::QueryTraceEntry> traced_entries;
    std::vector<double> overheads;
    for (size_t i = warm; i < calls.size(); ++i) {
      const Call& c = calls[i];
      const auto* e = RingEntry(entries, c.ring_before, c.ring_after);
      if (!c.traced || e == nullptr) continue;
      traced_entries.push_back(*e);
      overheads.push_back(c.ms - e->total_ms);
    }
    TraceRingLayers(traced_entries, 'k', &out, &v);
    const double overhead = Mean(overheads);
    v["api.overhead_ms"] = overhead;
    out.layers.push_back({"api", "facade span - trace total_ms", overhead,
                          overhead / call_ms, ""});
    const double tracing = Median(traced_ref) / Median(plain_ref) - 1.0;
    v["trace.overhead_share"] = tracing;
    out.notes.push_back("tracing overhead (traced vs untraced p50): " +
                        Fmt(100.0 * tracing, 2) + "%");
    out.metrics = LayerMetrics(v);
  }

  RunMeta(m1, time, std::to_string(lat.size()) + " calls", &out);
  return out;
}

Outcome RunKnnBatch(const RunConfig& config) {
  const Shape& s = config.shape;
  Outcome out;
  HostSpeed host;
  Timings time;
  const KnnInputs in = MakeKnnInputs(config);
  out.input_digest = in.digest;

  std::optional<brep::Index> index;
  for (size_t i = 0; i < s.setups; ++i) {
    index.reset();
    TimeSetup(&host, &time, [&] {
      auto built = BuildIsd(in.data, s);
      CheckOk(built.status(), "build");
      index.emplace(*std::move(built));
    });
  }
  brep::Index& idx = *index;
  auto parallel = idx.Parallel(s.threads);
  CheckOk(parallel.status(), "Parallel");
  const brep::ParallelIndex& par = *parallel;
  const double default_threshold = idx.impl().trace_log().threshold_ms();
  if (config.trace) idx.SetTraceCapacity(size_t{1} << 18);

  const size_t nq = in.queries.rows();
  const size_t batches = std::max<size_t>(1, nq / s.batch);
  std::vector<brep::Matrix> batch_rows;
  for (size_t b = 0; b < batches; ++b) {
    batch_rows.push_back(Rows(in.queries, b * s.batch, s.batch));
  }
  struct Call {
    uint32_t b;
    bool traced;
    double ms;     // raw
    double scale;  // to reference host speed
    uint64_t ring_before, ring_after;
    std::vector<std::vector<brep::Neighbor>> answers;
  };
  std::vector<Call> calls;
  const brep::obs::TraceLog& ring = idx.impl().trace_log();
  auto submit = [&](size_t b, bool traced, brep::SearchIndex::Stats* st) {
    if (config.trace) {
      idx.SetSlowQueryThreshold(traced ? 0.0 : default_threshold);
    }
    host.Sample(par.threads());
    const uint64_t before = ring.recorded_total();
    const Clock::time_point t = Clock::now();
    auto r = par.KnnBatch(batch_rows[b], s.k, st);
    const double ms = MsSince(t);
    calls.push_back({static_cast<uint32_t>(b), traced, ms, host.Scale(), before,
                     ring.recorded_total(),
                     r.ok() ? *std::move(r)
                            : std::vector<std::vector<brep::Neighbor>>{}});
    if (!r.ok()) out.failed += 1;
  };

  for (size_t i = 0; i < s.warmup; ++i) submit(i % batches, false, nullptr);
  const size_t warm = calls.size();

  const Clock::time_point start = Clock::now();
  double window_ms = 0.0;
  for (size_t i = 0;; ++i) {
    const bool traced = config.trace && (i + i / batches) % 2 == 0;
    brep::SearchIndex::Stats st;
    submit(i % batches, traced, &st);
    if (i < s.counted) AddCounts(st, &out.counts);
    window_ms = MsSince(start);
    if (window_ms >= config.seconds * 1e3 && i + 1 >= s.counted) break;
  }
  const brep::obs::MetricsSnapshot m1 = idx.Metrics();
  idx.SetSlowQueryThreshold(default_threshold);

  const auto exact = BruteForceKnnAll(in.data, idx.divergence(), in.queries,
                                      s.k);
  for (const Call& c : calls) {
    for (size_t j = 0; j < s.batch; ++j) {
      out.attempted += 1;
      const size_t q = (c.b * s.batch + j) % nq;
      if (c.answers.size() != s.batch ||
          !SameAnswer(c.answers[j], exact[q])) {
        out.failed += 1;
      }
    }
  }

  std::vector<double> traced_lat, plain_lat, traced_ref, plain_ref;
  for (size_t i = warm; i < calls.size(); ++i) {
    const Call& c = calls[i];
    time.AddLatency(c.ms, c.scale);
    (c.traced ? traced_lat : plain_lat).push_back(c.ms);
    (c.traced ? traced_ref : plain_ref).push_back(c.ms * c.scale);
  }
  const std::vector<double>& lat = time.lat_raw_ms;
  time.units = double(lat.size() * s.batch);
  time.window_ms = window_ms;

  IndexMeta(idx, s, &out);
  out.meta.emplace_back("threads", std::to_string(par.threads()) +
                                       " (Parallel), batch " +
                                       std::to_string(s.batch));
  out.meta.emplace_back("fsync_mode", "none (in-memory MemPager index)");
  out.meta.emplace_back("filesystem", "none (MemPager)");
  TailNotes(lat, "KnnBatch latency", &out);

  if (!config.trace) {
    const brep::Pager* pager = idx.impl().pager();
    out.metrics = EndToEndMetrics(
        time, host,
        double(pager->num_pages()) * double(pager->page_size()) /
            (double(s.n) * double(s.d) * sizeof(double)),
        &out);
  } else {
    // Per-query engine spans from the ring: each traced batch admitted
    // exactly its queries.
    const std::vector<brep::obs::QueryTraceEntry> entries = idx.SlowQueries();
    const uint64_t first_seq = entries.empty() ? 1 : entries.front().seq;
    double busy = 0.0, wall = 0.0;
    std::vector<double> query_ms;
    std::vector<brep::obs::QueryTraceEntry> traced_entries;
    ReplaySums r;
    for (size_t i = warm; i < calls.size(); ++i) {
      const Call& c = calls[i];
      if (!c.traced) continue;
      for (uint64_t seq = c.ring_before + 1; seq <= c.ring_after; ++seq) {
        if (seq < first_seq || seq - first_seq >= entries.size()) continue;
        traced_entries.push_back(entries[seq - first_seq]);
        query_ms.push_back(traced_entries.back().total_ms);
        busy += query_ms.back();
      }
      wall += c.ms;
      for (size_t j = 0; j < s.batch; ++j) {
        out.attempted += 1;
        const size_t q = (c.b * s.batch + j) % nq;
        if (c.answers.size() != s.batch ||
            !ReplayKnn(idx, in.queries.Row(q), s.k, c.answers[j], &r)) {
          out.failed += 1;
        }
      }
    }
    const double call_ms = Mean(query_ms);
    LayerValues v;
    KnnLayers(r, out.counts, s.k, &out, &v);
    v["divergence.backend"] = Gauge(m1, brep::obs::kSimdKernelGauge);
    const double lanes = double(par.threads());
    v["engine.lane_busy_share"] = wall > 0 ? busy / (lanes * wall) : 0.0;
    v["engine.batch_wall_ms"] = Mean(traced_lat);
    out.layers.push_back(
        {"engine", "KnnBatch wall (lane busy share in counts)", Mean(traced_lat),
         -1.0,
         Fmt(100.0 * v["engine.lane_busy_share"], 1) + "% of " +
             Fmt(lanes, 0) + " lanes busy, per-query engine time " +
             Fmt(call_ms) + " ms"});
    TraceRingLayers(traced_entries, 'k', &out, &v);
    const double tracing = Median(traced_ref) / Median(plain_ref) - 1.0;
    v["trace.overhead_share"] = tracing;
    out.notes.push_back("tracing overhead (traced vs untraced batch p50): " +
                        Fmt(100.0 * tracing, 2) + "%");
    out.notes.push_back("pool counters are approximate with two lanes");
    out.metrics = LayerMetrics(v);
  }

  RunMeta(m1, time, std::to_string(lat.size()) + " batches", &out);
  return out;
}

}  // namespace perfbench
