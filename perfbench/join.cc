// join_l2: sequential exact kNN-joins of an in-distribution R against a
// squared-L2 mixture S -- the dual-tree join and the AVX2 squared-L2
// kernel, bypassing the BB-forest bound, the filter and the pager.

#include <algorithm>
#include <optional>

#include "api/index.h"
#include "bench.h"
#include "core/brepartition.h"
#include "gen.h"
#include "layers.h"
#include "obs/index_metrics.h"

namespace perfbench {

Outcome RunJoinL2(const RunConfig& config) {
  const Shape& s = config.shape;
  Outcome out;
  HostSpeed host;
  Timings time;
  const brep::Matrix data = MixtureL2(kDataSeed, s.n, s.d);
  const brep::Matrix r =
      NoisyRows(StreamSeed(kDataSeed, 4), StreamSeed(config.seed, 1), data,
                s.queries, 0.1, /*keep_positive=*/false);
  out.input_digest = Digest(r, Digest(data));

  std::optional<brep::Index> index;
  for (size_t i = 0; i < s.setups; ++i) {
    index.reset();
    TimeSetup(&host, &time, [&] {
      auto built =
          brep::IndexBuilder("squared_l2").PageSize(s.page_size).Build(data);
      CheckOk(built.status(), "build");
      index.emplace(*std::move(built));
    });
  }
  brep::Index& idx = *index;
  const double default_threshold = idx.impl().trace_log().threshold_ms();
  const brep::obs::TraceLog& ring = idx.impl().trace_log();

  struct Call {
    bool traced;
    double ms;     // raw
    double scale;  // to reference host speed
    uint64_t ring_before, ring_after;
    brep::JoinResult result;
    bool ok;
  };
  std::vector<Call> calls;
  auto submit = [&](bool traced) {
    if (config.trace) {
      idx.SetSlowQueryThreshold(traced ? 0.0 : default_threshold);
    }
    host.Sample();
    const uint64_t before = ring.recorded_total();
    const Clock::time_point t = Clock::now();
    auto result = idx.KnnJoin(r, s.k);
    const double ms = MsSince(t);
    calls.push_back({traced, ms, host.Scale(), before, ring.recorded_total(),
                     result.ok() ? *std::move(result) : brep::JoinResult{},
                     result.ok()});
  };

  for (size_t i = 0; i < s.warmup; ++i) submit(false);
  const size_t warm = calls.size();
  const Clock::time_point start = Clock::now();
  double window_ms = 0.0;
  for (size_t i = 0;; ++i) {
    submit(config.trace && i % 2 == 0);
    if (i < s.counted && calls.back().ok) {
      const brep::JoinStats& js = calls.back().result.stats;
      out.counts.calls += 1;
      out.counts.join_pairs_visited += js.node_pairs_visited;
      out.counts.join_pairs_pruned += js.node_pairs_pruned;
      out.counts.join_pairs_evaluated += js.pairs_evaluated;
      out.counts.join_leaf_blocks += js.leaf_blocks;
    }
    window_ms = MsSince(start);
    if (window_ms >= config.seconds * 1e3 && i + 1 >= s.counted) break;
  }
  const brep::obs::MetricsSnapshot m1 = idx.Metrics();
  idx.SetSlowQueryThreshold(default_threshold);

  // Oracle gate: R is the same in every call, so one brute-force pass
  // checks them all.
  const auto exact = BruteForceKnnAll(data, idx.divergence(), r, s.k);
  for (const Call& c : calls) {
    for (size_t row = 0; row < r.rows(); ++row) {
      out.attempted += 1;
      out.failed += c.ok && c.result.neighbors.size() == r.rows() &&
                            SameAnswer(c.result.neighbors[row], exact[row])
                        ? 0
                        : 1;
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
  time.units = double(lat.size() * r.rows());
  time.window_ms = window_ms;
  const brep::Pager* pager = idx.impl().pager();
  out.meta.emplace_back("partitions_M (derived)",
                        std::to_string(idx.num_partitions()));
  out.meta.emplace_back("join", "|S| " + std::to_string(s.n) + ", |R| " +
                                    std::to_string(r.rows()) + ", d " +
                                    std::to_string(s.d) + ", k " +
                                    std::to_string(s.k));
  out.meta.emplace_back("fsync_mode", "none (in-memory MemPager index)");
  out.meta.emplace_back("filesystem", "none (MemPager)");
  TailNotes(lat, "KnnJoin latency", &out);

  if (!config.trace) {
    out.metrics = EndToEndMetrics(
        time, host,
        double(pager->num_pages()) * double(pager->page_size()) /
            (double(s.n) * double(s.d) * sizeof(double)),
        &out);
  } else {
    const std::vector<brep::obs::QueryTraceEntry> entries = idx.SlowQueries();
    std::vector<double> build, descent, materialize, overhead, ring_total;
    for (size_t i = warm; i < calls.size(); ++i) {
      const Call& c = calls[i];
      const auto* e = RingEntry(entries, c.ring_before, c.ring_after);
      if (!c.traced || !c.ok || e == nullptr) continue;
      const brep::JoinStats& js = c.result.stats;
      build.push_back(js.build_ms);
      descent.push_back(js.descent_ms);
      materialize.push_back(e->total_ms - js.build_ms - js.descent_ms);
      overhead.push_back(c.ms - e->total_ms);
      ring_total.push_back(e->total_ms);
    }
    const double call_ms = Mean(traced_lat);
    const WorkCounts& c = out.counts;
    const double joins = double(std::max<uint64_t>(c.calls, 1));
    LayerValues v;
    v["join.build_ms"] = Mean(build);
    v["join.descent_ms"] = Mean(descent);
    v["join.materialize_ms"] = Mean(materialize);
    v["join.node_pairs_visited"] = double(c.join_pairs_visited) / joins;
    v["join.node_pairs_pruned"] = double(c.join_pairs_pruned) / joins;
    v["join.prune_ratio"] =
        c.join_pairs_visited > 0
            ? double(c.join_pairs_pruned) / double(c.join_pairs_visited)
            : 0.0;
    v["join.pairs_evaluated_per_row"] =
        double(c.join_pairs_evaluated) / joins / double(r.rows());
    v["join.leaf_blocks"] = double(c.join_leaf_blocks) / joins;
    // Leaf blocks are batched DivergenceScan calls, so the descent's time
    // per evaluated pair is the kernel layer's rate on this workload.
    v["divergence.refine_ns_per_candidate"] =
        c.join_pairs_evaluated > 0
            ? Mean(descent) * 1e6 * joins / double(c.join_pairs_evaluated)
            : 0.0;
    v["divergence.backend"] = Gauge(m1, brep::obs::kSimdKernelGauge);
    v["api.overhead_ms"] = Mean(overhead);
    const double tracing = Median(traced_ref) / Median(plain_ref) - 1.0;
    v["trace.overhead_share"] = tracing;

    out.layers.push_back({"join", "build: transient R and S trees",
                          Mean(build), Mean(build) / call_ms,
                          Fmt(v["join.leaf_blocks"], 0) + " leaf blocks/join"});
    out.layers.push_back(
        {"join", "descent: dual-tree + leaf-block scans", Mean(descent),
         Mean(descent) / call_ms,
         "node pairs visited " + Fmt(v["join.node_pairs_visited"], 0) +
             ", pruned " + Fmt(v["join.node_pairs_pruned"], 0) +
             ", pairs evaluated " + Fmt(v["join.pairs_evaluated_per_row"], 1) +
             "/row (|S| = " + std::to_string(s.n) + ")"});
    out.layers.push_back(
        {"divergence", "squared-L2 kernel, descent time per pair", -1.0, -1.0,
         Fmt(v["divergence.refine_ns_per_candidate"], 2) + " ns/pair"});
    out.layers.push_back({"storage", "materialize S (total - build - descent)",
                          Mean(materialize), Mean(materialize) / call_ms, ""});
    out.layers.push_back({"api", "facade span - trace total_ms",
                          Mean(overhead), Mean(overhead) / call_ms, ""});
    out.layers.push_back({"trace", "ring: total_ms", Mean(ring_total),
                          Mean(ring_total) / call_ms,
                          std::to_string(ring_total.size()) + " entries"});
    out.notes.push_back("tracing overhead (traced vs untraced join p50): " +
                        Fmt(100.0 * tracing, 2) + "%");
    out.metrics = LayerMetrics(v);
  }

  RunMeta(m1, time, std::to_string(lat.size()) + " joins", &out);
  return out;
}

}  // namespace perfbench
