#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// The run length comes from --seconds; these shapes fix the data. See
// README.md for why each workload has the shape it has.
Shape FullShape(const std::string& workload) {
  Shape s;
  if (workload == "knn_disk" || workload == "knn_batch") {
    s.n = 10000;
    s.d = 200;
    s.k = 20;
    s.queries = 128;
    if (workload == "knn_disk") {
      s.pool_pages = 8;
      s.warmup = 8;
      s.counted = 64;
    } else {
      s.warmup = 1;
      s.counted = 8;
    }
  } else if (workload == "write_mix") {
    s.n = 20000;
    s.d = 32;
    s.k = 20;
    s.queries = 64;
    s.held = 8192;
    s.warmup = 4;
    s.counted = 2000;
  } else if (workload == "join_l2") {
    s.n = 20000;
    s.d = 20;
    s.k = 10;
    s.queries = 1000;
    s.setups = 9;  // a 0.1 s build: more repetitions cost little
    s.warmup = 1;
    s.counted = 1;
  }
  return s;
}

Shape TinyShape(const std::string& workload) {
  Shape s = FullShape(workload);
  s.page_size = 4096;
  s.setups = 2;
  if (workload == "knn_disk" || workload == "knn_batch") {
    s.n = 600;
    s.d = 24;
    s.k = 5;
    s.queries = 16;
    s.batch = 4;
    s.warmup = 1;
    s.counted = workload == "knn_disk" ? 12 : 3;
    if (workload == "knn_disk") s.pool_pages = 4;
  } else if (workload == "write_mix") {
    s.n = 800;
    s.d = 8;
    s.k = 5;
    s.queries = 8;
    s.held = 256;
    s.warmup = 1;
    s.counted = 300;
  } else if (workload == "join_l2") {
    s.n = 800;
    s.d = 6;
    s.k = 4;
    s.queries = 60;
  }
  return s;
}

std::vector<std::string> WorkloadNames() {
  return {"knn_disk", "knn_batch", "write_mix", "join_l2"};
}

bool KnownWorkload(const std::string& workload) {
  const auto names = WorkloadNames();
  return std::find(names.begin(), names.end(), workload) != names.end();
}

Outcome RunWorkload(const RunConfig& config) {
  if (config.workload == "knn_disk") return RunKnnDisk(config);
  if (config.workload == "knn_batch") return RunKnnBatch(config);
  if (config.workload == "write_mix") return RunWriteMix(config);
  return RunJoinL2(config);
}

const std::vector<MetricDef>& LayerMetricDefs() {
  static const std::vector<MetricDef> defs = {
      {"core.bound_ms", "ms"},
      {"core.bound_share", "ratio"},
      {"bbtree.filter_ms", "ms"},
      {"bbtree.filter_share", "ratio"},
      {"bbtree.ns_per_point", "ns"},
      {"bbtree.nodes_per_query", "count"},
      {"bbtree.leaves_per_query", "count"},
      {"bbtree.points_per_query", "count"},
      {"bbtree.candidates_per_query", "count"},
      {"bbtree.filter_precision", "ratio"},
      {"storage.fetch_ms", "ms"},
      {"storage.fetch_share", "ratio"},
      {"storage.io_reads_per_query", "count"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_misses_per_query", "count"},
      {"storage.pages_per_candidate", "ratio"},
      {"storage.pager_read_ms", "ms"},
      {"storage.pager_read_share", "ratio"},
      {"storage.page_writes_per_write", "count"},
      {"storage.free_pages", "count"},
      {"divergence.refine_ms", "ms"},
      {"divergence.refine_share", "ratio"},
      {"divergence.refine_ns_per_candidate", "ns"},
      {"divergence.backend", "id"},
      {"engine.lane_busy_share", "ratio"},
      {"engine.batch_wall_ms", "ms"},
      {"wal.append_ms", "ms"},
      {"wal.fsync_ms", "ms"},
      {"wal.writes_per_fsync", "count"},
      {"wal.bytes_per_write", "B"},
      {"core.publish_ms", "ms"},
      {"core.cow_retained_pages", "count"},
      {"core.apply_ms", "ms"},
      {"join.build_ms", "ms"},
      {"join.descent_ms", "ms"},
      {"join.materialize_ms", "ms"},
      {"join.node_pairs_visited", "count"},
      {"join.node_pairs_pruned", "count"},
      {"join.prune_ratio", "ratio"},
      {"join.pairs_evaluated_per_row", "count"},
      {"join.leaf_blocks", "count"},
      {"api.overhead_ms", "ms"},
      {"trace.bound_ms", "ms"},
      {"trace.filter_ms", "ms"},
      {"trace.refine_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return defs;
}

std::vector<Metric> LayerMetrics(const LayerValues& values) {
  std::vector<Metric> out;
  for (const MetricDef& def : LayerMetricDefs()) {
    const auto it = values.find(def.name);
    out.push_back({def.name, it == values.end() ? 0.0 : it->second, def.unit});
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        out.begin(), out.end(), [&](const Metric& m) { return m.name == name; });
    if (!known) {
      std::fprintf(stderr, "perfbench: layer metric %s is not defined\n",
                   name.c_str());
      std::abort();
    }
  }
  return out;
}

void CheckOk(const brep::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - double(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

uint64_t Digest(const brep::Matrix& m, uint64_t h) {
  for (size_t i = 0; i < m.rows(); ++i) {
    const auto row = m.Row(i);
    const auto* bytes = reinterpret_cast<const unsigned char*>(row.data());
    for (size_t b = 0; b < row.size_bytes(); ++b) {
      h ^= bytes[b];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<brep::Neighbor> BruteForceKnn(const brep::Matrix& rows,
                                          const std::vector<char>& live,
                                          const brep::BregmanDivergence& div,
                                          std::span<const double> y,
                                          size_t k) {
  brep::TopK topk(k);
  for (size_t i = 0; i < rows.rows(); ++i) {
    if (!live.empty() && live[i] == 0) continue;
    topk.Push(div.Divergence(rows.Row(i), y), static_cast<uint32_t>(i));
  }
  return topk.SortedResults();
}

std::vector<std::vector<brep::Neighbor>> BruteForceKnnAll(
    const brep::Matrix& rows, const brep::BregmanDivergence& div,
    const brep::Matrix& queries, size_t k) {
  std::vector<std::vector<brep::Neighbor>> out(queries.rows());
  const std::vector<char> all;
  auto work = [&](size_t first) {
    for (size_t q = first; q < queries.rows(); q += 2) {
      out[q] = BruteForceKnn(rows, all, div, queries.Row(q), k);
    }
  };
  std::thread helper(work, size_t{1});
  work(0);
  helper.join();
  return out;
}

bool SameAnswer(std::span<const brep::Neighbor> a,
                std::span<const brep::Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

double ProbeUnitMs() {
  // An Itakura-Saito-shaped scalar loop (a division and a log per step),
  // about 1 ms on a quiet host.
  const Clock::time_point t = Clock::now();
  double acc = 0.0;
  for (int i = 1; i <= 150000; ++i) {
    const double ratio = (1.0 + 1e-6 * i) / (1.5 + 1e-7 * i);
    acc += ratio - std::log(ratio) - 1.0;
  }
  volatile double sink = acc;
  (void)sink;
  return MsSince(t);
}

void HostSpeed::Sample(size_t lanes) {
  std::vector<double> unit_ms(lanes);
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < lanes; ++i) {
    helpers.emplace_back([&unit_ms, i] { unit_ms[i] = ProbeUnitMs(); });
  }
  unit_ms[0] = ProbeUnitMs();
  for (std::thread& h : helpers) h.join();
  double rate = 0.0;
  for (double ms : unit_ms) rate += 1.0 / ms;
  Add(double(lanes) / rate);
}

double HostSpeed::Scale() const {
  // The median of a few recent samples: one sample is noisy, and the
  // host's phases last seconds.
  constexpr size_t kRecent = 5;
  const size_t n = std::min(kRecent, samples_.size());
  if (n == 0) return 1.0;
  return kReferenceUnitMs /
         Median({samples_.end() - static_cast<std::ptrdiff_t>(n),
                 samples_.end()});
}

void TimeSetup(HostSpeed* host, Timings* t, const std::function<void()>& fn) {
  std::vector<double> during;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(mu);
    do {
      lock.unlock();
      const double ms = ProbeUnitMs();
      lock.lock();
      during.push_back(ms);
    } while (!cv.wait_for(lock, std::chrono::milliseconds(50),
                          [&] { return done; }));
  });
  const Clock::time_point start = Clock::now();
  fn();
  const double raw_s = MsSince(start) / 1e3;
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  sampler.join();
  for (double ms : during) host->Add(ms);
  t->setup_raw_s.push_back(raw_s);
  t->setup_s.push_back(raw_s * kReferenceUnitMs / Median(during));
}

std::vector<Metric> EndToEndMetrics(const Timings& t, const HostSpeed& host,
                                    double bytes_per_data_byte, Outcome* out) {
  out->notes.push_back(
      "raw (wall clock) setup_s " + Fmt(Median(t.setup_raw_s)) + ", p50_ms " +
      Fmt(Median(t.lat_raw_ms)) + ", ops_per_s " +
      Fmt(t.units * 1e3 / t.busy_raw_ms) + " (whole window: " +
      Fmt(t.units * 1e3 / t.window_ms) + ")");
  const std::vector<double>& u = host.samples();
  out->notes.push_back("host probe unit " + Fmt(Median(u)) + " ms median, " +
                       Fmt(Percentile(u, 10)) + "-" + Fmt(Percentile(u, 90)) +
                       " p10-p90 over " + std::to_string(u.size()) +
                       " samples (reference " + Fmt(kReferenceUnitMs) + ")");
  return {
      {"setup_s", Median(t.setup_s), "s"},
      {"p50_ms", Median(t.lat_ms), "ms"},
      {"ops_per_s", t.units * 1e3 / t.busy_ms, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_data_byte", bytes_per_data_byte, "B/B"},
  };
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                static_cast<uint64_t>(fs.f_type));
  return buf;
}

std::string BuildType() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) + " (NDEBUG)";
#else
  return std::string(PERFBENCH_BUILD_TYPE) + " (assertions on)";
#endif
}

uint64_t CounterDelta(const brep::obs::MetricsSnapshot& before,
                      const brep::obs::MetricsSnapshot& after,
                      const char* name) {
  const uint64_t* a = after.FindCounter(name);
  if (a == nullptr) return 0;
  const uint64_t* b = before.FindCounter(name);
  return b == nullptr ? *a : *a - *b;
}

brep::obs::HistogramSnapshot HistogramDelta(
    const brep::obs::MetricsSnapshot& before,
    const brep::obs::MetricsSnapshot& after, const char* name) {
  const brep::obs::HistogramSnapshot* a = after.FindHistogram(name);
  if (a == nullptr) return {};
  const brep::obs::HistogramSnapshot* b = before.FindHistogram(name);
  return b == nullptr ? *a : a->Since(*b);
}

double Gauge(const brep::obs::MetricsSnapshot& snapshot, const char* name) {
  const double* g = snapshot.FindGauge(name);
  return g == nullptr ? 0.0 : *g;
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void PrintReport(const RunConfig& config, const Outcome& outcome) {
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [key, value] : outcome.meta) {
    std::printf("# meta %-26s %s\n", key.c_str(), value.c_str());
  }
  if (!outcome.layers.empty()) {
    std::printf("#\n# %-11s %-44s %10s %7s  %s\n", "layer", "span / count",
                "ms/op", "share", "counts");
    for (const LayerRow& row : outcome.layers) {
      const std::string ms = row.ms < 0 ? "-" : Fmt(row.ms, 4);
      const std::string share =
          row.share < 0 ? "-" : Fmt(100.0 * row.share, 1) + "%";
      std::printf("# %-11s %-44s %10s %7s  %s\n", row.layer.c_str(),
                  row.what.c_str(), ms.c_str(), share.c_str(),
                  row.counts.c_str());
    }
  }
  std::printf("#\n");
  for (const Metric& m : outcome.metrics) {
    std::printf("# metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const WorkCounts& c = outcome.counts;
  std::printf("# work (counted prefix) calls %" PRIu64 " nodes %" PRIu64
              " leaves %" PRIu64 " points %" PRIu64 " candidates %" PRIu64
              " io_reads %" PRIu64 " pool_hits %" PRIu64 " pool_misses %" PRIu64
              " writes %" PRIu64 " wal_bytes %" PRIu64 " page_writes %" PRIu64
              " join_pairs_visited %" PRIu64 " join_pairs_pruned %" PRIu64
              " join_pairs_evaluated %" PRIu64 " join_leaf_blocks %" PRIu64
              "\n",
              c.calls, c.nodes, c.leaves, c.points, c.candidates, c.io_reads,
              c.pool_hits, c.pool_misses, c.writes, c.wal_bytes, c.page_writes,
              c.join_pairs_visited, c.join_pairs_pruned, c.join_pairs_evaluated,
              c.join_leaf_blocks);
  for (const std::string& note : outcome.notes) {
    std::printf("# note %s\n", note.c_str());
  }
  const double fail_ratio =
      outcome.attempted > 0 ? double(outcome.failed) / double(outcome.attempted)
                            : 1.0;
  std::printf("# fail_ratio %.6f (%" PRIu64 " of %" PRIu64 ")\n", fail_ratio,
              outcome.failed, outcome.attempted);

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
