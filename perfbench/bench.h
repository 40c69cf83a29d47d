#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/status.h"
#include "common/top_k.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "obs/metrics.h"

/// \file
/// Shared vocabulary of the repository benchmark: workload shapes, the run
/// configuration, the outcome every workload returns, and the helpers that
/// measure, check and report it. See README.md in this directory.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// The indexed data of every workload, and the data rows the queries (and
/// the join's R) perturb, are drawn from this fixed seed; the workload seed
/// draws the traffic: the query noise, the inserted rows and the write mix.
/// See README.md, "Inputs".
inline constexpr uint64_t kDataSeed = 1;

/// Fixed sizes of one workload. FullShape is the benchmark; TinyShape is
/// the same workload shrunk for the self-test.
struct Shape {
  size_t n = 0;          // indexed points (|S| for the join)
  size_t d = 0;
  size_t k = 0;
  size_t queries = 0;    // distinct query rows (R rows for the join)
  size_t held = 0;       // write_mix: held-out rows the inserts draw from
  size_t page_size = 32 << 10;
  size_t pool_pages = 128;  // buffer-pool pages per subspace tree
  size_t batch = 16;        // knn_batch: queries per KnnBatch call
  size_t threads = 2;       // knn_batch: Parallel() threads
  size_t setups = 3;        // set-up repetitions; setup_s is their median
  size_t warmup = 8;        // calls before the timed window
  size_t counted = 0;       // calls (ops on write_mix) the counts cover
};

Shape FullShape(const std::string& workload);
Shape TinyShape(const std::string& workload);
bool KnownWorkload(const std::string& workload);
std::vector<std::string> WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for index and WAL files (created and emptied by the caller).
  std::string workdir;
  Shape shape;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Single-client work counts over the fixed counted prefix of a run. With
/// one client they are a function of the inputs alone, so two runs with
/// the same seed must agree exactly (the self-test checks this).
struct WorkCounts {
  uint64_t calls = 0;
  uint64_t nodes = 0;
  uint64_t leaves = 0;
  uint64_t points = 0;
  uint64_t candidates = 0;
  uint64_t io_reads = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t writes = 0;
  uint64_t wal_bytes = 0;
  uint64_t page_writes = 0;
  uint64_t join_pairs_visited = 0;
  uint64_t join_pairs_pruned = 0;
  uint64_t join_pairs_evaluated = 0;
  uint64_t join_leaf_blocks = 0;

  bool operator==(const WorkCounts&) const = default;
};

/// One row of the traced run's layer table.
struct LayerRow {
  std::string layer;
  std::string what;
  double ms = 0.0;     // per operation; < 0 when the row has no span
  double share = -1.0;  // of the operation's end-to-end time; < 0 if none
  std::string counts;
};

struct Outcome {
  /// Operations whose result was checked, and how many failed (a non-OK
  /// Status or an answer that differs from the oracle).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<LayerRow> layers;
  std::vector<std::string> notes;
  WorkCounts counts;
  /// FNV-1a digest of every generated input.
  uint64_t input_digest = 0;
};

Outcome RunKnnDisk(const RunConfig& config);
Outcome RunKnnBatch(const RunConfig& config);
Outcome RunWriteMix(const RunConfig& config);
Outcome RunJoinL2(const RunConfig& config);
Outcome RunWorkload(const RunConfig& config);

/// The per-layer vocabulary: the traced run reports every name, and a
/// layer the workload bypasses reads 0 (see README.md, "Layers").
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& LayerMetricDefs();
using LayerValues = std::map<std::string, double>;
/// `values` in LayerMetricDefs() order, 0 for names not set. Aborts on a
/// name outside the vocabulary.
std::vector<Metric> LayerMetrics(const LayerValues& values);

// ---------------------------------------------------------------- helpers

/// Report a failed setup step on stderr and exit 1 (no result is printed:
/// a run that cannot set up has measured nothing).
void CheckOk(const brep::Status& status, const char* what);

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// FNV-1a over a matrix's bytes, chained through `h`.
uint64_t Digest(const brep::Matrix& m, uint64_t h = 0xcbf29ce484222325ULL);

/// Exact kNN by brute force: BregmanDivergence::Divergence against every
/// row of `rows` whose `live` flag is set (all rows when `live` is empty),
/// in the (distance, id) order, ids being row numbers.
std::vector<brep::Neighbor> BruteForceKnn(const brep::Matrix& rows,
                                          const std::vector<char>& live,
                                          const brep::BregmanDivergence& div,
                                          std::span<const double> y, size_t k);

/// BruteForceKnn for every row of `queries` over all of `rows`, spread
/// over two threads.
std::vector<std::vector<brep::Neighbor>> BruteForceKnnAll(
    const brep::Matrix& rows, const brep::BregmanDivergence& div,
    const brep::Matrix& queries, size_t k);

/// Same ids and bit-identical distances.
bool SameAnswer(std::span<const brep::Neighbor> a,
                std::span<const brep::Neighbor> b);

/// Process peak resident set, MB.
double PeakRssMb();

/// Host-speed reference. This host's speed drifts by up to 2x within
/// minutes (README.md, "Host drift"), far more than any bound. So every
/// timed operation (or block of operations, on write_mix) is preceded by
/// one probe: a fixed unit of Itakura-Saito-shaped scalar work in the
/// benchmark's own code, which the library under test cannot change. A
/// time measured right after is scaled to the reference speed at which one
/// unit takes kReferenceUnitMs. The gated times are these reference-speed
/// times; the raw ones are printed beside them.
inline constexpr double kReferenceUnitMs = 1.0;

/// Time one probe unit now, ms.
double ProbeUnitMs();

class HostSpeed {
 public:
  /// Time one probe unit now on each of `lanes` threads at once and record
  /// their harmonic mean (the rate of `lanes` threads sharing work).
  void Sample(size_t lanes = 1);
  void Add(double unit_ms) { samples_.push_back(unit_ms); }
  /// kReferenceUnitMs / the median of the last few samples: multiply a
  /// time measured now by this to get its reference-speed value.
  double Scale() const;
  /// All samples taken so far, ms per unit.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Everything a measured run's end-to-end metrics are computed from, raw
/// and at reference host speed.
struct Timings {
  std::vector<double> setup_raw_s, setup_s;  // one entry per set-up
  std::vector<double> lat_raw_ms, lat_ms;    // the samples p50_ms is taken of
  double busy_raw_ms = 0.0, busy_ms = 0.0;   // time of every timed operation
  double units = 0.0;                        // what ops_per_s counts
  double window_ms = 0.0;                    // the timed window, wall clock

  /// A timed operation, `scale` taking its time to reference speed.
  void AddBusy(double raw_ms, double scale) {
    busy_raw_ms += raw_ms;
    busy_ms += raw_ms * scale;
  }
  /// A timed operation that is also a p50_ms sample.
  void AddLatency(double raw_ms, double scale) {
    lat_raw_ms.push_back(raw_ms);
    lat_ms.push_back(raw_ms * scale);
    AddBusy(raw_ms, scale);
  }
};

/// Run one set-up and add its time to `t`. A background thread samples the
/// host when it starts and every 50 ms until it ends (set-ups are
/// single-threaded, so it is the second busy thread at most).
void TimeSetup(HostSpeed* host, Timings* t, const std::function<void()>& fn);

/// The five end-to-end metrics (reference speed), and notes with their raw
/// values and the host's speed during the run.
std::vector<Metric> EndToEndMetrics(const Timings& t, const HostSpeed& host,
                                    double bytes_per_data_byte, Outcome* out);

/// Filesystem type holding `path` ("ext4", "tmpfs", "overlay", ... or the
/// magic number in hex).
std::string FilesystemType(const std::string& path);

/// Build type the benchmark was compiled as.
std::string BuildType();

/// Counter/histogram deltas between two Metrics() snapshots (0 / empty when
/// the series is absent).
uint64_t CounterDelta(const brep::obs::MetricsSnapshot& before,
                      const brep::obs::MetricsSnapshot& after,
                      const char* name);
brep::obs::HistogramSnapshot HistogramDelta(
    const brep::obs::MetricsSnapshot& before,
    const brep::obs::MetricsSnapshot& after, const char* name);
double Gauge(const brep::obs::MetricsSnapshot& snapshot, const char* name);

std::string Fmt(double v, int precision = 3);

/// Human-readable report (metadata, layer table, notes) followed by the
/// one-line JSON result as the last line of stdout.
void PrintReport(const RunConfig& config, const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
