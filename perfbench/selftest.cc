// The benchmark's own tests: every workload at a tiny scale must pass its
// oracle gate and report exactly its metric names; two runs with one seed
// must see identical inputs and identical single-client work counts; a new
// seed must change the inputs; and the answer comparison must catch a
// one-ulp difference.
//
//   perfbench_selftest [workdir]

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

perfbench::Outcome Run(const std::string& workload, uint64_t seed, bool trace,
                       const std::string& workdir) {
  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 0.2;
  config.trace = trace;
  config.workdir = workdir + "/" + workload;
  config.shape = perfbench::TinyShape(workload);
  std::filesystem::create_directories(config.workdir);
  return perfbench::RunWorkload(config);
}

std::set<std::string> Names(const perfbench::Outcome& out) {
  std::set<std::string> names;
  for (const perfbench::Metric& m : out.metrics) names.insert(m.name);
  return names;
}

void CheckGate(const perfbench::Outcome& out, const std::string& what) {
  Check(out.attempted > 0, what + ": checked no operation");
  Check(out.failed == 0, what + ": " + std::to_string(out.failed) + " of " +
                             std::to_string(out.attempted) +
                             " operations failed the oracle gate");
}

void TestWorkload(const std::string& workload, const std::string& workdir) {
  const perfbench::Outcome a = Run(workload, 3, false, workdir);
  const perfbench::Outcome b = Run(workload, 3, false, workdir);
  const perfbench::Outcome c = Run(workload, 4, false, workdir);
  const perfbench::Outcome traced = Run(workload, 3, true, workdir);
  CheckGate(a, workload);
  CheckGate(c, workload + " (seed 4)");
  CheckGate(traced, workload + " (traced)");

  Check(a.input_digest == b.input_digest, workload + ": same seed, new inputs");
  Check(a.input_digest != c.input_digest,
        workload + ": a new seed left the inputs unchanged");
  perfbench::WorkCounts ca = a.counts, cb = b.counts, ct = traced.counts;
  if (workload == "knn_batch") {
    // Two lanes share the buffer pools, so pool traffic depends on the
    // interleaving; the logical counts may not.
    for (perfbench::WorkCounts* w : {&ca, &cb, &ct}) {
      w->pool_hits = w->pool_misses = w->io_reads = 0;
    }
  }
  Check(ca.calls > 0, workload + ": counted no calls");
  Check(ca == cb, workload + ": work counts differ between same-seed runs");
  Check(ca == ct, workload + ": tracing changed the work counts");

  const std::set<std::string> e2e = {"setup_s", "p50_ms", "ops_per_s",
                                     "peak_rss_mb", "bytes_per_data_byte"};
  Check(Names(a) == e2e, workload + ": end-to-end metric names");
  for (const perfbench::Metric& m : a.metrics) {
    Check(std::isfinite(m.value) && m.value > 0,
          workload + ": " + m.name + " is not positive");
  }
  std::set<std::string> layers;
  for (const perfbench::MetricDef& def : perfbench::LayerMetricDefs()) {
    layers.insert(def.name);
  }
  Check(Names(traced) == layers, workload + ": per-layer metric names");
  Check(!traced.layers.empty(), workload + ": traced run printed no layers");
}

void TestAnswerComparison() {
  const std::vector<brep::Neighbor> a = {{1.5, 3}, {2.0, 7}};
  std::vector<brep::Neighbor> b = a;
  Check(perfbench::SameAnswer(a, b), "identical answers compare unequal");
  b[1].distance = std::nextafter(b[1].distance, 3.0);
  Check(!perfbench::SameAnswer(a, b), "a one-ulp distance change passed");
  b = a;
  b[0].id = 4;
  Check(!perfbench::SameAnswer(a, b), "a changed id passed");
  Check(!perfbench::SameAnswer(a, {a.data(), 1}), "a short answer passed");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : "perfbench-selftest-work";
  std::filesystem::remove_all(workdir);
  TestAnswerComparison();
  for (const std::string& workload : perfbench::WorkloadNames()) {
    TestWorkload(workload, workdir);
    std::printf("%s: %s\n", workload.c_str(), failures == 0 ? "ok" : "FAILED");
  }
  std::filesystem::remove_all(workdir);
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
