/// Microbenchmarks and ablation of the Cauchy-Schwarz bound machinery:
/// cost of the O(1) UBCompute against a full divergence evaluation (the
/// speedup that justifies the filter), the batched UBTotalsBlock kernel
/// per SIMD backend, QBDetermine end to end, and the measured mean
/// bound/distance tightness ratio per M (how much a finer partition
/// tightens the bound, the premise of Theorem 4's cost model; reported as
/// a counter). `--json BENCH_kernels.json` records the bound-kernel
/// trajectory (section "bound_kernels").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/bound.h"
#include "core/partition.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"
#include "divergence/kernels.h"

namespace {

using namespace brep;

Matrix IsdData(size_t n, size_t d) {
  Rng rng(5);
  EnergyProfileSpec spec;
  spec.n = n;
  spec.d = d;
  return MakeEnergyProfile(rng, spec);
}

/// Random point-tuple rows (n x m, row-major) and query triples for the
/// totals kernel; values in UBCompute's domain (gamma, delta >= 0).
struct BoundFixture {
  std::vector<PointTuple> rows;
  std::vector<QueryTriple> q;
  explicit BoundFixture(size_t n, size_t m) : rows(n * m), q(m) {
    Rng rng(11);
    for (auto& p : rows) p = {rng.Uniform(-3.0, 3.0), rng.Uniform(0.0, 9.0)};
    for (auto& t : q) {
      t = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0),
           rng.Uniform(0.0, 9.0)};
    }
  }
};

void BM_UBCompute(benchmark::State& state) {
  PointTuple p{3.5, 12.0};
  QueryTriple q{-2.0, 5.5, 7.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(UBCompute(p, q));
    p.gamma += 1e-9;  // defeat constant folding
  }
}

void BM_FullDivergenceForComparison(benchmark::State& state) {
  const size_t d = 256;
  const Matrix data = IsdData(64, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        div.Divergence(data.Row(i % 64), data.Row((i + 9) % 64)));
    ++i;
  }
}

/// The QBDetermine totals pass in isolation, per backend.
void BM_UBTotalsBlock(benchmark::State& state, simd::KernelBackend backend) {
  const size_t n = 8192;
  const size_t m = size_t(state.range(0));
  const BoundFixture fx(n, m);
  std::vector<double> totals(n);
  simd::ForceBackendForTest(backend);
  for (auto _ : state) {
    simd::UBTotalsBlock(fx.rows.data(), n, m, fx.q.data(), totals.data(),
                        nullptr, 0, 0);
    benchmark::DoNotOptimize(totals.data());
  }
  simd::ClearBackendOverrideForTest();
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}

void BM_QBDetermine(benchmark::State& state) {
  const size_t d = 128;
  const size_t m = size_t(state.range(0));
  const size_t n = 20000;
  const Matrix data = IsdData(n, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  const Partitioning parts = EqualContiguousPartition(d, m);
  std::vector<BregmanDivergence> subs;
  for (const auto& cols : parts) subs.push_back(div.Restrict(cols));
  const TransformedDataset transformed(data, parts, subs);
  std::vector<QueryTriple> triples(m);
  std::vector<double> sub;
  for (size_t mi = 0; mi < m; ++mi) {
    sub.clear();
    for (size_t c : parts[mi]) sub.push_back(data.Row(0)[c]);
    triples[mi] = TransformQuery(subs[mi], sub);
  }
  QBScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QBDetermine(transformed, triples, 20, &scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}

/// Ablation: mean UB / D ratio per M (smaller is tighter). Reported via the
/// "tightness" counter; wall time is irrelevant here.
void BM_BoundTightness(benchmark::State& state) {
  const size_t d = 128;
  const size_t m = size_t(state.range(0));
  const Matrix data = IsdData(256, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  const Partitioning parts = EqualContiguousPartition(d, m);
  std::vector<BregmanDivergence> subs;
  for (const auto& cols : parts) subs.push_back(div.Restrict(cols));

  double ratio_sum = 0.0;
  size_t pairs = 0;
  for (auto _ : state) {
    ratio_sum = 0.0;
    pairs = 0;
    std::vector<double> xs, ys;
    for (size_t i = 0; i + 1 < 128; i += 2) {
      double ub = 0.0;
      for (size_t mi = 0; mi < m; ++mi) {
        xs.clear();
        ys.clear();
        for (size_t c : parts[mi]) {
          xs.push_back(data.Row(i)[c]);
          ys.push_back(data.Row(i + 1)[c]);
        }
        ub += UBCompute(TransformPoint(subs[mi], xs),
                        TransformQuery(subs[mi], ys));
      }
      const double exact = div.Divergence(data.Row(i), data.Row(i + 1));
      if (exact > 1e-9) {
        ratio_sum += ub / exact;
        ++pairs;
      }
    }
    benchmark::DoNotOptimize(ratio_sum);
  }
  state.counters["tightness"] = ratio_sum / double(pairs);
}

/// Best-of-reps ns/row for the totals kernel on `backend`.
double MeasureTotalsNs(size_t n, size_t m, simd::KernelBackend backend) {
  const BoundFixture fx(n, m);
  std::vector<double> totals(n);
  simd::ForceBackendForTest(backend);
  simd::UBTotalsBlock(fx.rows.data(), n, m, fx.q.data(), totals.data(),
                      nullptr, 0, 0);  // warm up
  double best_s = 1e300;
  constexpr int kReps = 7, kPassesPerRep = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    for (int pass = 0; pass < kPassesPerRep; ++pass) {
      simd::UBTotalsBlock(fx.rows.data(), n, m, fx.q.data(), totals.data(),
                          nullptr, 0, 0);
      benchmark::DoNotOptimize(totals.data());
    }
    best_s = std::min(best_s, timer.ElapsedSeconds());
  }
  simd::ClearBackendOverrideForTest();
  return best_s * 1e9 / double(kPassesPerRep) / double(n);
}

/// Section "bound_kernels": scalar vs active-backend UB totals per M.
void EmitBoundKernelsJson(const std::string& path) {
  constexpr size_t kN = 8192;
  const simd::KernelBackend active = simd::ActiveBackend();
  json::Object section;
  section.emplace_back(
      "active_backend",
      json::Value(std::string(simd::BackendName(active))));
  section.emplace_back("rows", json::Value(double(kN)));
  json::Array runs;
  bench::PrintHeader({"M", "scalar ns/row", "simd ns/row", "speedup"});
  for (size_t m : {4, 16, 64}) {
    const double scalar_ns =
        MeasureTotalsNs(kN, m, simd::KernelBackend::kScalar);
    const double simd_ns = MeasureTotalsNs(kN, m, active);
    json::Object row;
    row.emplace_back("m", json::Value(double(m)));
    row.emplace_back("scalar_ns_per_row", json::Value(scalar_ns));
    row.emplace_back("simd_ns_per_row", json::Value(simd_ns));
    row.emplace_back("speedup",
                     json::Value(simd_ns > 0 ? scalar_ns / simd_ns : 0.0));
    runs.emplace_back(json::Value(std::move(row)));
    bench::PrintRow({bench::FmtU(m), bench::FmtF(scalar_ns, 2),
                     bench::FmtF(simd_ns, 2),
                     bench::FmtF(simd_ns > 0 ? scalar_ns / simd_ns : 0.0, 2)});
  }
  section.emplace_back("ub_totals", json::Value(std::move(runs)));
  bench::EmitJson(path, "bound_kernels", json::Value(std::move(section)));
}

}  // namespace

BENCHMARK(BM_UBCompute);
BENCHMARK(BM_FullDivergenceForComparison);
BENCHMARK_CAPTURE(BM_UBTotalsBlock, scalar, brep::simd::KernelBackend::kScalar)
    ->Arg(4)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_UBTotalsBlock, avx2, brep::simd::KernelBackend::kAvx2)
    ->Arg(4)
    ->Arg(16);
BENCHMARK(BM_QBDetermine)->Arg(4)->Arg(16);
BENCHMARK(BM_BoundTightness)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

int main(int argc, char** argv) {
  // Pull --json <path> out before Google Benchmark sees (and rejects) it.
  const std::string json_path = brep::bench::JsonPathArg(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      ++i;  // skip the path operand too
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) EmitBoundKernelsJson(json_path);
  return 0;
}
