/// Microbenchmarks of the divergence kernel: per-pair cost of D_f(x, y),
/// gradients, the extended-space affine evaluation, the batched leaf-scan
/// kernels per SIMD backend, and the certified identity leaf decision that
/// the exact range filter runs instead of the leaf scan for transcendental
/// generators (simd::IdentityPays). Not a paper figure;
/// supports the cost model's assumption that refinement cost is O(d) per
/// candidate and records the AVX2-vs-scalar speedup trajectory (`--json
/// BENCH_kernels.json`, section "kernels").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/bound.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"
#include "divergence/kernels.h"
#include "vafile/extended_space.h"

namespace {

using namespace brep;

Matrix DataFor(const std::string& gen, size_t n, size_t d) {
  Rng rng(5);
  if (gen == "itakura_saito") {
    EnergyProfileSpec spec;
    spec.n = n;
    spec.d = d;
    return MakeEnergyProfile(rng, spec);
  }
  return MakeIidNormal(rng, n, d, -1.0, 0.5);
}

/// Column-major (SoA) copy of `data`, the DiskBBTree v4 leaf layout.
std::vector<double> ToSoA(const Matrix& data) {
  std::vector<double> soa(data.rows() * data.cols());
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) {
      soa[j * data.rows() + i] = data.Row(i)[j];
    }
  }
  return soa;
}

void BM_Divergence(benchmark::State& state, const std::string& gen) {
  const size_t d = size_t(state.range(0));
  const Matrix data = DataFor(gen, 64, d);
  const BregmanDivergence div = MakeDivergence(gen, d);
  size_t i = 0;
  for (auto _ : state) {
    const auto x = data.Row(i % 64);
    const auto y = data.Row((i + 7) % 64);
    benchmark::DoNotOptimize(div.Divergence(x, y));
    ++i;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}

/// The leaf-scan hot path: one query against a SoA block, per backend.
void BM_LeafScanSoA(benchmark::State& state, const std::string& gen,
                    simd::KernelBackend backend) {
  const size_t d = size_t(state.range(0));
  const size_t n = 1024;
  const Matrix data = DataFor(gen, n, d);
  const std::vector<double> soa = ToSoA(data);
  const BregmanDivergence div = MakeDivergence(gen, d);
  const Matrix q = DataFor(gen, 1, d);
  std::vector<double> out(n);
  simd::ForceBackendForTest(backend);
  const simd::DivergenceScan scan(div, q.Row(0));
  for (auto _ : state) {
    scan.BatchSoA(soa.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  simd::ClearBackendOverrideForTest();
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}

/// One SoA block as a disk leaf holds it, plus what the identity leaf
/// decision reads beside it: the points' stored tuples and a radius at the
/// block's median exact distance (half the points in, half out).
struct DecisionBlock {
  Matrix data;
  std::vector<double> soa;
  std::vector<PointTuple> tuples;
  BregmanDivergence div;
  Matrix query;
  double radius = 0.0;
};

DecisionBlock MakeDecisionBlock(const std::string& gen, size_t n, size_t d) {
  DecisionBlock b{DataFor(gen, n, d), {}, {}, MakeDivergence(gen, d),
                  DataFor(gen, 1, d), 0.0};
  b.soa = ToSoA(b.data);
  std::vector<double> dist(n);
  for (size_t i = 0; i < n; ++i) {
    b.tuples.push_back(TransformPoint(b.div, b.data.Row(i)));
    dist[i] = b.div.Divergence(b.data.Row(i), b.query.Row(0));
  }
  std::nth_element(dist.begin(), dist.begin() + n / 2, dist.end());
  b.radius = dist[n / 2];
  return b;
}

/// DiskBBTree::RangeSearchExact's leaf loop: cross terms for the block,
/// then one certified three-way decision per point. Returns points kept.
size_t DecideBlock(const simd::IdentityScan& identity, const DecisionBlock& b,
                   std::vector<double>* bxy, std::vector<double>* gx,
                   uint64_t* exact_evals) {
  const size_t n = b.tuples.size();
  identity.CrossTermsSoA(b.soa.data(), n, bxy->data(), gx->data());
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const PointTuple& t = b.tuples[i];
    kept += identity.WithinRadius(t.alpha, t.alpha_abs, (*bxy)[i], (*gx)[i],
                                  1, b.radius, b.soa.data() + i, n,
                                  exact_evals);
  }
  return kept;
}

/// The exact range filter's leaf decision for transcendental generators
/// (BM_LeafScanSoA stays the squared-L2 one), on the same 1024 x d block,
/// per backend.
void BM_IdentityBoundsSoA(benchmark::State& state, const std::string& gen,
                          simd::KernelBackend backend) {
  const size_t n = 1024;
  const DecisionBlock b = MakeDecisionBlock(gen, n, size_t(state.range(0)));
  std::vector<double> bxy(n), gx(n);
  uint64_t exact_evals = 0;
  simd::ForceBackendForTest(backend);
  const simd::DivergenceScan scan(b.div, b.query.Row(0));
  const simd::IdentityScan identity(scan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecideBlock(identity, b, &bxy, &gx, &exact_evals));
  }
  simd::ClearBackendOverrideForTest();
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
  state.counters["exact_share"] =
      double(exact_evals) / double(state.iterations() * n);
}

void BM_Gradient(benchmark::State& state, const std::string& gen) {
  const size_t d = size_t(state.range(0));
  const Matrix data = DataFor(gen, 64, d);
  const BregmanDivergence div = MakeDivergence(gen, d);
  std::vector<double> grad(d);
  size_t i = 0;
  for (auto _ : state) {
    div.Gradient(data.Row(i % 64), std::span<double>(grad));
    benchmark::DoNotOptimize(grad.data());
    ++i;
  }
}

void BM_ExtendedSpaceAffine(benchmark::State& state) {
  const size_t d = size_t(state.range(0));
  const Matrix data = DataFor("squared_l2", 64, d);
  const BregmanDivergence div = MakeDivergence("squared_l2", d);
  const Matrix ext = ExtendMatrix(data, div);
  const QueryPlane plane = MakeQueryPlane(data.Row(0), div);
  size_t i = 0;
  for (auto _ : state) {
    const auto xe = ext.Row(i % 64);
    double acc = plane.kappa;
    for (size_t j = 0; j < xe.size(); ++j) acc += xe[j] * plane.w[j];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}

/// Best-of-reps ns/point for a full SoA leaf scan on `backend`.
double MeasureLeafScanNs(const std::string& gen, size_t n, size_t d,
                         simd::KernelBackend backend) {
  const Matrix data = DataFor(gen, n, d);
  const std::vector<double> soa = ToSoA(data);
  const BregmanDivergence div = MakeDivergence(gen, d);
  const Matrix q = DataFor(gen, 1, d);
  std::vector<double> out(n);
  simd::ForceBackendForTest(backend);
  const simd::DivergenceScan scan(div, q.Row(0));
  scan.BatchSoA(soa.data(), n, out.data());  // warm up
  double best_s = 1e300;
  constexpr int kReps = 7, kScansPerRep = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    for (int s = 0; s < kScansPerRep; ++s) {
      scan.BatchSoA(soa.data(), n, out.data());
      benchmark::DoNotOptimize(out.data());
    }
    best_s = std::min(best_s, timer.ElapsedSeconds());
  }
  simd::ClearBackendOverrideForTest();
  return best_s * 1e9 / double(kScansPerRep) / double(n);
}

/// Best-of-reps ns/point for the identity leaf decision on `backend`;
/// `exact_share` receives the fraction of points that fell through to the
/// exact expression.
double MeasureIdentityNs(const std::string& gen, size_t n, size_t d,
                         simd::KernelBackend backend, double* exact_share) {
  const DecisionBlock b = MakeDecisionBlock(gen, n, d);
  std::vector<double> bxy(n), gx(n);
  uint64_t exact_evals = 0;
  simd::ForceBackendForTest(backend);
  const simd::DivergenceScan scan(b.div, b.query.Row(0));
  const simd::IdentityScan identity(scan);
  DecideBlock(identity, b, &bxy, &gx, &exact_evals);  // warm up
  *exact_share = double(exact_evals) / double(n);
  double best_s = 1e300;
  constexpr int kReps = 7, kScansPerRep = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    for (int s = 0; s < kScansPerRep; ++s) {
      benchmark::DoNotOptimize(
          DecideBlock(identity, b, &bxy, &gx, &exact_evals));
    }
    best_s = std::min(best_s, timer.ElapsedSeconds());
  }
  simd::ClearBackendOverrideForTest();
  return best_s * 1e9 / double(kScansPerRep) / double(n);
}

/// Section "kernels": scalar vs active-backend leaf-scan cost per
/// generator, the trajectory the CI diff watches (an AVX2 regression shows
/// up as the squared_l2 speedup collapsing towards 1), with the identity
/// leaf decision beside it; `filter_path` names the one the exact range
/// filter runs for that generator.
void EmitKernelsJson(const std::string& path) {
  constexpr size_t kN = 4096, kD = 64;
  const simd::KernelBackend active = simd::ActiveBackend();
  json::Object section;
  section.emplace_back(
      "active_backend",
      json::Value(std::string(simd::BackendName(active))));
  json::Object shape;
  shape.emplace_back("points", json::Value(double(kN)));
  shape.emplace_back("dim", json::Value(double(kD)));
  section.emplace_back("batch_shape", json::Value(std::move(shape)));
  json::Array rows;
  bench::PrintHeader({"generator", "scalar ns/pt", "simd ns/pt", "speedup",
                      "identity scalar", "identity simd", "exact share"});
  for (const std::string gen :
       {"squared_l2", "itakura_saito", "exponential", "lp:3"}) {
    const double scalar_ns =
        MeasureLeafScanNs(gen, kN, kD, simd::KernelBackend::kScalar);
    const double simd_ns = MeasureLeafScanNs(gen, kN, kD, active);
    json::Object row;
    row.emplace_back("generator", json::Value(gen));
    row.emplace_back("scalar_ns_per_point", json::Value(scalar_ns));
    row.emplace_back("simd_ns_per_point", json::Value(simd_ns));
    row.emplace_back("speedup",
                     json::Value(simd_ns > 0 ? scalar_ns / simd_ns : 0.0));
    double exact_share = 0.0;
    const double id_scalar_ns = MeasureIdentityNs(
        gen, kN, kD, simd::KernelBackend::kScalar, &exact_share);
    const double id_simd_ns =
        MeasureIdentityNs(gen, kN, kD, active, &exact_share);
    row.emplace_back("identity_scalar_ns_per_point", json::Value(id_scalar_ns));
    row.emplace_back("identity_simd_ns_per_point", json::Value(id_simd_ns));
    row.emplace_back("identity_exact_share", json::Value(exact_share));
    row.emplace_back(
        "filter_path",
        json::Value(std::string(
            simd::IdentityPays(MakeDivergence(gen, kD).kernel_info())
                ? "identity"
                : "exact")));
    rows.emplace_back(json::Value(std::move(row)));
    bench::PrintRow({gen, bench::FmtF(scalar_ns, 2), bench::FmtF(simd_ns, 2),
                     bench::FmtF(simd_ns > 0 ? scalar_ns / simd_ns : 0.0, 2),
                     bench::FmtF(id_scalar_ns, 2), bench::FmtF(id_simd_ns, 2),
                     bench::FmtF(exact_share, 4)});
  }
  section.emplace_back("leaf_scan", json::Value(std::move(rows)));
  bench::EmitJson(path, "kernels", json::Value(std::move(section)));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Divergence, squared_l2, "squared_l2")
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_Divergence, itakura_saito, "itakura_saito")
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_Divergence, exponential, "exponential")
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_LeafScanSoA, squared_l2_scalar, "squared_l2",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_LeafScanSoA, squared_l2_avx2, "squared_l2",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_LeafScanSoA, itakura_saito_scalar, "itakura_saito",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_LeafScanSoA, itakura_saito_avx2, "itakura_saito",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, squared_l2_scalar, "squared_l2",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, squared_l2_avx2, "squared_l2",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, itakura_saito_scalar, "itakura_saito",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, itakura_saito_avx2, "itakura_saito",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, exponential_scalar, "exponential",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, exponential_avx2, "exponential",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, lp3_scalar, "lp:3",
                  brep::simd::KernelBackend::kScalar)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_IdentityBoundsSoA, lp3_avx2, "lp:3",
                  brep::simd::KernelBackend::kAvx2)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_Gradient, itakura_saito, "itakura_saito")->Arg(256);
BENCHMARK(BM_ExtendedSpaceAffine)->Arg(64)->Arg(256);

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
  if (!json_path.empty()) EmitKernelsJson(json_path);
  return 0;
}
