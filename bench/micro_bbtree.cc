/// Microbenchmarks of the BB-tree substrate: Bregman k-means step cost,
/// the theta-projection ball bound, and the pruned-vs-exhaustive kNN
/// ablation (BM_BBTreeKnn against BM_LinearScanKnn: the points and time
/// the ball pruning saves over a scan).

#include <memory>

#include <benchmark/benchmark.h>

#include "api/search_index.h"
#include "bbtree/bbtree.h"
#include "bbtree/kmeans.h"
#include "common/rng.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"

namespace {

using namespace brep;

Matrix Data(size_t n, size_t d) {
  Rng rng(5);
  EnergyProfileSpec spec;
  spec.n = n;
  spec.d = d;
  return MakeEnergyProfile(rng, spec);
}

void BM_BregmanKMeans(benchmark::State& state) {
  const size_t n = 2000, d = 32;
  const Matrix data = Data(n, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = uint32_t(i);
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(BregmanKMeans(data, ids, div, 2, rng, 8));
  }
}

/// The generators the ball arms run, by the `gen` argument: squared L2
/// (the filter's plain-arithmetic path) and itakura_saito (libm per
/// coordinate).
const char* const kBallGenerators[] = {"squared_l2", "itakura_saito"};

/// The ball both bound arms measure: the first 256 rows of Data(512, 32)
/// under the named generator. A query inside the ball returns before
/// bisecting, so the queries are rows 256-511 scaled by 4 that land
/// outside it. Each query gets its BallQuery before timing
/// starts, as a tree search builds one per search, so a timed call is one
/// node's test.
struct BallBench {
  Matrix data = Data(512, 32);
  BregmanDivergence div;
  BregmanBall ball;
  std::vector<std::vector<double>> queries;
  std::vector<std::unique_ptr<simd::DivergenceScan>> scans;
  std::vector<std::unique_ptr<BallQuery>> tests;
  uint64_t steps = 0;

  explicit BallBench(const char* generator)
      : div(MakeDivergence(generator, 32)) {
    std::vector<uint32_t> ids(256);
    for (size_t i = 0; i < 256; ++i) ids[i] = uint32_t(i);
    ball.center = div.Mean(data, ids);
    for (uint32_t id : ids) {
      ball.radius =
          std::max(ball.radius, div.Divergence(data.Row(id), ball.center));
    }
    for (size_t r = 256; r < 512; ++r) {
      std::vector<double> y(data.Row(r).begin(), data.Row(r).end());
      for (double& v : y) v *= 4.0;
      if (div.Divergence(y, ball.center) > ball.radius) {
        queries.push_back(std::move(y));
      }
    }
    for (const auto& y : queries) {
      scans.push_back(std::make_unique<simd::DivergenceScan>(div, y));
      tests.push_back(
          std::make_unique<BallQuery>(div, *scans.back(), 40, &steps));
    }
  }
};

/// The full bisection: the value form of the bound.
void BM_BallLowerBound(benchmark::State& state) {
  BallBench b(kBallGenerators[state.range(0)]);
  state.SetLabel(kBallGenerators[state.range(0)]);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.tests[q % b.tests.size()]->LowerBound(b.ball));
    ++q;
  }
  state.counters["steps"] = double(b.steps) / double(state.iterations());
}

/// The range decision on the same ball and queries. prune:0 sets the radius
/// to D(c, y), which the center check keeps; prune:1 to half the lower
/// bound, which a dual certificate prunes within the first bisection steps.
void BM_BallMayReachRange(benchmark::State& state) {
  BallBench b(kBallGenerators[state.range(0)]);
  state.SetLabel(kBallGenerators[state.range(0)]);
  std::vector<double> radii;
  for (size_t i = 0; i < b.queries.size(); ++i) {
    radii.push_back(state.range(1) == 0
                        ? b.div.Divergence(b.ball.center, b.queries[i])
                        : 0.5 * b.tests[i]->LowerBound(b.ball));
  }
  b.steps = 0;
  size_t q = 0;
  for (auto _ : state) {
    const size_t i = q % b.queries.size();
    benchmark::DoNotOptimize(b.tests[i]->MayReachRange(b.ball, radii[i]));
    ++q;
  }
  state.counters["steps"] = double(b.steps) / double(state.iterations());
}

/// Ablation: branch-and-bound kNN vs exhaustive scan on the same data.
void BM_BBTreeKnn(benchmark::State& state) {
  const size_t n = 8000, d = 32;
  const Matrix data = Data(n, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  const BBTree tree(data, div, BBTreeConfig{});
  Rng qrng(9);
  const Matrix queries = MakeQueries(qrng, data, 16, 0.1, true);
  size_t q = 0;
  size_t evaluated = 0;
  for (auto _ : state) {
    WorkCounters stats;
    benchmark::DoNotOptimize(tree.KnnSearch(queries.Row(q % 16), 10, &stats));
    evaluated += stats.points_evaluated;
    ++q;
  }
  state.counters["points_evaluated"] =
      double(evaluated) / double(state.iterations());
}

void BM_LinearScanKnn(benchmark::State& state) {
  const size_t n = 8000, d = 32;
  const Matrix data = Data(n, d);
  const BregmanDivergence div = MakeDivergence("itakura_saito", d);
  const auto scan = MakeSearchIndex("scan", nullptr, data, div).value();
  Rng qrng(9);
  const Matrix queries = MakeQueries(qrng, data, 16, 0.1, true);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan->Knn(queries.Row(q % 16), 10).value());
    ++q;
  }
}

}  // namespace

BENCHMARK(BM_BregmanKMeans)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BallLowerBound)->ArgName("gen")->Arg(0)->Arg(1);
BENCHMARK(BM_BallMayReachRange)
    ->ArgNames({"gen", "prune"})
    ->ArgsProduct({{0, 1}, {0, 1}});
BENCHMARK(BM_BBTreeKnn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LinearScanKnn)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
