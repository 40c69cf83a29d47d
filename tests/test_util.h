#ifndef BREP_TESTS_TEST_UTIL_H_
#define BREP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/top_k.h"
#include "core/bound.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "dataset/matrix.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"
#include "engine/query_engine.h"

namespace brep::testing {

/// Data whose domain/scale suits the named generator: strictly positive for
/// itakura_saito / kl, modest magnitude for exponential, unconstrained
/// otherwise.
inline Matrix MakeDataFor(const std::string& generator, size_t n, size_t d,
                          uint64_t seed = 7) {
  Rng rng(seed);
  if (generator == "itakura_saito" || generator == "kl") {
    MixtureSpec spec;
    spec.n = n;
    spec.d = d;
    spec.num_clusters = 6;
    spec.positive = true;
    spec.positive_scale = 1.5;
    spec.cluster_std = 0.4;
    return MakeMixture(rng, spec);
  }
  MixtureSpec spec;
  spec.n = n;
  spec.d = d;
  spec.num_clusters = 6;
  spec.center_lo = -1.5;
  spec.center_hi = 1.5;
  spec.cluster_std = 0.5;
  return MakeMixture(rng, spec);
}

/// Queries suited to the generator (kept in-domain).
inline Matrix MakeQueriesFor(const std::string& generator, const Matrix& data,
                             size_t count, uint64_t seed = 11) {
  Rng rng(seed);
  const bool positive = generator == "itakura_saito" || generator == "kl";
  return MakeQueries(rng, data, count, 0.1, positive);
}

/// Generators exercised by parameterized suites (partition-safe set).
inline std::vector<std::string> PartitionSafeGenerators() {
  return {"squared_l2", "itakura_saito", "exponential", "lp:3"};
}

/// All generators including KL (whole-space engines only).
inline std::vector<std::string> AllGenerators() {
  return {"squared_l2", "itakura_saito", "exponential", "kl", "lp:3"};
}

/// Exact kNN of `y` through a one-thread QueryEngine: the sequential path
/// every Index, shard and replica serves, and the reference the parallel
/// engines are checked against.
inline std::vector<Neighbor> ExactKnn(const BrePartition& index,
                                      std::span<const double> y, size_t k,
                                      QueryStats* stats = nullptr) {
  QueryEngineOptions options;
  options.num_threads = 1;
  return QueryEngine(index, options).KnnSearch(y, k, stats);
}

/// Algorithm 4's searching-bound total for `y`: the k-th smallest total
/// Cauchy-Schwarz upper bound. The approximate extension scales it
/// (Proposition 1); the exact engine's seeded radii replace it.
inline double Algorithm4Total(const BrePartition& index,
                              std::span<const double> y, size_t k) {
  const BrePartition::ReadView view = index.OpenReadView();
  const auto triples = index.TransformQueryAll(index.GatherQuery(y));
  return QBDetermine(view.transformed(), triples, k).total;
}

/// Gtest-safe parameterized-test name for a generator spec ("lp:3" ->
/// "lp_3").
inline std::string GeneratorTestName(std::string name) {
  std::replace(name.begin(), name.end(), ':', '_');
  return name;
}

}  // namespace brep::testing

#endif  // BREP_TESTS_TEST_UTIL_H_
