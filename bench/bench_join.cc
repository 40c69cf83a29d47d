/// kNN-join: the dual-tree descent against the same workload issued as N
/// independent single-query descents.
///
///   $ ./bench_join [--threads N] [--json <path>]
///
/// Dataset: synthetic 20k x 20-d mixture under squared L2 (the measure
/// with both box and ball pair bounds in play), R = an in-distribution
/// query set. BREP_SCALE=small shrinks everything for smoke runs.
///
/// The headline numbers are the work counters, not wall clock: the
/// dual-tree join must visit strictly fewer node pairs than the
/// single-query baseline visits nodes (bound work amortized across nearby
/// R points), with byte-identical answers. Both node visits and pair
/// evaluations are reported: on this mixture the descent prunes almost no
/// node pairs, so it evaluates nearly all |R|*|S| pairs -- far more than
/// the single-query descents -- and its lead comes from the batched SIMD
/// leaf blocks. Thread scaling is validated the same way -- results at
/// 1/2/4 threads must be byte-identical to the sequential descent.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"
#include "engine/thread_pool.h"
#include "join/dual_tree.h"

int main(int argc, char** argv) {
  using namespace brep;
  using namespace brep::bench;

  const double scale = ScaleFactor();
  const size_t n = std::max<size_t>(2000, size_t(20000 * scale));
  const size_t d = 20;
  const size_t r_rows = std::max<size_t>(128, size_t(1000 * scale));
  const size_t k = 10;

  Rng rng(7);
  MixtureSpec spec;
  spec.n = n;
  spec.d = d;
  spec.num_clusters = 24;
  spec.center_lo = -1.5;
  spec.center_hi = 1.5;
  spec.cluster_std = 0.5;
  const Matrix data = MakeMixture(rng, spec);
  Rng qrng(11);
  const Matrix r = MakeQueries(qrng, data, r_rows, 0.1, false);
  const BregmanDivergence div = MakeDivergence("squared_l2", d);
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);

  std::printf("kNN-join: |S|=%zu |R|=%zu d=%zu k=%zu (squared_l2)\n\n", n,
              r_rows, d, k);

  // ------------------------------------------------- dual vs single tree
  constexpr size_t kLeafSize = 64;  // the facade's: SIMD blocks do the work
  const JoinResult dual =
      DualTreeKnnJoin(r, data, ids, div, k, kLeafSize, /*pool=*/nullptr);
  const JoinResult single =
      SingleTreeKnnJoin(r, data, ids, div, k, kLeafSize);
  const bool identical = dual.neighbors == single.neighbors;
  const double ratio =
      single.stats.node_pairs_visited > 0
          ? double(dual.stats.node_pairs_visited) /
                double(single.stats.node_pairs_visited)
          : 0.0;

  PrintHeader({"strategy", "build ms", "descent ms", "node visits",
               "pruned", "leaf blocks", "pair evals"});
  PrintRow({"dual-tree", FmtF(dual.stats.build_ms, 1),
            FmtF(dual.stats.descent_ms, 1),
            FmtU(dual.stats.node_pairs_visited),
            FmtU(dual.stats.node_pairs_pruned), FmtU(dual.stats.leaf_blocks),
            FmtU(dual.stats.pairs_evaluated)});
  PrintRow({"N queries", FmtF(single.stats.build_ms, 1),
            FmtF(single.stats.descent_ms, 1),
            FmtU(single.stats.node_pairs_visited), "-",
            FmtU(single.stats.leaf_blocks),
            FmtU(single.stats.pairs_evaluated)});
  std::printf("\nnode visits, dual / single: %.3f (%s, results %s)\n\n",
              ratio, ratio < 1.0 ? "amortized" : "NOT amortized",
              identical ? "identical" : "MISMATCH");

  // ------------------------------------------------------ thread scaling
  std::vector<size_t> thread_counts = {1, 2, 4};
  if (const size_t pinned = ThreadsArg(argc, argv); pinned > 0) {
    thread_counts = {1, pinned};
  }
  json::Array thread_runs;
  PrintHeader({"threads", "descent ms", "speedup", "identical"});
  for (const size_t t : thread_counts) {
    ThreadPool pool(t > 0 ? t - 1 : 0);  // lanes = workers + caller
    Timer timer;
    const JoinResult threaded =
        DualTreeKnnJoin(r, data, ids, div, k, kLeafSize,
                        t > 1 ? &pool : nullptr);
    const double wall_ms = timer.ElapsedMillis();
    const bool same = threaded.neighbors == dual.neighbors &&
                      threaded.stats.node_pairs_visited ==
                          dual.stats.node_pairs_visited;
    PrintRow({FmtU(t), FmtF(threaded.stats.descent_ms, 1),
              FmtF(threaded.stats.descent_ms > 0
                       ? dual.stats.descent_ms / threaded.stats.descent_ms
                       : 0.0, 2),
              same ? "yes" : "NO"});
    json::Object run;
    run.emplace_back("threads", json::Value(double(t)));
    run.emplace_back("wall_ms", json::Value(wall_ms));
    run.emplace_back("descent_ms", json::Value(threaded.stats.descent_ms));
    run.emplace_back("identical", json::Value(same));
    thread_runs.emplace_back(json::Value(std::move(run)));
  }

  if (const std::string json_path = JsonPathArg(argc, argv);
      !json_path.empty()) {
    json::Object section;
    json::Object dataset;
    dataset.emplace_back("n", json::Value(double(n)));
    dataset.emplace_back("r_rows", json::Value(double(r_rows)));
    dataset.emplace_back("d", json::Value(double(d)));
    dataset.emplace_back("k", json::Value(double(k)));
    dataset.emplace_back("divergence", json::Value(std::string("squared_l2")));
    section.emplace_back("dataset", json::Value(std::move(dataset)));
    auto stats_json = [](const JoinStats& s) {
      json::Object o;
      o.emplace_back("build_ms", json::Value(s.build_ms));
      o.emplace_back("descent_ms", json::Value(s.descent_ms));
      o.emplace_back("node_visits", json::Value(double(s.node_pairs_visited)));
      o.emplace_back("node_pairs_pruned",
                     json::Value(double(s.node_pairs_pruned)));
      o.emplace_back("leaf_blocks", json::Value(double(s.leaf_blocks)));
      o.emplace_back("pairs_evaluated",
                     json::Value(double(s.pairs_evaluated)));
      return json::Value(std::move(o));
    };
    section.emplace_back("dual_tree", stats_json(dual.stats));
    section.emplace_back("single_queries", stats_json(single.stats));
    section.emplace_back("node_visit_ratio_dual_over_single",
                         json::Value(ratio));
    section.emplace_back("dual_amortizes", json::Value(ratio < 1.0));
    section.emplace_back("identical", json::Value(identical));
    section.emplace_back("thread_runs", json::Value(std::move(thread_runs)));
    EmitJson(json_path, "knn_join", json::Value(std::move(section)));
  }
  return identical && ratio < 1.0 ? 0 : 1;
}
