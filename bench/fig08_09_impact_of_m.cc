/// Reproduces Figs. 8 and 9: the impact of the number of partitions M on
/// I/O cost (Fig 8) and running time (Fig 9), for k in {20, 60, 100}, on the
/// four real-dataset stand-ins. Algorithm 4's searching radius (the
/// Cauchy-Schwarz bound) tightens monotonically with M; the engine's radius
/// total, split from exact seeds, is printed beside it. The derived M* from
/// Theorem 4 is printed so the running-time minimum can be compared
/// against it (paper Section 9.3.2).

#include <cstdio>
#include <vector>

#include "api/index.h"
#include "bench_common.h"
#include "common/rng.h"
#include "core/bound.h"
#include "core/optimal_m.h"

int main() {
  using namespace brep;
  using namespace brep::bench;

  std::printf("Figs 8-9: impact of M (per query: I/O pages, time ms)\n\n");
  for (const std::string& name : RealWorkloadNames()) {
    const Workload w = MakeWorkload(name);
    Rng rng(7);
    const CostModelFit fit =
        FitCostModel(w.data, *w.divergence, rng, 50, 2,
                     std::min<size_t>(8, w.data.cols()));
    const size_t m_star =
        OptimalNumPartitions(fit, w.data.rows(), w.data.cols());
    std::printf("%s (n=%zu, d=%zu, derived M*=%zu)\n", w.name.c_str(),
                w.data.rows(), w.data.cols(), m_star);
    PrintHeader({"M", "io(k=20)", "io(k=60)", "io(k=100)", "ms(k=20)",
                 "ms(k=60)", "ms(k=100)", "alg4_r(k=20)", "seed_r(k=20)"});

    std::vector<size_t> ms{2, 4, 8, 16, 32};
    if (m_star > 2 && m_star < 64) {
      ms.push_back(m_star);
      std::sort(ms.begin(), ms.end());
      ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
    }
    for (size_t m : ms) {
      if (m > w.data.cols()) continue;
      IndexOptions options;
      options.config.num_partitions = m;
      options.page_size = w.page_size;
      auto bp = Index::Build(w.data, *w.divergence, options);
      BREP_CHECK_MSG(bp.ok(), bp.status().ToString().c_str());
      // Warm the node caches so rows report steady-state I/O.
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        bp->Knn(w.queries.Row(q), 20).value();
      }

      std::vector<std::string> row{FmtU(m)};
      std::vector<double> times;
      std::vector<double> ios;
      double radius20 = 0.0;
      double alg4_radius20 = 0.0;
      const BrePartition& impl = bp->impl();
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        const BrePartition::ReadView view = impl.OpenReadView();
        const auto triples =
            impl.TransformQueryAll(impl.GatherQuery(w.queries.Row(q)));
        alg4_radius20 += QBDetermine(view.transformed(), triples, 20).total;
      }
      alg4_radius20 /= double(w.queries.rows());
      for (size_t k : {20ul, 60ul, 100ul}) {
        uint64_t io = 0;
        double ms_total = 0.0;
        double radius = 0.0;
        for (size_t q = 0; q < w.queries.rows(); ++q) {
          SearchIndex::Stats stats;
          bp->Knn(w.queries.Row(q), k, &stats).value();
          io += stats.io_reads;
          ms_total += stats.wall_ms;
          radius += stats.radius_total;
        }
        ios.push_back(double(io) / double(w.queries.rows()));
        times.push_back(ms_total / double(w.queries.rows()));
        if (k == 20) radius20 = radius / double(w.queries.rows());
      }
      for (double v : ios) row.push_back(FmtF(v, 1));
      for (double v : times) row.push_back(FmtF(v, 2));
      row.push_back(FmtF(alg4_radius20, 3));
      row.push_back(FmtF(radius20, 3));
      PrintRow(row);
    }
    std::printf("\n");
  }
  return 0;
}
