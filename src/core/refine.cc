#include "core/refine.h"

#include <algorithm>

#include "common/check.h"

namespace brep {

Refiner::Refiner(const BBForest& forest, const BregmanDivergence& div,
                 std::span<const double> y)
    : forest_(forest), exact_(div, y) {
  BREP_CHECK(y.size() == div.dim());
  if (simd::IdentityPays(div.kernel_info())) identity_.emplace(exact_);
}

Refiner::Terms Refiner::TermsOf(uint32_t id, std::span<const double> x) const {
  const TransformedDataset& tuples = forest_.tuples();
  BREP_DCHECK(id < tuples.num_points());
  Terms t;
  for (size_t m = 0; m < tuples.num_partitions(); ++m) {
    const PointTuple& p = tuples.At(id, m);
    t.alpha += p.alpha;
    t.alpha_abs += p.alpha_abs;
  }
  identity_->CrossTerms(x, &t.bxy, &t.gx);
  return t;
}

std::vector<Neighbor> Refiner::Knn(std::span<const uint32_t> candidates,
                                   size_t k, WorkCounters* work) const {
  const size_t parts = forest_.num_partitions();
  work->candidates += candidates.size();
  TopK topk(k);
  forest_.point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        if (identity_) {
          const Terms t = TermsOf(id, x);
          if (identity_->Bounds(t.alpha, t.alpha_abs, t.bxy, t.gx, parts).lo >
              topk.Threshold()) {
            return;
          }
        }
        ++work->exact_evals;
        topk.Push(exact_.One(x), id);
      });
  return topk.SortedResults();
}

std::vector<uint32_t> Refiner::Range(std::span<const uint32_t> candidates,
                                     double radius, WorkCounters* work) const {
  const size_t parts = forest_.num_partitions();
  work->candidates += candidates.size();
  std::vector<uint32_t> result;
  forest_.point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        bool within;
        if (identity_) {
          const Terms t = TermsOf(id, x);
          within = identity_->WithinRadius(t.alpha, t.alpha_abs, t.bxy, t.gx,
                                           parts, radius, x.data(), 1,
                                           &work->exact_evals);
        } else {
          ++work->exact_evals;
          within = exact_.One(x) <= radius;
        }
        if (within) result.push_back(id);
      });
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace brep
