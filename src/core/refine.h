#ifndef BREP_CORE_REFINE_H_
#define BREP_CORE_REFINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bbtree/bbforest.h"
#include "common/top_k.h"
#include "common/work_counters.h"
#include "divergence/bregman.h"
#include "divergence/kernels.h"
#include "storage/point_store.h"

namespace brep {

/// The refine step of every exact BrePartition query (Algorithm 6's last
/// phase): fetch the filter's candidates page-batched from the forest's
/// point store and decide them against the query exactly. For kNN it also
/// evaluates the bound phase's seeds (SeedRadii), whose distances prefill
/// the refine's TopK.
///
/// Each candidate is first bounded through the certified identity
/// evaluation (simd::IdentityScan::Bounds) from the forest's tuple table
/// -- sum_m alpha_m and sum_m alpha_abs_m by id -- and one dot product over
/// the fetched row. kNN skips a candidate whose lower bound exceeds the
/// current k-th distance (its exact distance is strictly larger, and the
/// threshold only falls, so it could never enter the (distance, id) top-k);
/// range accepts or rejects what the bound decides. Everything else pays
/// the exact expression and is counted in `exact_evals`; when phi is plain
/// arithmetic (simd::IdentityPays) every candidate does. Answers are
/// bit-identical to evaluating BregmanDivergence::Divergence on every
/// candidate.
///
/// Borrows `forest`, `div` and `y` for the refiner's lifetime (one query).
class Refiner {
 public:
  Refiner(const BBForest& forest, const BregmanDivergence& div,
          std::span<const double> y);
  Refiner(const Refiner&) = delete;
  Refiner& operator=(const Refiner&) = delete;

  /// The seeded searching bound (README, "Searching bound: exact seeds";
  /// the proof is above the definition). Fetches the `seeds` -- live ids,
  /// at least topk->K() of them -- once, evaluates each one's exact
  /// distance and subspace distances from one phi evaluation per
  /// coordinate, and pushes every seed into *topk. Returns the radii
  /// r_m = D_m(p*) + margin / M, rounded up, for p* the K()-th seed in
  /// (distance, id) order: every point at most as far as p* lies within
  /// r_m in some subspace m. Seeds count as candidates and exact
  /// evaluations in *work.
  /// The seeds' pages are kept for Knn, which reads none of them again.
  std::vector<double> SeedRadii(std::span<const uint32_t> seeds, TopK* topk,
                                WorkCounters* work);

  /// Push every candidate that can still enter the (distance, id) top-k
  /// into *topk (which may hold seeds already).
  void Knn(std::span<const uint32_t> candidates, TopK* topk,
           WorkCounters* work) const;

  /// The candidates with D(x, y) <= radius, ascending by id.
  std::vector<uint32_t> Range(std::span<const uint32_t> candidates,
                              double radius, WorkCounters* work) const;

 private:
  /// The identity's per-point inputs for candidate `id` with row `x`
  /// (only when `identity_` is engaged).
  struct Terms {
    double alpha = 0.0;
    double alpha_abs = 0.0;
    double bxy = 0.0;
    double gx = 0.0;
  };
  Terms TermsOf(uint32_t id, std::span<const double> x) const;

  const BBForest& forest_;
  PointStore::PageMemo seed_pages_;  // kept by SeedRadii for Knn
  simd::DivergenceScan exact_;
  std::optional<simd::IdentityScan> identity_;  // borrows exact_
};

}  // namespace brep

#endif  // BREP_CORE_REFINE_H_
