#ifndef BREP_CORE_BOUND_H_
#define BREP_CORE_BOUND_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/cow_vec.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"

namespace brep {

/// \file
/// The paper's Cauchy-Schwarz upper bound machinery (Section 4,
/// Algorithms 1-4). Within one subspace, with phi the scalar generator and
/// w_j the optional weights:
///
///   D(x, y) = a_x + a_y + b_yy + b_xy            (exact identity)
///          <= a_x + a_y + b_yy + sqrt(g_x * d_y) (bound; b_xy <= sqrt(g_x d_y))
///
///   a_x  =  sum_j w_j phi(x_j)        g_x =  sum_j x_j^2
///   a_y  = -sum_j w_j phi(y_j)        d_y =  sum_j (w_j phi'(y_j))^2
///   b_yy =  sum_j y_j w_j phi'(y_j)   b_xy = -sum_j x_j w_j phi'(y_j)
///
/// Point tuples (a_x, g_x) are precomputed offline; query triples
/// (a_y, b_yy, d_y) cost O(d) once per query, after which every bound
/// evaluation is O(1). The tuple also stores sum_j |w_j phi(x_j)|, the
/// magnitude the rounding bound of the exact identity needs: the filter and
/// the refine evaluate D through the identity with a transcendental-free
/// b_xy and fall back to the exact expression only when that bound cannot
/// decide (simd::IdentityScan::Bounds).

/// P(x) of Algorithm 2: per-subspace precomputed tuple.
struct PointTuple {
  double alpha = 0.0;      // a_x
  double gamma = 0.0;      // g_x
  double alpha_abs = 0.0;  // sum_j |w_j phi(x_j)|, same phi values as a_x
};

/// Q(y) of Algorithm 3: per-subspace query triple.
struct QueryTriple {
  double alpha = 0.0;    // a_y
  double beta_yy = 0.0;  // b_yy
  double delta = 0.0;    // d_y
};

/// Algorithm 1 (UBCompute): upper bound on D(x_sub, y_sub) from the
/// transformed representations.
inline double UBCompute(const PointTuple& p, const QueryTriple& q) {
  return p.alpha + q.alpha + q.beta_yy + std::sqrt(p.gamma * q.delta);
}

/// Transform one subvector of a data point (one iteration of Algorithm 2).
/// `sub_div` is the divergence restricted to the subspace.
PointTuple TransformPoint(const BregmanDivergence& sub_div,
                          std::span<const double> x_sub);

/// Transform one subvector of the query (one iteration of Algorithm 3).
QueryTriple TransformQuery(const BregmanDivergence& sub_div,
                           std::span<const double> y_sub);

/// The exact cross term b_xy = -sum_j x_j w_j phi'(y_j) that the bound
/// relaxes; the approximate extension (Section 8) models its distribution.
double BetaXY(const BregmanDivergence& sub_div, std::span<const double> x_sub,
              std::span<const double> y_sub);

/// All point tuples for a partitioned dataset: n x M tuples, row-major.
///
/// Storage is a CowVec so an MVCC snapshot copies the chunk spine (cheap)
/// and the writer's subsequent SetRow/AppendRow clone only the touched
/// chunks: published read views keep serving the old tuples without a full
/// n x M copy per version. Copying a TransformedDataset is therefore O(n /
/// chunk) and safe to do on every publish.
class TransformedDataset {
 public:
  TransformedDataset() = default;

  /// Algorithm 2 over the whole dataset: gather each partition's columns and
  /// transform every point. `sub_divs[m]` must be `div.Restrict(partition m)`.
  TransformedDataset(const Matrix& data,
                     std::span<const std::vector<size_t>> partitions,
                     std::span<const BregmanDivergence> sub_divs);

  /// Adopt precomputed tuples (n x m, row-major) -- the persistence open
  /// path, which must not redo the transform. `dead_ids` are the tombstoned
  /// rows (they hold DeadTuple()s and stay out of live_maxima()).
  TransformedDataset(size_t n, size_t m, std::vector<PointTuple> tuples,
                     std::span<const uint32_t> dead_ids);

  /// The one-partition table over every column of `data`: what a
  /// whole-space DiskBBTree's exact range search reads (partition 0).
  static TransformedDataset WholeSpace(const Matrix& data,
                                       const BregmanDivergence& div);

  size_t num_points() const { return n_; }
  size_t num_partitions() const { return m_; }

  /// Replace row `i` with a live point's tuples (an insert reusing a
  /// tombstoned id).
  void SetRow(size_t i, std::span<const PointTuple> row);

  /// Overwrite row `i` with DeadTuple()s (a delete), so the bound phase
  /// never selects it. live_maxima() keeps its values.
  void KillRow(size_t i);

  /// Append a fresh live row; returns its index (the new point's id).
  size_t AppendRow(std::span<const PointTuple> row);

  /// Tuple of a deleted point: its total upper bound is +infinity, so it
  /// can never become the k-th searching bound while k <= live points.
  static PointTuple DeadTuple() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return PointTuple{kInf, 0.0, kInf};
  }

  const PointTuple& At(size_t i, size_t m) const { return tuples_[i * m_ + m]; }

  /// The largest row sums sum_m alpha_abs and sum_m gamma (each summed in
  /// partition order) over every row written live since construction. A
  /// delete leaves them unchanged, so they bound every live row of this
  /// version from above; the seeded searching bound's margin reads them
  /// (Refiner::SeedRadii). Copied with the table, hence per MVCC version.
  struct RowMaxima {
    double alpha_abs = 0.0;
    double gamma = 0.0;
  };
  const RowMaxima& live_maxima() const { return maxima_; }

  /// Total tuple count (n * M), for serialization and size checks.
  size_t num_tuples() const { return tuples_.size(); }

  /// Visit the row-major tuple array as contiguous spans, in order -- the
  /// serialization path (byte-identical to dumping one flat vector).
  template <typename Fn>
  void ForEachTupleSpan(Fn&& fn) const {
    tuples_.ForEachSpan(std::forward<Fn>(fn));
  }

 private:
  /// Fold a live row into maxima_.
  void NoteLiveRow(std::span<const PointTuple> row);

  size_t n_ = 0;
  size_t m_ = 0;
  CowVec<PointTuple> tuples_;
  RowMaxima maxima_;
};

/// Output of Algorithm 4 (QBDetermine): per-subspace searching bounds, i.e.
/// the components of the k-th smallest total upper bound.
struct QueryBounds {
  /// Range-query radius per subspace.
  std::vector<double> radii;
  /// The k-th smallest total bound (sum of radii).
  double total = 0.0;
  /// Id of the point attaining it (the "anchor"; used by the approximate
  /// extension to pick kappa and mu).
  uint32_t anchor_id = 0;
};

/// Reusable scratch for UBTotals and QBDetermine: totals/ids for the
/// selection pass, the M x n upper-bound cache (column-major,
/// ub[j * n + i]) from which QBDetermine reads the anchor's radii back
/// instead of recomputing them, and the stitch buffer for rows straddling
/// CowVec chunk boundaries. Buffers grow monotonically
/// (growth is counted in BuildCounters::qb_scratch_allocs), so steady-state
/// queries are allocation-free. Not thread-safe: pass one per thread, or
/// pass nullptr to use an internal thread_local instance (safe under
/// MVCC/ReadView -- the scratch holds no dataset state across calls).
struct QBScratch {
  std::vector<double> totals;
  std::vector<uint32_t> ids;
  std::vector<double> ub;
  std::vector<PointTuple> stitch;
};

/// Algorithm 4's totals pass: s->totals[i] = sum_m UBCompute(At(i, m), q[m])
/// for every row i (+inf for a deleted row), through the batched UB kernel
/// (simd::UBTotalsBlock). With `record_ub`, every per-partition bound also
/// lands column-major in s->ub (s->ub[m * n + i]).
void UBTotals(const TransformedDataset& st, std::span<const QueryTriple> q,
              bool record_ub, QBScratch* s);

/// Algorithm 4: compute every point's total upper bound, select the k-th
/// smallest, and return its per-subspace components as the searching bounds.
QueryBounds QBDetermine(const TransformedDataset& st,
                        std::span<const QueryTriple> q, size_t k,
                        QBScratch* scratch = nullptr);

}  // namespace brep

#endif  // BREP_CORE_BOUND_H_
