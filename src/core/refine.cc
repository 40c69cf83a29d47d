#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

// Why SeedRadii's radii keep every true neighbor (Theorem 3 in floating
// point). Notation as above simd::IdentityScan::Bounds: u = 2^-53,
// eta = 2^-1074, gamma_n = n u / (1 - n u); for a point x, p_j, q_j, s_j
// are the computed phi(x_j), phi(y_j), phi'(y_j), T(x) the exact real sum
// of w_j (p_j - q_j - s_j (x_j - y_j)) over all d coordinates, T_m(x) the
// same over subspace m's columns, and
// S*(x) = sum_j w_j (|p_j| + |q_j| + |s_j x_j| + |s_j y_j|).
//
// The refine's D(x) (DivergenceScan::One) is max(a(x), 0) with a(x) the
// computed sum over all coordinates; tree m compares D_m(x) = max(a_m(x), 0)
// with a_m(x) the computed sum over its columns (RangeSearchExact: the
// identity decision equals the exact comparison). All of them read the
// same p_j, q_j, s_j, so only the rounding of + - * differs, and the count
// above Bounds gives |a(x) - T(x)| <= gamma_{d+3} S*(x) and
// |a_m(x) - T_m(x)| <= gamma_{d_m+3} S*_m(x), with sum_m S*_m = S*.
//
// Let p* be the k-th seed in (D, id) order and r_m >= D_m(p*) + mu_m with
// sum_m mu_m >= mu >= 2 gamma_{d+3} (S*(p*) + S*(x)) for every live x.
// Suppose a live x with D(x) <= D(p*) had D_m(x) > r_m in every tree. Then
// every a_m(x) > r_m >= 0, so no clamp acts on x and
//   sum_m D_m(x) = sum_m a_m(x) <= T(x) + gamma_{d+3} S*(x)
//                <= D(x) + 2 gamma_{d+3} S*(x);
// and sum_m D_m(p*) >= sum_m a_m(p*) >= a(p*) - 2 gamma_{d+3} S*(p*), which
// is also >= D(p*) - 2 gamma_{d+3} S*(p*) when a(p*) < 0 (then D(p*) = 0).
// Chaining, D(x) + 2 gamma S*(x) > sum_m r_m >= D(p*) - 2 gamma S*(p*) + mu,
// so D(x) > D(p*): a contradiction. The k nearest live points (in (D, id)
// order) are at most as far as p*, since the seeds are k or more live
// points; so each is kept by some tree, and the union holds the answer.
//
// The margin. Bounds's magnitude sum s = A_x + Q_y + G_y + G_x bounds S*
// up to a factor (1 + gamma_{d+M+4}), and it is bounded from the stored
// tuples alone: A_x = sum_m alpha_abs, and by Cauchy-Schwarz
// G_x = sum_j |x_j| h_j <= ||x|| ||h|| with ||x||^2 = sum_m gamma_m, each
// up to the rounding of sums of non-negative terms. So
// s(x) <= A_x + Q_y + G_y + sqrt(sum_m gamma_m) ||h|| within a factor
// 1 + gamma_{2d+2M+8}: s_p for p* from its own tuples, s_max for every
// other live x from the maxima of both row sums, which TransformedDataset
// keeps per version over every row written live (a delete leaves them
// unchanged: still an upper bound). IdentityScan::SplitMargin returns
// 4 (d + 8) (u (s_p + s_max) + eta), more than twice
// 2 gamma_{d+3} (S*(p*) + S*(x)) after every factor above and its own
// roundings for d, M < 2^20; eta covers products that
// underflow (two per coordinate in each form, so 8 d over both points and
// both forms, each off by at most eta / 2). Its guard (Bounds's:
// s_p + s_max < 2^998 min(1, w_min), every |y_j| <= 2^1022) keeps every
// intermediate of both forms finite for every live x, since
// s_max >= sqrt(gamma_max) ||h|| >= 2^-24 max_j |x_j| up to rounding;
// otherwise it returns +inf and so do the radii (every point becomes a
// candidate).
//
// Each r_m is fl(D_m(p*) + margin / M) moved up one ulp, which is >= the
// real sum; the M shares lose at most M u margin to rounding, covered by
// the factor of two. The ball tests' pruning decisions are certificates
// in exact arithmetic, as for the paper's radii (bbtree/ball.h).
std::vector<double> Refiner::SeedRadii(std::span<const uint32_t> seeds,
                                       TopK* topk, WorkCounters* work) {
  const std::vector<std::vector<size_t>>& parts = forest_.partitions();
  const TransformedDataset& tuples = forest_.tuples();
  const size_t m_parts = parts.size();
  const size_t k = topk->K();
  BREP_CHECK(seeds.size() >= k);

  struct Seed {
    double key;  // the distance, NaN as +inf: a strict weak order
    uint32_t id;
    size_t row;  // fetch order: its D_m start at sub[row * M]
  };
  std::vector<Seed> evaluated;
  evaluated.reserve(seeds.size());
  std::vector<double> sub(seeds.size() * m_parts);
  std::vector<double> phi_x(exact_.dim());
  forest_.point_store().FetchMany(
      seeds, [&](uint32_t id, std::span<const double> x) {
        const size_t row = evaluated.size();
        const double distance = exact_.OneWithParts(
            x, parts, phi_x, std::span(sub).subspan(row * m_parts, m_parts));
        topk->Push(distance, id);
        evaluated.push_back(
            {std::isnan(distance) ? std::numeric_limits<double>::infinity()
                                  : distance,
             id, row});
      },
      /*reuse=*/nullptr, &seed_pages_);
  BREP_CHECK(evaluated.size() == seeds.size());
  work->candidates += evaluated.size();
  work->exact_evals += evaluated.size();

  // p*: the k-th seed in (distance, id) order.
  std::nth_element(evaluated.begin(), evaluated.begin() + ptrdiff_t(k - 1),
                   evaluated.end(), [](const Seed& a, const Seed& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.id < b.id;
                   });
  const Seed& p = evaluated[k - 1];

  double alpha_abs = 0.0;
  double gamma = 0.0;
  for (size_t m = 0; m < m_parts; ++m) {
    const PointTuple& t = tuples.At(p.id, m);
    alpha_abs += t.alpha_abs;
    gamma += t.gamma;
  }
  const TransformedDataset::RowMaxima& maxima = tuples.live_maxima();
  // The identity context holds the query's magnitudes (squared L2 too).
  const double share = simd::IdentityScan(exact_).SplitMargin(
                           alpha_abs, gamma, maxima.alpha_abs, maxima.gamma) /
                       double(m_parts);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> radii(m_parts);
  for (size_t m = 0; m < m_parts; ++m) {
    const double r = sub[p.row * m_parts + m] + share;
    radii[m] = r < kInf ? std::nextafter(r, kInf) : kInf;  // NaN -> +inf
  }
  return radii;
}

void Refiner::Knn(std::span<const uint32_t> candidates, TopK* topk,
                  WorkCounters* work) const {
  const size_t parts = forest_.num_partitions();
  work->candidates += candidates.size();
  forest_.point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        if (identity_) {
          const Terms t = TermsOf(id, x);
          if (identity_->Bounds(t.alpha, t.alpha_abs, t.bxy, t.gx, parts).lo >
              topk->Threshold()) {
            return;
          }
        }
        ++work->exact_evals;
        topk->Push(exact_.One(x), id);
      },
      &seed_pages_);
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
