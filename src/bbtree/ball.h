#ifndef BREP_BBTREE_BALL_H_
#define BREP_BBTREE_BALL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "divergence/bregman.h"
#include "divergence/kernels.h"

namespace brep {

/// A Bregman ball B(c, R) = { x : D_f(x, c) <= R }.
struct BregmanBall {
  std::vector<double> center;
  double radius = 0.0;
};

/// One query's ball tests: the pruning primitive of every BB-tree descent,
/// in value form (LowerBound, which the kNN frontier orders by) and in
/// decision form (MayReachRange, for range search).
///
/// Lower bound on min_{x in B(c, R)} D_f(x, y), following Cayton (ICML'08
/// / NIPS'09): the candidate minimizer lies on the dual-space segment
/// grad f(x_theta) = (1-theta) grad f(y) + theta grad f(c); a bisection
/// (the paper's "secant method" role) finds theta* with D(x_theta, c) ~= R.
/// The bound is the Lagrangian dual value
///   D(x_theta, y) + lambda * (D(x_theta, c) - R),  lambda = theta/(1-theta),
/// which by weak duality is a valid lower bound for ANY theta, so pruning
/// stays exact even when the bisection is stopped early.
///
/// Cost: every divergence a test needs -- D(y, c) and D(c, y) per ball,
/// D(x_theta, c) per bisection step and D(x_theta, y) per range step -- is
/// simd::StoredPairDivergence(s) over phi values computed once per query
/// (phi(y_j) and phi'(y_j), read from the caller's DivergenceScan), once
/// per ball (phi(c_j), phi'(c_j)) and once per step (phi(x_theta_j)),
/// clamped at 0; two needed together share one pass. That is
/// BregmanDivergence::Divergence's expression on the same values, so every
/// divergence, bound, step and decision has the bits the direct evaluation
/// would give.
///
/// Holds scratch reused across tests: one context per search and thread.
/// Borrows `div` and `scan` (built over y), which must outlive it, and adds
/// the bisection steps it runs to *steps.
class BallQuery {
 public:
  BallQuery(const BregmanDivergence& div, const simd::DivergenceScan& scan,
            int max_iters, uint64_t* steps);

  BallQuery(const BallQuery&) = delete;
  BallQuery& operator=(const BallQuery&) = delete;

  /// The lower bound; 0 when y is inside the ball.
  double LowerBound(const BregmanBall& ball);

  /// Range-pruning decision: `!(LowerBound(ball) > radius)`, i.e. whether
  /// the ball may hold a point within `radius` of y, decided as soon as it
  /// is certain. It keeps the ball when y is inside it or the center is
  /// within range, then runs the same bisection and stops at the first
  /// step whose x_theta is a ball member within range (keep) or whose dual
  /// value exceeds the radius (prune). Both are certificates in exact
  /// arithmetic, so range answers stay exact; only an undecided ball pays
  /// for all `max_iters` steps.
  bool MayReachRange(const BregmanBall& ball, double radius);

 private:
  /// phi(c_j), phi'(c_j) of the ball under test.
  void LoadCenter(const BregmanBall& ball);
  /// x_theta and phi(x_theta_j) at `theta`.
  void EvalPoint(double theta);
  /// D(a, b), and D(a1, b1) with D(a2, b2), clamped at 0.
  double Divergence(const simd::StoredPhi& a, const simd::StoredPhi& b) const;
  simd::DivergencePair Divergences(const simd::StoredPhi& a1,
                                   const simd::StoredPhi& b1,
                                   const simd::StoredPhi& a2,
                                   const simd::StoredPhi& b2) const;
  double Bisect(double ball_radius, const double* range);

  const ScalarGenerator& gen_;
  simd::KernelInfo info_;
  std::span<const double> w_;  // empty => unweighted
  int max_iters_;
  uint64_t* steps_;
  // Per query.
  simd::StoredPhi query_;
  std::span<const double> grad_y_;  // query_.dphi when unweighted
  std::vector<double> grad_y_buf_;
  // Per ball.
  std::vector<double> phi_c_;
  std::vector<double> dphi_c_;
  simd::StoredPhi center_;
  std::span<const double> grad_c_;  // dphi_c_ when unweighted
  std::vector<double> grad_c_buf_;
  // Per bisection step.
  std::vector<double> mix_;
  std::vector<double> x_;
  std::vector<double> phi_x_;
  simd::StoredPhi point_;
};

/// BallQuery::LowerBound for one ball and query (tree searches keep one
/// BallQuery per search instead).
double BallDistanceLowerBound(const BregmanDivergence& div,
                              const BregmanBall& ball,
                              std::span<const double> y, int max_iters = 40);

/// BallQuery::MayReachRange for one ball and query.
bool BallMayReachRange(const BregmanDivergence& div, const BregmanBall& ball,
                       std::span<const double> y, double radius,
                       int max_iters = 40);

}  // namespace brep

#endif  // BREP_BBTREE_BALL_H_
