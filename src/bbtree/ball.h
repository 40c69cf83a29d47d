#ifndef BREP_BBTREE_BALL_H_
#define BREP_BBTREE_BALL_H_

#include <span>
#include <vector>

#include "divergence/bregman.h"

namespace brep {

/// A Bregman ball B(c, R) = { x : D_f(x, c) <= R }.
struct BregmanBall {
  std::vector<double> center;
  double radius = 0.0;
};

/// Lower bound on min_{x in B(c, R)} D_f(x, y) -- the pruning primitive for
/// both kNN and range search over BB-trees.
///
/// Following Cayton (ICML'08 / NIPS'09), the candidate minimizer lies on the
/// dual-space segment grad f(x_theta) = (1-theta) grad f(y) + theta grad
/// f(c); a bisection (the paper's "secant method" role) finds theta* with
/// D(x_theta, c) ~= R. We return the Lagrangian dual value
///   D(x_theta, y) + lambda * (D(x_theta, c) - R),  lambda = theta/(1-theta),
/// which by weak duality is a valid lower bound for ANY theta, so pruning
/// stays exact even when the bisection is stopped early.
///
/// `grad_y` is grad f(y), precomputed once per query by the caller.
/// Returns 0 when y itself is inside the ball.
double BallDistanceLowerBound(const BregmanDivergence& div,
                              const BregmanBall& ball,
                              std::span<const double> y,
                              std::span<const double> grad_y,
                              int max_iters = 40);

/// Range-pruning decision: the answer to `!(BallDistanceLowerBound(div,
/// ball, y, grad_y, max_iters) > radius)`, i.e. whether the ball may hold a
/// point within `radius` of y, decided as soon as it is certain. It keeps
/// the ball when y is inside it or the center is within range, then runs
/// the same bisection and stops at the first step whose x_theta is a ball
/// member within range (keep) or whose dual value exceeds the radius
/// (prune). Both are certificates in exact arithmetic, so range answers
/// stay exact; only an undecided ball pays for all `max_iters` steps.
bool BallMayReachRange(const BregmanDivergence& div, const BregmanBall& ball,
                       std::span<const double> y,
                       std::span<const double> grad_y, double radius,
                       int max_iters = 40);

}  // namespace brep

#endif  // BREP_BBTREE_BALL_H_
