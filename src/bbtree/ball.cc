#include "bbtree/ball.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace brep {
namespace {

// Cayton's bisection for a query y outside a ball of positive radius: find
// theta* with D(x_theta, c) == R along the dual-space segment, where
// D(x_theta, c) runs from D(y, c) > R at theta=0 down to 0 at theta=1.
//
// Without `range`, every step runs and the result is the dual value at the
// final feasible theta: the lower bound. With `range`, each step also tests
// two certificates for "some member lies within *range of y" and stops at
// the first: a feasible x_theta within range (returns D(x_theta, y), at most
// *range) or a dual value above it (returns that value, above *range).
// Whether it stopped early or not, `result <= *range` is the decision.
double Bisect(const BregmanDivergence& div, const BregmanBall& ball,
              std::span<const double> y, std::span<const double> grad_y,
              int max_iters, const double* range) {
  const size_t dim = div.dim();
  std::vector<double> grad_c(dim);
  div.Gradient(ball.center, std::span<double>(grad_c));

  std::vector<double> mix(dim);
  std::vector<double> x_theta(dim);
  auto eval_point = [&](double theta) {
    for (size_t j = 0; j < dim; ++j) {
      mix[j] = (1.0 - theta) * grad_y[j] + theta * grad_c[j];
    }
    div.GradientInverse(mix, std::span<double>(x_theta));
  };

  double lo = 0.0;    // D(x_lo, c) > R
  double hi = 1.0;    // D(x_hi, c) <= R
  for (int i = 0; i < max_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    eval_point(mid);
    const double d_c = div.Divergence(x_theta, ball.center);
    if (d_c > ball.radius) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (range == nullptr) continue;
    const double d_y = div.Divergence(x_theta, y);
    // x_theta is a ball member within range.
    if (d_c <= ball.radius && d_y <= *range) return d_y;
    // Weak duality: x_theta minimizes the Lagrangian at this lambda, so the
    // dual value bounds every member's distance from below.
    const double dual = d_y + mid / (1.0 - mid) * (d_c - ball.radius);
    if (dual > *range) return dual;
  }

  // Evaluate the dual value at theta = hi (the feasible side, where
  // D(x_theta, c) <= R makes the lambda term non-positive => the returned
  // value can only under-estimate the true minimum, never over-estimate).
  const double theta = hi;
  eval_point(theta);
  const double d_y = div.Divergence(x_theta, y);
  if (theta >= 1.0) return d_y;  // numeric corner: projection hit the center
  const double lambda = theta / (1.0 - theta);
  const double slack = div.Divergence(x_theta, ball.center) - ball.radius;
  return std::max(0.0, d_y + lambda * slack);
}

}  // namespace

double BallDistanceLowerBound(const BregmanDivergence& div,
                              const BregmanBall& ball,
                              std::span<const double> y,
                              std::span<const double> grad_y, int max_iters) {
  BREP_DCHECK(ball.center.size() == div.dim());
  BREP_DCHECK(y.size() == div.dim() && grad_y.size() == div.dim());

  // Query inside the ball: the minimum is 0.
  if (div.Divergence(y, ball.center) <= ball.radius) return 0.0;

  // Degenerate ball: single point.
  if (ball.radius <= 0.0) return div.Divergence(ball.center, y);

  return Bisect(div, ball, y, grad_y, max_iters, nullptr);
}

bool BallMayReachRange(const BregmanDivergence& div, const BregmanBall& ball,
                       std::span<const double> y,
                       std::span<const double> grad_y, double radius,
                       int max_iters) {
  BREP_DCHECK(ball.center.size() == div.dim());
  BREP_DCHECK(y.size() == div.dim() && grad_y.size() == div.dim());

  // Query inside the ball: the bound is 0.
  if (div.Divergence(y, ball.center) <= ball.radius) return radius >= 0.0;

  // The center is a member; for a degenerate ball it is the only one.
  const double d_cy = div.Divergence(ball.center, y);
  if (d_cy <= radius) return true;
  if (ball.radius <= 0.0) return false;

  return Bisect(div, ball, y, grad_y, max_iters, &radius) <= radius;
}

}  // namespace brep
