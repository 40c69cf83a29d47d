#include "bbtree/ball.h"

#include <algorithm>

#include "common/check.h"

namespace brep {
namespace {

// grad f from stored phi' values: w_j phi'(v_j), or phi'(v_j) itself when
// unweighted -- the bits simd::GradientInto computes.
std::span<const double> GradientFrom(std::span<const double> dphi,
                                     std::span<const double> w,
                                     std::vector<double>* buf) {
  if (w.empty()) return dphi;
  for (size_t j = 0; j < dphi.size(); ++j) (*buf)[j] = w[j] * dphi[j];
  return *buf;
}

}  // namespace

BallQuery::BallQuery(const BregmanDivergence& div,
                     const simd::DivergenceScan& scan, int max_iters,
                     uint64_t* steps)
    : gen_(div.generator()),
      info_(div.kernel_info()),
      w_(div.weights_span()),
      max_iters_(max_iters),
      steps_(steps),
      query_{scan.y(), scan.phi_y(), scan.dphi_y()},
      grad_y_buf_(w_.empty() ? 0 : div.dim()),
      phi_c_(div.dim()),
      dphi_c_(div.dim()),
      grad_c_buf_(w_.empty() ? 0 : div.dim()),
      mix_(div.dim()),
      x_(div.dim()),
      phi_x_(div.dim()),
      point_{x_, phi_x_, {}} {
  BREP_DCHECK(scan.dim() == div.dim());
  grad_y_ = GradientFrom(query_.dphi, w_, &grad_y_buf_);
}

void BallQuery::LoadCenter(const BregmanBall& ball) {
  BREP_DCHECK(ball.center.size() == phi_c_.size());
  simd::PhiValuesInto(info_, gen_, ball.center, phi_c_, dphi_c_);
  center_ = {ball.center, phi_c_, dphi_c_};
}

double BallQuery::Divergence(const simd::StoredPhi& a,
                             const simd::StoredPhi& b) const {
  return std::max(simd::StoredPairDivergence(a, b, w_), 0.0);
}

simd::DivergencePair BallQuery::Divergences(const simd::StoredPhi& a1,
                                            const simd::StoredPhi& b1,
                                            const simd::StoredPhi& a2,
                                            const simd::StoredPhi& b2) const {
  const simd::DivergencePair d =
      simd::StoredPairDivergences(a1, b1, a2, b2, w_);
  return {std::max(d.first, 0.0), std::max(d.second, 0.0)};
}

void BallQuery::EvalPoint(double theta) {
  for (size_t j = 0; j < mix_.size(); ++j) {
    mix_[j] = (1.0 - theta) * grad_y_[j] + theta * grad_c_[j];
  }
  simd::GradientInverseInto(info_, gen_, mix_, w_, x_);
  simd::PhiValuesInto(info_, gen_, x_, phi_x_, {});
}

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
double BallQuery::Bisect(double ball_radius, const double* range) {
  grad_c_ = GradientFrom(dphi_c_, w_, &grad_c_buf_);

  double lo = 0.0;    // D(x_lo, c) > R
  double hi = 1.0;    // D(x_hi, c) <= R
  for (int i = 0; i < max_iters_; ++i) {
    ++*steps_;
    const double mid = 0.5 * (lo + hi);
    EvalPoint(mid);
    // The value form needs D(x_theta, y) only after the last step.
    const auto [d_c, d_y] =
        range != nullptr
            ? Divergences(point_, center_, point_, query_)
            : simd::DivergencePair{Divergence(point_, center_), 0.0};
    if (d_c > ball_radius) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (range == nullptr) continue;
    // x_theta is a ball member within range.
    if (d_c <= ball_radius && d_y <= *range) return d_y;
    // Weak duality: x_theta minimizes the Lagrangian at this lambda, so the
    // dual value bounds every member's distance from below.
    const double dual = d_y + mid / (1.0 - mid) * (d_c - ball_radius);
    if (dual > *range) return dual;
  }

  // Evaluate the dual value at theta = hi (the feasible side, where
  // D(x_theta, c) <= R makes the lambda term non-positive => the returned
  // value can only under-estimate the true minimum, never over-estimate).
  const double theta = hi;
  EvalPoint(theta);
  const auto [d_c, d_y] = Divergences(point_, center_, point_, query_);
  if (theta >= 1.0) return d_y;  // numeric corner: projection hit the center
  const double lambda = theta / (1.0 - theta);
  const double slack = d_c - ball_radius;
  return std::max(0.0, d_y + lambda * slack);
}

double BallQuery::LowerBound(const BregmanBall& ball) {
  LoadCenter(ball);
  const auto [d_yc, d_cy] = Divergences(query_, center_, center_, query_);

  // Query inside the ball: the minimum is 0.
  if (d_yc <= ball.radius) return 0.0;

  // Degenerate ball: single point.
  if (ball.radius <= 0.0) return d_cy;

  return Bisect(ball.radius, nullptr);
}

bool BallQuery::MayReachRange(const BregmanBall& ball, double radius) {
  LoadCenter(ball);
  const auto [d_yc, d_cy] = Divergences(query_, center_, center_, query_);

  // Query inside the ball: the bound is 0.
  if (d_yc <= ball.radius) return radius >= 0.0;

  // The center is a member; for a degenerate ball it is the only one.
  if (d_cy <= radius) return true;
  if (ball.radius <= 0.0) return false;

  return Bisect(ball.radius, &radius) <= radius;
}

double BallDistanceLowerBound(const BregmanDivergence& div,
                              const BregmanBall& ball,
                              std::span<const double> y, int max_iters) {
  uint64_t steps = 0;
  return BallQuery(div, simd::DivergenceScan(div, y), max_iters, &steps)
      .LowerBound(ball);
}

bool BallMayReachRange(const BregmanDivergence& div, const BregmanBall& ball,
                       std::span<const double> y, double radius,
                       int max_iters) {
  uint64_t steps = 0;
  return BallQuery(div, simd::DivergenceScan(div, y), max_iters, &steps)
      .MayReachRange(ball, radius);
}

}  // namespace brep
