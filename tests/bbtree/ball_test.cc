#include "bbtree/ball.h"

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// phi(t) = cosh t: a generator subclass the kernels do not know
/// (GeneratorKind::kGeneric), so every phi runs through the virtual path.
class CoshGenerator final : public ScalarGenerator {
 public:
  double Phi(double t) const override { return std::cosh(t); }
  double PhiPrime(double t) const override { return std::sinh(t); }
  double PhiPrimeInverse(double s) const override { return std::asinh(s); }
  bool InDomain(double) const override { return true; }
  std::string Name() const override { return "cosh"; }
};

/// The divergence a BallBoundTest parameter names: a factory generator,
/// "weighted_itakura_saito", or "cosh".
BregmanDivergence DivergenceFor(const std::string& spec, size_t dim) {
  if (spec == "cosh") {
    return BregmanDivergence(std::make_shared<CoshGenerator>(), dim);
  }
  if (spec == "weighted_itakura_saito") {
    std::vector<double> w(dim);
    for (size_t j = 0; j < dim; ++j) w[j] = 0.05 + 0.3 * double((j * 7) % 11);
    return BregmanDivergence(MakeGenerator("itakura_saito"), std::move(w));
  }
  return MakeDivergence(spec, dim);
}

std::string DataFamily(const std::string& spec) {
  return spec == "weighted_itakura_saito" ? "itakura_saito" : spec;
}

/// Property sweep: the ball lower bound must never exceed D(x, y) for any x
/// actually inside the ball (otherwise pruning would lose exact results).
class BallBoundTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 6;
  BregmanDivergence div_ = DivergenceFor(GetParam(), kDim);
  Matrix data_ = testing::MakeDataFor(DataFamily(GetParam()), 400, kDim);

  BregmanBall BallOf(size_t lo, size_t hi) {
    std::vector<uint32_t> ids;
    for (size_t i = lo; i < hi; ++i) ids.push_back(static_cast<uint32_t>(i));
    BregmanBall ball;
    ball.center = div_.Mean(data_, ids);
    for (uint32_t id : ids) {
      ball.radius = std::max(ball.radius,
                             div_.Divergence(data_.Row(id), ball.center));
    }
    return ball;
  }
};

TEST_P(BallBoundTest, LowerBoundsTrueDistanceForMembers) {
  const BregmanBall ball = BallOf(0, 150);
  for (size_t q = 150; q < 200; ++q) {
    const auto y = data_.Row(q);
    const double lb = BallDistanceLowerBound(div_, ball, y);
    EXPECT_GE(lb, 0.0);
    for (size_t i = 0; i < 150; ++i) {
      const double d = div_.Divergence(data_.Row(i), y);
      EXPECT_LE(lb, d + 1e-7 * std::max(1.0, d))
          << GetParam() << " point " << i << " query " << q;
    }
  }
}

TEST_P(BallBoundTest, ZeroWhenQueryInsideBall) {
  const BregmanBall ball = BallOf(0, 100);
  // The center itself is inside its own ball.
  EXPECT_DOUBLE_EQ(BallDistanceLowerBound(div_, ball, ball.center), 0.0);
}

TEST_P(BallBoundTest, SingletonBallGivesExactDistance) {
  BregmanBall ball;
  ball.center.assign(data_.Row(0).begin(), data_.Row(0).end());
  ball.radius = 0.0;
  const auto y = data_.Row(5);
  const double lb = BallDistanceLowerBound(div_, ball, y);
  const double exact = div_.Divergence(data_.Row(0), y);
  EXPECT_NEAR(lb, exact, 1e-9 * std::max(1.0, exact));
}

TEST_P(BallBoundTest, BoundIsReasonablyTightForDistantQueries) {
  // For a far-away query, the lower bound should be a sizable fraction of
  // the smallest member distance, not collapse to 0 (tightness sanity).
  const BregmanBall ball = BallOf(0, 50);
  double best_ratio = 0.0;
  for (size_t q = 300; q < 320; ++q) {
    const auto y = data_.Row(q);
    const double lb = BallDistanceLowerBound(div_, ball, y);
    double min_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < 50; ++i) {
      min_d = std::min(min_d, div_.Divergence(data_.Row(i), y));
    }
    if (min_d > 1e-9) best_ratio = std::max(best_ratio, lb / min_d);
  }
  // Tightness varies by generator (the exponential distance's dual geometry
  // is the most distorted); only require the bound to carry some signal.
  EXPECT_GT(best_ratio, 0.005);
}

TEST_P(BallBoundTest, RangeDecisionKeepsReachableBallsAndMatchesBound) {
  // Balls over rows [0, hi); hi = 1 is the radius-0 ball of row 0.
  size_t keeps = 0, prunes = 0;
  for (size_t hi : {1, 50, 150}) {
    BregmanBall ball = BallOf(0, hi);
    if (hi == 1) ball.radius = 0.0;
    std::vector<std::vector<double>> queries{ball.center};  // inside
    for (size_t q = 300; q < 340; ++q) {
      queries.emplace_back(data_.Row(q).begin(), data_.Row(q).end());
    }
    for (const auto& y : queries) {
      const double lb = BallDistanceLowerBound(div_, ball, y);
      double min_d = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < hi; ++i) {
        min_d = std::min(min_d, div_.Divergence(data_.Row(i), y));
      }
      for (double base : {min_d, lb}) {
        for (double mult : {0.0, 0.5, 0.99, 1.01, 2.0}) {
          const double radius = mult * base;
          const bool keep = BallMayReachRange(div_, ball, y, radius);
          // A 2-step cap reaches the final test; it may prune more than
          // the 2-step bound would, but never a ball within range.
          const bool capped_keep =
              BallMayReachRange(div_, ball, y, radius, 2);
          if (min_d <= radius) {
            EXPECT_TRUE(keep) << "a member is within radius " << radius;
            EXPECT_TRUE(capped_keep) << "capped, radius " << radius;
          }
          EXPECT_EQ(keep, !(lb > radius))
              << "ball " << hi << " radius " << radius << " bound " << lb;
          ++(keep ? keeps : prunes);
        }
      }
    }
  }
  EXPECT_GT(keeps, 0u);
  EXPECT_GT(prunes, 0u);
}

/// Reference ball tests evaluated directly: every divergence through
/// BregmanDivergence::Divergence, phi recomputed per use. BallQuery must
/// reproduce its bounds, decisions and bisection step counts bit for bit.
struct DirectBallTests {
  DirectBallTests(const BregmanDivergence& d, std::span<const double> q,
                  int iters)
      : div(d), y(q), grad_y(d.dim()), max_iters(iters) {
    div.Gradient(y, std::span<double>(grad_y));
  }

  double Bisect(const BregmanBall& ball, const double* range) {
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
    double lo = 0.0;
    double hi = 1.0;
    for (int i = 0; i < max_iters; ++i) {
      ++steps;
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
      if (d_c <= ball.radius && d_y <= *range) return d_y;
      const double dual = d_y + mid / (1.0 - mid) * (d_c - ball.radius);
      if (dual > *range) return dual;
    }
    const double theta = hi;
    eval_point(theta);
    const double d_y = div.Divergence(x_theta, y);
    if (theta >= 1.0) return d_y;
    const double lambda = theta / (1.0 - theta);
    const double slack = div.Divergence(x_theta, ball.center) - ball.radius;
    return std::max(0.0, d_y + lambda * slack);
  }

  double LowerBound(const BregmanBall& ball) {
    if (div.Divergence(y, ball.center) <= ball.radius) return 0.0;
    if (ball.radius <= 0.0) return div.Divergence(ball.center, y);
    return Bisect(ball, nullptr);
  }

  bool MayReachRange(const BregmanBall& ball, double radius) {
    if (div.Divergence(y, ball.center) <= ball.radius) return radius >= 0.0;
    if (div.Divergence(ball.center, y) <= radius) return true;
    if (ball.radius <= 0.0) return false;
    return Bisect(ball, &radius) <= radius;
  }

  const BregmanDivergence& div;
  std::span<const double> y;
  std::vector<double> grad_y;
  int max_iters;
  uint64_t steps = 0;
};

TEST_P(BallBoundTest, BallQueryMatchesDirectEvaluationBitForBit) {
  // Balls over rows [0, hi); hi = 1 is the radius-0 ball of row 0. One
  // BallQuery per query serves every ball in turn, as in a tree descent.
  std::vector<BregmanBall> balls;
  for (size_t hi : {1, 50, 150}) balls.push_back(BallOf(0, hi));
  balls[0].radius = 0.0;
  std::vector<std::vector<double>> queries{balls[2].center};  // inside
  for (size_t q = 150; q < 400; q += 5) {
    queries.emplace_back(data_.Row(q).begin(), data_.Row(q).end());
  }
  uint64_t bisected = 0;
  for (int max_iters : {2, 40}) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::vector<double>& y = queries[qi];
      const simd::DivergenceScan scan(div_, y);
      uint64_t steps = 0;
      BallQuery query(div_, scan, max_iters, &steps);
      DirectBallTests direct(div_, y, max_iters);
      for (size_t b = 0; b < balls.size(); ++b) {
        SCOPED_TRACE("max_iters " + std::to_string(max_iters) + " query " +
                     std::to_string(qi) + " ball " + std::to_string(b));
        const BregmanBall& ball = balls[b];
        const double want = direct.LowerBound(ball);
        EXPECT_EQ(std::bit_cast<uint64_t>(query.LowerBound(ball)),
                  std::bit_cast<uint64_t>(want));
        EXPECT_EQ(steps, direct.steps);
        const double d_cy = div_.Divergence(ball.center, y);
        for (double radius :
             {0.0, 0.5 * want, want, 1.01 * want, 0.99 * d_cy, d_cy}) {
          EXPECT_EQ(query.MayReachRange(ball, radius),
                    direct.MayReachRange(ball, radius))
              << "radius " << radius;
          EXPECT_EQ(steps, direct.steps) << "radius " << radius;
        }
      }
      bisected += steps;
    }
  }
  EXPECT_GT(bisected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Generators, BallBoundTest,
    ::testing::Values("squared_l2", "itakura_saito", "exponential", "kl",
                      "lp:3", "weighted_itakura_saito", "cosh"),
    [](const auto& info) { return testing::GeneratorTestName(info.param); });

TEST(BallBoundSquaredL2Test, MatchesEuclideanGeometry) {
  // For phi = t^2 (D = squared L2), min over the ball {|x-c|^2 <= R} of
  // |x-y|^2 is (|y-c| - sqrt(R))^2: verify the generic machinery against
  // the closed form.
  const BregmanDivergence div = MakeDivergence("squared_l2", 3);
  BregmanBall ball;
  ball.center = {0.0, 0.0, 0.0};
  ball.radius = 4.0;  // Euclidean radius 2
  const std::vector<double> y{5.0, 0.0, 0.0};
  const double lb = BallDistanceLowerBound(div, ball, y);
  EXPECT_NEAR(lb, (5.0 - 2.0) * (5.0 - 2.0), 1e-6);
}

}  // namespace
}  // namespace brep
