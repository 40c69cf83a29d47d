#include "bbtree/ball.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// Property sweep: the ball lower bound must never exceed D(x, y) for any x
/// actually inside the ball (otherwise pruning would lose exact results).
class BallBoundTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 6;
  BregmanDivergence div_ = MakeDivergence(GetParam(), kDim);
  Matrix data_ = testing::MakeDataFor(GetParam(), 400, kDim);

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
  std::vector<double> grad(kDim);
  for (size_t q = 150; q < 200; ++q) {
    const auto y = data_.Row(q);
    div_.Gradient(y, std::span<double>(grad));
    const double lb = BallDistanceLowerBound(div_, ball, y, grad);
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
  std::vector<double> grad(kDim);
  // The center itself is inside its own ball.
  div_.Gradient(ball.center, std::span<double>(grad));
  EXPECT_DOUBLE_EQ(
      BallDistanceLowerBound(div_, ball, ball.center, grad), 0.0);
}

TEST_P(BallBoundTest, SingletonBallGivesExactDistance) {
  BregmanBall ball;
  ball.center.assign(data_.Row(0).begin(), data_.Row(0).end());
  ball.radius = 0.0;
  std::vector<double> grad(kDim);
  const auto y = data_.Row(5);
  div_.Gradient(y, std::span<double>(grad));
  const double lb = BallDistanceLowerBound(div_, ball, y, grad);
  const double exact = div_.Divergence(data_.Row(0), y);
  EXPECT_NEAR(lb, exact, 1e-9 * std::max(1.0, exact));
}

TEST_P(BallBoundTest, BoundIsReasonablyTightForDistantQueries) {
  // For a far-away query, the lower bound should be a sizable fraction of
  // the smallest member distance, not collapse to 0 (tightness sanity).
  const BregmanBall ball = BallOf(0, 50);
  std::vector<double> grad(kDim);
  double best_ratio = 0.0;
  for (size_t q = 300; q < 320; ++q) {
    const auto y = data_.Row(q);
    div_.Gradient(y, std::span<double>(grad));
    const double lb = BallDistanceLowerBound(div_, ball, y, grad);
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
    std::vector<double> grad(kDim);
    for (const auto& y : queries) {
      div_.Gradient(y, std::span<double>(grad));
      const double lb = BallDistanceLowerBound(div_, ball, y, grad);
      double min_d = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < hi; ++i) {
        min_d = std::min(min_d, div_.Divergence(data_.Row(i), y));
      }
      for (double base : {min_d, lb}) {
        for (double mult : {0.0, 0.5, 0.99, 1.01, 2.0}) {
          const double radius = mult * base;
          const bool keep = BallMayReachRange(div_, ball, y, grad, radius);
          // A 2-step cap reaches the final test; it may prune more than
          // the 2-step bound would, but never a ball within range.
          const bool capped_keep =
              BallMayReachRange(div_, ball, y, grad, radius, 2);
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

INSTANTIATE_TEST_SUITE_P(
    Generators, BallBoundTest,
    ::testing::Values("squared_l2", "itakura_saito", "exponential"),
    [](const auto& info) { return info.param; });

TEST(BallBoundSquaredL2Test, MatchesEuclideanGeometry) {
  // For phi = t^2 (D = squared L2), min over the ball {|x-c|^2 <= R} of
  // |x-y|^2 is (|y-c| - sqrt(R))^2: verify the generic machinery against
  // the closed form.
  const BregmanDivergence div = MakeDivergence("squared_l2", 3);
  BregmanBall ball;
  ball.center = {0.0, 0.0, 0.0};
  ball.radius = 4.0;  // Euclidean radius 2
  const std::vector<double> y{5.0, 0.0, 0.0};
  std::vector<double> grad(3);
  div.Gradient(y, std::span<double>(grad));
  const double lb = BallDistanceLowerBound(div, ball, y, grad);
  EXPECT_NEAR(lb, (5.0 - 2.0) * (5.0 - 2.0), 1e-6);
}

}  // namespace
}  // namespace brep
