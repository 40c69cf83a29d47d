#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "core/bound.h"
#include "core/partition.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"

namespace brep {
namespace {

TEST(EnergyProfileTest, ShapeAndDeterminism) {
  EnergyProfileSpec spec;
  spec.n = 200;
  spec.d = 24;
  Rng a(5), b(5);
  const Matrix ma = MakeEnergyProfile(a, spec);
  const Matrix mb = MakeEnergyProfile(b, spec);
  ASSERT_EQ(ma.rows(), 200u);
  ASSERT_EQ(ma.cols(), 24u);
  EXPECT_EQ(ma.data(), mb.data());
}

TEST(EnergyProfileTest, PositiveDomainUnlessLog) {
  EnergyProfileSpec spec;
  spec.n = 300;
  spec.d = 16;
  spec.log_domain = false;
  Rng rng(6);
  const Matrix m = MakeEnergyProfile(rng, spec);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (double v : m.Row(i)) EXPECT_GT(v, 0.0);
  }
}

TEST(EnergyProfileTest, LogDomainCentersAtLevelMean) {
  EnergyProfileSpec spec;
  spec.n = 4000;
  spec.d = 8;
  spec.level_mean = -2.0;
  spec.level_std = 0.3;
  spec.log_domain = true;
  Rng rng(7);
  const Matrix m = MakeEnergyProfile(rng, spec);
  const auto col = m.Column(3);
  EXPECT_NEAR(Mean(col), -2.0, 0.15);
}

TEST(EnergyProfileTest, WithinGroupCorrelationExceedsCrossGroup) {
  EnergyProfileSpec spec;
  spec.n = 4000;
  spec.d = 16;
  spec.num_groups = 4;  // dims 0-3 | 4-7 | 8-11 | 12-15
  spec.level_std = 0.0;  // remove the global level so groups are the signal
  spec.group_noise = 0.2;
  spec.dim_noise = 0.05;
  spec.log_domain = true;
  Rng rng(8);
  const Matrix m = MakeEnergyProfile(rng, spec);
  const auto in_group =
      PearsonCorrelation(m.Column(0), m.Column(1));  // same group
  const auto cross_group =
      PearsonCorrelation(m.Column(0), m.Column(5));  // different groups
  EXPECT_GT(in_group, cross_group + 0.2);
}

TEST(EnergyProfileTest, GlobalLevelCorrelatesEverything) {
  EnergyProfileSpec spec;
  spec.n = 3000;
  spec.d = 12;
  spec.level_std = 0.8;  // dominant shared level
  spec.group_noise = 0.05;
  spec.dim_noise = 0.05;
  spec.log_domain = true;
  Rng rng(9);
  const Matrix m = MakeEnergyProfile(rng, spec);
  EXPECT_GT(PearsonCorrelation(m.Column(0), m.Column(11)), 0.7);
}

TEST(EnergyProfileTest, CauchyBoundIsTightOnThisModel) {
  // The point of the model: with comparable per-point coordinate
  // magnitudes (the Cauchy-Schwarz equality condition), Theorem 1's bound
  // is close to the true distance.
  EnergyProfileSpec spec;
  spec.n = 200;
  spec.d = 32;
  spec.log_domain = false;  // ISD pairing
  Rng rng(10);
  const Matrix data = MakeEnergyProfile(rng, spec);
  const BregmanDivergence div = MakeDivergence("itakura_saito", 32);
  const Partitioning parts = EqualContiguousPartition(32, 8);
  std::vector<BregmanDivergence> subs;
  for (const auto& cols : parts) subs.push_back(div.Restrict(cols));

  double ratio_sum = 0.0;
  size_t pairs = 0;
  std::vector<double> xs, ys;
  for (size_t i = 0; i + 1 < 100; i += 2) {
    double ub = 0.0;
    for (size_t m = 0; m < parts.size(); ++m) {
      xs.clear();
      ys.clear();
      for (size_t c : parts[m]) {
        xs.push_back(data.Row(i)[c]);
        ys.push_back(data.Row(i + 1)[c]);
      }
      ub += UBCompute(TransformPoint(subs[m], xs),
                      TransformQuery(subs[m], ys));
    }
    const double exact = div.Divergence(data.Row(i), data.Row(i + 1));
    if (exact > 1e-6) {
      ratio_sum += ub / exact;
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0u);
  // Mean UB / D well below the orders-of-magnitude slack generic data shows.
  EXPECT_LT(ratio_sum / double(pairs), 5.0);
}

}  // namespace
}  // namespace brep
