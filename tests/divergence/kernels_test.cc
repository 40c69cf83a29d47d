#include "divergence/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "common/build_counters.h"
#include "common/rng.h"
#include "core/bound.h"
#include "core/partition.h"
#include "divergence/factory.h"
#include "divergence/generators.h"
#include "test_util.h"

namespace brep {
namespace {

/// ULP distance between two doubles of the same sign class; the huge
/// sentinel flags sign/NaN disagreements so they always fail the bound.
uint64_t UlpDiff(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return a != a && b != b ? 0 : ~uint64_t{0};
  }
  if (std::signbit(a) != std::signbit(b)) {
    return a == b ? 0 : ~uint64_t{0};  // +0 vs -0 counts as equal
  }
  const auto ia = std::bit_cast<uint64_t>(std::fabs(a));
  const auto ib = std::bit_cast<uint64_t>(std::fabs(b));
  return ia > ib ? ia - ib : ib - ia;
}

/// Backends compiled in AND usable on this machine: kScalar always;
/// kAvx2 iff forcing it actually takes effect.
std::vector<simd::KernelBackend> UsableBackends() {
  std::vector<simd::KernelBackend> out{simd::KernelBackend::kScalar};
  simd::ForceBackendForTest(simd::KernelBackend::kAvx2);
  if (simd::ActiveBackend() == simd::KernelBackend::kAvx2) {
    out.push_back(simd::KernelBackend::kAvx2);
  }
  simd::ClearBackendOverrideForTest();
  return out;
}

/// The legacy scalar reference: per-element virtual Phi/PhiPrime calls in
/// the exact expression order BregmanDivergence::Divergence used before
/// the kernel layer. Every backend must reproduce it within the ULP
/// budget below (0 today: lane-per-point batching with per-lane libm).
double ReferenceDivergence(const BregmanDivergence& div,
                           std::span<const double> x,
                           std::span<const double> y) {
  const ScalarGenerator& g = div.generator();
  const auto w = div.weights_span();
  double acc = 0.0;
  for (size_t j = 0; j < div.dim(); ++j) {
    const double term =
        g.Phi(x[j]) - g.Phi(y[j]) - g.PhiPrime(y[j]) * (x[j] - y[j]);
    acc += w.empty() ? term : w[j] * term;
  }
  return std::max(acc, 0.0);
}

/// Generator zoo x adversarial inputs. Points are generated in-domain for
/// the named generator but stressed: denormals, large magnitudes (still
/// finite under phi), negative zero, and exactly-representable ties.
class KernelEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 9;     // odd: exercises non-multiple widths
  static constexpr size_t kCount = 37;  // odd: exercises the lane tail

  void TearDown() override { simd::ClearBackendOverrideForTest(); }

  bool PositiveDomain() const {
    const std::string& g = GetParam();
    return g == "itakura_saito" || g == "kl";
  }

  double AdversarialValue(Rng& rng, size_t slot) const {
    const bool positive = PositiveDomain();
    switch (slot % 7) {
      case 0:  // denormal
        return 4.9406564584124654e-324 * double(1 + slot % 3);
      case 1:  // tiny normal
        return 1e-308;
      case 2:  // large but phi-finite for every zoo member
        return GetParam() == "exponential" ? 700.0
               : GetParam() == "squared_l2" ? 1e150
                                            : 1e10;
      case 3:
        return positive ? 1e-12 : -0.0;
      case 4:
        return positive ? 2.0 : -2.0;
      default:
        return positive ? 0.25 + rng.NextDouble() : rng.NextDouble() * 2.0 - 1.0;
    }
  }

  /// Column-major (SoA) batch plus the same points row-major.
  void MakeBatch(std::vector<double>* soa, std::vector<double>* rows,
                 std::vector<double>* y) {
    Rng rng(99);
    soa->assign(kCount * kDim, 0.0);
    rows->assign(kCount * kDim, 0.0);
    for (size_t i = 0; i < kCount; ++i) {
      for (size_t j = 0; j < kDim; ++j) {
        const double v = AdversarialValue(rng, i * kDim + j);
        (*soa)[j * kCount + i] = v;
        (*rows)[i * kDim + j] = v;
      }
    }
    y->clear();
    for (size_t j = 0; j < kDim; ++j) {
      y->push_back(PositiveDomain() ? 0.5 + rng.NextDouble()
                                    : rng.NextDouble() * 2.0 - 1.0);
    }
  }
};

TEST_P(KernelEquivalenceTest, BatchKernelsMatchScalarReferenceBitwise) {
  std::vector<BregmanDivergence> divs;
  divs.push_back(MakeDivergence(GetParam(), kDim));
  {
    // Weighted variant: same generator, non-trivial positive weights.
    std::vector<double> w(kDim);
    for (size_t j = 0; j < kDim; ++j) w[j] = 0.25 + 0.5 * double(j % 4);
    divs.emplace_back(MakeGenerator(GetParam()), std::move(w));
  }

  std::vector<double> soa, rows, y;
  MakeBatch(&soa, &rows, &y);
  std::vector<uint32_t> ids(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    ids[i] = static_cast<uint32_t>((i * 7) % kCount);  // shuffled gather
  }

  for (const BregmanDivergence& div : divs) {
    std::vector<double> want(kCount);
    for (size_t i = 0; i < kCount; ++i) {
      want[i] = ReferenceDivergence(
          div, std::span<const double>(rows).subspan(i * kDim, kDim), y);
    }
    for (simd::KernelBackend backend : UsableBackends()) {
      simd::ForceBackendForTest(backend);
      const simd::DivergenceScan scan(div, y);
      std::vector<double> got(kCount, -1.0);
      scan.BatchSoA(soa.data(), kCount, got.data());
      for (size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(UlpDiff(got[i], want[i]), 0u)
            << GetParam() << " BatchSoA point " << i << " backend "
            << simd::BackendName(backend) << ": got " << got[i] << " want "
            << want[i];
      }
      std::fill(got.begin(), got.end(), -1.0);
      scan.BatchRows(rows.data(), kDim, ids.data(), kCount, got.data());
      for (size_t i = 0; i < kCount; ++i) {
        const double w =
            ReferenceDivergence(div,
                                std::span<const double>(rows).subspan(
                                    size_t{ids[i]} * kDim, kDim),
                                y);
        EXPECT_EQ(UlpDiff(got[i], w), 0u)
            << GetParam() << " BatchRows point " << i << " backend "
            << simd::BackendName(backend);
      }
      for (size_t i = 0; i < kCount; ++i) {
        const auto x = std::span<const double>(rows).subspan(i * kDim, kDim);
        EXPECT_EQ(UlpDiff(scan.One(x), want[i]), 0u)
            << GetParam() << " One point " << i;
        EXPECT_EQ(UlpDiff(div.Divergence(x, y), want[i]), 0u)
            << GetParam() << " Divergence point " << i;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, SingleVectorPrimitivesMatchVirtualLoops) {
  const BregmanDivergence div = MakeDivergence(GetParam(), kDim);
  const ScalarGenerator& g = div.generator();
  std::vector<double> soa, rows, y;
  MakeBatch(&soa, &rows, &y);

  for (size_t i = 0; i < kCount; ++i) {
    const auto x = std::span<const double>(rows).subspan(i * kDim, kDim);
    double f = 0.0;
    for (size_t j = 0; j < kDim; ++j) f += g.Phi(x[j]);
    EXPECT_EQ(UlpDiff(div.F(x), f), 0u) << GetParam() << " F point " << i;

    std::vector<double> grad(kDim), grad_ref(kDim);
    div.Gradient(x, std::span<double>(grad));
    for (size_t j = 0; j < kDim; ++j) grad_ref[j] = g.PhiPrime(x[j]);
    for (size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(UlpDiff(grad[j], grad_ref[j]), 0u)
          << GetParam() << " Gradient[" << j << "]";
    }
    // GradientInverse round-trips through the same virtual inverse.
    std::vector<double> inv(kDim);
    div.GradientInverse(grad, std::span<double>(inv));
    for (size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(UlpDiff(inv[j], g.PhiPrimeInverse(grad_ref[j])), 0u)
          << GetParam() << " GradientInverse[" << j << "]";
    }
  }
}

TEST_P(KernelEquivalenceTest, StoredPairDivergencesMatchPairDivergence) {
  // The ball tests' kernels: phi values stored once, then PairDivergence's
  // expression over them. Any reordering shows on these inputs.
  std::vector<double> w(kDim);
  for (size_t j = 0; j < kDim; ++j) w[j] = 0.25 + 0.5 * double(j % 4);
  const BregmanDivergence divs[] = {
      MakeDivergence(GetParam(), kDim),
      BregmanDivergence(MakeGenerator(GetParam()), std::move(w))};
  std::vector<double> soa, rows, y;
  MakeBatch(&soa, &rows, &y);

  for (const BregmanDivergence& div : divs) {
    const simd::KernelInfo& info = div.kernel_info();
    const ScalarGenerator& g = div.generator();
    const auto wts = div.weights_span();
    const simd::DivergenceScan scan(div, y);
    const simd::StoredPhi ys{y, scan.phi_y(), scan.dphi_y()};
    std::vector<double> phi(kDim), dphi(kDim);
    for (size_t i = 0; i < kCount; ++i) {
      const auto x = std::span<const double>(rows).subspan(i * kDim, kDim);
      simd::PhiValuesInto(info, g, x, phi, dphi);
      for (size_t j = 0; j < kDim; ++j) {
        EXPECT_EQ(UlpDiff(phi[j], g.Phi(x[j])), 0u) << GetParam();
        EXPECT_EQ(UlpDiff(dphi[j], g.PhiPrime(x[j])), 0u) << GetParam();
      }
      const simd::StoredPhi xs{x, phi, dphi};
      const double xy = simd::PairDivergence(info, g, x, y, wts);
      const double yx = simd::PairDivergence(info, g, y, x, wts);
      EXPECT_EQ(UlpDiff(simd::StoredPairDivergence(xs, ys, wts), xy), 0u)
          << GetParam() << " point " << i;
      const simd::DivergencePair both =
          simd::StoredPairDivergences(xs, ys, ys, xs, wts);
      EXPECT_EQ(UlpDiff(both.first, xy), 0u) << GetParam() << " point " << i;
      EXPECT_EQ(UlpDiff(both.second, yx), 0u) << GetParam() << " point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, KernelEquivalenceTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential", "kl", "lp:2",
                                           "lp:3", "lp:2.5"));

TEST(KernelDispatchTest, EnvironmentAndOverrideControlTheBackend) {
  // The override hook must take effect (the dispatch gauge and the
  // BREP_SIMD escape hatch route through the same resolver).
  simd::ForceBackendForTest(simd::KernelBackend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), simd::KernelBackend::kScalar);
  EXPECT_STREQ(simd::BackendName(simd::ActiveBackend()), "scalar");
  simd::ClearBackendOverrideForTest();
  EXPECT_STREQ(simd::BackendName(simd::KernelBackend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ClassifierCoversTheZooAndFallsBackOnUnknown) {
  using simd::GeneratorKind;
  EXPECT_EQ(simd::ClassifyGenerator(*MakeGenerator("squared_l2")),
            GeneratorKind::kSquaredL2);
  EXPECT_EQ(simd::ClassifyGenerator(*MakeGenerator("itakura_saito")),
            GeneratorKind::kItakuraSaito);
  EXPECT_EQ(simd::ClassifyGenerator(*MakeGenerator("exponential")),
            GeneratorKind::kExponential);
  EXPECT_EQ(simd::ClassifyGenerator(*MakeGenerator("kl")),
            GeneratorKind::kKL);
  const auto lp = MakeGenerator("lp:2.5");
  EXPECT_EQ(simd::ClassifyGenerator(*lp), GeneratorKind::kLpNorm);
  EXPECT_EQ(simd::MakeKernelInfo(*lp).lp_p, 2.5);
}

// ---------------------------------------------------------------------------
// Bound kernel: UBTotalsBlock across backends, against the naive loop.

class UBKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ClearBackendOverrideForTest(); }
};

TEST_F(UBKernelTest, TotalsAndRadiiMatchNaiveLoopBitwise) {
  constexpr size_t kN = 29, kM = 5;
  Rng rng(123);
  std::vector<PointTuple> rows(kN * kM);
  for (auto& p : rows) {
    p.alpha = rng.NextDouble() * 10.0 - 5.0;
    p.gamma = rng.NextDouble() * 4.0;  // g_x >= 0 by construction in the paper
  }
  std::vector<QueryTriple> q(kM);
  for (auto& t : q) {
    t.alpha = rng.NextDouble() * 2.0 - 1.0;
    t.beta_yy = rng.NextDouble() * 2.0 - 1.0;
    t.delta = rng.NextDouble() * 3.0;
  }

  std::vector<double> want_totals(kN, 0.0), want_ub(kM * kN, 0.0);
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = 0; j < kM; ++j) {
      const double b = UBCompute(rows[i * kM + j], q[j]);
      want_ub[j * kN + i] = b;
      want_totals[i] += b;
    }
  }

  for (simd::KernelBackend backend : UsableBackends()) {
    simd::ForceBackendForTest(backend);
    std::vector<double> totals(kN, -1.0), ub(kM * kN, -1.0);
    simd::UBTotalsBlock(rows.data(), kN, kM, q.data(), totals.data(),
                        ub.data(), kN, 0);
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(UlpDiff(totals[i], want_totals[i]), 0u)
          << "totals[" << i << "] backend " << simd::BackendName(backend);
    }
    for (size_t v = 0; v < ub.size(); ++v) {
      EXPECT_EQ(UlpDiff(ub[v], want_ub[v]), 0u)
          << "ub[" << v << "] backend " << simd::BackendName(backend);
    }
    // The no-ub variant (pure totals) and split blocks agree too.
    std::vector<double> totals2(kN, -1.0);
    simd::UBTotalsBlock(rows.data(), kN, kM, q.data(), totals2.data(),
                        nullptr, 0, 0);
    EXPECT_EQ(totals, totals2);
  }
}

TEST_F(UBKernelTest, QBDetermineIsBackendInvariantAndReusesScratch) {
  const std::string gen = "itakura_saito";
  constexpr size_t kDim = 8, kN = 120, kM = 4;
  const Matrix data = testing::MakeDataFor(gen, kN, kDim);
  const BregmanDivergence div = MakeDivergence(gen, kDim);
  const Partitioning parts = EqualContiguousPartition(kDim, kM);
  std::vector<BregmanDivergence> sub_divs;
  for (const auto& cols : parts) sub_divs.push_back(div.Restrict(cols));
  const TransformedDataset st(data, parts, sub_divs);

  const Matrix queries = testing::MakeQueriesFor(gen, data, 6);
  auto triples = [&](size_t qi) {
    std::vector<QueryTriple> q;
    for (size_t m = 0; m < kM; ++m) {
      std::vector<double> sub;
      for (size_t c : parts[m]) sub.push_back(queries.Row(qi)[c]);
      q.push_back(TransformQuery(sub_divs[m], sub));
    }
    return q;
  };

  // Backend invariance: the searching bounds are byte-identical.
  std::vector<QueryBounds> per_backend;
  for (simd::KernelBackend backend : UsableBackends()) {
    simd::ForceBackendForTest(backend);
    per_backend.push_back(QBDetermine(st, triples(0), 10));
  }
  for (size_t b = 1; b < per_backend.size(); ++b) {
    EXPECT_EQ(per_backend[b].total, per_backend[0].total);
    EXPECT_EQ(per_backend[b].anchor_id, per_backend[0].anchor_id);
    EXPECT_EQ(per_backend[b].radii, per_backend[0].radii);
  }

  // Allocation regression: after one warmup call, repeated QBDetermine
  // calls through the same scratch must not grow any buffer.
  QBScratch scratch;
  (void)QBDetermine(st, triples(0), 10, &scratch);
  const uint64_t after_warmup =
      internal::GetBuildCounters().qb_scratch_allocs.load();
  for (size_t qi = 0; qi < queries.rows(); ++qi) {
    for (size_t k : {1, 5, 10, 25}) {
      (void)QBDetermine(st, triples(qi), k, &scratch);
    }
  }
  EXPECT_EQ(internal::GetBuildCounters().qb_scratch_allocs.load(),
            after_warmup)
      << "steady-state QBDetermine grew its scratch buffers";
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity gate: squared_l2 kNN/range answers through the
// full index must be bit-equal to the virtual-call oracle at every thread
// count, with SIMD forced on and off.

TEST(KernelEndToEndTest, SquaredL2OracleFuzzIsByteIdenticalAcrossBackends) {
  constexpr size_t kDim = 16, kN = 400, kQ = 20, kK = 10;
  const Matrix data = testing::MakeDataFor("squared_l2", kN, kDim);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, kQ);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);

  // Virtual-call oracle, ordered exactly like the engine (distance, id).
  auto oracle_knn = [&](std::span<const double> y) {
    std::vector<Neighbor> all;
    for (size_t i = 0; i < kN; ++i) {
      all.push_back({ReferenceDivergence(div, data.Row(i), y),
                     static_cast<uint32_t>(i)});
    }
    std::sort(all.begin(), all.end());  // Neighbor orders by (distance, id)
    all.resize(kK);
    return all;
  };

  auto built = IndexBuilder("squared_l2").Partitions(4).Build(data);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const Index index = *std::move(built);

  for (simd::KernelBackend backend : UsableBackends()) {
    simd::ForceBackendForTest(backend);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      auto parallel = index.Parallel(threads);
      ASSERT_TRUE(parallel.ok()) << parallel.status().message();
      for (size_t qi = 0; qi < kQ; ++qi) {
        const auto y = queries.Row(qi);
        const auto want = oracle_knn(y);
        const auto got = parallel->Knn(y, kK);
        ASSERT_TRUE(got.ok()) << got.status().message();
        ASSERT_EQ(got->size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ((*got)[i].id, want[i].id)
              << "backend " << simd::BackendName(backend) << " threads "
              << threads << " query " << qi << " rank " << i;
          EXPECT_EQ(std::bit_cast<uint64_t>((*got)[i].distance),
                    std::bit_cast<uint64_t>(want[i].distance))
              << "backend " << simd::BackendName(backend) << " threads "
              << threads << " query " << qi << " rank " << i;
        }
        // Range at the k-th oracle distance: identical id set.
        const double radius = want.back().distance;
        std::vector<uint32_t> want_ids;
        for (size_t i = 0; i < kN; ++i) {
          if (ReferenceDivergence(div, data.Row(i), y) <= radius) {
            want_ids.push_back(static_cast<uint32_t>(i));
          }
        }
        auto range = parallel->Range(y, radius);
        ASSERT_TRUE(range.ok()) << range.status().message();
        std::sort(range->begin(), range->end());
        EXPECT_EQ(*range, want_ids)
            << "backend " << simd::BackendName(backend) << " threads "
            << threads << " query " << qi;
      }
    }
  }
  simd::ClearBackendOverrideForTest();
}


// ---------------------------------------------------------------------------
// Certified identity evaluation: IdentityScan::Bounds must enclose the
// exact expression, and the cross-term kernel must agree across backends.

/// phi(t) = cosh t: a generator subclass the kernels do not know
/// (GeneratorKind::kGeneric), so phi runs through the virtual path.
class CoshGenerator final : public ScalarGenerator {
 public:
  double Phi(double t) const override { return std::cosh(t); }
  double PhiPrime(double t) const override { return std::sinh(t); }
  double PhiPrimeInverse(double s) const override { return std::asinh(s); }
  bool InDomain(double) const override { return true; }
  std::string Name() const override { return "cosh"; }
};

struct BoundCase {
  std::string label;
  BregmanDivergence div;
  bool positive;  // domain t > 0
};

std::vector<BoundCase> BoundCases(size_t d) {
  std::vector<BoundCase> out;
  for (const char* name :
       {"squared_l2", "itakura_saito", "exponential", "kl", "lp:3"}) {
    const std::string n(name);
    out.push_back({n, MakeDivergence(n, d), n == "itakura_saito" || n == "kl"});
  }
  std::vector<double> w(d);
  for (size_t j = 0; j < d; ++j) w[j] = 0.05 + 0.3 * double((j * 7) % 11);
  out.push_back({"weighted_itakura_saito",
                 BregmanDivergence(MakeGenerator("itakura_saito"), w), true});
  out.push_back({"weighted_exponential",
                 BregmanDivergence(MakeGenerator("exponential"), w), false});
  out.push_back({"cosh", BregmanDivergence(std::make_shared<CoshGenerator>(), d),
                 false});
  return out;
}

/// One block of points against one query, per input family.
enum class Family { kRandom, kEqual, kNearlyEqual, kWideMagnitude, kNearOverflow };

void MakeBoundBlock(Family family, bool positive, size_t d, size_t count,
                    Rng& rng, std::vector<double>* y,
                    std::vector<std::vector<double>>* xs) {
  auto draw = [&]() -> double {
    switch (family) {
      case Family::kWideMagnitude: {
        // Log-uniform over [1e-8, 1e8].
        const double mag = std::pow(10.0, -8.0 + 16.0 * rng.NextDouble());
        return positive || rng.NextDouble() < 0.5 ? mag : -mag;
      }
      case Family::kNearOverflow:  // exp overflows past ~709.78
        return 700.0 + 12.0 * rng.NextDouble();
      default:
        return positive ? 0.25 + 2.0 * rng.NextDouble()
                        : 4.0 * rng.NextDouble() - 2.0;
    }
  };
  y->resize(d);
  for (double& v : *y) v = draw();
  xs->assign(count, std::vector<double>(d));
  for (auto& x : *xs) {
    for (size_t j = 0; j < d; ++j) {
      switch (family) {
        case Family::kEqual:
          x[j] = (*y)[j];
          break;
        case Family::kNearlyEqual:
          x[j] = (*y)[j] * (rng.NextDouble() < 0.5 ? 1.0 + 0x1p-40
                                                    : 1.0 - 0x1p-40);
          break;
        default:
          x[j] = draw();
      }
    }
  }
}

TEST(IdentityBoundTest, CertifiedIntervalEnclosesTheExactExpression) {
  const auto backends = UsableBackends();
  double worst_ratio = 0.0;
  size_t certified = 0;
  size_t fell_through = 0;
  Rng rng(2024);
  for (size_t d : {size_t{1}, size_t{3}, size_t{16}, size_t{50}}) {
    // The refine sums M stored tuples; mirror it with 3 contiguous parts.
    std::vector<std::vector<size_t>> parts(std::min<size_t>(3, d));
    for (size_t j = 0; j < d; ++j) parts[j * parts.size() / d].push_back(j);
    for (const BoundCase& c : BoundCases(d)) {
      for (Family family : {Family::kRandom, Family::kEqual,
                            Family::kNearlyEqual, Family::kWideMagnitude,
                            Family::kNearOverflow}) {
        SCOPED_TRACE(c.label + " d=" + std::to_string(d) + " family " +
                     std::to_string(static_cast<int>(family)));
        constexpr size_t kCount = 23;  // odd: exercises the lane tails
        std::vector<double> y;
        std::vector<std::vector<double>> xs;
        MakeBoundBlock(family, c.positive, d, kCount, rng, &y, &xs);
        std::vector<double> soa(kCount * d);
        for (size_t i = 0; i < kCount; ++i) {
          for (size_t j = 0; j < d; ++j) soa[j * kCount + i] = xs[i][j];
        }

        // Cross terms: bit-identical across backends and to the one-row
        // loop.
        std::vector<double> bxy_ref, gx_ref;
        for (simd::KernelBackend backend : backends) {
          simd::ForceBackendForTest(backend);
          const simd::DivergenceScan scan(c.div, y);
          const simd::IdentityScan identity(scan);
          std::vector<double> bxy(kCount), gx(kCount);
          identity.CrossTermsSoA(soa.data(), kCount, bxy.data(), gx.data());
          if (bxy_ref.empty()) {
            bxy_ref = bxy;
            gx_ref = gx;
          }
          for (size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(bxy[i]),
                      std::bit_cast<uint64_t>(bxy_ref[i]))
                << simd::BackendName(backend) << " point " << i;
            EXPECT_EQ(std::bit_cast<uint64_t>(gx[i]),
                      std::bit_cast<uint64_t>(gx_ref[i]))
                << simd::BackendName(backend) << " point " << i;
            double b1 = 0.0, g1 = 0.0;
            identity.CrossTerms(xs[i], &b1, &g1);
            EXPECT_EQ(std::bit_cast<uint64_t>(b1),
                      std::bit_cast<uint64_t>(bxy[i]));
            EXPECT_EQ(std::bit_cast<uint64_t>(g1),
                      std::bit_cast<uint64_t>(gx[i]));
          }
        }
        simd::ClearBackendOverrideForTest();

        const simd::DivergenceScan scan(c.div, y);
        const simd::IdentityScan identity(scan);
        for (size_t i = 0; i < kCount; ++i) {
          const std::vector<double>& x = xs[i];
          const double d_ref = simd::PairDivergence(
              c.div.kernel_info(), c.div.generator(), x, y,
              c.div.weights_span());
          const PointTuple whole = TransformPoint(c.div, x);
          PointTuple split;
          for (const auto& cols : parts) {
            std::vector<double> sub;
            for (size_t j : cols) sub.push_back(x[j]);
            const PointTuple t = TransformPoint(c.div.Restrict(cols), sub);
            split.alpha += t.alpha;
            split.alpha_abs += t.alpha_abs;
          }
          for (const auto& [tuple, nparts] :
               {std::pair{whole, size_t{1}}, std::pair{split, parts.size()}}) {
            const simd::IdentityBounds b = identity.Bounds(
                tuple.alpha, tuple.alpha_abs, bxy_ref[i], gx_ref[i], nparts);
            if (std::isnan(b.lo)) {
              EXPECT_TRUE(std::isnan(b.hi));
              ++fell_through;
              continue;
            }
            ++certified;
            ASSERT_TRUE(std::isfinite(d_ref)) << "point " << i;
            EXPECT_LE(b.lo, d_ref) << "point " << i << " parts " << nparts;
            EXPECT_GE(b.hi, d_ref) << "point " << i << " parts " << nparts;
            const double e = 0.5 * (b.hi - b.lo);
            if (e > 0.0) {
              worst_ratio =
                  std::max(worst_ratio, std::fabs(b.lo + e - d_ref) / e);
            }
          }
          // The three-way decision matches the exact comparison on the
          // boundary itself and one ulp below it.
          const double exact = scan.One(x);
          for (double r : {exact, std::nextafter(exact, -HUGE_VAL)}) {
            uint64_t exact_evals = 0;
            EXPECT_EQ(identity.WithinRadius(whole.alpha, whole.alpha_abs,
                                            bxy_ref[i], gx_ref[i], 1, r,
                                            x.data(), 1, &exact_evals),
                      exact <= r)
                << "point " << i << " radius " << r;
          }
        }
      }
    }
  }
  std::printf("[ identity bound ] largest |D_id - D_ref| / E = %.4g over %zu "
              "certified evaluations; %zu fell through to the exact path\n",
              worst_ratio, certified, fell_through);
  EXPECT_GT(certified, 0u);
  EXPECT_GT(fell_through, 0u);  // the overflow inputs must fall through
  EXPECT_LE(worst_ratio, 1.0);
}

}  // namespace
}  // namespace brep
