#include "divergence/kernels.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/check.h"
#include "divergence/bregman.h"
#include "divergence/generators.h"
#include "divergence/kernels_impl.h"

namespace brep {
namespace simd {

using internal::ScanCtx;
using internal::WithGenerator;

GeneratorKind ClassifyGenerator(const ScalarGenerator& g) {
  if (dynamic_cast<const SquaredL2Generator*>(&g)) {
    return GeneratorKind::kSquaredL2;
  }
  if (dynamic_cast<const ItakuraSaitoGenerator*>(&g)) {
    return GeneratorKind::kItakuraSaito;
  }
  if (dynamic_cast<const ExponentialGenerator*>(&g)) {
    return GeneratorKind::kExponential;
  }
  if (dynamic_cast<const KLGenerator*>(&g)) return GeneratorKind::kKL;
  if (dynamic_cast<const LpNormGenerator*>(&g)) return GeneratorKind::kLpNorm;
  return GeneratorKind::kGeneric;
}

KernelInfo MakeKernelInfo(const ScalarGenerator& g) {
  KernelInfo info;
  info.kind = ClassifyGenerator(g);
  if (info.kind == GeneratorKind::kLpNorm) {
    info.lp_p = static_cast<const LpNormGenerator&>(g).p();
  }
  return info;
}

namespace {

bool Avx2Usable() {
  if (!internal::Avx2Compiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelBackend ResolveBackend() {
  if (!Avx2Usable()) return KernelBackend::kScalar;
  if (const char* env = std::getenv("BREP_SIMD")) {
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "off" || v == "0" || v == "scalar" || v == "false" || v == "no") {
      return KernelBackend::kScalar;
    }
  }
  return KernelBackend::kAvx2;
}

// -1 = no override; otherwise the forced KernelBackend value.
std::atomic<int> g_backend_override{-1};

}  // namespace

KernelBackend ActiveBackend() {
  const int forced = g_backend_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelBackend>(forced);
  static const KernelBackend resolved = ResolveBackend();
  return resolved;
}

const char* BackendName(KernelBackend b) {
  return b == KernelBackend::kAvx2 ? "avx2" : "scalar";
}

void ForceBackendForTest(KernelBackend b) {
  if (b == KernelBackend::kAvx2 && !Avx2Usable()) return;
  g_backend_override.store(static_cast<int>(b), std::memory_order_relaxed);
}

void ClearBackendOverrideForTest() {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Single-vector primitives.

double PhiSum(const KernelInfo& info, const ScalarGenerator& g,
              std::span<const double> x, std::span<const double> w) {
  return WithGenerator(info, g, [&](auto gen) {
    double acc = 0.0;
    if (w.empty()) {
      for (size_t j = 0; j < x.size(); ++j) acc += gen.Phi(x[j]);
    } else {
      for (size_t j = 0; j < x.size(); ++j) acc += w[j] * gen.Phi(x[j]);
    }
    return acc;
  });
}

PhiSums PhiSumWithAbs(const KernelInfo& info, const ScalarGenerator& g,
                      std::span<const double> x, std::span<const double> w) {
  return WithGenerator(info, g, [&](auto gen) {
    PhiSums out;
    for (size_t j = 0; j < x.size(); ++j) {
      const double v = w.empty() ? gen.Phi(x[j]) : w[j] * gen.Phi(x[j]);
      out.sum += v;
      out.abs_sum += std::fabs(v);
    }
    return out;
  });
}

double PairDivergence(const KernelInfo& info, const ScalarGenerator& g,
                      std::span<const double> x, std::span<const double> y,
                      std::span<const double> w) {
  return WithGenerator(info, g, [&](auto gen) {
    double acc = 0.0;
    if (w.empty()) {
      for (size_t j = 0; j < x.size(); ++j) {
        acc += gen.Phi(x[j]) - gen.Phi(y[j]) -
               gen.PhiPrime(y[j]) * (x[j] - y[j]);
      }
    } else {
      for (size_t j = 0; j < x.size(); ++j) {
        acc += w[j] * (gen.Phi(x[j]) - gen.Phi(y[j]) -
                       gen.PhiPrime(y[j]) * (x[j] - y[j]));
      }
    }
    return acc;
  });
}

void PhiValuesInto(const KernelInfo& info, const ScalarGenerator& g,
                   std::span<const double> x, std::span<double> phi,
                   std::span<double> dphi) {
  WithGenerator(info, g, [&](auto gen) {
    if (dphi.empty()) {
      for (size_t j = 0; j < x.size(); ++j) phi[j] = gen.Phi(x[j]);
    } else {
      for (size_t j = 0; j < x.size(); ++j) {
        phi[j] = gen.Phi(x[j]);
        dphi[j] = gen.PhiPrime(x[j]);
      }
    }
    return 0;
  });
}

// StoredPairDivergence(s): textually PairDivergence's loops, once per
// pair, with gen.Phi and gen.PhiPrime read from storage; keep all three in
// step.
double StoredPairDivergence(const StoredPhi& a, const StoredPhi& b,
                            std::span<const double> w) {
  BREP_DCHECK(a.x.size() == b.x.size());
  double acc = 0.0;
  if (w.empty()) {
    for (size_t j = 0; j < a.x.size(); ++j) {
      acc += a.phi[j] - b.phi[j] - b.dphi[j] * (a.x[j] - b.x[j]);
    }
  } else {
    for (size_t j = 0; j < a.x.size(); ++j) {
      acc += w[j] * (a.phi[j] - b.phi[j] - b.dphi[j] * (a.x[j] - b.x[j]));
    }
  }
  return acc;
}

DivergencePair StoredPairDivergences(const StoredPhi& a1, const StoredPhi& b1,
                                     const StoredPhi& a2, const StoredPhi& b2,
                                     std::span<const double> w) {
  BREP_DCHECK(a1.x.size() == b1.x.size() && a2.x.size() == a1.x.size() &&
              b2.x.size() == a1.x.size());
  double acc1 = 0.0;
  double acc2 = 0.0;
  if (w.empty()) {
    for (size_t j = 0; j < a1.x.size(); ++j) {
      acc1 += a1.phi[j] - b1.phi[j] - b1.dphi[j] * (a1.x[j] - b1.x[j]);
      acc2 += a2.phi[j] - b2.phi[j] - b2.dphi[j] * (a2.x[j] - b2.x[j]);
    }
  } else {
    for (size_t j = 0; j < a1.x.size(); ++j) {
      acc1 += w[j] * (a1.phi[j] - b1.phi[j] -
                      b1.dphi[j] * (a1.x[j] - b1.x[j]));
      acc2 += w[j] * (a2.phi[j] - b2.phi[j] -
                      b2.dphi[j] * (a2.x[j] - b2.x[j]));
    }
  }
  return {acc1, acc2};
}

void GradientInto(const KernelInfo& info, const ScalarGenerator& g,
                  std::span<const double> x, std::span<const double> w,
                  std::span<double> out) {
  WithGenerator(info, g, [&](auto gen) {
    if (w.empty()) {
      for (size_t j = 0; j < x.size(); ++j) out[j] = gen.PhiPrime(x[j]);
    } else {
      for (size_t j = 0; j < x.size(); ++j) out[j] = w[j] * gen.PhiPrime(x[j]);
    }
    return 0;
  });
}

void GradientInverseInto(const KernelInfo& info, const ScalarGenerator& g,
                         std::span<const double> s, std::span<const double> w,
                         std::span<double> out) {
  WithGenerator(info, g, [&](auto gen) {
    if (w.empty()) {
      for (size_t j = 0; j < s.size(); ++j) out[j] = gen.PhiPrimeInverse(s[j]);
    } else {
      for (size_t j = 0; j < s.size(); ++j) {
        out[j] = gen.PhiPrimeInverse(s[j] / w[j]);
      }
    }
    return 0;
  });
}

// ---------------------------------------------------------------------------
// DivergenceScan.

DivergenceScan::DivergenceScan(const BregmanDivergence& div,
                               std::span<const double> y)
    : gen_(&div.generator()),
      info_(div.kernel_info()),
      y_(y),
      w_(div.weights_span()),
      phi_y_(y.size()),
      dphi_y_(y.size()) {
  BREP_DCHECK(y.size() == div.dim());
  WithGenerator(info_, *gen_, [&](auto gen) {
    for (size_t j = 0; j < y_.size(); ++j) {
      phi_y_[j] = gen.Phi(y_[j]);
      dphi_y_[j] = gen.PhiPrime(y_[j]);
    }
    return 0;
  });
}

namespace {

ScanCtx MakeCtx(const ScalarGenerator* gen, const KernelInfo& info,
                std::span<const double> y, std::span<const double> w,
                const std::vector<double>& phi_y,
                const std::vector<double>& dphi_y) {
  ScanCtx c;
  c.gen = gen;
  c.info = info;
  c.y = y.data();
  c.w = w.empty() ? nullptr : w.data();
  c.phi_y = phi_y.data();
  c.dphi_y = dphi_y.data();
  c.dim = y.size();
  return c;
}

}  // namespace

double DivergenceScan::One(std::span<const double> x) const {
  BREP_DCHECK(x.size() == y_.size());
  return OneStrided(x.data(), 1);
}

double DivergenceScan::OneWithParts(std::span<const double> x,
                                    std::span<const std::vector<size_t>> parts,
                                    std::span<double> phi_x,
                                    std::span<double> parts_out) const {
  BREP_DCHECK(x.size() == y_.size() && phi_x.size() == y_.size());
  BREP_DCHECK(parts_out.size() == parts.size());
  PhiValuesInto(info_, *gen_, x, phi_x, {});
  const StoredPhi xs{x, phi_x, {}};
  const StoredPhi ys{y_, phi_y_, dphi_y_};
  // ScanPointStrided's addend on the stored phi values, coordinate j.
  const auto term = [&](size_t j) {
    return w_.empty() ? xs.phi[j] - ys.phi[j] - ys.dphi[j] * (x[j] - y_[j])
                      : w_[j] * (xs.phi[j] - ys.phi[j] -
                                 ys.dphi[j] * (x[j] - y_[j]));
  };
  for (size_t m = 0; m < parts.size(); ++m) {
    double acc = 0.0;
    for (size_t j : parts[m]) acc += term(j);
    parts_out[m] = std::max(acc, 0.0);
  }
  return std::max(StoredPairDivergence(xs, ys, w_), 0.0);
}

double DivergenceScan::OneStrided(const double* x, size_t stride) const {
  const ScanCtx c = MakeCtx(gen_, info_, y_, w_, phi_y_, dphi_y_);
  return WithGenerator(info_, *gen_, [&](auto gen) {
    return internal::ScanPointStrided(c, gen, x, stride);
  });
}

void DivergenceScan::BatchSoA(const double* xs, size_t count,
                              double* out) const {
  if (count == 0) return;
  const ScanCtx c = MakeCtx(gen_, info_, y_, w_, phi_y_, dphi_y_);
  if (ActiveBackend() == KernelBackend::kAvx2) {
    internal::Avx2BatchSoA(c, xs, count, out);
    return;
  }
  WithGenerator(info_, *gen_, [&](auto gen) {
    internal::ScalarBatchSoA(c, gen, xs, count, out);
    return 0;
  });
}

void DivergenceScan::BatchRows(const double* base, size_t row_stride,
                               const uint32_t* ids, size_t count,
                               double* out) const {
  if (count == 0) return;
  const ScanCtx c = MakeCtx(gen_, info_, y_, w_, phi_y_, dphi_y_);
  if (ActiveBackend() == KernelBackend::kAvx2) {
    internal::Avx2BatchRows(c, base, row_stride, ids, count, out);
    return;
  }
  WithGenerator(info_, *gen_, [&](auto gen) {
    internal::ScalarBatchRows(c, gen, base, row_stride, ids, count, out);
    return 0;
  });
}

// ---------------------------------------------------------------------------
// IdentityScan.

bool IdentityPays(const KernelInfo& info) {
  return info.kind != GeneratorKind::kSquaredL2;  // SqL2Fn::kVecPhi
}

IdentityScan::IdentityScan(const DivergenceScan& exact)
    : exact_(exact), neg_g_(exact.dim()), h_(exact.dim()) {
  // From the same phi(y_j) and phi'(y_j) the exact expression reads (see
  // Bounds).
  const std::span<const double> y = exact.y_;
  const std::span<const double> w = exact.w_;
  double sum_q = 0.0;
  double w_min = 1.0;
  double y_max = 0.0;
  for (size_t j = 0; j < y.size(); ++j) {
    const double wj = w.empty() ? 1.0 : w[j];
    const double wq = w.empty() ? exact.phi_y_[j] : wj * exact.phi_y_[j];
    const double g = w.empty() ? exact.dphi_y_[j] : wj * exact.dphi_y_[j];
    sum_q += wq;
    q_abs_ += std::fabs(wq);
    b_yy_ += y[j] * g;
    g_abs_ += std::fabs(y[j] * g);
    neg_g_[j] = -g;
    h_[j] = std::fabs(g) + 0x1p-24;
    w_min = std::min(w_min, wj);
    y_max = std::max(y_max, std::fabs(y[j]));
  }
  a_y_ = -sum_q;
  // `y_max <= 2^1022` is false for NaN too; 0 disables certification.
  guard_ = y_max <= 0x1p1022 ? 0x1p998 * w_min : 0.0;
}

void IdentityScan::CrossTermsSoA(const double* xs, size_t count, double* bxy,
                                 double* gx) const {
  if (count == 0) return;
  const internal::CrossCtx c{neg_g_.data(), h_.data(), neg_g_.size()};
  if (ActiveBackend() == KernelBackend::kAvx2) {
    internal::Avx2CrossTermsSoA(c, xs, count, bxy, gx);
    return;
  }
  internal::ScalarCrossTermsSoA(c, xs, count, bxy, gx);
}

void IdentityScan::CrossTerms(std::span<const double> x, double* bxy,
                              double* gx) const {
  BREP_DCHECK(x.size() == neg_g_.size());
  const internal::CrossCtx c{neg_g_.data(), h_.data(), neg_g_.size()};
  internal::CrossTermsStrided(c, x.data(), 1, bxy, gx);
}

// Why Bounds is sound. Write u = 2^-53, eta = 2^-1074 (the smallest
// subnormal), gamma_n = n u / (1 - n u), and n = d + parts.
//
// Both forms sum the same computed values p_j = phi(x_j), q_j = phi(y_j)
// and s_j = phi'(y_j): the stored alpha and DivergenceScan::One call the
// same generator functor on the same x_j, and the identity reads the q_j
// and s_j that DivergenceScan cached for its exact expression. libm's own
// error therefore cancels; only the rounding of + - * in the two
// expressions differs. Let T be the exact real value of
// sum_j w_j (p_j - q_j - s_j (x_j - y_j)); over the reals the identity is
// the same sum regrouped, and
// S* = sum_j w_j (|p_j| + |q_j| + |s_j x_j| + |s_j y_j|).
//  * Exact form (DivergenceScan::One): a term ((p - q) - s (x - y)) * w
//    rounds at most 4 times on any path, then d - 1 sequential additions
//    follow:
//    |D_ref - T| <= gamma_{d+3} S*.
//  * Identity: alpha is a product sum over d coordinates plus parts - 1
//    additions across stored tuples; a_y, b_yy and b_xy are product sums
//    (b's with the one rounding of g_j = w_j s_j); 3 additions join them.
//    No path rounds more than n + 3 times: |D_id - T| <= gamma_{n+3} S*.
//  * The magnitude sum s = A_x + Q_y + G_y + G_x rounds only non-negative
//    values, at most n + 4 times on a path, and h_j >= |g_j| only adds:
//    S* <= (1 + gamma_{n+4}) s.
// So |D_id - D_ref| <= 2 gamma_{n+3} (1 + gamma_{n+4}) s < 2.001 (n + 3) u s
// for any n < 2^40. E = c (n + c0) (u s + eta) with c = 4, c0 = 8 is more
// than twice that after its own two roundings; the slack also absorbs phi
// values that differ by a few ulp between the machine that built the
// tuples and the one serving them.
//  * Underflow, which the gamma model excludes: a product that underflows
//    is off by at most eta / 2 (subnormal sums are exact), and the two
//    forms hold 7 products per coordinate, 3.5 d eta < c (n + c0) eta.
//  * Overflow, NaN, inf: certify only when s < guard_ = 2^998 min(1, w_min)
//    (0 when some |y_j| > 2^1022 or is NaN). Unweighted magnitudes are at
//    most s / w_min and G_x >= 2^-24 max_j |x_j|, so every intermediate of
//    both forms, x_j - y_j included, stays below 2^1024. Any NaN or
//    infinite input makes s NaN or infinite, which fails the test.
// Rounding is monotone, so for any double r: fl(D_id - E) > r implies
// D_ref > r, and fl(D_id + E) <= r implies D_ref <= r.
IdentityBounds IdentityScan::Bounds(double alpha, double alpha_abs,
                                    double bxy, double gx,
                                    size_t parts) const {
  constexpr double kC = 4.0;
  constexpr size_t kC0 = 8;
  const double s = ((alpha_abs + q_abs_) + g_abs_) + gx;
  if (!(s < guard_)) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    return {kNaN, kNaN};
  }
  const double d_id = ((alpha + a_y_) + b_yy_) + bxy;
  const double e =
      kC * double(neg_g_.size() + parts + kC0) *
      (0x1p-53 * s + std::numeric_limits<double>::denorm_min());
  return {d_id - e, d_id + e};
}

double IdentityScan::SplitMargin(double alpha_abs, double gamma,
                                 double alpha_abs_max,
                                 double gamma_max) const {
  double h2 = 0.0;
  for (double hj : h_) h2 += hj * hj;
  const double h_norm = std::sqrt(h2);
  const auto magnitude = [&](double a, double g) {
    return ((a + q_abs_) + g_abs_) + std::sqrt(g) * h_norm;
  };
  const double s = magnitude(alpha_abs, gamma) +
                   magnitude(alpha_abs_max, gamma_max);
  if (!(s < guard_)) return std::numeric_limits<double>::infinity();
  return 4.0 * double(neg_g_.size() + 8) *
         (0x1p-53 * s + std::numeric_limits<double>::denorm_min());
}

bool IdentityScan::WithinRadius(double alpha, double alpha_abs, double bxy,
                                double gx, size_t parts, double radius,
                                const double* x, size_t stride,
                                uint64_t* exact_evals) const {
  const IdentityBounds b = Bounds(alpha, alpha_abs, bxy, gx, parts);
  if (b.lo > radius) return false;
  // One() clamps at 0, so D_ref <= radius is enough only when radius >= 0.
  if (b.hi <= radius && radius >= 0.0) return true;
  ++*exact_evals;
  return exact_.OneStrided(x, stride) <= radius;
}

// ---------------------------------------------------------------------------
// Bound kernels.

void UBTotalsBlock(const PointTuple* rows, size_t nrows, size_t m,
                   const QueryTriple* q, double* totals, double* ub,
                   size_t ub_stride, size_t first_row) {
  if (nrows == 0) return;
  if (ActiveBackend() == KernelBackend::kAvx2) {
    internal::Avx2UBTotalsBlock(rows, nrows, m, q, totals, ub, ub_stride,
                                first_row);
    return;
  }
  internal::UBTotalsScalarRef(rows, nrows, m, q, totals, ub, ub_stride,
                              first_row);
}

}  // namespace simd
}  // namespace brep
