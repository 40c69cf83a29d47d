#ifndef BREP_DIVERGENCE_KERNELS_IMPL_H_
#define BREP_DIVERGENCE_KERNELS_IMPL_H_

// Internal header shared by kernels.cc and kernels_avx2.cc (the only TU
// compiled with -mavx2): inlineable generator functors mirroring the
// ScalarGenerator subclasses expression-for-expression, the kind switch,
// and the scalar reference loops the AVX2 paths fall back to for batch
// tails. Not part of the public kernel API.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/bound.h"
#include "divergence/kernels.h"

namespace brep {
namespace simd {
namespace internal {

// Each functor's bodies must stay textually equivalent to the matching
// ScalarGenerator override in divergence/generators.{h,cc}: that is what
// makes the devirtualized kernels byte-identical to the legacy virtual
// loops. kVecPhi marks phi as safe to evaluate with vector arithmetic
// (add/sub/mul only -- correctly rounded); everything else goes through
// libm per lane.

struct SqL2Fn {
  static constexpr bool kVecPhi = true;
  double Phi(double t) const { return t * t; }
  double PhiPrime(double t) const { return 2.0 * t; }
  double PhiPrimeInverse(double s) const { return 0.5 * s; }
};

struct IsdFn {
  static constexpr bool kVecPhi = false;
  double Phi(double t) const { return -std::log(t); }
  double PhiPrime(double t) const { return -1.0 / t; }
  double PhiPrimeInverse(double s) const { return -1.0 / s; }
};

struct EdFn {
  static constexpr bool kVecPhi = false;
  double Phi(double t) const { return std::exp(t); }
  double PhiPrime(double t) const { return std::exp(t); }
  double PhiPrimeInverse(double s) const { return std::log(s); }
};

struct KlFn {
  static constexpr bool kVecPhi = false;
  double Phi(double t) const { return t * std::log(t) - t; }
  double PhiPrime(double t) const { return std::log(t); }
  double PhiPrimeInverse(double s) const { return std::exp(s); }
};

struct LpFn {
  static constexpr bool kVecPhi = false;
  double p;
  double Phi(double t) const { return std::pow(std::fabs(t), p) / p; }
  double PhiPrime(double t) const {
    const double mag = std::pow(std::fabs(t), p - 1.0);
    return t >= 0.0 ? mag : -mag;
  }
  double PhiPrimeInverse(double s) const {
    const double mag = std::pow(std::fabs(s), 1.0 / (p - 1.0));
    return s >= 0.0 ? mag : -mag;
  }
};

/// Unknown generator subclass: fall back to the virtual calls.
struct VirtFn {
  static constexpr bool kVecPhi = false;
  const ScalarGenerator* g;
  double Phi(double t) const { return g->Phi(t); }
  double PhiPrime(double t) const { return g->PhiPrime(t); }
  double PhiPrimeInverse(double s) const { return g->PhiPrimeInverse(s); }
};

/// One switch per kernel call instead of one virtual call per element.
template <typename Fn>
decltype(auto) WithGenerator(const KernelInfo& info, const ScalarGenerator& g,
                             Fn&& fn) {
  switch (info.kind) {
    case GeneratorKind::kSquaredL2:
      return fn(SqL2Fn{});
    case GeneratorKind::kItakuraSaito:
      return fn(IsdFn{});
    case GeneratorKind::kExponential:
      return fn(EdFn{});
    case GeneratorKind::kKL:
      return fn(KlFn{});
    case GeneratorKind::kLpNorm:
      return fn(LpFn{info.lp_p});
    case GeneratorKind::kGeneric:
      break;
  }
  return fn(VirtFn{&g});
}

/// Query-side scan context handed across the backend boundary (the public
/// DivergenceScan owns the cached arrays and borrows them into this POD).
struct ScanCtx {
  const ScalarGenerator* gen = nullptr;
  KernelInfo info;
  const double* y = nullptr;
  const double* w = nullptr;  // null => unweighted
  const double* phi_y = nullptr;
  const double* dphi_y = nullptr;
  size_t dim = 0;
};

/// The identity's query-side weights for the cross-term kernels (the
/// public IdentityScan owns the arrays).
struct CrossCtx {
  const double* neg_g = nullptr;  // -w_j phi'(y_j)
  const double* h = nullptr;      // |w_j phi'(y_j)| + 2^-24
  size_t dim = 0;
};

/// Scalar reference for one point whose coordinate j lives at x[j * stride]
/// (stride == 1 for a contiguous row, stride == count for an SoA column).
/// Expression sequence matches BregmanDivergence::Divergence exactly, with
/// phi(y_j)/phi'(y_j) read from the query-side cache.
template <typename G>
inline double ScanPointStrided(const ScanCtx& c, const G& g, const double* x,
                               size_t stride) {
  double acc = 0.0;
  if (c.w == nullptr) {
    for (size_t j = 0; j < c.dim; ++j) {
      const double xv = x[j * stride];
      acc += g.Phi(xv) - c.phi_y[j] - c.dphi_y[j] * (xv - c.y[j]);
    }
  } else {
    for (size_t j = 0; j < c.dim; ++j) {
      const double xv = x[j * stride];
      acc += c.w[j] * (g.Phi(xv) - c.phi_y[j] - c.dphi_y[j] * (xv - c.y[j]));
    }
  }
  return std::max(acc, 0.0);
}

/// Portable batched fallback: four independent accumulators walk four
/// points in lock-step through the SoA columns (each point's j-order stays
/// sequential, so results match the one-point loop bit-for-bit -- the
/// unroll only buys instruction-level parallelism). Shared with the AVX2
/// TU, which routes transcendental generators here: shuttling lanes out to
/// libm and back loses to this plain loop, and the bits are the same.
template <typename G>
inline void ScalarBatchSoA(const ScanCtx& c, const G& g, const double* xs,
                           size_t count, double* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const double* col = xs + i;
    for (size_t j = 0; j < c.dim; ++j, col += count) {
      const double py = c.phi_y[j];
      const double dpy = c.dphi_y[j];
      const double yj = c.y[j];
      const double x0 = col[0], x1 = col[1], x2 = col[2], x3 = col[3];
      if (c.w == nullptr) {
        a0 += g.Phi(x0) - py - dpy * (x0 - yj);
        a1 += g.Phi(x1) - py - dpy * (x1 - yj);
        a2 += g.Phi(x2) - py - dpy * (x2 - yj);
        a3 += g.Phi(x3) - py - dpy * (x3 - yj);
      } else {
        const double wj = c.w[j];
        a0 += wj * (g.Phi(x0) - py - dpy * (x0 - yj));
        a1 += wj * (g.Phi(x1) - py - dpy * (x1 - yj));
        a2 += wj * (g.Phi(x2) - py - dpy * (x2 - yj));
        a3 += wj * (g.Phi(x3) - py - dpy * (x3 - yj));
      }
    }
    out[i] = std::max(a0, 0.0);
    out[i + 1] = std::max(a1, 0.0);
    out[i + 2] = std::max(a2, 0.0);
    out[i + 3] = std::max(a3, 0.0);
  }
  for (; i < count; ++i) {
    out[i] = ScanPointStrided(c, g, xs + i, count);
  }
}

template <typename G>
inline void ScalarBatchRows(const ScanCtx& c, const G& g, const double* base,
                            size_t row_stride, const uint32_t* ids,
                            size_t count, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = ScanPointStrided(c, g, base + ids[i] * row_stride, 1);
  }
}

/// Scalar reference for the identity's cross terms of one point strided as
/// in ScanPointStrided: bxy = -sum_j x_j g_j, gx = sum_j |x_j| h_j.
inline void CrossTermsStrided(const CrossCtx& c, const double* x,
                              size_t stride, double* bxy, double* gx) {
  double b = 0.0;
  double a = 0.0;
  for (size_t j = 0; j < c.dim; ++j) {
    const double xv = x[j * stride];
    b += xv * c.neg_g[j];
    a += std::fabs(xv) * c.h[j];
  }
  *bxy = b;
  *gx = a;
}

/// Portable batched cross terms: four points in lock-step through the SoA
/// columns, each point's j-order sequential (same bits as the one-point
/// loop; the unroll only buys instruction-level parallelism).
inline void ScalarCrossTermsSoA(const CrossCtx& c, const double* xs,
                                size_t count, double* bxy, double* gx) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const double* col = xs + i;
    for (size_t j = 0; j < c.dim; ++j, col += count) {
      const double ng = c.neg_g[j];
      const double hj = c.h[j];
      b0 += col[0] * ng;
      b1 += col[1] * ng;
      b2 += col[2] * ng;
      b3 += col[3] * ng;
      a0 += std::fabs(col[0]) * hj;
      a1 += std::fabs(col[1]) * hj;
      a2 += std::fabs(col[2]) * hj;
      a3 += std::fabs(col[3]) * hj;
    }
    bxy[i] = b0;
    bxy[i + 1] = b1;
    bxy[i + 2] = b2;
    bxy[i + 3] = b3;
    gx[i] = a0;
    gx[i + 1] = a1;
    gx[i + 2] = a2;
    gx[i + 3] = a3;
  }
  for (; i < count; ++i) {
    CrossTermsStrided(c, xs + i, count, bxy + i, gx + i);
  }
}

/// Scalar reference for the UB totals pass (also the AVX2 tail): the exact
/// loop QBDetermine ran before the kernel layer existed.
inline void UBTotalsScalarRef(const PointTuple* rows, size_t nrows, size_t m,
                              const QueryTriple* q, double* totals, double* ub,
                              size_t ub_stride, size_t first_row) {
  for (size_t i = 0; i < nrows; ++i) {
    const PointTuple* row = rows + i * m;
    double total = 0.0;
    for (size_t j = 0; j < m; ++j) {
      const double v = UBCompute(row[j], q[j]);
      if (ub != nullptr) ub[j * ub_stride + first_row + i] = v;
      total += v;
    }
    totals[i] = total;
  }
}

// AVX2 entry points, defined in kernels_avx2.cc (the TU carrying -mavx2).
// When that TU is built without AVX2 (BREP_SIMD=OFF or non-x86), they are
// stubs that must never be dispatched to: Avx2Compiled() returns false and
// ActiveBackend() then pins kScalar.
bool Avx2Compiled();
void Avx2BatchSoA(const ScanCtx& ctx, const double* xs, size_t count,
                  double* out);
void Avx2BatchRows(const ScanCtx& ctx, const double* base, size_t row_stride,
                   const uint32_t* ids, size_t count, double* out);
void Avx2CrossTermsSoA(const CrossCtx& ctx, const double* xs, size_t count,
                       double* bxy, double* gx);
void Avx2UBTotalsBlock(const PointTuple* rows, size_t nrows, size_t m,
                       const QueryTriple* q, double* totals, double* ub,
                       size_t ub_stride, size_t first_row);

}  // namespace internal
}  // namespace simd
}  // namespace brep

#endif  // BREP_DIVERGENCE_KERNELS_IMPL_H_
