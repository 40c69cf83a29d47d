// The one translation unit compiled with -mavx2 (see CMakeLists: BREP_SIMD).
// Everything here keeps the numerical contract from kernels.h: one point
// per lane, sequential per-dimension accumulation, libm per lane for
// transcendental phi, no FMA contraction -- so every value matches the
// scalar reference bit-for-bit.

#include "divergence/kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdlib>

namespace brep {
namespace simd {
namespace internal {

bool Avx2Compiled() { return true; }

namespace {

// phi over four lanes, for generators whose kVecPhi says phi is plain
// arithmetic (vmulpd is correctly rounded => byte-identical). Generators
// that need libm never reach the lane loops: the entry points below route
// them to the shared unrolled scalar batch instead -- shuttling lanes out
// to libm and back measures slower than the plain loop, and both produce
// the same bits.
inline __m256d PhiVec(const SqL2Fn&, __m256d v) {
  return _mm256_mul_pd(v, v);
}

// One j-step of the divergence sum for four points in `xv`.
template <typename G>
inline __m256d LaneTerm(const ScanCtx& c, const G& g, __m256d xv, size_t j) {
  const __m256d diff = _mm256_sub_pd(xv, _mm256_set1_pd(c.y[j]));
  __m256d term =
      _mm256_sub_pd(_mm256_sub_pd(PhiVec(g, xv), _mm256_set1_pd(c.phi_y[j])),
                    _mm256_mul_pd(_mm256_set1_pd(c.dphi_y[j]), diff));
  if (c.w != nullptr) {
    term = _mm256_mul_pd(_mm256_set1_pd(c.w[j]), term);
  }
  return term;
}

// Lane divergence loop; `load(j, i)` yields coordinate j of points
// i..i+3. The j-loop carries its accumulator, so a single 4-wide
// accumulator runs at vaddpd *latency*, not throughput; the 16-point main
// loop keeps four independent chains in flight (each point's j-order
// stays sequential, so the unroll cannot change any bits). The
// max(0, acc) clamp uses maxpd's src2-on-tie/NaN rule, which matches
// std::max(acc, 0.0) exactly (returns acc for NaN and -0.0).
template <typename G, typename LoadFn>
void BatchLanes(const ScanCtx& c, const G& g, size_t count, double* out,
                LoadFn load) {
  const __m256d vzero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    __m256d acc0 = vzero;
    __m256d acc1 = vzero;
    __m256d acc2 = vzero;
    __m256d acc3 = vzero;
    for (size_t j = 0; j < c.dim; ++j) {
      acc0 = _mm256_add_pd(acc0, LaneTerm(c, g, load(j, i), j));
      acc1 = _mm256_add_pd(acc1, LaneTerm(c, g, load(j, i + 4), j));
      acc2 = _mm256_add_pd(acc2, LaneTerm(c, g, load(j, i + 8), j));
      acc3 = _mm256_add_pd(acc3, LaneTerm(c, g, load(j, i + 12), j));
    }
    _mm256_storeu_pd(out + i, _mm256_max_pd(vzero, acc0));
    _mm256_storeu_pd(out + i + 4, _mm256_max_pd(vzero, acc1));
    _mm256_storeu_pd(out + i + 8, _mm256_max_pd(vzero, acc2));
    _mm256_storeu_pd(out + i + 12, _mm256_max_pd(vzero, acc3));
  }
  for (; i + 4 <= count; i += 4) {
    __m256d acc = vzero;
    for (size_t j = 0; j < c.dim; ++j) {
      acc = _mm256_add_pd(acc, LaneTerm(c, g, load(j, i), j));
    }
    _mm256_storeu_pd(out + i, _mm256_max_pd(vzero, acc));
  }
}

}  // namespace

void Avx2BatchSoA(const ScanCtx& c, const double* xs, size_t count,
                  double* out) {
  WithGenerator(c.info, *c.gen, [&](auto g) {
    if constexpr (decltype(g)::kVecPhi) {
      BatchLanes(c, g, count, out, [&](size_t j, size_t i) {
        return _mm256_loadu_pd(xs + j * count + i);
      });
      for (size_t i = count & ~size_t{3}; i < count; ++i) {
        out[i] = ScanPointStrided(c, g, xs + i, count);
      }
    } else {
      ScalarBatchSoA(c, g, xs, count, out);
    }
    return 0;
  });
}

void Avx2BatchRows(const ScanCtx& c, const double* base, size_t row_stride,
                   const uint32_t* ids, size_t count, double* out) {
  WithGenerator(c.info, *c.gen, [&](auto g) {
    if constexpr (decltype(g)::kVecPhi) {
      BatchLanes(c, g, count, out, [&](size_t j, size_t i) {
        return _mm256_set_pd(base[size_t{ids[i + 3]} * row_stride + j],
                             base[size_t{ids[i + 2]} * row_stride + j],
                             base[size_t{ids[i + 1]} * row_stride + j],
                             base[size_t{ids[i]} * row_stride + j]);
      });
      for (size_t i = count & ~size_t{3}; i < count; ++i) {
        out[i] = ScanPointStrided(c, g, base + size_t{ids[i]} * row_stride, 1);
      }
    } else {
      ScalarBatchRows(c, g, base, row_stride, ids, count, out);
    }
    return 0;
  });
}

void Avx2CrossTermsSoA(const CrossCtx& c, const double* xs, size_t count,
                       double* bxy, double* gx) {
  // Plain arithmetic for every generator (no phi here), so all of them run
  // the lanes. Two points-of-four per iteration keep two independent
  // accumulator chains in flight; |x| clears the sign bit exactly like
  // std::fabs.
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d vzero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256d b0 = vzero, b1 = vzero, a0 = vzero, a1 = vzero;
    for (size_t j = 0; j < c.dim; ++j) {
      const __m256d ng = _mm256_set1_pd(c.neg_g[j]);
      const __m256d hj = _mm256_set1_pd(c.h[j]);
      const __m256d x0 = _mm256_loadu_pd(xs + j * count + i);
      const __m256d x1 = _mm256_loadu_pd(xs + j * count + i + 4);
      b0 = _mm256_add_pd(b0, _mm256_mul_pd(x0, ng));
      b1 = _mm256_add_pd(b1, _mm256_mul_pd(x1, ng));
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_andnot_pd(sign, x0), hj));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_andnot_pd(sign, x1), hj));
    }
    _mm256_storeu_pd(bxy + i, b0);
    _mm256_storeu_pd(bxy + i + 4, b1);
    _mm256_storeu_pd(gx + i, a0);
    _mm256_storeu_pd(gx + i + 4, a1);
  }
  for (; i + 4 <= count; i += 4) {
    __m256d b = vzero, a = vzero;
    for (size_t j = 0; j < c.dim; ++j) {
      const __m256d x = _mm256_loadu_pd(xs + j * count + i);
      b = _mm256_add_pd(b, _mm256_mul_pd(x, _mm256_set1_pd(c.neg_g[j])));
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_andnot_pd(sign, x),
                                         _mm256_set1_pd(c.h[j])));
    }
    _mm256_storeu_pd(bxy + i, b);
    _mm256_storeu_pd(gx + i, a);
  }
  for (; i < count; ++i) {
    CrossTermsStrided(c, xs + i, count, bxy + i, gx + i);
  }
}

void Avx2UBTotalsBlock(const PointTuple* rows, size_t nrows, size_t m,
                       const QueryTriple* q, double* totals, double* ub,
                       size_t ub_stride, size_t first_row) {
  const size_t main = nrows & ~size_t{3};
  for (size_t i = 0; i < main; i += 4) {
    const PointTuple* r0 = rows + i * m;
    const PointTuple* r1 = r0 + m;
    const PointTuple* r2 = r1 + m;
    const PointTuple* r3 = r2 + m;
    __m256d tot = _mm256_setzero_pd();
    for (size_t j = 0; j < m; ++j) {
      const __m256d pa = _mm256_set_pd(r3[j].alpha, r2[j].alpha, r1[j].alpha,
                                       r0[j].alpha);
      const __m256d pg = _mm256_set_pd(r3[j].gamma, r2[j].gamma, r1[j].gamma,
                                       r0[j].gamma);
      // ((p.alpha + q.alpha) + q.beta_yy) + sqrt(p.gamma * q.delta):
      // UBCompute's exact association; vsqrtpd is correctly rounded.
      const __m256d v = _mm256_add_pd(
          _mm256_add_pd(_mm256_add_pd(pa, _mm256_set1_pd(q[j].alpha)),
                        _mm256_set1_pd(q[j].beta_yy)),
          _mm256_sqrt_pd(_mm256_mul_pd(pg, _mm256_set1_pd(q[j].delta))));
      if (ub != nullptr) {
        _mm256_storeu_pd(ub + j * ub_stride + first_row + i, v);
      }
      tot = _mm256_add_pd(tot, v);
    }
    _mm256_storeu_pd(totals + i, tot);
  }
  if (main < nrows) {
    UBTotalsScalarRef(rows + main * m, nrows - main, m, q, totals + main, ub,
                      ub_stride, first_row + main);
  }
}

}  // namespace internal
}  // namespace simd
}  // namespace brep

#else  // !defined(__AVX2__)

#include <cstdlib>

namespace brep {
namespace simd {
namespace internal {

// Built without AVX2 (BREP_SIMD=OFF or a non-x86 target): ActiveBackend()
// sees Avx2Compiled() == false and never dispatches here.

bool Avx2Compiled() { return false; }

void Avx2BatchSoA(const ScanCtx&, const double*, size_t, double*) {
  std::abort();
}
void Avx2BatchRows(const ScanCtx&, const double*, size_t, const uint32_t*,
                   size_t, double*) {
  std::abort();
}
void Avx2CrossTermsSoA(const CrossCtx&, const double*, size_t, double*,
                       double*) {
  std::abort();
}
void Avx2UBTotalsBlock(const PointTuple*, size_t, size_t, const QueryTriple*,
                       double*, double*, size_t, size_t) {
  std::abort();
}

}  // namespace internal
}  // namespace simd
}  // namespace brep

#endif  // defined(__AVX2__)
