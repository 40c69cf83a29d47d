#ifndef BREP_DIVERGENCE_KERNELS_H_
#define BREP_DIVERGENCE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "divergence/generator.h"

namespace brep {

class BregmanDivergence;
struct PointTuple;
struct QueryTriple;

namespace simd {

/// \file
/// Vectorized divergence and bound kernels: the batched hot-path
/// replacements for the per-element virtual Phi/PhiPrime calls.
///
/// Numerical contract -- the reason every exact-equivalence suite keeps
/// passing byte-identically with SIMD on and off:
///
///  * Single-vector kernels (PhiSum, PairDivergence, GradientInto, ...)
///    evaluate the exact same floating-point expression sequence as the
///    legacy virtual loop; they only devirtualize (one kind switch per
///    call instead of one virtual call per element).
///  * StoredPairDivergence(s) evaluate PairDivergence's expression
///    sequence, textually, on phi values stored once (PhiValuesInto,
///    DivergenceScan) instead of recomputed per use: the same operations
///    on the same values, hence the same bits.
///  * Batched kernels assign one *point per SIMD lane* and keep each
///    point's per-dimension accumulation sequential, so every lane
///    performs the identical elementary-operation sequence the scalar
///    loop would. Add/sub/mul/div/sqrt are correctly rounded, hence
///    lane == scalar bit-for-bit.
///  * Transcendental generators (itakura_saito, exponential, kl, lp_norm)
///    evaluate phi(x_j) through the exact libm calls of the scalar
///    reference, never through a vector polynomial -- the AVX2 backend
///    routes their batches to the shared unrolled scalar loop, which
///    profiles faster than shuttling lanes out to libm -- so their
///    results are also byte-identical (a 0-ULP bound; see
///    tests/divergence/kernels_test.cc, which enforces the bound per
///    backend).
///  * The identity cross-term kernel (IdentityScan::CrossTermsSoA) is
///    plain mul/add for every generator, so its AVX2 lanes serve the
///    transcendental generators too; only the exact fallback pays libm.
///
/// Dispatch: the backend is resolved once per process from CPUID
/// (AVX2 support), the BREP_SIMD compile option, and the BREP_SIMD
/// environment variable ("off"/"scalar"/"0" force the portable unrolled
/// scalar fallback at runtime).

/// The closed family of scalar generators the kernels specialize for.
/// kGeneric marks an unknown ScalarGenerator subclass: every kernel then
/// falls back to the virtual per-element path (correct, just slower).
enum class GeneratorKind : uint8_t {
  kGeneric,
  kSquaredL2,
  kItakuraSaito,
  kExponential,
  kKL,
  kLpNorm,
};

/// Classify a generator instance (by concrete type) for kernel dispatch.
GeneratorKind ClassifyGenerator(const ScalarGenerator& g);

/// Per-divergence dispatch record, resolved once at BregmanDivergence
/// construction so the hot paths never re-classify.
struct KernelInfo {
  GeneratorKind kind = GeneratorKind::kGeneric;
  double lp_p = 0.0;  // kLpNorm only
};

KernelInfo MakeKernelInfo(const ScalarGenerator& g);

/// Which instruction-set backend the batched kernels run on.
enum class KernelBackend : uint8_t { kScalar = 0, kAvx2 = 1 };

/// The process-wide backend: AVX2 when the build enabled it, the CPU
/// reports it, and the BREP_SIMD environment variable does not force it
/// off; the portable scalar fallback otherwise. Resolved once, then cached.
KernelBackend ActiveBackend();

/// Stable display name ("scalar" / "avx2") for logs, gauges and benches.
const char* BackendName(KernelBackend b);

/// Test/bench hook: force a backend (pass kScalar to measure the fallback
/// on AVX2 hardware). Forcing kAvx2 on a machine without AVX2 support is
/// ignored. Not thread-safe; call before spawning query threads.
void ForceBackendForTest(KernelBackend b);
void ClearBackendOverrideForTest();

// ---------------------------------------------------------------------------
// Single-vector primitives (devirtualized, byte-identical to the legacy
// virtual loops). `w` may be empty (unweighted).

/// sum_j w_j phi(x_j)  (BregmanDivergence::F).
double PhiSum(const KernelInfo& info, const ScalarGenerator& g,
              std::span<const double> x, std::span<const double> w);

/// PhiSum together with sum_j |w_j phi(x_j)|, from one phi evaluation per
/// coordinate; `sum` is bit-identical to PhiSum. The point transform stores
/// both (PointTuple::alpha, PointTuple::alpha_abs).
struct PhiSums {
  double sum = 0.0;
  double abs_sum = 0.0;
};
PhiSums PhiSumWithAbs(const KernelInfo& info, const ScalarGenerator& g,
                      std::span<const double> x, std::span<const double> w);

/// sum_j w_j (phi(x_j) - phi(y_j) - phi'(y_j) (x_j - y_j)), unclamped
/// (BregmanDivergence::Divergence applies the max(acc, 0) clamp).
double PairDivergence(const KernelInfo& info, const ScalarGenerator& g,
                      std::span<const double> x, std::span<const double> y,
                      std::span<const double> w);

/// phi[j] = phi(x_j) and, when `dphi` is non-empty, dphi[j] = phi'(x_j):
/// the per-coordinate values PairDivergence computes for an argument,
/// computed once for StoredPairDivergence(s).
void PhiValuesInto(const KernelInfo& info, const ScalarGenerator& g,
                   std::span<const double> x, std::span<double> phi,
                   std::span<double> dphi);

/// A vector with its stored phi values, as PhiValuesInto or DivergenceScan
/// store them: phi[j] = phi(x_j), dphi[j] = phi'(x_j). `dphi` is read only
/// when the vector is a second argument.
struct StoredPhi {
  std::span<const double> x;
  std::span<const double> phi;
  std::span<const double> dphi;
};

/// PairDivergence(info, g, a.x, b.x, w) from stored values: bit-identical,
/// unclamped.
double StoredPairDivergence(const StoredPhi& a, const StoredPhi& b,
                            std::span<const double> w);

struct DivergencePair {
  double first;
  double second;
};

/// StoredPairDivergence(a1, b1, w) and StoredPairDivergence(a2, b2, w) in
/// one pass: each sum keeps its own accumulator and order, so both are
/// bit-identical; the shared pass only overlaps their dependency chains.
DivergencePair StoredPairDivergences(const StoredPhi& a1, const StoredPhi& b1,
                                     const StoredPhi& a2, const StoredPhi& b2,
                                     std::span<const double> w);

/// out_j = w_j phi'(x_j)  (BregmanDivergence::Gradient).
void GradientInto(const KernelInfo& info, const ScalarGenerator& g,
                  std::span<const double> x, std::span<const double> w,
                  std::span<double> out);

/// out_j = (phi')^{-1}(s_j / w_j)  (BregmanDivergence::GradientInverse).
void GradientInverseInto(const KernelInfo& info, const ScalarGenerator& g,
                         std::span<const double> s, std::span<const double> w,
                         std::span<double> out);

// ---------------------------------------------------------------------------
// Batched multi-point divergence evaluation (the leaf-scan kernel) and the
// certified identity evaluation.

/// Query-side context for scanning many points against one query `y`:
/// caches phi(y_j) and phi'(y_j) so a leaf scan pays the query's
/// transcendentals once instead of once per point, then evaluates
/// candidates through the batched backend. Values are byte-identical to
/// BregmanDivergence::Divergence(x, y) for every backend (see the file
/// contract above).
///
/// The context borrows `div` and `y`; both must outlive it (one query's
/// stack scope in practice).
class DivergenceScan {
 public:
  DivergenceScan(const BregmanDivergence& div, std::span<const double> y);

  /// D(x, y) for a single point (clamped at 0 like Divergence).
  double One(std::span<const double> x) const;

  /// One(x), bit-identical, together with parts_out[m] = the same
  /// expression over the coordinates parts[m] in their listed order,
  /// clamped at 0: the value a subspace tree over that column list compares
  /// (its sub-divergence sums the same terms in that order). Evaluates phi
  /// once per coordinate into `phi_x` (dim() doubles of scratch).
  double OneWithParts(std::span<const double> x,
                      std::span<const std::vector<size_t>> parts,
                      std::span<double> phi_x,
                      std::span<double> parts_out) const;

  /// D(x_i, y) for `count` points stored column-major (SoA):
  /// xs[j * count + i] is coordinate j of point i. out[count].
  void BatchSoA(const double* xs, size_t count, double* out) const;

  /// D(x_i, y) for rows gathered from a row-major matrix:
  /// point i is base[ids[i] * row_stride .. +dim). out[count].
  void BatchRows(const double* base, size_t row_stride, const uint32_t* ids,
                 size_t count, double* out) const;

  size_t dim() const { return y_.size(); }
  std::span<const double> y() const { return y_; }
  /// The cached phi(y_j) and phi'(y_j), for StoredPairDivergence(s).
  std::span<const double> phi_y() const { return phi_y_; }
  std::span<const double> dphi_y() const { return dphi_y_; }

 private:
  friend class IdentityScan;

  /// One() for a point whose coordinate j lives at x[j * stride].
  double OneStrided(const double* x, size_t stride) const;

  const ScalarGenerator* gen_;
  KernelInfo info_;
  std::span<const double> y_;
  std::span<const double> w_;          // empty => unweighted
  std::vector<double> phi_y_;          // phi(y_j)
  std::vector<double> dphi_y_;         // phi'(y_j)
};

/// Whether deciding points through IdentityScan costs less than evaluating
/// them exactly. False only when phi is plain arithmetic (squared L2): its
/// exact expression then runs in AVX2 lanes and costs no more than the
/// identity's two dot products, which also read each point's stored tuple
/// by id. True for every generator whose phi needs libm, and for unknown
/// generators (one virtual call per coordinate).
bool IdentityPays(const KernelInfo& info);

/// Bounds on one point's exact divergence from the paper's identity; both
/// NaN when the bound cannot certify anything (see IdentityScan::Bounds).
struct IdentityBounds {
  double lo;
  double hi;
};

/// The query side of the certified identity evaluation (README, "Certified
/// identity evaluation"). With alpha_x = sum_j w_j phi(x_j) precomputed per
/// point (PointTuple::alpha),
///
///   D(x, y) = alpha_x + a_y + b_yy + b_xy,   b_xy = -sum_j x_j g_j,
///
/// where g_j = w_j phi'(y_j) and a_y, b_yy are per-query constants, so a
/// point costs one transcendental-free dot product (CrossTermsSoA) instead
/// of one phi per coordinate. Bounds() turns that value into a certified
/// interval around the exact expression; the borrowed DivergenceScan, whose
/// phi(y_j) and phi'(y_j) this context reuses, resolves what it cannot
/// decide.
///
/// Borrows `exact`, which must outlive it.
class IdentityScan {
 public:
  explicit IdentityScan(const DivergenceScan& exact);

  /// The identity's cross terms for `count` SoA points (layout as in
  /// DivergenceScan::BatchSoA): bxy[i] = -sum_j x_ij g_j and
  /// gx[i] = sum_j |x_ij| h_j with h_j = |g_j| + 2^-24 (the magnitude sum
  /// the rounding bound needs; the 2^-24 floor also bounds |x_ij|, see
  /// Bounds). One point per lane, j summed in order, no FMA: every backend
  /// returns the same bits.
  void CrossTermsSoA(const double* xs, size_t count, double* bxy,
                     double* gx) const;

  /// CrossTermsSoA for one contiguous point.
  void CrossTerms(std::span<const double> x, double* bxy, double* gx) const;

  /// Certified interval for the exact unclamped divergence D_ref (the
  /// expression DivergenceScan::One evaluates before its max(., 0) clamp):
  /// lo <= D_ref <= hi. `alpha` and `alpha_abs` are the point's stored
  /// sum_j w_j phi(x_j) and sum_j |w_j phi(x_j)|, summed over `parts`
  /// stored tuples (1 in a subspace tree, M in the full-space refine);
  /// `bxy`, `gx` come from CrossTerms(SoA). Both bounds are NaN -- every
  /// comparison false, so callers fall through to the exact expression --
  /// when an input is NaN or infinite or magnitudes approach overflow.
  IdentityBounds Bounds(double alpha, double alpha_abs, double bxy, double gx,
                        size_t parts) const;

  /// Whether D(x, y) <= radius, decided from Bounds() when it can and by
  /// the exact expression otherwise (then counted in *exact_evals).
  /// Coordinate j of the point lives at x[j * stride] (an SoA column:
  /// stride = the block's point count). Equals the exact comparison for
  /// every input.
  bool WithinRadius(double alpha, double alpha_abs, double bxy, double gx,
                    size_t parts, double radius, const double* x,
                    size_t stride, uint64_t* exact_evals) const;

  /// The margin the seeded searching bound adds to one point's subspace
  /// divergences (README, "Searching bound: exact seeds"; the proof is
  /// above Refiner::SeedRadii):
  ///   4 (d + 8) (2^-53 (s_p + s_max) + 2^-1074),
  /// where s_p bounds the magnitude sum Bounds() uses for the point and
  /// s_max bounds it over every live point, each from stored row sums:
  /// s = alpha_abs + Q_y + G_y + sqrt(gamma) ||h||, with alpha_abs and
  /// gamma the sums of the row's stored tuples (for s_max, their maxima
  /// over the live rows). +inf when the guard of Bounds() refuses
  /// s_p + s_max (a magnitude near overflow, or a NaN or infinite input).
  double SplitMargin(double alpha_abs, double gamma, double alpha_abs_max,
                     double gamma_max) const;

 private:
  const DivergenceScan& exact_;
  std::vector<double> neg_g_;  // -g_j = -w_j phi'(y_j)
  std::vector<double> h_;      // |g_j| + 2^-24
  double a_y_ = 0.0;           // -sum_j w_j phi(y_j)
  double b_yy_ = 0.0;          // sum_j y_j g_j
  double q_abs_ = 0.0;         // sum_j |w_j phi(y_j)|
  double g_abs_ = 0.0;         // sum_j |y_j g_j|
  double guard_ = 0.0;         // certify only below this magnitude
};

// ---------------------------------------------------------------------------
// Bound kernels (Cauchy-Schwarz upper-bound machinery).

/// QBDetermine's totals pass over one contiguous block of point-tuple
/// rows: totals[i] = sum_j UBCompute(rows[i*m + j], q[j]) for
/// i in [0, nrows), evaluated in the exact per-point order of the scalar
/// loop (vsqrtpd is correctly rounded, so the AVX2 path is
/// byte-identical). When `ub` is non-null, every per-partition bound is
/// also recorded column-major -- ub[j * ub_stride + (first_row + i)] --
/// so the caller reads the anchor's searching radii back without
/// recomputing them.
void UBTotalsBlock(const PointTuple* rows, size_t nrows, size_t m,
                   const QueryTriple* q, double* totals, double* ub,
                   size_t ub_stride, size_t first_row);

}  // namespace simd
}  // namespace brep

#endif  // BREP_DIVERGENCE_KERNELS_H_
