#ifndef BREP_DIVERGENCE_BREGMAN_H_
#define BREP_DIVERGENCE_BREGMAN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataset/matrix.h"
#include "divergence/generator.h"
#include "divergence/kernels.h"

namespace brep {

/// The Bregman divergence D_f(x, y) = f(x) - f(y) - <grad f(y), x - y> for a
/// decomposable convex function f(x) = sum_j w_j * phi(x_j).
///
/// Weights default to 1 (plain decomposable generator); supplying weights
/// with the squared-L2 generator gives the paper's squared Mahalanobis
/// distance with a diagonal matrix Q. A general (non-diagonal) Q would couple
/// dimensions and break the partitioning framework (the per-subspace
/// bounds need a divergence that sums over dimensions), so it is
/// intentionally not representable here.
///
/// Note D_f is *not* symmetric: by the paper's convention the data point is
/// the first argument and the query the second, i.e. kNN minimizes
/// D_f(x, query).
class BregmanDivergence {
 public:
  /// Unweighted divergence over `dim` dimensions.
  BregmanDivergence(std::shared_ptr<const ScalarGenerator> generator,
                    size_t dim);

  /// Weighted divergence; weights.size() defines the dimensionality and all
  /// weights must be strictly positive.
  BregmanDivergence(std::shared_ptr<const ScalarGenerator> generator,
                    std::vector<double> weights);

  size_t dim() const { return dim_; }
  const ScalarGenerator& generator() const { return *generator_; }
  std::shared_ptr<const ScalarGenerator> shared_generator() const {
    return generator_;
  }
  bool weighted() const { return !weights_.empty(); }
  double weight(size_t j) const { return weights_.empty() ? 1.0 : weights_[j]; }

  /// The weight vector as a span; empty means unweighted (all ones).
  std::span<const double> weights_span() const { return weights_; }

  /// Kernel dispatch record for this divergence's generator, resolved once
  /// at construction (see divergence/kernels.h).
  const simd::KernelInfo& kernel_info() const { return kinfo_; }

  /// D_f(x, y). Both spans must have size dim(). Clamped at 0 to absorb
  /// floating-point rounding (mathematically D_f >= 0).
  double Divergence(std::span<const double> x, std::span<const double> y) const;

  /// f(x) = sum_j w_j phi(x_j).
  double F(std::span<const double> x) const;

  /// grad f(x) written into `out` (size dim()).
  void Gradient(std::span<const double> x, std::span<double> out) const;

  /// (grad f)^{-1}(s) written into `out`: the point whose gradient is `s`.
  void GradientInverse(std::span<const double> s, std::span<double> out) const;

  /// True if every coordinate of x lies in the generator's domain.
  bool InDomain(std::span<const double> x) const;

  /// True if every coordinate is in-domain, finite, and phi evaluates to a
  /// finite value on it -- the validation predicate that keeps inf - inf
  /// NaNs out of the search paths (see ScalarGenerator::EvalFinite).
  bool EvalFinite(std::span<const double> x) const;

  /// The right-centroid of a set of points: the minimizer c of
  /// sum_i D_f(x_i, c), which for every Bregman divergence is the plain
  /// arithmetic mean (Banerjee et al. 2005). Rows indexed by `ids`;
  /// empty `ids` means all rows.
  std::vector<double> Mean(const Matrix& points,
                           std::span<const uint32_t> ids) const;

  /// The divergence restricted to a subset of dimensions (a subspace):
  /// shares the generator, gathers the weights. `columns` index into this
  /// divergence's dimensions.
  BregmanDivergence Restrict(std::span<const size_t> columns) const;

  std::string Name() const { return generator_->Name(); }

 private:
  std::shared_ptr<const ScalarGenerator> generator_;
  size_t dim_;
  std::vector<double> weights_;  // empty => all ones
  simd::KernelInfo kinfo_;
};

}  // namespace brep

#endif  // BREP_DIVERGENCE_BREGMAN_H_
