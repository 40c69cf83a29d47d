#ifndef BREP_DATASET_SYNTHETIC_H_
#define BREP_DATASET_SYNTHETIC_H_

#include <cstddef>

#include "common/rng.h"
#include "dataset/matrix.h"

namespace brep {

/// \file
/// Deterministic synthetic workload generators.
///
/// The paper evaluates on four public datasets (Audio, Fonts, Deep, Sift) and
/// two synthetic ones (Normal, Uniform). This offline environment has no
/// network access, so the real datasets are replaced by generators that match
/// the properties the algorithms are sensitive to: dimensionality, clustered
/// structure (BB-trees exploit it), cross-dimension correlation (PCCP
/// exploits it), and domain/scale constraints of the paired divergence
/// (positivity for Itakura-Saito, bounded magnitude for the exponential
/// distance). Results measured on these stand-ins are findings on the
/// stand-ins, not on the paper's datasets.

/// Parameters for a Gaussian-mixture generator with an optional low-rank
/// factor structure that induces cross-dimension correlations.
struct MixtureSpec {
  size_t n = 1000;
  size_t d = 16;
  size_t num_clusters = 16;
  /// Cluster centers are drawn iid uniform in [center_lo, center_hi]^d.
  double center_lo = -2.0;
  double center_hi = 2.0;
  /// Isotropic within-cluster noise.
  double cluster_std = 0.5;
  /// If > 0, each cluster adds a rank-`latent_factors` component
  /// L * z (L fixed per cluster, z ~ N(0, I)), correlating dimensions.
  size_t latent_factors = 0;
  double factor_scale = 0.7;
  /// If true, the sample x is mapped through s * exp(x) so every coordinate
  /// is strictly positive (log-normal mixture) -- the Itakura-Saito domain.
  bool positive = false;
  double positive_scale = 1.0;
  /// If true, negative coordinates are clamped to 0 after sampling
  /// (SIFT-style non-negative histograms). Ignored when `positive` is set.
  bool clamp_nonnegative = false;
};

/// Sample a mixture dataset. Deterministic given the Rng state.
Matrix MakeMixture(Rng& rng, const MixtureSpec& spec);

/// Parameters of the energy-profile generator, the model behind the
/// real-dataset stand-ins.
///
/// Multimedia features (spectral frames, gradient histograms, glyph pixel
/// statistics) share three traits the BrePartition machinery is sensitive
/// to: a per-point global energy scale, banks of strongly correlated
/// dimensions (filter responses), and cluster structure. The generator
/// models, in log space,
///
///   x_ij = level_i + log profile_{c(i), g(j)} + eta_ig + eps_ij
///
/// with `level_i` the point's energy, `c(i)` its cluster, `g(j)` the
/// dimension's latent group, and small group/dimension noises. `log_domain`
/// false exponentiates (strictly positive energies, the Itakura-Saito
/// pairing); true keeps log-energies (the exponential-distance pairing).
///
/// Comparable per-point coordinate magnitudes are what make the paper's
/// Cauchy-Schwarz bound tight (its equality condition), and the group
/// structure is the correlation signal PCCP spreads across subspaces.
struct EnergyProfileSpec {
  size_t n = 1000;
  size_t d = 64;
  size_t num_clusters = 25;
  size_t num_groups = 8;
  double level_mean = 1.0;
  double level_std = 0.5;
  /// Per-cluster, per-group multiplicative profile range.
  double profile_lo = 0.8;
  double profile_hi = 1.25;
  double group_noise = 0.06;
  double dim_noise = 0.04;
  bool log_domain = false;
};

/// Sample an energy-profile dataset. Deterministic given the Rng state.
Matrix MakeEnergyProfile(Rng& rng, const EnergyProfileSpec& spec);

/// iid N(mean, stddev^2) entries: the paper's "Normal" synthetic dataset
/// (200 dims, standard normal, exponential distance).
Matrix MakeIidNormal(Rng& rng, size_t n, size_t d, double mean = 0.0,
                     double stddev = 1.0);

/// iid Uniform[lo, hi) entries: the paper's "Uniform" synthetic dataset.
/// The paper pairs it with Itakura-Saito, so callers should keep lo > 0.
Matrix MakeIidUniform(Rng& rng, size_t n, size_t d, double lo, double hi);

/// Stand-ins for the paper's real datasets (Table 4), at caller-chosen n.
/// Dimensions default to the paper's: Audio 192, Fonts 400, Deep 256,
/// Sift 128. All are scaled so the paired divergence is numerically safe.
Matrix MakeAudioLike(Rng& rng, size_t n, size_t d = 192);
Matrix MakeFontsLike(Rng& rng, size_t n, size_t d = 400);
Matrix MakeDeepLike(Rng& rng, size_t n, size_t d = 256);
Matrix MakeSiftLike(Rng& rng, size_t n, size_t d = 128);

/// Build a query workload of `count` points: random data rows perturbed by
/// Gaussian noise of `noise_std` times each dimension's stddev. When the
/// dataset is positive, queries are clamped to stay in the positive domain.
Matrix MakeQueries(Rng& rng, const Matrix& data, size_t count,
                   double noise_std = 0.05, bool keep_positive = false);

}  // namespace brep

#endif  // BREP_DATASET_SYNTHETIC_H_
