#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>

#include "dataset/matrix.h"

/// \file
/// The benchmark's own input generators. They are copies of the library's
/// synthetic generators (energy profile, Gaussian mixture, noisy query
/// rows) with their own RNG, so the inputs are fixed by the benchmark and
/// a change to the library under test can never change what it is fed.

namespace perfbench {

/// xoshiro256** seeded through splitmix64, with Box-Muller normals.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t NextU64();
  /// Uniform in [0, 1).
  double NextDouble();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }
  /// Uniform integer in [0, n), n > 0.
  uint64_t Below(uint64_t n);
  double Gaussian(double mean, double stddev);

 private:
  uint64_t s_[4];
  bool has_cached_ = false;
  double cached_ = 0.0;
};

/// Derive an independent stream seed from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// The "Uniform" stand-in of the paper's Table 4 (positive energies with
/// 25 clusters and d/16 correlated dimension groups), paired with the
/// Itakura-Saito divergence.
brep::Matrix EnergyProfileIsd(uint64_t seed, size_t n, size_t d);

/// The join bench's squared-L2 data: a 24-cluster Gaussian mixture with
/// centers in [-1.5, 1.5]^d and cluster std 0.5.
brep::Matrix MixtureL2(uint64_t seed, size_t n, size_t d);

/// `count` rows of `data` chosen with `source_seed`, each perturbed with
/// `noise_seed` by Gaussian noise of `noise` times its dimension's standard
/// deviation. With `keep_positive` a coordinate never drops below 5% of
/// the source value (Itakura-Saito needs the positive orthant).
brep::Matrix NoisyRows(uint64_t source_seed, uint64_t noise_seed,
                       const brep::Matrix& data, size_t count, double noise,
                       bool keep_positive);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
