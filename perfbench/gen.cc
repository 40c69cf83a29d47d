#include "gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace perfbench {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The generators' model parameters (cluster profiles and centers) are
// drawn from this fixed seed and the rows from the caller's, so rows drawn
// with different seeds (write_mix's indexed data and the rows it inserts)
// come from one distribution.
constexpr uint64_t kModelSeed = 0x5EED0F0DE15A11ULL;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) {
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v = NextU64();
  while (v >= limit) v = NextU64();
  return v % n;
}

double Rng::Gaussian(double mean, double stddev) {
  if (has_cached_) {
    has_cached_ = false;
    return mean + stddev * cached_;
  }
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_ = r * std::sin(theta);
  has_cached_ = true;
  return mean + stddev * r * std::cos(theta);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  return SplitMix64(&state);
}

brep::Matrix EnergyProfileIsd(uint64_t seed, size_t n, size_t d) {
  // x_ij = exp(level_i + log profile_{c(i), g(j)} + eta_ig + eps_ij)
  const size_t clusters = 25;
  const size_t groups = std::max<size_t>(2, d / 16);
  const double level_mean = 2.5, level_std = 0.7;
  const double profile_lo = 0.7, profile_hi = 1.4;
  const double group_noise = 0.15, dim_noise = 0.12;

  Rng model(kModelSeed);
  std::vector<double> log_profile(clusters * groups);
  for (double& p : log_profile) {
    p = std::log(model.Uniform(profile_lo, profile_hi));
  }
  Rng rng(seed);

  brep::Matrix out(n, d);
  const size_t dims_per_group = (d + groups - 1) / groups;
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.Below(clusters);
    const double level = rng.Gaussian(level_mean, level_std);
    auto row = out.MutableRow(i);
    for (size_t g = 0; g < groups; ++g) {
      const double group_level =
          level + log_profile[c * groups + g] + rng.Gaussian(0.0, group_noise);
      const size_t lo = g * dims_per_group;
      const size_t hi = std::min(d, lo + dims_per_group);
      for (size_t j = lo; j < hi; ++j) {
        row[j] = std::exp(group_level + rng.Gaussian(0.0, dim_noise));
      }
    }
  }
  return out;
}

brep::Matrix MixtureL2(uint64_t seed, size_t n, size_t d) {
  const size_t clusters = 24;
  const double center_lo = -1.5, center_hi = 1.5, cluster_std = 0.5;

  Rng model(kModelSeed);
  std::vector<double> centers(clusters * d);
  for (double& c : centers) c = model.Uniform(center_lo, center_hi);
  Rng rng(seed);

  brep::Matrix out(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.Below(clusters);
    auto row = out.MutableRow(i);
    for (size_t j = 0; j < d; ++j) {
      row[j] = centers[c * d + j] + rng.Gaussian(0.0, cluster_std);
    }
  }
  return out;
}

brep::Matrix NoisyRows(uint64_t source_seed, uint64_t noise_seed,
                       const brep::Matrix& data, size_t count, double noise,
                       bool keep_positive) {
  const size_t n = data.rows(), d = data.cols();
  std::vector<double> mean(d, 0.0), stddev(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto row = data.Row(i);
    for (size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  for (double& m : mean) m /= double(n);
  for (size_t i = 0; i < n; ++i) {
    const auto row = data.Row(i);
    for (size_t j = 0; j < d; ++j) {
      stddev[j] += (row[j] - mean[j]) * (row[j] - mean[j]);
    }
  }
  for (double& s : stddev) s = std::sqrt(s / double(n));

  Rng sources(source_seed), rng(noise_seed);
  brep::Matrix out(count, d);
  for (size_t q = 0; q < count; ++q) {
    const auto src = data.Row(sources.Below(n));
    auto dst = out.MutableRow(q);
    for (size_t j = 0; j < d; ++j) {
      double v = src[j] + rng.Gaussian(0.0, noise * stddev[j]);
      if (keep_positive) v = std::max(v, 0.05 * (std::fabs(src[j]) + 1e-6));
      dst[j] = v;
    }
  }
  return out;
}

}  // namespace perfbench
