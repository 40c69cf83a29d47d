#ifndef BREP_BASELINES_VAR_BASELINE_H_
#define BREP_BASELINES_VAR_BASELINE_H_

#include <memory>
#include <span>
#include <vector>

#include "baselines/bbt_baseline.h"

namespace brep {

struct VarBaselineConfig {
  BBTBaselineConfig base;
  /// A frontier node is explored only when the Gaussian model of its
  /// distance distribution predicts at least this many points improving on
  /// the current k-th distance. Higher values prune harder (faster, less
  /// accurate); 0 reduces to the exact search.
  double min_expected_hits = 0.5;
};

/// The "Var" approximate baseline (Coviello et al., ICML'13): the
/// state-of-the-art approximate BB-tree search that uses the data's
/// distribution to limit backtracking. This is a behavioural
/// reimplementation -- nodes carry the empirical mean/stddev of their
/// points' divergence-to-center, and a Gaussian estimate of the probability
/// that a node can improve the current k-th distance gates exploration.
/// No accuracy guarantee, in contrast to ABP's probability guarantee.
class VarBaseline {
 public:
  VarBaseline(Pager* pager, const Matrix& data, const BregmanDivergence& div,
              const VarBaselineConfig& config);

  VarBaseline(const VarBaseline&) = delete;
  VarBaseline& operator=(const VarBaseline&) = delete;

  /// Approximate kNN.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  WorkCounters* stats = nullptr) const;

 private:
  VarBaselineConfig config_;
  std::unique_ptr<BBTBaseline> base_;
};

}  // namespace brep

#endif  // BREP_BASELINES_VAR_BASELINE_H_
