#include "baselines/var_baseline.h"

namespace brep {

VarBaseline::VarBaseline(Pager* pager, const Matrix& data,
                         const BregmanDivergence& div,
                         const VarBaselineConfig& config)
    : config_(config),
      base_(std::make_unique<BBTBaseline>(pager, data, div, config.base)) {}

std::vector<Neighbor> VarBaseline::KnnSearch(std::span<const double> y,
                                             size_t k,
                                             WorkCounters* stats) const {
  return base_->tree().KnnSearchVariational(
      y, k, base_->point_store(), config_.min_expected_hits, stats);
}

}  // namespace brep
