#include "baselines/bbt_baseline.h"

#include "common/check.h"

namespace brep {

BBTBaseline::BBTBaseline(Pager* pager, const Matrix& data,
                         const BregmanDivergence& div,
                         const BBTBaselineConfig& config) {
  BREP_CHECK(pager != nullptr);
  const BBTree tree(data, div, config.tree);
  // Points are laid out in the tree's own leaf order so a leaf's cluster is
  // (mostly) contiguous on disk, matching the paper's disk extension.
  const std::vector<uint32_t> order = tree.LeafOrder();
  store_ = std::make_unique<PointStore>(pager, data, order);
  tree_ = std::make_unique<DiskBBTree>(pager, tree, config.pool_pages);
}

std::vector<Neighbor> BBTBaseline::KnnSearch(std::span<const double> y,
                                             size_t k,
                                             WorkCounters* stats) const {
  return tree_->KnnSearch(y, k, *store_, stats);
}

}  // namespace brep
