#ifndef BREP_BASELINES_BBT_BASELINE_H_
#define BREP_BASELINES_BBT_BASELINE_H_

#include <memory>
#include <span>
#include <vector>

#include "bbtree/bbtree.h"
#include "bbtree/disk_bbtree.h"
#include "common/top_k.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "storage/pager.h"
#include "storage/point_store.h"

namespace brep {

struct BBTBaselineConfig {
  BBTreeConfig tree;
  size_t pool_pages = 128;
};

/// The "BBT" baseline of the evaluation: a single whole-space BB-tree
/// (Cayton '08) extended to disk "following the idea of our proposed
/// BB-forest" (paper Section 9.4) -- i.e. the same DiskBBTree + PointStore
/// machinery, but without partitioning. Exact.
class BBTBaseline {
 public:
  BBTBaseline(Pager* pager, const Matrix& data, const BregmanDivergence& div,
              const BBTBaselineConfig& config);

  BBTBaseline(const BBTBaseline&) = delete;
  BBTBaseline& operator=(const BBTBaseline&) = delete;

  /// Exact branch-and-bound kNN with disk-charged node and data reads.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  WorkCounters* stats = nullptr) const;

  const DiskBBTree& tree() const { return *tree_; }
  const PointStore& point_store() const { return *store_; }

 private:
  std::unique_ptr<PointStore> store_;
  std::unique_ptr<DiskBBTree> tree_;
};

}  // namespace brep

#endif  // BREP_BASELINES_BBT_BASELINE_H_
