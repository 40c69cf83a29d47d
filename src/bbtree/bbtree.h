#ifndef BREP_BBTREE_BBTREE_H_
#define BREP_BBTREE_BBTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bbtree/ball.h"
#include "common/rng.h"
#include "common/top_k.h"
#include "common/work_counters.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"

namespace brep {

/// Construction parameters for BB-trees.
struct BBTreeConfig {
  /// Split nodes with more than this many points.
  size_t max_leaf_size = 64;
  /// Lloyd iterations per 2-means split.
  int kmeans_iters = 10;
  /// Bisection iterations for ball lower bounds at query time.
  int bound_iters = 40;
  /// Seed for the (deterministic) clustering randomness.
  uint64_t seed = 42;
};

/// In-memory Bregman Ball tree (Cayton, ICML 2008).
///
/// Built by hierarchical Bregman 2-means; every node carries the Bregman
/// ball of its points. Immutable once built: it is the construction
/// template that DiskBBTree serializes to the simulated disk (index
/// updates then run on the disk trees). Its exact branch-and-bound kNN
/// (Cayton '08) and exact range search (Cayton NIPS '09) are the in-memory
/// reference the disk trees are tested against.
///
/// The referenced `data` matrix must outlive the tree (the tree stores row
/// ids, not copies).
class BBTree {
 public:
  /// One tree node. `left < 0` marks a leaf holding `ids`.
  struct Node {
    BregmanBall ball;
    /// Mean/stddev of D(x, center) over the node's points -- the data
    /// distribution statistic used by the "Var"-style approximate search.
    double dist_mean = 0.0;
    double dist_std = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    std::vector<uint32_t> ids;  // leaf only

    bool is_leaf() const { return left < 0; }
  };

  BBTree(const Matrix& data, const BregmanDivergence& div,
         const BBTreeConfig& config);

  /// Exact kNN of `y` (paper convention: minimize D(x, y)).
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  WorkCounters* stats = nullptr) const;

  /// Exact range search: all ids with D(x, y) <= radius.
  std::vector<uint32_t> RangeSearch(std::span<const double> y, double radius,
                                    WorkCounters* stats = nullptr) const;

  /// Point ids in left-to-right leaf order; the BB-forest lays out the
  /// point store in this order (paper Section 6).
  std::vector<uint32_t> LeafOrder() const;

  const std::vector<Node>& nodes() const { return nodes_; }
  int32_t root() const { return root_; }
  const Matrix& data() const { return *data_; }
  size_t dim() const { return div_.dim(); }
  const BregmanDivergence& divergence() const { return div_; }
  const BBTreeConfig& config() const { return config_; }

 private:
  int32_t Build(std::span<const uint32_t> ids, Rng& rng);

  const Matrix* data_;
  BregmanDivergence div_;
  BBTreeConfig config_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace brep

#endif  // BREP_BBTREE_BBTREE_H_
