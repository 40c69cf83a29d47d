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
/// ball of its points. Supports exact branch-and-bound kNN (Cayton '08),
/// exact range search and cluster-granularity range candidates (Cayton
/// NIPS '09, as used by the paper's filter step). This is both a baseline
/// in its own right and the construction template that DiskBBTree
/// serializes to the simulated disk.
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

  /// Cluster-granularity range filter: the union of all points of every
  /// leaf whose ball may intersect {x : D(x, y) <= radius}. Superset of
  /// RangeSearch; this is the candidate set the paper's framework loads
  /// from disk for refinement.
  std::vector<uint32_t> RangeCandidates(std::span<const double> y,
                                        double radius,
                                        WorkCounters* stats = nullptr) const;

  /// Point ids in left-to-right leaf order; the BB-forest lays out the
  /// point store in this order (paper Section 6).
  std::vector<uint32_t> LeafOrder() const;

  /// Incremental maintenance (the paper's named future-work item).
  /// ------------------------------------------------------------------
  /// Insert row `id` of the data matrix (which must already contain it):
  /// descends to the closer child at each level, widening every ball on the
  /// path so containment invariants hold, and splits the target leaf by
  /// Bregman 2-means when it overflows max_leaf_size. Search correctness is
  /// unaffected: balls stay valid upper bounds of their subtrees.
  void Insert(uint32_t id);

  /// Remove a point by id. Returns false if the id is not present. Balls
  /// are not shrunk (they remain valid, possibly loose, bounds); O(#nodes).
  bool Delete(uint32_t id);

  /// Number of points currently indexed.
  size_t size() const { return size_; }

  const std::vector<Node>& nodes() const { return nodes_; }
  int32_t root() const { return root_; }
  const Matrix& data() const { return *data_; }
  size_t dim() const { return div_.dim(); }
  const BregmanDivergence& divergence() const { return div_; }
  const BBTreeConfig& config() const { return config_; }

 private:
  int32_t Build(std::span<const uint32_t> ids, Rng& rng);
  double NodeLowerBound(const Node& node, std::span<const double> y,
                        std::span<const double> grad_y) const;

  const Matrix* data_;
  BregmanDivergence div_;
  BBTreeConfig config_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t size_ = 0;
  uint64_t insert_seed_;  // deterministic randomness for overflow splits
};

}  // namespace brep

#endif  // BREP_BBTREE_BBTREE_H_
