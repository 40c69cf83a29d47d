#include "join/dual_tree.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "bbtree/bbtree.h"
#include "common/check.h"
#include "common/timer.h"
#include "common/top_k.h"
#include "core/join_bound.h"
#include "divergence/kernels.h"

namespace brep {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Coordinate bounding boxes for every node of `tree`, bottom-up.
void ComputeBoxes(const BBTree& tree, int32_t node,
                  std::vector<CoordBox>* boxes) {
  const BBTree::Node& n = tree.nodes()[node];
  if (n.is_leaf()) {
    (*boxes)[node] = BoxOfRows(tree.data(), n.ids);
    return;
  }
  ComputeBoxes(tree, n.left, boxes);
  ComputeBoxes(tree, n.right, boxes);
  (*boxes)[node] = BoxUnion((*boxes)[n.left], (*boxes)[n.right]);
}

/// Splits the R tree into up to `target` disjoint subtree roots covering
/// every R point, by breadth-first frontier expansion. The decomposition
/// depends only on the tree shape -- never on the thread count -- so the
/// per-task work (and with it every counter and result byte) is fixed.
std::vector<int32_t> SubtreeRoots(const BBTree& tree, size_t target) {
  std::deque<int32_t> frontier{tree.root()};
  std::vector<int32_t> roots;
  while (!frontier.empty() && frontier.size() + roots.size() < target) {
    const int32_t node = frontier.front();
    frontier.pop_front();
    const BBTree::Node& n = tree.nodes()[node];
    if (n.is_leaf()) {
      roots.push_back(node);
    } else {
      frontier.push_back(n.left);
      frontier.push_back(n.right);
    }
  }
  roots.insert(roots.end(), frontier.begin(), frontier.end());
  return roots;
}

/// State of one R-subtree descent task. Tasks share the trees, boxes and
/// the result arrays, but only ever touch slots owned by their own R
/// subtree (heaps/scans of its R points, rbound of its nodes), so they run
/// without synchronization and compose deterministically.
struct DescentTask {
  const BBTree& r_tree;
  const BBTree& s_tree;
  const std::vector<CoordBox>& r_box;
  const std::vector<CoordBox>& s_box;
  const Matrix& s_data;
  std::span<const uint32_t> s_ids;
  const BregmanDivergence& div;
  size_t k;
  std::vector<TopK>& heaps;
  std::vector<double>& rbound;
  std::vector<std::unique_ptr<simd::DivergenceScan>>& scans;
  JoinStats stats;

  // Scratch reused across bound evaluations and leaf blocks.
  std::vector<double> cx, cy, dist;

  /// Pair lower bound; counts the pair as visited.
  double PairBound(int32_t s_node, int32_t r_node) {
    ++stats.node_pairs_visited;
    const double box =
        BoxPairLowerBound(div, s_box[s_node], r_box[r_node], cx, cy);
    const double ball = BallPairLowerBound(div, s_tree.nodes()[s_node].ball,
                                           r_tree.nodes()[r_node].ball);
    return std::max(box, ball);
  }

  void LeafBlock(const BBTree::Node& s, const BBTree::Node& r) {
    ++stats.leaf_blocks;
    dist.resize(s.ids.size());
    for (const uint32_t rid : r.ids) {
      std::unique_ptr<simd::DivergenceScan>& scan = scans[rid];
      if (scan == nullptr) {
        scan = std::make_unique<simd::DivergenceScan>(div,
                                                      r_tree.data().Row(rid));
      }
      scan->BatchRows(s_data.data().data(), s_data.cols(), s.ids.data(),
                      s.ids.size(), dist.data());
      TopK& heap = heaps[rid];
      for (size_t i = 0; i < s.ids.size(); ++i) {
        heap.Push(dist[i], s_ids[s.ids[i]]);
      }
    }
    stats.pairs_evaluated += r.ids.size() * s.ids.size();
  }

  void Descend(int32_t s_node, int32_t r_node, double lb) {
    // Strict prune: the bound never exceeds any realizable pair distance
    // (core/join_bound.h), and rbound only ever overestimates the largest
    // live k-th distance under r_node, so lb > rbound can only cut pairs
    // no subtree point can still accept.
    if (lb > rbound[r_node]) {
      ++stats.node_pairs_pruned;
      return;
    }
    const BBTree::Node& s = s_tree.nodes()[s_node];
    const BBTree::Node& r = r_tree.nodes()[r_node];
    if (s.is_leaf() && r.is_leaf()) {
      LeafBlock(s, r);
      double bound = 0.0;
      for (const uint32_t rid : r.ids) {
        bound = std::max(bound, heaps[rid].Threshold());
      }
      rbound[r_node] = bound;
      return;
    }
    // Expand the side with the wider ball (forced when one is a leaf);
    // ties expand S, whose leaves feed the batched scan.
    const bool expand_s =
        !s.is_leaf() &&
        (r.is_leaf() || s.ball.radius >= r.ball.radius);
    if (expand_s) {
      const double lb_left = PairBound(s.left, r_node);
      const double lb_right = PairBound(s.right, r_node);
      // Nearer S child first: resolving close points early tightens the
      // heaps, so the farther child is more likely to prune outright.
      if (lb_left <= lb_right) {
        Descend(s.left, r_node, lb_left);
        Descend(s.right, r_node, lb_right);
      } else {
        Descend(s.right, r_node, lb_right);
        Descend(s.left, r_node, lb_left);
      }
      if (!r.is_leaf()) {
        rbound[r_node] = std::max(rbound[r.left], rbound[r.right]);
      } else {
        double bound = 0.0;
        for (const uint32_t rid : r.ids) {
          bound = std::max(bound, heaps[rid].Threshold());
        }
        rbound[r_node] = bound;
      }
    } else {
      const double lb_left = PairBound(s_node, r.left);
      const double lb_right = PairBound(s_node, r.right);
      Descend(s_node, r.left, lb_left);
      Descend(s_node, r.right, lb_right);
      rbound[r_node] = std::max(rbound[r.left], rbound[r.right]);
    }
  }

  void Run(int32_t r_root) {
    const size_t d = div.dim();
    cx.resize(d);
    cy.resize(d);
    Descend(s_tree.root(), r_root, PairBound(s_tree.root(), r_root));
  }
};

void CheckJoinInputs(const Matrix& r, const Matrix& s,
                     std::span<const uint32_t> s_ids,
                     const BregmanDivergence& div, size_t k) {
  BREP_CHECK(r.rows() > 0 && s.rows() > 0);
  BREP_CHECK(r.cols() == div.dim() && s.cols() == div.dim());
  BREP_CHECK(s_ids.size() == s.rows());
  BREP_CHECK(k >= 1 && k <= s.rows());
}

}  // namespace

JoinResult DualTreeKnnJoin(const Matrix& r, const Matrix& s,
                           std::span<const uint32_t> s_ids,
                           const BregmanDivergence& div, size_t k,
                           const JoinOptions& options, ThreadPool* pool) {
  CheckJoinInputs(r, s, s_ids, div, k);
  JoinResult out;

  Timer build_timer;
  BBTreeConfig config;
  config.max_leaf_size = options.max_leaf_size;
  const BBTree s_tree(s, div, config);
  const BBTree r_tree(r, div, config);
  std::vector<CoordBox> s_box(s_tree.nodes().size());
  std::vector<CoordBox> r_box(r_tree.nodes().size());
  ComputeBoxes(s_tree, s_tree.root(), &s_box);
  ComputeBoxes(r_tree, r_tree.root(), &r_box);
  out.stats.build_ms = build_timer.ElapsedMillis();
  out.stats.r_tree_nodes = r_tree.nodes().size();
  out.stats.s_tree_nodes = s_tree.nodes().size();

  Timer descent_timer;
  const std::vector<int32_t> roots =
      SubtreeRoots(r_tree, std::max<size_t>(1, options.max_tasks));
  std::vector<TopK> heaps(r.rows(), TopK(k));
  std::vector<double> rbound(r_tree.nodes().size(), kInf);
  std::vector<std::unique_ptr<simd::DivergenceScan>> scans(r.rows());
  std::vector<JoinStats> task_stats(roots.size());

  const auto run_task = [&](size_t t) {
    DescentTask task{r_tree, s_tree, r_box,   s_box, s,
                     s_ids,  div,    k,       heaps, rbound,
                     scans,  {},     {},      {},    {}};
    task.Run(roots[t]);
    task_stats[t] = task.stats;
  };
  if (pool != nullptr && roots.size() > 1) {
    pool->ParallelFor(roots.size(),
                      [&](size_t t, size_t /*lane*/) { run_task(t); });
  } else {
    for (size_t t = 0; t < roots.size(); ++t) run_task(t);
  }
  // Summed in task order, so counters match across thread counts.
  for (const JoinStats& ts : task_stats) {
    out.stats.node_pairs_visited += ts.node_pairs_visited;
    out.stats.node_pairs_pruned += ts.node_pairs_pruned;
    out.stats.leaf_blocks += ts.leaf_blocks;
    out.stats.pairs_evaluated += ts.pairs_evaluated;
  }

  out.neighbors.resize(r.rows());
  for (size_t i = 0; i < r.rows(); ++i) {
    out.neighbors[i] = heaps[i].SortedResults();
  }
  out.stats.descent_ms = descent_timer.ElapsedMillis();
  return out;
}

JoinResult SingleTreeKnnJoin(const Matrix& r, const Matrix& s,
                             std::span<const uint32_t> s_ids,
                             const BregmanDivergence& div, size_t k,
                             const JoinOptions& options) {
  CheckJoinInputs(r, s, s_ids, div, k);
  JoinResult out;

  Timer build_timer;
  BBTreeConfig config;
  config.max_leaf_size = options.max_leaf_size;
  const BBTree s_tree(s, div, config);
  out.stats.build_ms = build_timer.ElapsedMillis();
  out.stats.s_tree_nodes = s_tree.nodes().size();

  Timer descent_timer;
  out.neighbors.resize(r.rows());
  for (size_t i = 0; i < r.rows(); ++i) {
    WorkCounters ss;
    std::vector<Neighbor> nn = s_tree.KnnSearch(r.Row(i), k, &ss);
    // s_ids is strictly increasing, so the local (distance, id) order --
    // and with it the tie-break -- survives the rewrite.
    for (Neighbor& nb : nn) nb.id = s_ids[nb.id];
    out.neighbors[i] = std::move(nn);
    out.stats.node_pairs_visited += ss.nodes_visited;
    out.stats.leaf_blocks += ss.leaves_visited;
    out.stats.pairs_evaluated += ss.points_evaluated;
  }
  out.stats.descent_ms = descent_timer.ElapsedMillis();
  return out;
}

}  // namespace brep
