#include "bbtree/bbtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "bbtree/kmeans.h"
#include "common/check.h"
#include "common/rng.h"
#include "divergence/kernels.h"

namespace brep {

BBTree::BBTree(const Matrix& data, const BregmanDivergence& div,
               const BBTreeConfig& config)
    : data_(&data), div_(div), config_(config) {
  BREP_CHECK(!data.empty());
  BREP_CHECK(data.cols() == div_.dim());
  std::vector<uint32_t> all(data.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  Rng rng(config_.seed);
  root_ = Build(all, rng);
  size_ = data.rows();
  insert_seed_ = config_.seed ^ 0x5EEDF00DULL;
}

void BBTree::Insert(uint32_t id) {
  BREP_CHECK(id < data_->rows());
  const auto x = data_->Row(id);
  BREP_CHECK(div_.InDomain(x));

  if (root_ < 0) {
    // First point after a delete-to-empty: fresh single-leaf tree.
    Node node;
    node.ball.center.assign(x.begin(), x.end());
    node.ball.radius = 0.0;
    node.ids.push_back(id);
    nodes_.push_back(std::move(node));
    root_ = static_cast<int32_t>(nodes_.size() - 1);
    size_ = 1;
    return;
  }

  // Descend to the leaf whose center is nearest, widening balls on the way
  // so every ancestor still contains the new point.
  int32_t idx = root_;
  while (true) {
    Node& node = nodes_[idx];
    node.ball.radius =
        std::max(node.ball.radius, div_.Divergence(x, node.ball.center));
    if (node.is_leaf()) break;
    const double d_left =
        div_.Divergence(x, nodes_[node.left].ball.center);
    const double d_right =
        div_.Divergence(x, nodes_[node.right].ball.center);
    idx = d_left <= d_right ? node.left : node.right;
  }
  nodes_[idx].ids.push_back(id);
  ++size_;

  if (nodes_[idx].ids.size() <= config_.max_leaf_size ||
      nodes_[idx].ball.radius <= 0.0) {
    return;
  }
  // Overflow: split the leaf by Bregman 2-means, exactly like construction.
  Rng rng(insert_seed_++);
  const std::vector<uint32_t> ids = std::move(nodes_[idx].ids);
  nodes_[idx].ids.clear();
  KMeansResult split =
      BregmanKMeans(*data_, ids, div_, 2, rng, config_.kmeans_iters);
  std::vector<uint32_t> left_ids, right_ids;
  for (size_t i = 0; i < ids.size(); ++i) {
    (split.assignment[i] == 0 ? left_ids : right_ids).push_back(ids[i]);
  }
  if (left_ids.empty() || right_ids.empty()) {
    nodes_[idx].ids = ids;  // degenerate split: keep the oversized leaf
    return;
  }
  const int32_t left = Build(left_ids, rng);
  const int32_t right = Build(right_ids, rng);
  nodes_[idx].left = left;
  nodes_[idx].right = right;
}

bool BBTree::Delete(uint32_t id) {
  for (Node& node : nodes_) {
    if (!node.is_leaf()) continue;
    const auto it = std::find(node.ids.begin(), node.ids.end(), id);
    if (it != node.ids.end()) {
      node.ids.erase(it);
      --size_;
      // Balls are left as-is: still valid (possibly loose) covers. An empty
      // leaf stays in the tree; searches simply find nothing there.
      if (size_ == 0) {
        // Deleting the last point previously left the dead skeleton in
        // place: every later search (and every insert descent) still
        // walked all the stale nodes, and the first re-inserted point
        // inherited a ball centered on long-gone data. Reset to a truly
        // empty tree instead; Insert rebuilds from a fresh leaf.
        nodes_.clear();
        root_ = -1;
      }
      return true;
    }
  }
  return false;
}

int32_t BBTree::Build(std::span<const uint32_t> ids, Rng& rng) {
  Node node;
  node.ball.center = div_.Mean(*data_, ids);
  // Radius and per-node distance distribution (used by Var-style search).
  double sum = 0.0, sum_sq = 0.0;
  for (uint32_t id : ids) {
    const double d = div_.Divergence(data_->Row(id), node.ball.center);
    node.ball.radius = std::max(node.ball.radius, d);
    sum += d;
    sum_sq += d * d;
  }
  const double n = static_cast<double>(ids.size());
  node.dist_mean = sum / n;
  node.dist_std = std::sqrt(std::max(0.0, sum_sq / n - node.dist_mean * node.dist_mean));

  const bool must_leaf = ids.size() <= config_.max_leaf_size ||
                         node.ball.radius <= 0.0;  // all points identical
  if (!must_leaf) {
    KMeansResult split = BregmanKMeans(*data_, ids, div_, 2, rng,
                                       config_.kmeans_iters);
    std::vector<uint32_t> left_ids, right_ids;
    left_ids.reserve(ids.size());
    right_ids.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      (split.assignment[i] == 0 ? left_ids : right_ids).push_back(ids[i]);
    }
    if (!left_ids.empty() && !right_ids.empty()) {
      const int32_t left = Build(left_ids, rng);
      const int32_t right = Build(right_ids, rng);
      node.left = left;
      node.right = right;
      nodes_.push_back(std::move(node));
      return static_cast<int32_t>(nodes_.size() - 1);
    }
    // Degenerate split: fall through to a leaf.
  }
  node.ids.assign(ids.begin(), ids.end());
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

double BBTree::NodeLowerBound(const Node& node, std::span<const double> y,
                              std::span<const double> grad_y) const {
  return BallDistanceLowerBound(div_, node.ball, y, grad_y,
                                config_.bound_iters);
}

std::vector<Neighbor> BBTree::KnnSearch(std::span<const double> y, size_t k,
                                        WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  if (root_ < 0) return {};  // deleted down to empty
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;

  std::vector<double> grad_y(div_.dim());
  div_.Gradient(y, std::span<double>(grad_y));

  // Query-side scan context: phi(y)/phi'(y) cached once, leaves evaluated
  // through the batched kernel (byte-identical to per-point Divergence).
  const simd::DivergenceScan scan(div_, y);
  std::vector<double> leaf_d;
  leaf_d.reserve(config_.max_leaf_size);

  TopK topk(k);
  // Best-first branch and bound on (lower bound, node).
  using Entry = std::pair<double, int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  frontier.emplace(
      NodeLowerBound(nodes_[root_], y, grad_y), root_);

  while (!frontier.empty()) {
    const auto [lb, idx] = frontier.top();
    frontier.pop();
    if (lb >= topk.Threshold()) continue;  // cannot improve the k-th best
    const Node& node = nodes_[idx];
    ++st.nodes_visited;
    if (node.is_leaf()) {
      ++st.leaves_visited;
      leaf_d.resize(node.ids.size());
      scan.BatchRows(data_->data().data(), data_->cols(), node.ids.data(),
                     node.ids.size(), leaf_d.data());
      for (size_t i = 0; i < node.ids.size(); ++i) {
        topk.Push(leaf_d[i], node.ids[i]);
        ++st.points_evaluated;
      }
    } else {
      const double lb_left = NodeLowerBound(nodes_[node.left], y, grad_y);
      const double lb_right = NodeLowerBound(nodes_[node.right], y, grad_y);
      if (lb_left < topk.Threshold()) frontier.emplace(lb_left, node.left);
      if (lb_right < topk.Threshold()) frontier.emplace(lb_right, node.right);
    }
  }
  return topk.SortedResults();
}

std::vector<uint32_t> BBTree::RangeSearch(std::span<const double> y,
                                          double radius,
                                          WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  if (root_ < 0) return {};  // deleted down to empty
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;

  std::vector<double> grad_y(div_.dim());
  div_.Gradient(y, std::span<double>(grad_y));

  const simd::DivergenceScan scan(div_, y);
  std::vector<double> leaf_d;
  leaf_d.reserve(config_.max_leaf_size);

  std::vector<uint32_t> result;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    ++st.nodes_visited;
    if (!BallMayReachRange(div_, node.ball, y, grad_y, radius,
                           config_.bound_iters)) {
      continue;
    }
    if (node.is_leaf()) {
      ++st.leaves_visited;
      leaf_d.resize(node.ids.size());
      scan.BatchRows(data_->data().data(), data_->cols(), node.ids.data(),
                     node.ids.size(), leaf_d.data());
      for (size_t i = 0; i < node.ids.size(); ++i) {
        ++st.points_evaluated;
        if (leaf_d[i] <= radius) result.push_back(node.ids[i]);
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return result;
}

std::vector<uint32_t> BBTree::RangeCandidates(std::span<const double> y,
                                              double radius,
                                              WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  if (root_ < 0) return {};  // deleted down to empty
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;

  std::vector<double> grad_y(div_.dim());
  div_.Gradient(y, std::span<double>(grad_y));

  std::vector<uint32_t> result;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    ++st.nodes_visited;
    if (!BallMayReachRange(div_, node.ball, y, grad_y, radius,
                           config_.bound_iters)) {
      continue;
    }
    if (node.is_leaf()) {
      ++st.leaves_visited;
      result.insert(result.end(), node.ids.begin(), node.ids.end());
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return result;
}

std::vector<uint32_t> BBTree::LeafOrder() const {
  if (root_ < 0) return {};
  std::vector<uint32_t> order;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    if (node.is_leaf()) {
      order.insert(order.end(), node.ids.begin(), node.ids.end());
    } else {
      // Push right first so the left subtree is emitted first.
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  return order;
}

}  // namespace brep
