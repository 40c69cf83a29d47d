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

std::vector<Neighbor> BBTree::KnnSearch(std::span<const double> y, size_t k,
                                        WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;

  // Query-side scan context: phi(y)/phi'(y) cached once, leaves evaluated
  // through the batched kernel (byte-identical to per-point Divergence)
  // and balls tested from the same cached values.
  const simd::DivergenceScan scan(div_, y);
  BallQuery balls(div_, scan, config_.bound_iters, &st.ball_steps);
  std::vector<double> leaf_d;
  leaf_d.reserve(config_.max_leaf_size);

  TopK topk(k);
  // Best-first branch and bound on (lower bound, node).
  using Entry = std::pair<double, int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  frontier.emplace(balls.LowerBound(nodes_[root_].ball), root_);

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
      const double lb_left = balls.LowerBound(nodes_[node.left].ball);
      const double lb_right = balls.LowerBound(nodes_[node.right].ball);
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
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;

  const simd::DivergenceScan scan(div_, y);
  BallQuery balls(div_, scan, config_.bound_iters, &st.ball_steps);
  std::vector<double> leaf_d;
  leaf_d.reserve(config_.max_leaf_size);

  std::vector<uint32_t> result;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    ++st.nodes_visited;
    if (!balls.MayReachRange(node.ball, radius)) continue;
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
      // Left subtree first, in DiskBBTree::RangeSearchExact's order.
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  return result;
}

std::vector<uint32_t> BBTree::LeafOrder() const {
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
