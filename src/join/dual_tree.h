#ifndef BREP_JOIN_DUAL_TREE_H_
#define BREP_JOIN_DUAL_TREE_H_

#include <cstdint>
#include <span>

#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "engine/thread_pool.h"
#include "join/join_types.h"

/// \file
/// The dual-tree kNN-join core: for every row of R, its k nearest rows of S
/// under D(s, r), in one simultaneous descent of two transient BB-trees
/// instead of |R| independent single-query descents.
///
/// The descent recurses over (S-node, R-node) pairs. Every R node carries a
/// prunable bound B(r) -- an upper bound on the largest current k-th
/// distance of any R point in its subtree, tightened bottom-up as leaf
/// blocks resolve -- and a pair is cut when the node-pair lower bound
/// (core/join_bound.h: separable box corners, plus the metric ball-pair
/// bound for squared L2) exceeds B(r): no point under that R node can still
/// accept any point under that S node. Leaf-vs-leaf blocks run through the
/// batched DivergenceScan kernels, so the hot loop is the same SIMD path
/// single-query refinement uses -- and distances are byte-identical to it.
///
/// Parallelism: the R tree is decomposed into a fixed set of subtree tasks
/// (at most 64; never a function of the thread count), each a
/// fully sequential descent against the whole S tree writing disjoint
/// result slots. Running them on 1, 2 or 4 threads produces byte-identical
/// neighbors AND counters; the pool only changes wall-clock.

namespace brep {

/// Exact kNN-join of `r` against `s` (preconditions -- checked:
/// 1 <= k <= s.rows(), both matrices over div.dim() columns, s non-empty,
/// s_ids.size() == s.rows()). `s_ids[i]` is the id reported for S row i and
/// must be strictly increasing, so the (distance, id) tie-break matches a
/// scan over the same ids. `leaf_size` is the leaf capacity of both
/// transient trees. `pool` parallelizes over R-subtree tasks; nullptr runs
/// them sequentially (same results by construction).
JoinResult DualTreeKnnJoin(const Matrix& r, const Matrix& s,
                           std::span<const uint32_t> s_ids,
                           const BregmanDivergence& div, size_t k,
                           size_t leaf_size, ThreadPool* pool);

/// The N-single-queries baseline: the same transient S tree, answered once
/// per R row through the classic single-query descent. Byte-identical
/// neighbors to DualTreeKnnJoin; stats.node_pairs_visited holds the summed
/// single-query node visits -- the number the dual-tree descent's pair
/// visits are measured against (tests/join, bench_join).
JoinResult SingleTreeKnnJoin(const Matrix& r, const Matrix& s,
                             std::span<const uint32_t> s_ids,
                             const BregmanDivergence& div, size_t k,
                             size_t leaf_size);

}  // namespace brep

#endif  // BREP_JOIN_DUAL_TREE_H_
