#ifndef BREP_JOIN_SCAN_JOIN_H_
#define BREP_JOIN_SCAN_JOIN_H_

#include <cstdint>
#include <span>

#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "engine/thread_pool.h"
#include "join/join_types.h"

/// \file
/// The kNN-join core: for every row of R, its k nearest rows of S under
/// D(s, r), by one exact blocked scan.
///
/// R is split into a fixed number of row ranges (a constant, never a
/// function of the thread count). Each range streams S past its rows in
/// fixed-size blocks: every row's simd::DivergenceScan evaluates the whole
/// block through BatchRows, and the distances fold into that row's TopK.
/// A block is reused by every row of the range while it is in cache, and
/// the hot loop is the same SIMD path the refine uses, so distances are
/// byte-identical to D(s, r) evaluated one pair at a time.
///
/// Nothing is pruned: every join evaluates |R| * |S| pairs. Where the
/// index's filter prunes (clustered data), SearchIndex::KnnBatch answers
/// the same rows with less work; the scan is the faster call where the
/// filter cannot prune (README, "Bregman kNN-join").
///
/// Parallelism: the ranges write disjoint result rows, so running them on
/// 1, 2 or 4 threads produces byte-identical neighbors and counters; the
/// pool only changes wall-clock.

namespace brep {

/// Exact kNN-join of `r` against `s` (preconditions -- checked:
/// 1 <= k <= s.rows(), both matrices over div.dim() columns, r and s
/// non-empty, s_ids.size() == s.rows()). `s_ids[i]` is the id reported for
/// S row i; the ids must be distinct, because equal distances are ordered
/// by id. `pool` runs the row ranges; nullptr runs them sequentially (same
/// results and counters).
JoinResult ScanKnnJoin(const Matrix& r, const Matrix& s,
                       std::span<const uint32_t> s_ids,
                       const BregmanDivergence& div, size_t k,
                       ThreadPool* pool);

}  // namespace brep

#endif  // BREP_JOIN_SCAN_JOIN_H_
