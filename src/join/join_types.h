#ifndef BREP_JOIN_JOIN_TYPES_H_
#define BREP_JOIN_JOIN_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/top_k.h"

/// \file
/// The kNN-join vocabulary shared by the facade (SearchIndex::KnnJoin) and
/// the scan core (join/scan_join.h): work counters and the result
/// container. Kept free of api/ dependencies so src/join can be used
/// standalone over raw matrices.

namespace brep {

/// Work counters for one join call, as the blocked scan fills them. The
/// scan builds no trees and prunes nothing; the node-pair fields and
/// build_ms stay 0 and are kept only for perfbench/join.cc, which still
/// reports them.
struct JoinStats {
  /// Always 0 (the scan visits no tree nodes).
  uint64_t node_pairs_visited = 0;
  /// Always 0 (the scan prunes nothing).
  uint64_t node_pairs_pruned = 0;
  /// S blocks streamed past a row range, summed over the ranges.
  uint64_t leaf_blocks = 0;
  /// Exact (r, s) divergence evaluations: |R| times the live points.
  uint64_t pairs_evaluated = 0;
  /// Span breakdown, milliseconds.
  double build_ms = 0.0;    // always 0 (no trees are built)
  double descent_ms = 0.0;  // the scan
};

/// One kNN-join answer: neighbors[i] is the sorted (distance, id) top-k of
/// R's row i against the indexed set S.
struct JoinResult {
  std::vector<std::vector<Neighbor>> neighbors;
  JoinStats stats;
};

}  // namespace brep

#endif  // BREP_JOIN_JOIN_TYPES_H_
