#ifndef BREP_TESTS_JOIN_JOIN_TEST_UTIL_H_
#define BREP_TESTS_JOIN_JOIN_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/top_k.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "join/join_types.h"

namespace brep::testing {

/// Nested-loop ground-truth join: for every R row, the TopK over ALL S rows,
/// one Divergence call per pair, with the (distance, id) tie-break the real
/// engines use -- so a join result must match it byte for byte (same ids in
/// the same order, bit-equal distances), whether the join scans S through
/// the batched kernels or answers per row.
/// `s_ids` maps S row j to its reported id (defaults to j).
inline std::vector<std::vector<Neighbor>> NestedLoopJoin(
    const BregmanDivergence& div, const Matrix& r, const Matrix& s, size_t k,
    std::span<const uint32_t> s_ids = {}) {
  std::vector<std::vector<Neighbor>> out(r.rows());
  for (size_t i = 0; i < r.rows(); ++i) {
    TopK topk(k);
    for (size_t j = 0; j < s.rows(); ++j) {
      const uint32_t id =
          s_ids.empty() ? static_cast<uint32_t>(j) : s_ids[j];
      topk.Push(div.Divergence(s.Row(j), r.Row(i)), id);
    }
    out[i] = topk.SortedResults();
  }
  return out;
}

/// Byte-identity check between two join answers: same shape, same ids in
/// the same order, bit-equal distances.
inline void ExpectJoinIdentical(
    const std::vector<std::vector<Neighbor>>& got,
    const std::vector<std::vector<Neighbor>>& want,
    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size())
        << context << ", row " << i;
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j].id, want[i][j].id)
          << context << ", row " << i << ", rank " << j;
      EXPECT_EQ(got[i][j].distance, want[i][j].distance)
          << context << ", row " << i << ", rank " << j
          << " (distances must be bit-equal, not merely close)";
    }
  }
}

}  // namespace brep::testing

#endif  // BREP_TESTS_JOIN_JOIN_TEST_UTIL_H_
