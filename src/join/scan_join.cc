#include "join/scan_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "common/top_k.h"
#include "divergence/kernels.h"

namespace brep {
namespace {

/// Number of R row ranges a join is split into. A constant, so the
/// decomposition depends only on |R| (never on the thread count), which is
/// what makes parallel counters identical to sequential ones.
constexpr size_t kRowRanges = 64;

/// S rows per streamed block: at d = 20 a block is 40 KB, small enough to
/// stay in cache while every row of a range scans it.
constexpr size_t kBlockRows = 256;

}  // namespace

JoinResult ScanKnnJoin(const Matrix& r, const Matrix& s,
                       std::span<const uint32_t> s_ids,
                       const BregmanDivergence& div, size_t k,
                       ThreadPool* pool) {
  BREP_CHECK(r.rows() > 0 && s.rows() > 0);
  BREP_CHECK(r.cols() == div.dim() && s.cols() == div.dim());
  BREP_CHECK(s_ids.size() == s.rows());
  BREP_CHECK(k >= 1 && k <= s.rows());

  Timer timer;
  const size_t d = s.cols();
  const size_t ranges = std::min(kRowRanges, r.rows());
  const size_t blocks = (s.rows() + kBlockRows - 1) / kBlockRows;
  // Row offsets within a block; each block passes its own base pointer.
  std::vector<uint32_t> block_rows(std::min(kBlockRows, s.rows()));
  std::iota(block_rows.begin(), block_rows.end(), 0u);

  JoinResult out;
  out.neighbors.resize(r.rows());
  // One range's rows: their scans and heaps live only while it runs, and
  // it writes only its own result rows.
  const auto run_range = [&](size_t t) {
    const size_t begin = t * r.rows() / ranges;
    const size_t end = (t + 1) * r.rows() / ranges;
    std::vector<simd::DivergenceScan> scans;
    scans.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) scans.emplace_back(div, r.Row(i));
    std::vector<TopK> heaps(end - begin, TopK(k));
    std::vector<double> dist(block_rows.size());
    for (size_t b = 0; b < blocks; ++b) {
      const size_t first = b * kBlockRows;
      const size_t count = std::min(kBlockRows, s.rows() - first);
      const double* base = s.data().data() + first * d;
      for (size_t i = 0; i < scans.size(); ++i) {
        scans[i].BatchRows(base, d, block_rows.data(), count, dist.data());
        for (size_t j = 0; j < count; ++j) {
          heaps[i].Push(dist[j], s_ids[first + j]);
        }
      }
    }
    for (size_t i = begin; i < end; ++i) {
      out.neighbors[i] = heaps[i - begin].SortedResults();
    }
  };
  if (pool != nullptr && ranges > 1) {
    pool->ParallelFor(ranges,
                      [&](size_t t, size_t /*lane*/) { run_range(t); });
  } else {
    for (size_t t = 0; t < ranges; ++t) run_range(t);
  }
  out.stats.pairs_evaluated = uint64_t{r.rows()} * s.rows();
  out.stats.leaf_blocks = uint64_t{ranges} * blocks;
  out.stats.descent_ms = timer.ElapsedMillis();
  return out;
}

}  // namespace brep
