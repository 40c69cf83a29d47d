#include "core/bound.h"

#include <algorithm>
#include <cmath>

#include "common/build_counters.h"
#include "common/check.h"
#include "divergence/kernels.h"

namespace brep {

PointTuple TransformPoint(const BregmanDivergence& sub_div,
                          std::span<const double> x_sub) {
  BREP_DCHECK(x_sub.size() == sub_div.dim());
  PointTuple t;
  const simd::PhiSums sums =
      simd::PhiSumWithAbs(sub_div.kernel_info(), sub_div.generator(), x_sub,
                          sub_div.weights_span());
  t.alpha = sums.sum;
  t.alpha_abs = sums.abs_sum;
  for (double v : x_sub) t.gamma += v * v;
  return t;
}

QueryTriple TransformQuery(const BregmanDivergence& sub_div,
                           std::span<const double> y_sub) {
  BREP_DCHECK(y_sub.size() == sub_div.dim());
  QueryTriple t;
  t.alpha = -sub_div.F(y_sub);
  std::vector<double> grad(y_sub.size());
  sub_div.Gradient(y_sub, std::span<double>(grad));
  for (size_t j = 0; j < y_sub.size(); ++j) {
    t.beta_yy += y_sub[j] * grad[j];
    t.delta += grad[j] * grad[j];
  }
  return t;
}

double BetaXY(const BregmanDivergence& sub_div, std::span<const double> x_sub,
              std::span<const double> y_sub) {
  BREP_DCHECK(x_sub.size() == sub_div.dim());
  BREP_DCHECK(y_sub.size() == sub_div.dim());
  std::vector<double> grad(y_sub.size());
  sub_div.Gradient(y_sub, std::span<double>(grad));
  double acc = 0.0;
  for (size_t j = 0; j < x_sub.size(); ++j) acc -= x_sub[j] * grad[j];
  return acc;
}

TransformedDataset::TransformedDataset(
    const Matrix& data, std::span<const std::vector<size_t>> partitions,
    std::span<const BregmanDivergence> sub_divs)
    : n_(data.rows()), m_(partitions.size()) {
  BREP_CHECK(sub_divs.size() == m_);
  internal::GetBuildCounters().dataset_transform.fetch_add(
      1, std::memory_order_relaxed);
  std::vector<PointTuple> flat(n_ * m_);
  std::vector<double> sub;
  for (size_t m = 0; m < m_; ++m) {
    const auto& cols = partitions[m];
    BREP_CHECK(sub_divs[m].dim() == cols.size());
    sub.resize(cols.size());
    for (size_t i = 0; i < n_; ++i) {
      const auto row = data.Row(i);
      for (size_t c = 0; c < cols.size(); ++c) sub[c] = row[cols[c]];
      flat[i * m_ + m] = TransformPoint(sub_divs[m], sub);
    }
  }
  tuples_.Assign(std::span<const PointTuple>(flat));
  for (size_t i = 0; i < n_; ++i) {
    NoteLiveRow(std::span<const PointTuple>(flat).subspan(i * m_, m_));
  }
}

TransformedDataset::TransformedDataset(size_t n, size_t m,
                                       std::vector<PointTuple> tuples,
                                       std::span<const uint32_t> dead_ids)
    : n_(n), m_(m) {
  BREP_CHECK(tuples.size() == n * m);
  tuples_.Assign(std::span<const PointTuple>(tuples));
  std::vector<bool> dead(n, false);
  for (uint32_t id : dead_ids) {
    BREP_CHECK(id < n);
    dead[id] = true;
  }
  for (size_t i = 0; i < n_; ++i) {
    if (!dead[i]) {
      NoteLiveRow(std::span<const PointTuple>(tuples).subspan(i * m_, m_));
    }
  }
}

void TransformedDataset::NoteLiveRow(std::span<const PointTuple> row) {
  double alpha_abs = 0.0;
  double gamma = 0.0;
  for (const PointTuple& t : row) {
    alpha_abs += t.alpha_abs;
    gamma += t.gamma;
  }
  // A NaN sum sticks (std::max would drop it), and so does +inf: the
  // margin that reads the maxima then certifies nothing.
  if (std::isnan(alpha_abs) || alpha_abs > maxima_.alpha_abs) {
    maxima_.alpha_abs = alpha_abs;
  }
  if (std::isnan(gamma) || gamma > maxima_.gamma) maxima_.gamma = gamma;
}

TransformedDataset TransformedDataset::WholeSpace(
    const Matrix& data, const BregmanDivergence& div) {
  std::vector<size_t> all(data.cols());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;
  const std::vector<std::vector<size_t>> partitions{std::move(all)};
  return TransformedDataset(data, partitions, std::span(&div, 1));
}

void TransformedDataset::SetRow(size_t i, std::span<const PointTuple> row) {
  BREP_CHECK(i < n_ && row.size() == m_);
  for (size_t j = 0; j < m_; ++j) tuples_.Set(i * m_ + j, row[j]);
  NoteLiveRow(row);
}

void TransformedDataset::KillRow(size_t i) {
  BREP_CHECK(i < n_);
  for (size_t j = 0; j < m_; ++j) tuples_.Set(i * m_ + j, DeadTuple());
}

size_t TransformedDataset::AppendRow(std::span<const PointTuple> row) {
  BREP_CHECK(row.size() == m_);
  for (const PointTuple& t : row) tuples_.PushBack(t);
  NoteLiveRow(row);
  return n_++;
}

namespace {

// Grow-only resize; heap growth is what the allocation-regression test
// watches for in steady-state serving.
template <typename T>
void GrowTo(std::vector<T>& v, size_t n) {
  if (v.capacity() < n) {
    internal::GetBuildCounters().qb_scratch_allocs.fetch_add(
        1, std::memory_order_relaxed);
  }
  v.resize(n);
}

}  // namespace

void UBTotals(const TransformedDataset& st, std::span<const QueryTriple> q,
              bool record_ub, QBScratch* scratch) {
  QBScratch& s = *scratch;
  const size_t n = st.num_points();
  const size_t m = st.num_partitions();
  BREP_CHECK(q.size() == m);
  GrowTo(s.totals, n);
  if (record_ub) GrowTo(s.ub, n * m);
  GrowTo(s.stitch, m);
  double* ub = record_ub ? s.ub.data() : nullptr;

  // Total upper bound per point (Algorithm 4, lines 2-9), batched through
  // the UB kernel over maximal runs of contiguous rows within each CowVec
  // chunk. A row straddling a chunk boundary is stitched together and
  // evaluated as a single-row block, keeping totals byte-identical to the
  // flat loop.
  size_t g = 0;         // global tuple index of the current span's start
  size_t stitched = 0;  // tuples collected so far for a straddling row
  st.ForEachTupleSpan([&](std::span<const PointTuple> span) {
    size_t off = 0;
    if (stitched > 0) {
      const size_t take = std::min(m - stitched, span.size());
      std::copy_n(span.data(), take, s.stitch.data() + stitched);
      stitched += take;
      off = take;
      if (stitched == m) {
        const size_t row = (g + off) / m - 1;
        simd::UBTotalsBlock(s.stitch.data(), 1, m, q.data(),
                            s.totals.data() + row, ub, n, row);
        stitched = 0;
      }
    }
    const size_t rows_here = (span.size() - off) / m;
    if (rows_here > 0) {
      const size_t first_row = (g + off) / m;
      simd::UBTotalsBlock(span.data() + off, rows_here, m, q.data(),
                          s.totals.data() + first_row, ub, n, first_row);
      off += rows_here * m;
    }
    if (off < span.size()) {
      std::copy_n(span.data() + off, span.size() - off, s.stitch.data());
      stitched = span.size() - off;
    }
    g += span.size();
  });
}

QueryBounds QBDetermine(const TransformedDataset& st,
                        std::span<const QueryTriple> q, size_t k,
                        QBScratch* scratch) {
  const size_t n = st.num_points();
  const size_t m = st.num_partitions();
  BREP_CHECK(k >= 1 && k <= n);

  static thread_local QBScratch tls_scratch;
  QBScratch& s = scratch != nullptr ? *scratch : tls_scratch;
  // The anchor's radii are read back from s.ub instead of recomputed.
  UBTotals(st, q, /*record_ub=*/true, &s);
  GrowTo(s.ids, n);

  // k-th smallest via selection (line 10).
  for (size_t i = 0; i < n; ++i) s.ids[i] = static_cast<uint32_t>(i);
  std::nth_element(s.ids.begin(), s.ids.begin() + static_cast<ptrdiff_t>(k - 1),
                   s.ids.begin() + static_cast<ptrdiff_t>(n),
                   [&](uint32_t a, uint32_t b) {
                     if (s.totals[a] != s.totals[b]) {
                       return s.totals[a] < s.totals[b];
                     }
                     return a < b;
                   });
  const uint32_t anchor = s.ids[k - 1];

  QueryBounds qb;
  qb.anchor_id = anchor;
  qb.total = s.totals[anchor];
  qb.radii.resize(m);
  for (size_t j = 0; j < m; ++j) {
    qb.radii[j] = s.ub[j * n + anchor];
  }
  return qb;
}

}  // namespace brep
