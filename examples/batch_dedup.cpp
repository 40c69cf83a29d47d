/// Batch near-duplicate detection with the kNN-join: index a corpus that
/// deliberately contains near-duplicate rows, self-join it (R = the corpus
/// itself) at k=2, and flag every row whose nearest OTHER row sits within a
/// divergence threshold. The join is one exact blocked scan: it evaluates
/// every (row, indexed point) pair through the batched SIMD kernels and
/// prunes nothing. On a clustered corpus like this one the index's filter
/// does prune, so KnnBatch over the same rows decides far fewer points and
/// is the faster call; the example times both.
///
///   $ ./batch_dedup
///
/// Self-validating: every planted duplicate pair must be flagged, the
/// rank-0 neighbor of each row must be the row itself at distance exactly
/// 0, the join must evaluate |R| times n pair distances, and every row
/// must match KnnBatch. Exits non-zero on any violation, so CI can run it
/// as a smoke test.

#include <cstdio>
#include <vector>

#include "api/index.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

int main() {
  using namespace brep;

  // 1. A corpus with planted near-duplicates: 2000 base rows, then 40
  //    copies perturbed by a tiny jitter (row 2000+i duplicates row 50*i).
  constexpr size_t kBase = 2000;
  constexpr size_t kDupes = 40;
  constexpr size_t kDim = 32;
  constexpr double kJitter = 1e-3;
  Rng rng(42);
  const Matrix base = MakeFontsLike(rng, kBase, kDim);
  std::vector<double> rows(base.data().begin(), base.data().end());
  rows.reserve((kBase + kDupes) * kDim);
  Rng jitter_rng(7);
  for (size_t i = 0; i < kDupes; ++i) {
    const auto src = base.Row(50 * i);
    for (size_t j = 0; j < kDim; ++j) {
      rows.push_back(src[j] * (1.0 + kJitter * jitter_rng.NextDouble()));
    }
  }
  const Matrix corpus(kBase + kDupes, kDim, std::move(rows));

  auto built = IndexBuilder("itakura_saito").Build(corpus);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("corpus: %zu rows (%zu planted near-duplicates), %s\n",
              corpus.rows(), kDupes, built->Describe().c_str());

  // 2. Self-join at k=2: rank 0 is the row itself (distance exactly 0),
  //    rank 1 is its nearest OTHER row -- the duplicate candidate.
  SearchIndex::Stats stats;
  const auto join = built->KnnJoin(corpus, 2, &stats);
  if (!join.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 join.status().ToString().c_str());
    return 1;
  }
  std::printf("join: %.1f ms, %llu pair distances (every row against "
              "every point)\n",
              stats.wall_ms,
              static_cast<unsigned long long>(join->stats.pairs_evaluated));
  if (join->stats.pairs_evaluated != corpus.rows() * corpus.rows()) {
    std::fprintf(stderr, "FAIL: the scan must evaluate %zu pairs\n",
                 corpus.rows() * corpus.rows());
    return 1;
  }

  // 3. Flag near-duplicates and validate the answer.
  constexpr double kThreshold = 1e-4;
  size_t flagged = 0;
  size_t planted_found = 0;
  for (size_t i = 0; i < corpus.rows(); ++i) {
    const auto& nn = join->neighbors[i];
    if (nn.size() != 2 || nn[0].id != i || nn[0].distance != 0.0) {
      std::fprintf(stderr, "row %zu: rank-0 neighbor is not itself\n", i);
      return 1;
    }
    if (nn[1].distance < kThreshold) {
      ++flagged;
      // A planted copy's nearest other row must be its source (or another
      // copy of it).
      if (i >= kBase && nn[1].id == 50 * (i - kBase)) ++planted_found;
    }
  }
  std::printf("flagged %zu rows below threshold %.0e; %zu/%zu planted "
              "copies point straight at their source\n",
              flagged, kThreshold, planted_found, kDupes);
  if (planted_found != kDupes) {
    std::fprintf(stderr, "FAIL: expected all %zu planted duplicates\n",
                 kDupes);
    return 1;
  }

  // 4. Cross-check: KnnBatch runs the same rows through the index's
  //    filter and must agree with the join on every row.
  SearchIndex::Stats batch_stats;
  const auto batch = built->KnnBatch(corpus, 2, &batch_stats);
  if (!batch.ok()) {
    std::fprintf(stderr, "KnnBatch failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < corpus.rows(); ++i) {
    if (!((*batch)[i] == join->neighbors[i])) {
      std::fprintf(stderr, "FAIL: join row %zu differs from KnnBatch\n", i);
      return 1;
    }
  }
  std::printf("KnnBatch on the same rows: %.1f ms, %llu candidates decided; "
              "every row identical to the join\n",
              batch_stats.wall_ms,
              static_cast<unsigned long long>(batch_stats.candidates));
  return 0;
}
