#include "api/search_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "api/index.h"
#include "baselines/linear_scan.h"
#include "common/timer.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "divergence/factory.h"
#include "storage/point_store.h"

namespace brep {
namespace {

std::string Shape(size_t n, size_t d) {
  return "n=" + std::to_string(n) + ", d=" + std::to_string(d);
}

/// Measures the pager's read delta across one backend call; tolerates
/// pager-less backends (linear scan) by reporting 0.
class IoDelta {
 public:
  explicit IoDelta(const Pager* pager)
      : pager_(pager), before_(pager != nullptr ? pager->stats() : IoStats{}) {}
  uint64_t reads() const {
    return pager_ != nullptr ? (pager_->stats() - before_).reads : 0;
  }

 private:
  const Pager* pager_;
  IoStats before_;
};

/// The single-tree adapters' mapping (see WorkCounters): a whole-space
/// tree evaluates its leaf points exactly, so they are the call's
/// candidates.
void AddTreeWork(const WorkCounters& tree, const IoDelta& io,
                 SearchIndex::Stats* st) {
  st->io_reads += io.reads();
  st->nodes_visited += tree.nodes_visited;
  st->candidates += tree.points_evaluated;
  st->exact_evals += tree.exact_evals;
  st->ball_steps += tree.ball_steps;
}

Status CheckCommon(const Pager* pager, const Matrix& data,
                   const BregmanDivergence& div, bool needs_pager) {
  if (needs_pager && pager == nullptr) {
    return Status::InvalidArgument(
        "this backend is disk-resident and requires a pager");
  }
  if (data.empty()) {
    return Status::InvalidArgument("dataset is empty (zero rows)");
  }
  if (data.cols() != div.dim()) {
    return Status::InvalidArgument(
        "data has " + std::to_string(data.cols()) +
        " columns but the divergence is over " + std::to_string(div.dim()) +
        " dimensions");
  }
  if (needs_pager &&
      PointStore::PointsPerPage(pager->page_size(), data.cols()) == 0) {
    return Status::InvalidArgument(
        "page size " + std::to_string(pager->page_size()) +
        " is too small to hold one " + std::to_string(data.cols()) +
        "-dimensional point");
  }
  return Status::Ok();
}

// ------------------------------------------------------------------------
// Adapters. Each one maps a backend's native call signature and stats
// struct onto the SearchIndex contract; all argument validation already
// happened in the public wrappers.

class BBTreeBackend final : public SearchIndex {
 public:
  BBTreeBackend(Pager* pager, const Matrix& data, const BregmanDivergence& div,
                const BBTBaselineConfig& config)
      : pager_(pager), n_(data.rows()),
        bbt_(std::make_unique<BBTBaseline>(pager, data, div, config)),
        tuples_(TransformedDataset::WholeSpace(data, div)) {}

  std::string Describe() const override {
    return "bbtree(divergence=" + bbt_->tree().divergence().Name() + ", " +
           Shape(n_, dim()) + ", exact)";
  }
  size_t dim() const override { return bbt_->tree().dim(); }
  size_t num_points() const override { return n_; }
  bool exact() const override { return true; }

 protected:
  const BregmanDivergence* QueryDivergence() const override {
    return &bbt_->tree().divergence();
  }

  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* st) const override {
    IoDelta io(pager_);
    WorkCounters tree;
    auto result = bbt_->KnnSearch(y, k, &tree);
    AddTreeWork(tree, io, st);
    return result;
  }

  StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                            double radius,
                                            Stats* st) const override {
    IoDelta io(pager_);
    WorkCounters tree;
    // The whole-space tree's leaves store full vectors, so the exact range
    // algorithm answers directly from index pages.
    std::vector<uint32_t> ids = bbt_->tree().RangeSearchExact(
        y, radius, tuples_, /*partition=*/0, &tree);
    std::sort(ids.begin(), ids.end());
    AddTreeWork(tree, io, st);
    return ids;
  }

 private:
  Pager* pager_;
  size_t n_;
  std::unique_ptr<BBTBaseline> bbt_;
  /// The one-partition table RangeSearchExact decides leaf points from.
  TransformedDataset tuples_;
};

class VAFileBackend final : public SearchIndex {
 public:
  VAFileBackend(Pager* pager, const Matrix& data, const BregmanDivergence& div,
                const VAFileConfig& config)
      : pager_(pager), dim_(div.dim()), name_(div.Name()), div_(div),
        vaf_(std::make_unique<VAFile>(pager, data, div, config)) {}

  std::string Describe() const override {
    return "vafile(divergence=" + name_ + ", " +
           Shape(vaf_->num_points(), dim_) + ", exact)";
  }
  size_t dim() const override { return dim_; }
  size_t num_points() const override { return vaf_->num_points(); }
  bool exact() const override { return true; }

 protected:
  const BregmanDivergence* QueryDivergence() const override { return &div_; }

  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* st) const override {
    IoDelta io(pager_);
    VAFileStats vs;
    auto result = vaf_->KnnSearch(y, k, &vs);
    st->io_reads += io.reads();
    st->candidates += vs.candidates;
    return result;
  }

 private:
  Pager* pager_;
  size_t dim_;
  std::string name_;
  /// Owned copy (cheap: a shared generator + the weight vector) -- the
  /// caller's divergence is not required to outlive this adapter.
  BregmanDivergence div_;
  std::unique_ptr<VAFile> vaf_;
};

class LinearScanBackend final : public SearchIndex {
 public:
  LinearScanBackend(const Matrix& data, const BregmanDivergence& div)
      : n_(data.rows()), dim_(div.dim()), name_(div.Name()), div_(div),
        scan_(std::make_unique<LinearScan>(data, div)) {}

  std::string Describe() const override {
    return "scan(divergence=" + name_ + ", " + Shape(n_, dim_) + ", exact)";
  }
  size_t dim() const override { return dim_; }
  size_t num_points() const override { return n_; }
  bool exact() const override { return true; }

 protected:
  const BregmanDivergence* QueryDivergence() const override { return &div_; }

  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* st) const override {
    st->candidates += n_;
    return scan_->KnnSearch(y, k);
  }

  StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                            double radius,
                                            Stats* st) const override {
    st->candidates += n_;
    return scan_->RangeSearch(y, radius);
  }

 private:
  size_t n_;
  size_t dim_;
  std::string name_;
  BregmanDivergence div_;  // owned copy; see VAFileBackend
  std::unique_ptr<LinearScan> scan_;
};

class VarBackend final : public SearchIndex {
 public:
  VarBackend(Pager* pager, const Matrix& data, const BregmanDivergence& div,
             const VarBaselineConfig& config)
      : pager_(pager), n_(data.rows()), dim_(div.dim()), name_(div.Name()),
        div_(div), min_expected_hits_(config.min_expected_hits),
        var_(std::make_unique<VarBaseline>(pager, data, div, config)) {}

  std::string Describe() const override {
    return "var(min_expected_hits=" + std::to_string(min_expected_hits_) +
           ", divergence=" + name_ + ", " + Shape(n_, dim_) +
           ", approximate)";
  }
  size_t dim() const override { return dim_; }
  size_t num_points() const override { return n_; }
  bool exact() const override { return false; }

 protected:
  const BregmanDivergence* QueryDivergence() const override { return &div_; }

  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* st) const override {
    IoDelta io(pager_);
    WorkCounters tree;
    auto result = var_->KnnSearch(y, k, &tree);
    AddTreeWork(tree, io, st);
    return result;
  }

 private:
  Pager* pager_;
  size_t n_;
  size_t dim_;
  std::string name_;
  BregmanDivergence div_;  // owned copy; see VAFileBackend
  double min_expected_hits_;
  std::unique_ptr<VarBaseline> var_;
};

class ApproximateBackend final : public SearchIndex {
 public:
  /// `owned` may be null when the exact index is borrowed (the facade's
  /// Index::Approximate); `bp` always points at the live exact index.
  ApproximateBackend(std::unique_ptr<BrePartition> owned,
                     const BrePartition* bp, const ApproximateConfig& config)
      : owned_(std::move(owned)), probability_(config.probability),
        abp_(std::make_unique<ApproximateBrePartition>(bp, config)),
        bp_(bp) {}

  std::string Describe() const override {
    return "abp(p=" + std::to_string(probability_) +
           ", M=" + std::to_string(bp_->num_partitions()) +
           ", divergence=" + bp_->divergence().Name() + ", " +
           Shape(bp_->num_points(), bp_->divergence().dim()) +
           ", approximate)";
  }
  size_t dim() const override { return bp_->divergence().dim(); }
  size_t num_points() const override { return bp_->num_points(); }
  bool exact() const override { return false; }

 protected:
  const BregmanDivergence* QueryDivergence() const override {
    return &bp_->divergence();
  }

  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* st) const override {
    QueryStats qs;
    auto result = abp_->KnnSearch(y, k, &qs);
    st->Add(qs);
    return result;
  }

 private:
  std::unique_ptr<BrePartition> owned_;
  double probability_;
  std::unique_ptr<ApproximateBrePartition> abp_;
  const BrePartition* bp_;
};

Status ValidateApproximateConfig(const ApproximateConfig& config) {
  if (!(config.probability > 0.0) || !(config.probability <= 1.0)) {
    return Status::InvalidArgument(
        "approximate probability guarantee must be in (0, 1], got " +
        std::to_string(config.probability));
  }
  if (config.distribution_sample < 10) {
    return Status::InvalidArgument(
        "approximate distribution_sample must be >= 10, got " +
        std::to_string(config.distribution_sample));
  }
  if (config.histogram_bins == 0) {
    return Status::InvalidArgument("approximate histogram_bins must be >= 1");
  }
  return Status::Ok();
}

// ------------------------------------------------------------------------
// Registry.

using Factory = StatusOr<std::unique_ptr<SearchIndex>> (*)(
    Pager*, const Matrix&, const BregmanDivergence&, const BackendOptions&);

StatusOr<std::unique_ptr<SearchIndex>> MakeBrePartitionBackend(
    Pager* pager, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& options) {
  BREP_RETURN_IF_ERROR(
      ValidateBrePartitionConfig(options.brepartition, data, div, pager));
  // An Index commits catalogs onto its pager, copies all of it on Save and
  // audits every page of it as its own, so it gets a disk of its own with
  // the shared pager's page size.
  IndexOptions index_options;
  index_options.config = options.brepartition;
  index_options.page_size = pager->page_size();
  BREP_ASSIGN_OR_RETURN(Index index, Index::Build(data, div, index_options));
  return std::unique_ptr<SearchIndex>(
      std::make_unique<Index>(std::move(index)));
}

StatusOr<std::unique_ptr<SearchIndex>> MakeBBTreeBackend(
    Pager* pager, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& options) {
  BREP_RETURN_IF_ERROR(CheckCommon(pager, data, div, /*needs_pager=*/true));
  if (options.bbtree.tree.max_leaf_size == 0) {
    return Status::InvalidArgument("bbtree max_leaf_size must be >= 1");
  }
  if (options.bbtree.pool_pages == 0) {
    return Status::InvalidArgument("bbtree pool_pages must be >= 1");
  }
  return std::unique_ptr<SearchIndex>(
      new BBTreeBackend(pager, data, div, options.bbtree));
}

StatusOr<std::unique_ptr<SearchIndex>> MakeVAFileBackend(
    Pager* pager, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& options) {
  BREP_RETURN_IF_ERROR(CheckCommon(pager, data, div, /*needs_pager=*/true));
  const size_t bits = options.vafile.bits_per_dim;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("vafile bits_per_dim must be in [1, 16]");
  }
  // One packed approximation of the (d+1)-dimensional extended space must
  // fit a page, or the VA-file constructor aborts.
  const size_t approx_bytes = ((data.cols() + 1) * bits + 7) / 8;
  if (approx_bytes > pager->page_size()) {
    return Status::InvalidArgument(
        "page size " + std::to_string(pager->page_size()) +
        " is too small for one VA-file approximation (" +
        std::to_string(approx_bytes) + " bytes)");
  }
  return std::unique_ptr<SearchIndex>(
      new VAFileBackend(pager, data, div, options.vafile));
}

StatusOr<std::unique_ptr<SearchIndex>> MakeLinearScanBackend(
    Pager* /*pager*/, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& /*options*/) {
  BREP_RETURN_IF_ERROR(
      CheckCommon(nullptr, data, div, /*needs_pager=*/false));
  return std::unique_ptr<SearchIndex>(new LinearScanBackend(data, div));
}

StatusOr<std::unique_ptr<SearchIndex>> MakeVarBackend(
    Pager* pager, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& options) {
  BREP_RETURN_IF_ERROR(CheckCommon(pager, data, div, /*needs_pager=*/true));
  if (!(options.var.min_expected_hits >= 0.0) ||
      !std::isfinite(options.var.min_expected_hits)) {
    return Status::InvalidArgument(
        "var min_expected_hits must be finite and >= 0");
  }
  if (options.var.base.tree.max_leaf_size == 0 ||
      options.var.base.pool_pages == 0) {
    return Status::InvalidArgument(
        "var base tree needs max_leaf_size >= 1 and pool_pages >= 1");
  }
  return std::unique_ptr<SearchIndex>(
      new VarBackend(pager, data, div, options.var));
}

StatusOr<std::unique_ptr<SearchIndex>> MakeAbpBackend(
    Pager* pager, const Matrix& data, const BregmanDivergence& div,
    const BackendOptions& options) {
  BREP_RETURN_IF_ERROR(
      ValidateBrePartitionConfig(options.brepartition, data, div, pager));
  BREP_RETURN_IF_ERROR(ValidateApproximateConfig(options.approximate));
  auto bp =
      std::make_unique<BrePartition>(pager, data, div, options.brepartition);
  const BrePartition* raw = bp.get();
  return std::unique_ptr<SearchIndex>(
      new ApproximateBackend(std::move(bp), raw, options.approximate));
}

struct BackendEntry {
  const char* name;
  Factory factory;
};

constexpr BackendEntry kRegistry[] = {
    {"brepartition", &MakeBrePartitionBackend},
    {"bbtree", &MakeBBTreeBackend},
    {"vafile", &MakeVAFileBackend},
    {"scan", &MakeLinearScanBackend},
    {"var", &MakeVarBackend},
    {"abp", &MakeAbpBackend},
};

}  // namespace

// ------------------------------------------------------------------------
// SearchIndex: validated public wrappers over the backend hooks.

Status SearchIndex::CheckEvaluable(std::span<const double> v,
                                   const std::string& what) const {
  const BregmanDivergence* div = QueryDivergence();
  if (div == nullptr || div->EvalFinite(v)) return Status::Ok();
  return Status::InvalidArgument(
      what + " cannot be evaluated under divergence " + div->Name() +
      ": phi is outside the generator domain or overflows on at least one "
      "coordinate, which would turn divergences into NaN");
}

void SearchIndex::Stats::Add(const QueryStats& qs) {
  *this += static_cast<const WorkCounters&>(qs);
  radius_total += qs.radius_total;
  approx_coefficient = qs.approx_coefficient;
}

StatusOr<uint32_t> SearchIndex::Insert(std::span<const double> point,
                                       Stats* stats) {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (point.size() != dim()) {
    return Status::InvalidArgument(
        "point has " + std::to_string(point.size()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  BREP_RETURN_IF_ERROR(CheckEvaluable(point, "insert point"));
  Timer timer;
  auto result = InsertImpl(point, &st);
  if (result.ok()) st.inserts = 1;
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

Status SearchIndex::Delete(uint32_t id, Stats* stats) {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  Timer timer;
  const Status result = DeleteImpl(id, &st);
  if (result.ok()) st.deletes = 1;
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<uint32_t> SearchIndex::InsertImpl(std::span<const double>, Stats*) {
  return Status::FailedPrecondition(Describe() +
                                    " is read-only (no update support)");
}

Status SearchIndex::DeleteImpl(uint32_t, Stats*) {
  return Status::FailedPrecondition(Describe() +
                                    " is read-only (no update support)");
}

StatusOr<std::vector<Neighbor>> SearchIndex::Knn(std::span<const double> query,
                                                 size_t k,
                                                 Stats* stats) const {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (query.size() != dim()) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (k > num_points()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " exceeds the number of indexed points (" +
        std::to_string(num_points()) + ")");
  }
  BREP_RETURN_IF_ERROR(CheckEvaluable(query, "query"));
  st.queries = 1;
  Timer timer;
  auto result = KnnImpl(query, k, &st);
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<std::vector<uint32_t>> SearchIndex::Range(
    std::span<const double> query, double radius, Stats* stats) const {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (query.size() != dim()) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  if (!(radius >= 0.0)) {  // also catches NaN
    return Status::InvalidArgument("range radius must be >= 0, got " +
                                   std::to_string(radius));
  }
  BREP_RETURN_IF_ERROR(CheckEvaluable(query, "query"));
  st.queries = 1;
  Timer timer;
  auto result = RangeImpl(query, radius, &st);
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<std::vector<std::vector<Neighbor>>> SearchIndex::KnnBatch(
    const Matrix& queries, size_t k, Stats* stats) const {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (!queries.empty() && queries.cols() != dim()) {
    return Status::InvalidArgument(
        "batch queries have " + std::to_string(queries.cols()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (k > num_points()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " exceeds the number of indexed points (" +
        std::to_string(num_points()) + ")");
  }
  if (queries.empty()) return std::vector<std::vector<Neighbor>>{};
  for (size_t q = 0; q < queries.rows(); ++q) {
    BREP_RETURN_IF_ERROR(
        CheckEvaluable(queries.Row(q), "batch query " + std::to_string(q)));
  }
  st.queries = queries.rows();
  Timer timer;
  auto result = KnnBatchImpl(queries, k, &st);
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<std::vector<std::vector<uint32_t>>> SearchIndex::RangeBatch(
    const Matrix& queries, double radius, Stats* stats) const {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (!queries.empty() && queries.cols() != dim()) {
    return Status::InvalidArgument(
        "batch queries have " + std::to_string(queries.cols()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  if (!(radius >= 0.0)) {
    return Status::InvalidArgument("range radius must be >= 0, got " +
                                   std::to_string(radius));
  }
  if (queries.empty()) return std::vector<std::vector<uint32_t>>{};
  for (size_t q = 0; q < queries.rows(); ++q) {
    BREP_RETURN_IF_ERROR(
        CheckEvaluable(queries.Row(q), "batch query " + std::to_string(q)));
  }
  st.queries = queries.rows();
  Timer timer;
  auto result = RangeBatchImpl(queries, radius, &st);
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<JoinResult> SearchIndex::KnnJoin(const Matrix& r, size_t k,
                                          Stats* stats) const {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};
  if (r.empty()) {
    return Status::InvalidArgument("join query set R is empty (zero rows)");
  }
  if (r.cols() != dim()) {
    return Status::InvalidArgument(
        "join query set has " + std::to_string(r.cols()) +
        " dimensions, index expects " + std::to_string(dim()));
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (k > num_points()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " exceeds the number of indexed points (" +
        std::to_string(num_points()) + ")");
  }
  for (size_t q = 0; q < r.rows(); ++q) {
    BREP_RETURN_IF_ERROR(
        CheckEvaluable(r.Row(q), "join query row " + std::to_string(q)));
  }
  st.queries = r.rows();
  Timer timer;
  auto result = KnnJoinImpl(r, k, &st);
  st.wall_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<std::vector<uint32_t>> SearchIndex::RangeImpl(
    std::span<const double> /*y*/, double /*radius*/, Stats* /*stats*/) const {
  return Status::Unimplemented("backend " + Describe() +
                               " does not support range search");
}

StatusOr<std::vector<std::vector<Neighbor>>> SearchIndex::KnnBatchImpl(
    const Matrix& queries, size_t k, Stats* stats) const {
  std::vector<std::vector<Neighbor>> out;
  out.reserve(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    BREP_ASSIGN_OR_RETURN(auto result, KnnImpl(queries.Row(q), k, stats));
    out.push_back(std::move(result));
  }
  return out;
}

StatusOr<JoinResult> SearchIndex::KnnJoinImpl(const Matrix& r, size_t k,
                                              Stats* stats) const {
  JoinResult out;
  out.neighbors.reserve(r.rows());
  for (size_t q = 0; q < r.rows(); ++q) {
    BREP_ASSIGN_OR_RETURN(auto result, KnnImpl(r.Row(q), k, stats));
    out.neighbors.push_back(std::move(result));
  }
  out.stats.pairs_evaluated = stats->candidates;
  return out;
}

StatusOr<std::vector<std::vector<uint32_t>>> SearchIndex::RangeBatchImpl(
    const Matrix& queries, double radius, Stats* stats) const {
  std::vector<std::vector<uint32_t>> out;
  out.reserve(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    BREP_ASSIGN_OR_RETURN(auto result, RangeImpl(queries.Row(q), radius,
                                                 stats));
    out.push_back(std::move(result));
  }
  return out;
}

// ------------------------------------------------------------------------
// Registry surface.

std::vector<std::string> RegisteredBackends() {
  std::vector<std::string> names;
  for (const BackendEntry& entry : kRegistry) names.push_back(entry.name);
  return names;
}

StatusOr<std::unique_ptr<SearchIndex>> MakeSearchIndex(
    const std::string& backend, Pager* pager, const Matrix& data,
    const BregmanDivergence& div, const BackendOptions& options) {
  for (const BackendEntry& entry : kRegistry) {
    if (backend == entry.name) return entry.factory(pager, data, div, options);
  }
  std::string names;
  for (const BackendEntry& entry : kRegistry) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return Status::NotFound("unknown backend \"" + backend +
                          "\"; registered backends: " + names);
}

StatusOr<std::unique_ptr<SearchIndex>> MakeSearchIndex(
    const std::string& backend, Pager* pager, const Matrix& data,
    const std::string& divergence, const BackendOptions& options) {
  if (data.empty()) {
    // Before constructing the divergence: its dimensionality would be the
    // matrix's zero column count, which the implementation layer aborts on.
    return Status::InvalidArgument("dataset is empty (zero rows)");
  }
  BREP_ASSIGN_OR_RETURN(auto generator, ParseGenerator(divergence));
  return MakeSearchIndex(backend, pager, data,
                         BregmanDivergence(std::move(generator), data.cols()),
                         options);
}

StatusOr<std::unique_ptr<SearchIndex>> MakeApproximateIndex(
    const BrePartition& bp, const ApproximateConfig& config) {
  BREP_RETURN_IF_ERROR(ValidateApproximateConfig(config));
  if (!bp.has_data()) {
    return Status::FailedPrecondition(
        "the approximate extension samples raw data rows, which an index "
        "reopened from a file does not have; build the index from data to "
        "use it");
  }
  return std::unique_ptr<SearchIndex>(
      new ApproximateBackend(nullptr, &bp, config));
}

Status ValidateBrePartitionConfig(const BrePartitionConfig& config,
                                  const Matrix& data,
                                  const BregmanDivergence& div,
                                  const Pager* pager) {
  BREP_RETURN_IF_ERROR(CheckCommon(pager, data, div, /*needs_pager=*/true));
  if (!div.generator().PartitionSafe()) {
    return Status::InvalidArgument(
        "divergence " + div.Name() +
        " is not cumulative under dimensionality partitioning (paper "
        "Section 3.1); use the bbtree, vafile or scan backend for it");
  }
  if (config.num_partitions > data.cols()) {
    return Status::InvalidArgument(
        "num_partitions = " + std::to_string(config.num_partitions) +
        " exceeds the dimensionality (" + std::to_string(data.cols()) + ")");
  }
  if (config.max_partitions == 0) {
    return Status::InvalidArgument("max_partitions must be >= 1");
  }
  if (config.num_partitions == 0 &&
      config.min_partitions > config.max_partitions) {
    return Status::InvalidArgument(
        "min_partitions (" + std::to_string(config.min_partitions) +
        ") exceeds max_partitions (" + std::to_string(config.max_partitions) +
        ")");
  }
  if (config.fit_samples == 0) {
    return Status::InvalidArgument(
        "fit_samples must be >= 1 (the cost model needs samples)");
  }
  if (config.fit_eval_limit == 0) {
    return Status::InvalidArgument("fit_eval_limit must be >= 1");
  }
  if (config.pccp_sample_rows == 0 &&
      config.strategy == PartitionStrategy::kPccp) {
    return Status::InvalidArgument(
        "pccp_sample_rows must be >= 1 under the PCCP strategy");
  }
  if (config.forest.pool_pages == 0) {
    return Status::InvalidArgument("forest pool_pages must be >= 1");
  }
  if (config.forest.tree.max_leaf_size == 0) {
    return Status::InvalidArgument("forest max_leaf_size must be >= 1");
  }
  return Status::Ok();
}

}  // namespace brep
