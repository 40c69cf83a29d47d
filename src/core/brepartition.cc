#include "core/brepartition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "common/check.h"
#include "common/timer.h"
#include "core/pccp.h"
#include "divergence/factory.h"
#include "divergence/generators.h"
#include "divergence/kernels.h"
#include "storage/file_pager.h"
#include "storage/serial.h"

namespace brep {
namespace {

// "BREPCAT1" as a little-endian u64; distinct from the FilePager superblock
// magic so a catalog page mistaken for a superblock (or vice versa) is
// rejected immediately.
constexpr uint64_t kCatalogMagic = 0x3154414350455242ull;
// v2 added dynamic-update state: free ids, the slot-accurate point-store
// layout, and the trees' mutation metadata (chunks, split config, counts).
// v3 widened the stored tuples by PointTuple::alpha_abs (the certified
// identity evaluation's magnitude term).
constexpr uint32_t kCatalogVersion = 3;

}  // namespace

BrePartition::BrePartition(Pager* pager, const Matrix& data,
                           const BregmanDivergence& div,
                           const BrePartitionConfig& config)
    : pager_(pager), data_(&data), div_(div), config_(config) {
  BREP_CHECK(pager_ != nullptr);
  BREP_CHECK(!data.empty());
  BREP_CHECK(data.cols() == div_.dim());
  BREP_CHECK_MSG(div_.generator().PartitionSafe(),
                 "divergence is not cumulative under dimensionality "
                 "partitioning (see paper Section 3.1; e.g. KL)");

  Rng rng(config_.seed);

  // 1. Number of partitions (Theorem 4), unless pinned by the caller.
  size_t m = config_.num_partitions;
  fit_ = FitCostModel(data, div_, rng, config_.fit_samples, 2,
                      std::min<size_t>(8, data.cols()),
                      config_.fit_eval_limit);
  if (m == 0) {
    m = OptimalNumPartitions(fit_, data.rows(), data.cols(), /*k=*/1,
                             config_.max_partitions);
    m = std::max(m, std::min(std::max<size_t>(config_.min_partitions, 1),
                             data.cols()));
  }
  BREP_CHECK(m >= 1 && m <= data.cols());

  // 2. Dimension assignment.
  switch (config_.strategy) {
    case PartitionStrategy::kPccp:
      partitions_ = PccpPartition(data, m, rng, config_.pccp_sample_rows);
      break;
    case PartitionStrategy::kEqualContiguous:
      partitions_ = EqualContiguousPartition(data.cols(), m);
      break;
    case PartitionStrategy::kRandom:
      partitions_ = RandomPartition(data.cols(), m, rng);
      break;
  }
  BREP_CHECK(IsValidPartitioning(partitions_, data.cols()));

  sub_divs_.reserve(partitions_.size());
  for (const auto& cols : partitions_) {
    sub_divs_.push_back(div_.Restrict(cols));
  }

  // 3. Offline point transform (Algorithm 2 over the dataset).
  transformed_ = TransformedDataset(data, partitions_, sub_divs_);

  // 4. Disk-resident BB-forest.
  forest_ = std::make_unique<BBForest>(pager_, data, div_, partitions_,
                                       config_.forest, transformed_);
  live_points_ = data.rows();
  PublishVersionLocked();  // version 1: construction is single-threaded
}

std::optional<uint32_t> BrePartition::Insert(std::span<const double> x) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::optional<uint32_t> id = InsertLocked(x);
  if (id.has_value()) PublishVersionLocked();
  return id;
}

uint32_t BrePartition::NextInsertIdLocked() const {
  return free_ids_.empty() ? static_cast<uint32_t>(transformed_.num_points())
                           : free_ids_.back();
}

std::optional<uint32_t> BrePartition::InsertLocked(std::span<const double> x) {
  BREP_CHECK(x.size() == div_.dim());
  BREP_CHECK_MSG(div_.InDomain(x),
                 "inserted point outside the divergence domain");
  if (updates_frozen_) return std::nullopt;

  // Algorithm 2 on the new point: per-subspace tuples for the bound phase.
  const auto subs = GatherQuery(x);
  std::vector<PointTuple> row(partitions_.size());
  for (size_t m = 0; m < partitions_.size(); ++m) {
    row[m] = TransformPoint(sub_divs_[m], subs[m]);
  }

  uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    transformed_.SetRow(id, row);
  } else {
    id = static_cast<uint32_t>(transformed_.AppendRow(row));
  }
  forest_->Insert(id, x);
  ++live_points_;
  ++inserts_;
  return id;
}

BrePartition::UpdateOutcome BrePartition::Delete(uint32_t id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const UpdateOutcome out = DeleteLocked(id);
  if (out == UpdateOutcome::kApplied) PublishVersionLocked();
  return out;
}

BrePartition::UpdateOutcome BrePartition::DeleteLocked(uint32_t id) {
  if (updates_frozen_) return UpdateOutcome::kFrozen;
  if (!forest_->Delete(id)) return UpdateOutcome::kNotFound;
  // Poison the tuple row: the deleted point's total upper bound becomes
  // +infinity, so the bound phase (which scans the whole dense table) never
  // picks it as a seed or as QBDetermine's k-th searching bound.
  transformed_.KillRow(id);
  free_ids_.push_back(id);
  --live_points_;
  ++deletes_;
  return UpdateOutcome::kApplied;
}

BrePartition::FreezeOutcome BrePartition::FreezeUpdates() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (inserts_ + deletes_ > 0) return FreezeOutcome::kMutated;
  if (updates_frozen_) return FreezeOutcome::kAlreadyFrozen;
  updates_frozen_ = true;
  return FreezeOutcome::kFroze;
}

void BrePartition::UnfreezeUpdates() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  updates_frozen_ = false;
}

bool BrePartition::Contains(uint32_t id) const {
  const ReadView view = OpenReadView();
  return view.forest().Contains(id);
}

void BrePartition::DebugCheckInvariants() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  forest_->DebugCheckInvariants();
  BREP_CHECK_MSG(forest_->num_points() == live_points_,
                 "forest and index disagree on the live point count");

  // Id space: every id is live exactly once or tombstoned exactly once.
  const size_t n = transformed_.num_points();
  BREP_CHECK_MSG(live_points_ + free_ids_.size() == n,
                 "id space does not split into live + tombstoned");
  std::unordered_set<uint32_t> dead(free_ids_.begin(), free_ids_.end());
  BREP_CHECK_MSG(dead.size() == free_ids_.size(), "duplicate tombstoned id");
  for (uint32_t id = 0; id < n; ++id) {
    BREP_CHECK_MSG(forest_->Contains(id) != (dead.count(id) > 0),
                   "id neither live nor tombstoned (or both)");
  }

  // Page accounting: every pager page is referenced by exactly one live
  // structure or sits on the (acyclic, validated) free-list.
  std::vector<PageId> live = forest_->LivePages();
  const CatalogRef& ref = pager_->catalog();
  if (ref.valid()) {
    for (uint32_t i = 0; i < ref.num_pages; ++i) {
      live.push_back(ref.first_page + i);
    }
  }
  std::sort(live.begin(), live.end());
  BREP_CHECK_MSG(std::adjacent_find(live.begin(), live.end()) == live.end(),
                 "page referenced by two structures");
  std::vector<PageId> free = pager_->FreePageIds();
  std::sort(free.begin(), free.end());
  std::vector<PageId> both;
  std::set_intersection(live.begin(), live.end(), free.begin(), free.end(),
                        std::back_inserter(both));
  BREP_CHECK_MSG(both.empty(), "free-list overlaps live pages");
  BREP_CHECK_MSG(live.size() + free.size() == pager_->num_pages(),
                 "pager pages leaked (neither live nor free)");
}

const Matrix& BrePartition::data() const {
  BREP_CHECK_MSG(data_ != nullptr,
                 "no data matrix attached (index reopened via Open); only "
                 "construction from data provides one");
  return *data_;
}

void BrePartition::Save(uint64_t durable_lsn) const {
  // Save writes catalog pages and (when replacing a previous run) mutates
  // the free-list; readers keep serving from their pinned snapshots.
  std::lock_guard<std::mutex> lock(writer_mu_);
  SaveLocked(durable_lsn);
}

void BrePartition::SaveTo(Pager* out, uint64_t durable_lsn) const {
  // One writer-mutex acquisition across commit AND copy: a concurrent
  // writer can never interleave and tear the snapshot.
  std::lock_guard<std::mutex> lock(writer_mu_);
  SaveToLocked(out, durable_lsn);
}

void BrePartition::SaveToLocked(Pager* out, uint64_t durable_lsn) const {
  BREP_CHECK(out != nullptr);
  BREP_CHECK_MSG(out->num_pages() == 0, "SaveTo needs a fresh empty pager");
  BREP_CHECK_MSG(out->page_size() == pager_->page_size(),
                 "SaveTo needs a matching page size");
  SaveLocked(durable_lsn);
  PageBuffer buf;
  for (PageId id = 0; id < pager_->num_pages(); ++id) {
    pager_->Read(id, &buf);
    const PageId copied = out->Allocate();
    BREP_CHECK(copied == id);  // fresh pager: ids stay aligned
    out->Write(copied, buf);
  }
  // The free-page records travelled with the raw pages; adopt the chain's
  // head so the copy reuses freed pages exactly like the original.
  out->RestoreFreeList(pager_->free_list_head(), pager_->num_free_pages());
  out->CommitCatalog(pager_->catalog());
}

std::unique_ptr<BrePartition::ReadView> BrePartition::CheckpointViewLocked(
    uint64_t durable_lsn) const {
  SaveLocked(durable_lsn);
  // SaveLocked's internal publish predates the catalog commit; publish once
  // more so the pinned view carries the committed catalog and free-list.
  PublishVersionLocked();
  return OpenReadViewHandle();
}

void BrePartition::SaveLocked(uint64_t durable_lsn) const {
  ByteWriter w;
  w.Value<uint64_t>(kCatalogMagic);
  w.Value<uint32_t>(kCatalogVersion);

  // Divergence spec: generator name round-trips through the factory. The
  // lp family additionally stores p as a binary double -- its Name() prints
  // only six decimals, which would silently reopen with a different
  // divergence than the one the tree geometry was built under.
  w.Str(div_.Name());
  const auto* lp = dynamic_cast<const LpNormGenerator*>(&div_.generator());
  w.Value<double>(lp != nullptr ? lp->p() : 0.0);
  w.Value<uint64_t>(div_.dim());
  std::vector<double> weights;
  if (div_.weighted()) {
    weights.resize(div_.dim());
    for (size_t j = 0; j < div_.dim(); ++j) weights[j] = div_.weight(j);
  }
  w.Vec(weights);

  // Cost-model fit (so a reopened index reports the same model).
  w.Value<double>(fit_.A);
  w.Value<double>(fit_.alpha);
  w.Value<double>(fit_.beta);
  w.Value<uint64_t>(fit_.fit_samples);

  // Partitioning.
  w.Value<uint64_t>(partitions_.size());
  for (const auto& cols : partitions_) {
    std::vector<uint64_t> c(cols.begin(), cols.end());
    w.Vec(c);
  }

  // Forest configuration needed at serve time. The leading byte is a
  // retired filter-mode field, kept so the v3 layout stays unchanged: it is
  // always written as 0, and Open skips it (both of its values filtered
  // exactly, so a file saved with either one serves the same answers).
  w.Value<uint8_t>(0);
  w.Value<uint64_t>(forest_->pool_pages());

  // Transformed dataset (Algorithm 2 output; the open path must not redo
  // the transform). Tombstoned rows carry DeadTuple()s.
  w.Value<uint64_t>(transformed_.num_points());
  w.Value<uint64_t>(transformed_.num_partitions());
  w.Value<uint64_t>(transformed_.num_tuples());
  transformed_.ForEachTupleSpan([&w](std::span<const PointTuple> chunk) {
    w.Raw(chunk.data(), chunk.size() * sizeof(PointTuple));
  });

  // Tombstoned ids, in reuse order (back first).
  w.Vec(free_ids_);

  // Point-store placement (slot-accurate, holes included).
  const PointStoreLayout store_layout = forest_->point_store().layout();
  w.Value<uint64_t>(store_layout.dim);
  w.Value<uint64_t>(store_layout.id_space);
  w.Vec(store_layout.data_pages);
  w.Vec(store_layout.slots);

  // Per-tree page tables and mutation metadata.
  w.Value<uint64_t>(partitions_.size());
  for (size_t m = 0; m < partitions_.size(); ++m) {
    const DiskBBTreeLayout t = forest_->tree(m).layout();
    w.Vec(t.pages);
    w.Value<uint64_t>(t.blob_size);
    w.Value<uint64_t>(t.num_nodes);
    w.Value<uint64_t>(t.root_offset);
    w.Value<int32_t>(t.bound_iters);
    w.Value<uint64_t>(t.max_leaf_size);
    w.Value<int32_t>(t.kmeans_iters);
    w.Value<uint64_t>(t.insert_seed);
    w.Value<uint64_t>(t.num_points);
    w.Vec(t.chunk_offsets);
    w.Vec(t.chunk_slots);
  }

  // Trailing checksum over everything above.
  w.Value<uint64_t>(Fnv1a64(std::span<const uint8_t>(
      w.bytes().data(), w.size())));

  const std::vector<uint8_t> blob = w.Take();
  const CatalogRef old_ref = pager_->catalog();
  const std::vector<PageId> ids = pager_->WriteBlob(blob);
  for (size_t i = 1; i < ids.size(); ++i) {
    BREP_CHECK(ids[i] == ids[i - 1] + 1);  // WriteBlob allocates a run
  }
  CatalogRef ref;
  ref.first_page = ids.front();
  ref.num_pages = static_cast<uint32_t>(ids.size());
  ref.num_bytes = blob.size();
  ref.durable_lsn = durable_lsn;
  // Flushing shadow pages overwrites backend bytes that snapshots OLDER
  // than the state being committed may still read through their backend
  // references. Publish the current state (so new readers immediately move
  // to buffers the flush cannot touch), wait out the stale pins, then
  // flush and commit.
  PublishVersionLocked();
  DrainRetiredLocked();
  pager_->FlushToBase();
  pager_->CommitCatalog(ref);
  // Reclaim the previous catalog run only after the new one is committed:
  // a crash in between leaks at most one run, never corrupts the committed
  // state. With the old run freed, repeated Save does not grow the disk
  // monotonically -- later allocations reuse these pages.
  if (old_ref.valid()) {
    for (uint32_t i = 0; i < old_ref.num_pages; ++i) {
      pager_->Free(old_ref.first_page + i);
    }
  }
}

std::unique_ptr<BrePartition> BrePartition::Open(Pager* pager,
                                                 std::string* error) {
  BREP_CHECK(pager != nullptr);
  auto fail = [error](const std::string& msg) -> std::unique_ptr<BrePartition> {
    if (error != nullptr) *error = msg;
    return nullptr;
  };

  const CatalogRef& ref = pager->catalog();
  if (!ref.valid() || ref.num_pages == 0) {
    return fail("no committed index catalog (was BrePartition::Save called?)");
  }
  if (static_cast<uint64_t>(ref.first_page) + ref.num_pages >
          pager->num_pages() ||
      ref.num_bytes > static_cast<uint64_t>(ref.num_pages) *
                          pager->page_size() ||
      ref.num_bytes < sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t)) {
    return fail("index catalog reference out of range (corrupted file)");
  }

  std::vector<PageId> ids(ref.num_pages);
  std::iota(ids.begin(), ids.end(), ref.first_page);
  const std::vector<uint8_t> blob = pager->ReadBlob(ids, ref.num_bytes);

  const size_t body_size = blob.size() - sizeof(uint64_t);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, blob.data() + body_size, sizeof(uint64_t));
  if (stored_sum !=
      Fnv1a64(std::span<const uint8_t>(blob.data(), body_size))) {
    return fail("index catalog checksum mismatch (corrupted file)");
  }

  ByteReader r(std::span<const uint8_t>(blob.data(), body_size));
  if (r.Value<uint64_t>() != kCatalogMagic) {
    return fail("bad index catalog magic (corrupted file)");
  }
  const uint32_t version = r.Value<uint32_t>();
  if (version != kCatalogVersion) {
    return fail("unsupported index catalog version " +
                std::to_string(version));
  }

  const std::string generator_name = r.Str();
  const double lp_p = r.Value<double>();
  const uint64_t dim = r.Value<uint64_t>();
  // Bound dim before any dim-derived allocation below: the point store
  // packs at least one point per page, so a valid catalog always satisfies
  // this -- and it caps num_parts (<= dim), keeping a checksum-colliding
  // catalog from forcing a huge vector allocation (std::bad_alloc would
  // escape the clean-error contract).
  if (!r.ok() || dim == 0 || dim > pager->page_size() / sizeof(double)) {
    return fail("malformed index catalog (dimensionality)");
  }
  const std::vector<double> weights = r.Vec<double>();

  CostModelFit fit;
  fit.A = r.Value<double>();
  fit.alpha = r.Value<double>();
  fit.beta = r.Value<double>();
  fit.fit_samples = r.Value<uint64_t>();

  const uint64_t num_parts = r.Value<uint64_t>();
  // Each partition costs at least its 8-byte length prefix, so bounding
  // num_parts by the bytes actually present keeps a tiny crafted catalog
  // from forcing a huge vector allocation before any partition is read.
  if (!r.ok() || num_parts == 0 || num_parts > dim ||
      num_parts > r.remaining() / sizeof(uint64_t)) {
    return fail("malformed index catalog (partitioning)");
  }
  Partitioning partitions(num_parts);
  for (auto& cols : partitions) {
    const std::vector<uint64_t> c = r.Vec<uint64_t>();
    cols.assign(c.begin(), c.end());
  }

  (void)r.Value<uint8_t>();  // retired filter-mode byte (see SaveLocked)
  const uint64_t pool_pages = r.Value<uint64_t>();

  const uint64_t n = r.Value<uint64_t>();
  const uint64_t m = r.Value<uint64_t>();
  std::vector<PointTuple> tuples = r.Vec<PointTuple>();

  std::vector<uint32_t> free_ids = r.Vec<uint32_t>();

  PointStoreLayout store_layout;
  store_layout.dim = r.Value<uint64_t>();
  store_layout.id_space = r.Value<uint64_t>();
  store_layout.data_pages = r.Vec<PageId>();
  store_layout.slots = r.Vec<uint32_t>();

  const uint64_t num_trees = r.Value<uint64_t>();
  if (!r.ok() || num_trees != num_parts) {
    return fail("malformed index catalog (tree count)");
  }
  std::vector<DiskBBTreeLayout> tree_layouts(num_trees);
  for (auto& t : tree_layouts) {
    t.pages = r.Vec<PageId>();
    t.blob_size = r.Value<uint64_t>();
    t.num_nodes = r.Value<uint64_t>();
    t.root_offset = r.Value<uint64_t>();
    t.bound_iters = r.Value<int32_t>();
    t.max_leaf_size = r.Value<uint64_t>();
    t.kmeans_iters = r.Value<int32_t>();
    t.insert_seed = r.Value<uint64_t>();
    t.num_points = r.Value<uint64_t>();
    t.chunk_offsets = r.Vec<uint64_t>();
    t.chunk_slots = r.Vec<uint32_t>();
  }

  if (!r.ok() || r.remaining() != 0) {
    return fail("malformed index catalog (truncated or trailing bytes)");
  }
  if (m != num_parts || tuples.size() != n * m || n == 0 ||
      store_layout.id_space != n || store_layout.dim != dim ||
      !IsValidPartitioning(partitions, dim) || pool_pages == 0) {
    return fail("inconsistent index catalog (corrupted file)");
  }
  if (free_ids.size() > n) {
    return fail("inconsistent tombstone list in catalog (corrupted file)");
  }
  std::vector<bool> tombstoned(n, false);
  for (uint32_t id : free_ids) {
    if (id >= n || tombstoned[id]) {
      return fail("inconsistent tombstone list in catalog (corrupted file)");
    }
    tombstoned[id] = true;
  }
  const uint64_t live = n - free_ids.size();

  // Deep-validate the page placements before handing them to the attach
  // constructors, whose BREP_CHECKs abort: FNV-1a is not cryptographic, so
  // file input must never be able to reach an abort path.
  // dim was bounded to (0, page_size/8] at decode time, so at least one
  // point fits per page.
  const size_t per_page = PointStore::PointsPerPage(pager->page_size(), dim);
  if (store_layout.slots.size() !=
      store_layout.data_pages.size() * per_page) {
    return fail("inconsistent point-store pages in catalog (corrupted file)");
  }
  std::vector<bool> placed(n, false);
  uint64_t placed_count = 0;
  for (size_t pi = 0; pi < store_layout.data_pages.size(); ++pi) {
    const PageId page = store_layout.data_pages[pi];
    if (page != kInvalidPageId && page >= pager->num_pages()) {
      return fail("point-store page out of range in catalog (corrupted file)");
    }
    size_t page_live = 0;
    for (size_t s = 0; s < per_page; ++s) {
      const uint32_t id = store_layout.slots[pi * per_page + s];
      if (id == PointStore::kNoPoint) continue;
      if (page == kInvalidPageId || id >= n || placed[id] ||
          tombstoned[id]) {
        return fail("inconsistent point placement in catalog "
                    "(corrupted file)");
      }
      placed[id] = true;
      ++placed_count;
      ++page_live;
    }
    if (page != kInvalidPageId && page_live == 0) {
      return fail("empty point-store page in catalog (corrupted file)");
    }
  }
  if (placed_count != live) {
    return fail("point placement does not cover the live ids "
                "(corrupted file)");
  }
  for (size_t ti = 0; ti < tree_layouts.size(); ++ti) {
    const DiskBBTreeLayout& t = tree_layouts[ti];
    const size_t page_size = pager->page_size();
    const uint64_t extent = uint64_t{t.pages.size()} * page_size;
    if (t.pages.empty() || t.bound_iters <= 0 || t.max_leaf_size == 0 ||
        t.blob_size == 0 || t.blob_size > extent || t.num_points != live ||
        t.chunk_offsets.size() != t.chunk_slots.size()) {
      return fail("inconsistent tree layout in catalog (corrupted file)");
    }
    const size_t packed_slots = (t.blob_size + page_size - 1) / page_size;
    // Slot usage map: the packed region and every chunk must sit on pages
    // the tree still owns, and no slot may be claimed twice.
    std::vector<char> used(t.pages.size(), 0);
    for (size_t s = 0; s < packed_slots; ++s) used[s] = 1;
    for (size_t c = 0; c < t.chunk_offsets.size(); ++c) {
      const uint64_t off = t.chunk_offsets[c];
      const uint32_t slots = t.chunk_slots[c];
      if (off % page_size != 0 || slots == 0 ||
          off / page_size < packed_slots ||
          off / page_size + slots > t.pages.size()) {
        return fail("inconsistent tree chunk in catalog (corrupted file)");
      }
      for (size_t s = off / page_size; s < off / page_size + slots; ++s) {
        if (used[s] != 0) {
          return fail("overlapping tree chunks in catalog (corrupted file)");
        }
        used[s] = 1;
      }
    }
    for (size_t s = 0; s < t.pages.size(); ++s) {
      const PageId page = t.pages[s];
      if (page == kInvalidPageId) {
        if (used[s] != 0) {
          return fail("tree node range on a released page in catalog "
                      "(corrupted file)");
        }
        continue;
      }
      if (page >= pager->num_pages()) {
        return fail("tree page out of range in catalog (corrupted file)");
      }
      if (used[s] == 0) {
        return fail("tree owns a page outside every allocation "
                    "(corrupted file)");
      }
    }
    // The root must be resolvable: kNoNode exactly for an empty tree,
    // otherwise its fixed-size header must sit on owned pages -- or the
    // first query would hit the read path's corruption abort instead of
    // this clean error.
    if (t.root_offset == DiskBBTree::kNoNode) {
      if (t.num_points != 0 || t.num_nodes != 0) {
        return fail("inconsistent tree layout in catalog (corrupted file)");
      }
      continue;
    }
    if (t.num_nodes == 0) {
      return fail("inconsistent tree layout in catalog (corrupted file)");
    }
    const uint64_t root_header_bytes =
        1 + 4 + 3 * sizeof(double) + partitions[ti].size() * sizeof(double);
    if (root_header_bytes > extent ||
        t.root_offset > extent - root_header_bytes) {
      return fail("inconsistent tree layout in catalog (corrupted file)");
    }
    for (uint64_t s = t.root_offset / page_size;
         s <= (t.root_offset + root_header_bytes - 1) / page_size; ++s) {
      if (t.pages[s] == kInvalidPageId) {
        return fail("tree root on a released page in catalog "
                    "(corrupted file)");
      }
    }
  }

  std::shared_ptr<const ScalarGenerator> generator;
  if (lp_p != 0.0) {
    // Exact binary p, not the six-decimal rendering in the name.
    if (!(lp_p > 1.0)) return fail("invalid lp parameter in catalog");
    generator = std::make_shared<LpNormGenerator>(lp_p);
  } else {
    auto parsed = ParseGenerator(generator_name);
    if (!parsed.ok()) {
      return fail("invalid divergence generator in catalog (corrupted "
                  "file?): " +
                  parsed.status().message());
    }
    generator = *std::move(parsed);
  }
  if (!weights.empty() && weights.size() != dim) {
    return fail("inconsistent divergence weights in catalog");
  }
  for (double w : weights) {
    // BregmanDivergence aborts on non-positive weights; corrupted file
    // input must be rejected here instead.
    if (!(w > 0.0) || !std::isfinite(w)) {
      return fail("invalid divergence weight in catalog (corrupted file)");
    }
  }
  BregmanDivergence div =
      weights.empty() ? BregmanDivergence(std::move(generator), dim)
                      : BregmanDivergence(std::move(generator), weights);

  // Re-attach: every member below comes straight from the catalog; none of
  // the construction stages (FitCostModel / PCCP / transform / forest
  // build) runs on this path.
  std::unique_ptr<BrePartition> index(new BrePartition(std::move(div)));
  index->pager_ = pager;
  index->fit_ = fit;
  index->partitions_ = std::move(partitions);
  index->config_.num_partitions = index->partitions_.size();
  index->config_.forest.pool_pages = pool_pages;
  index->sub_divs_.reserve(index->partitions_.size());
  for (const auto& cols : index->partitions_) {
    index->sub_divs_.push_back(index->div_.Restrict(cols));
  }
  index->transformed_ = TransformedDataset(n, m, std::move(tuples), free_ids);
  index->forest_ = std::make_unique<BBForest>(
      pager, index->div_, index->partitions_, pool_pages, store_layout,
      tree_layouts, index->transformed_);
  index->free_ids_ = std::move(free_ids);
  index->live_points_ = live;
  index->PublishVersionLocked();  // version 1: Open is single-threaded
  return index;
}

std::vector<std::vector<double>> BrePartition::GatherQuery(
    std::span<const double> y) const {
  BREP_CHECK(y.size() == div_.dim());
  std::vector<std::vector<double>> subs(partitions_.size());
  for (size_t mi = 0; mi < partitions_.size(); ++mi) {
    const auto& cols = partitions_[mi];
    subs[mi].resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) subs[mi][c] = y[cols[c]];
  }
  return subs;
}

std::vector<QueryTriple> BrePartition::TransformQueryAll(
    std::span<const std::vector<double>> y_subs) const {
  std::vector<QueryTriple> triples(y_subs.size());
  for (size_t mi = 0; mi < y_subs.size(); ++mi) {
    triples[mi] = TransformQuery(sub_divs_[mi], y_subs[mi]);
  }
  return triples;
}

void BrePartition::PublishVersionLocked() const {
  Timer publish_timer;
  auto v = std::make_shared<IndexVersion>();
  v->seq = ++version_seq_;
  v->pages = std::make_shared<const PageSnapshot>(*pager_);
  v->transformed = transformed_;  // COW: copies the chunk spine only
  v->forest = std::shared_ptr<const BBForest>(
      forest_->SnapshotClone(v->pages.get(), v->transformed));
  v->live_points = live_points_.load(std::memory_order_relaxed);

  // Publication point: from here every new pin observes this version.
  current_.store(v.get(), std::memory_order_seq_cst);
  const uint64_t retire_stamp = gate_.AdvanceEpoch();
  if (live_version_ != nullptr) {
    live_version_->retire_epoch = retire_stamp;
    retired_.push_back(std::move(live_version_));
  }
  live_version_ = std::move(v);
  ReclaimRetiredLocked();

  im_.snapshot_publishes->Add(1);
  im_.snapshot_publish_latency->Record(publish_timer.ElapsedMillis());
}

void BrePartition::ReclaimRetiredLocked() const {
  const uint64_t min_active = gate_.MinActiveEpoch();
  // Dropping version shared_ptrs only ever happens here, under the writer
  // mutex: the COW use_count checks on the write path stay exact.
  std::erase_if(retired_, [min_active](
                              const std::shared_ptr<IndexVersion>& v) {
    return min_active >= v->retire_epoch;
  });
}

void BrePartition::DrainRetiredLocked() const {
  while (true) {
    ReclaimRetiredLocked();
    if (retired_.empty()) return;
    std::this_thread::yield();
  }
}

obs::MetricsSnapshot BrePartition::CollectMetricsLocked() const {
  obs::MetricsSnapshot out = registry_.Snapshot();

  // Index shape.
  out.AddGauge(obs::kPointsGauge, double(num_points()));
  out.AddGauge(obs::kIdSpaceGauge, double(id_space()));
  out.AddGauge(obs::kPartitionsGauge, double(num_partitions()));
  out.AddGauge(obs::kSimdKernelGauge,
               double(static_cast<int>(simd::ActiveBackend())));
  out.AddCounter(obs::kInsertsTotal, inserts_);
  out.AddCounter(obs::kDeletesTotal, deletes_);

  // Storage: page-level I/O counters plus real-file latencies when the
  // backing disk is a FilePager (a MemPager does no real I/O, so it
  // honestly exports no latency series).
  const IoStats io = pager_->stats();
  out.AddCounter(obs::kPagerReadsTotal, io.reads);
  out.AddCounter(obs::kPagerWritesTotal, io.writes);
  out.AddGauge(obs::kPagesGauge, double(pager_->num_pages()));
  out.AddGauge(obs::kFreePagesGauge, double(pager_->num_free_pages()));
  if (const auto* fp = dynamic_cast<const FilePager*>(pager_)) {
    out.AddHistogram(obs::kIoReadLatencyMs, fp->read_latency());
    out.AddHistogram(obs::kIoWriteLatencyMs, fp->write_latency());
    out.AddHistogram(obs::kIoSyncLatencyMs, fp->sync_latency());
    const FilePager::SyncCounts sync = fp->sync_counts();
    out.AddCounter(obs::kFsyncsTotal, sync.fsyncs);
    out.AddCounter(obs::kFdatasyncsTotal, sync.fdatasyncs);
  }

  // Buffer pools (summed over the subspace trees' node caches).
  const BBForest::PoolCounters pool = forest_->pool_counters();
  out.AddCounter(obs::kPoolHitsTotal, pool.hits);
  out.AddCounter(obs::kPoolMissesTotal, pool.misses);
  out.AddCounter(obs::kPoolEvictionsTotal, pool.evictions);
  out.AddGauge(obs::kPoolResidentGauge, double(pool.resident_pages));
  out.AddGauge(obs::kPoolCapacityGauge, double(pool.capacity_pages));

  // MVCC version lifecycle: how many versions are alive, how far the
  // slowest pinned reader lags the writer, and how many page buffers the
  // COW machinery is holding for published snapshots.
  out.AddGauge(obs::kSnapshotLiveVersionsGauge,
               double(retired_.size() + (live_version_ != nullptr ? 1 : 0)));
  const uint64_t min_active = gate_.MinActiveEpoch();
  out.AddGauge(obs::kSnapshotOldestPinAgeGauge,
               min_active == UINT64_MAX
                   ? 0.0
                   : double(gate_.CurrentEpoch() - min_active));
  size_t cow_pages = 0;
  for (const auto& v : retired_) cow_pages += v->pages->shadow_pages();
  if (live_version_ != nullptr) {
    cow_pages += live_version_->pages->shadow_pages();
  }
  out.AddGauge(obs::kSnapshotCowRetainedPagesGauge, double(cow_pages));

  // Slow-query log.
  out.AddCounter(obs::kSlowQueriesTotal, trace_.recorded_total());
  out.AddGauge(obs::kSlowThresholdGauge, trace_.threshold_ms());

  out.Sort();
  return out;
}

obs::MetricsSnapshot BrePartition::CollectMetrics() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CollectMetricsLocked();
}

}  // namespace brep
