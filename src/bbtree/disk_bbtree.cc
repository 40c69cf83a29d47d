#include "bbtree/disk_bbtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <utility>

#include "bbtree/kmeans.h"
#include "common/check.h"
#include "common/math_utils.h"
#include "core/bound.h"
#include "divergence/kernels.h"

namespace brep {
namespace {

void AppendBytes(std::vector<uint8_t>* blob, const void* src, size_t len) {
  const auto* p = static_cast<const uint8_t*>(src);
  blob->insert(blob->end(), p, p + len);
}

template <typename T>
void AppendValue(std::vector<uint8_t>* blob, T v) {
  AppendBytes(blob, &v, sizeof(T));
}

template <typename T>
T ReadValue(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// A decode buffer as the bytes ReadBytes fills.
template <typename T>
std::span<uint8_t> AsBytes(std::vector<T>& v) {
  return {reinterpret_cast<uint8_t*>(v.data()), v.size() * sizeof(T)};
}

// Byte offsets of the in-place-updatable header fields.
constexpr uint64_t kOffCount = 1;   // u32 subtree point count
constexpr uint64_t kOffRadius = 5;  // f64 ball radius

// Leaf payload vectors are stored column-major (SoA), in memory and on
// disk: coordinate j of point i lives at points[j * count + i], so the
// batched divergence kernel streams each dimension with unit stride. The
// helpers below keep the layout through the mutating paths.

// Grow a count-row SoA block to count+1 rows in place, appending x as the
// new last row (shift columns back-to-front, then slot in x's coordinate).
void AppendPointSoA(std::vector<double>* pts, size_t count, size_t dim,
                    std::span<const double> x) {
  pts->resize((count + 1) * dim);
  double* p = pts->data();
  for (size_t j = dim; j-- > 0;) {
    std::memmove(p + j * (count + 1), p + j * count, count * sizeof(double));
    p[j * (count + 1) + count] = x[j];
  }
}

// Remove row `pos` from a count-row SoA block in place (compact
// front-to-back; writes never overtake reads).
void ErasePointSoA(std::vector<double>* pts, size_t count, size_t dim,
                   size_t pos) {
  double* p = pts->data();
  for (size_t j = 0; j < dim; ++j) {
    const size_t src = j * count;
    const size_t dst = j * (count - 1);
    for (size_t i = 0, o = 0; i < count; ++i) {
      if (i == pos) continue;
      p[dst + o++] = p[src + i];
    }
  }
  pts->resize((count - 1) * dim);
}

// Materialize a row-major copy (for Matrix-based machinery: k-means splits,
// ball/stat recomputation).
std::vector<double> SoAToRows(const std::vector<double>& pts, size_t count,
                              size_t dim) {
  std::vector<double> rows(count * dim);
  for (size_t j = 0; j < dim; ++j) {
    for (size_t i = 0; i < count; ++i) rows[i * dim + j] = pts[j * count + i];
  }
  return rows;
}

// Concatenate two SoA blocks row-wise (a's rows then b's rows per column).
std::vector<double> ConcatSoA(const std::vector<double>& a, size_t ca,
                              const std::vector<double>& b, size_t cb,
                              size_t dim) {
  std::vector<double> out((ca + cb) * dim);
  for (size_t j = 0; j < dim; ++j) {
    std::copy_n(a.data() + j * ca, ca, out.data() + j * (ca + cb));
    std::copy_n(b.data() + j * cb, cb, out.data() + j * (ca + cb) + ca);
  }
  return out;
}

}  // namespace

DiskBBTree::DiskBBTree(Pager* pager, const BBTree& tree, size_t pool_pages)
    : pager_(pager),
      src_(pager),
      page_size_(pager == nullptr ? 0 : pager->page_size()),
      div_(tree.divergence()),
      bound_iters_(tree.config().bound_iters),
      max_leaf_size_(tree.config().max_leaf_size),
      kmeans_iters_(tree.config().kmeans_iters),
      insert_seed_(tree.config().seed ^ 0xD15CF00DULL),
      num_points_(tree.data().rows()),  // a BBTree indexes every row
      full_node_reads_(std::make_shared<std::atomic<uint64_t>>(0)),
      pool_(std::make_shared<BufferPool>(pager, pool_pages)) {
  BREP_CHECK(pager_ != nullptr);
  const auto& nodes = tree.nodes();
  num_nodes_ = nodes.size();
  const size_t dim = div_.dim();
  const size_t fixed = NodeFixedBytes();

  // Subtree point counts (leaf ids roll up to interior nodes).
  std::vector<uint32_t> count(nodes.size(), 0);
  // nodes were appended children-before-parent during Build, so a forward
  // scan sees children first.
  for (size_t i = 0; i < nodes.size(); ++i) {
    count[i] = nodes[i].is_leaf()
                   ? static_cast<uint32_t>(nodes[i].ids.size())
                   : count[nodes[i].left] + count[nodes[i].right];
  }

  // Leaves carry their subspace vectors so exact range search runs on index
  // pages alone (Cayton'09 semantics).
  auto node_size = [&](const BBTree::Node& n) {
    return fixed +
           (n.is_leaf() ? (4 + dim * sizeof(double)) * n.ids.size() : 16);
  };

  // Pre-order offset assignment.
  std::vector<uint64_t> offset(nodes.size(), 0);
  uint64_t cursor = 0;
  std::vector<int32_t> stack{tree.root()};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    offset[idx] = cursor;
    cursor += node_size(nodes[idx]);
    if (!nodes[idx].is_leaf()) {
      stack.push_back(nodes[idx].right);
      stack.push_back(nodes[idx].left);
    }
  }
  root_offset_ = offset[tree.root()];
  BREP_CHECK(root_offset_ == 0);

  // Serialize in the same order.
  std::vector<uint8_t> blob;
  blob.reserve(cursor);
  std::vector<double> soa;
  stack.assign(1, tree.root());
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const BBTree::Node& n = nodes[idx];
    BREP_CHECK(blob.size() == offset[idx]);
    AppendValue<uint8_t>(&blob, n.is_leaf() ? 1 : 0);
    AppendValue<uint32_t>(&blob, count[idx]);
    AppendValue<double>(&blob, n.ball.radius);
    AppendValue<double>(&blob, n.dist_mean);
    AppendValue<double>(&blob, n.dist_std);
    AppendBytes(&blob, n.ball.center.data(), dim * sizeof(double));
    if (n.is_leaf()) {
      AppendBytes(&blob, n.ids.data(), 4 * n.ids.size());
      // Column-major leaf payload (see the SoA helpers above).
      soa.resize(n.ids.size() * dim);
      for (size_t i = 0; i < n.ids.size(); ++i) {
        const auto row = tree.data().Row(n.ids[i]);
        for (size_t j = 0; j < dim; ++j) soa[j * n.ids.size() + i] = row[j];
      }
      AppendBytes(&blob, soa.data(), soa.size() * sizeof(double));
    } else {
      AppendValue<uint64_t>(&blob, offset[n.left]);
      AppendValue<uint64_t>(&blob, offset[n.right]);
      stack.push_back(n.right);
      stack.push_back(n.left);
    }
  }
  blob_size_ = blob.size();
  pages_ = pager_->WriteBlob(blob);
}

DiskBBTree::DiskBBTree(Pager* pager, BregmanDivergence div,
                       const DiskBBTreeLayout& layout, size_t pool_pages)
    : pager_(pager),
      src_(pager),
      page_size_(pager == nullptr ? 0 : pager->page_size()),
      div_(std::move(div)),
      bound_iters_(layout.bound_iters),
      max_leaf_size_(layout.max_leaf_size),
      kmeans_iters_(layout.kmeans_iters),
      insert_seed_(layout.insert_seed),
      num_points_(layout.num_points),
      full_node_reads_(std::make_shared<std::atomic<uint64_t>>(0)),
      pages_(layout.pages),
      blob_size_(layout.blob_size),
      num_nodes_(layout.num_nodes),
      root_offset_(layout.root_offset),
      pool_(std::make_shared<BufferPool>(pager, pool_pages)) {
  BREP_CHECK(pager_ != nullptr);
  BREP_CHECK(!pages_.empty());
  BREP_CHECK(max_leaf_size_ > 0);
  BREP_CHECK(blob_size_ <= pages_.size() * page_size_);
  BREP_CHECK(layout.chunk_offsets.size() == layout.chunk_slots.size());
  for (PageId id : pages_) {
    BREP_CHECK(id == kInvalidPageId || id < pager_->num_pages());
  }
  const size_t page_size = page_size_;
  for (size_t c = 0; c < layout.chunk_offsets.size(); ++c) {
    const uint64_t off = layout.chunk_offsets[c];
    const uint32_t slots = layout.chunk_slots[c];
    BREP_CHECK(off % page_size == 0 && slots > 0);
    BREP_CHECK(off / page_size + slots <= pages_.size());
    chunk_map_[off] = slots;
  }
  // Free slot runs are exactly the maximal runs of released page slots.
  size_t run_start = 0, run_len = 0;
  for (size_t slot = 0; slot <= pages_.size(); ++slot) {
    if (slot < pages_.size() && pages_[slot] == kInvalidPageId) {
      if (run_len == 0) run_start = slot;
      ++run_len;
    } else if (run_len > 0) {
      free_runs_[run_start] = run_len;
      run_len = 0;
    }
  }
}

DiskBBTree::DiskBBTree(const DiskBBTree& writer, const PageSource* src)
    : pager_(nullptr),
      src_(src),
      page_size_(writer.page_size_),
      div_(writer.div_),
      bound_iters_(writer.bound_iters_),
      max_leaf_size_(writer.max_leaf_size_),
      kmeans_iters_(writer.kmeans_iters_),
      insert_seed_(writer.insert_seed_),
      num_points_(writer.num_points_),
      full_node_reads_(writer.full_node_reads_),
      pages_(writer.pages_),
      blob_size_(writer.blob_size_),
      num_nodes_(writer.num_nodes_),
      root_offset_(writer.root_offset_),
      // chunk_map_/free_runs_ stay empty: writer-only allocator state that
      // no const search path touches.
      pool_(writer.pool_) {}

std::unique_ptr<DiskBBTree> DiskBBTree::SnapshotClone(
    const PageSource* src) const {
  BREP_CHECK(src != nullptr);
  return std::unique_ptr<DiskBBTree>(new DiskBBTree(*this, src));
}

DiskBBTreeLayout DiskBBTree::layout() const {
  DiskBBTreeLayout layout;
  layout.pages = pages_;
  layout.blob_size = blob_size_;
  layout.num_nodes = num_nodes_;
  layout.root_offset = root_offset_;
  layout.bound_iters = bound_iters_;
  layout.max_leaf_size = max_leaf_size_;
  layout.kmeans_iters = kmeans_iters_;
  layout.insert_seed = insert_seed_;
  layout.num_points = num_points_;
  layout.chunk_offsets.reserve(chunk_map_.size());
  layout.chunk_slots.reserve(chunk_map_.size());
  for (const auto& [off, slots] : chunk_map_) {
    layout.chunk_offsets.push_back(off);
    layout.chunk_slots.push_back(slots);
  }
  return layout;
}

size_t DiskBBTree::index_bytes() const {
  size_t chunk_pages = 0;
  for (const auto& [off, slots] : chunk_map_) chunk_pages += slots;
  return blob_size_ + chunk_pages * page_size_;
}

std::vector<PageId> DiskBBTree::LivePages() const {
  std::vector<PageId> live;
  live.reserve(pages_.size());
  for (PageId id : pages_) {
    if (id != kInvalidPageId) live.push_back(id);
  }
  return live;
}

void DiskBBTree::ReadBytes(
    uint64_t start, std::initializer_list<std::span<uint8_t>> outs) const {
  size_t len = 0;
  for (const std::span<uint8_t> out : outs) len += out.size();
  // Node pages carry no checksum (the paper's I/O metric would be distorted
  // by verifying every page on every read), so offsets and counts decoded
  // from them are bounds-checked before they can index past the page list
  // or drive a huge allocation: a corrupted page aborts with a message
  // instead of undefined behaviour.
  const uint64_t extent = uint64_t{pages_.size()} * page_size_;
  BREP_CHECK_MSG(uint64_t{len} <= extent && start <= extent - len,
                 "corrupted tree page (node range out of bounds)");
  const size_t page_size = page_size_;
  auto out = outs.begin();
  size_t out_pos = 0;  // bytes of *out already filled
  size_t done = 0;
  while (done < len) {
    const uint64_t pos = start + done;
    const size_t page_idx = pos / page_size;
    const size_t in_page = pos % page_size;
    const size_t chunk = std::min(len - done, page_size - in_page);
    BREP_CHECK_MSG(pages_[page_idx] != kInvalidPageId,
                   "corrupted tree page (node range on a released page)");
    const PagePin buf = pool_->ReadPinned(pages_[page_idx], *src_);
    const uint8_t* src = buf->data() + in_page;
    // Deal this page's bytes out to the destinations they belong to.
    for (size_t left = chunk; left > 0;) {
      while (out_pos == out->size()) {
        ++out;
        out_pos = 0;
      }
      const size_t n = std::min(left, out->size() - out_pos);
      std::memcpy(out->data() + out_pos, src, n);
      src += n;
      left -= n;
      out_pos += n;
    }
    done += chunk;
  }
}

void DiskBBTree::WriteBytes(uint64_t start, std::span<const uint8_t> bytes) {
  const uint64_t extent = uint64_t{pages_.size()} * page_size_;
  BREP_CHECK(bytes.size() <= extent && start <= extent - bytes.size());
  const size_t page_size = page_size_;
  size_t done = 0;
  while (done < bytes.size()) {
    const uint64_t pos = start + done;
    const size_t page_idx = pos / page_size;
    const size_t in_page = pos % page_size;
    const size_t chunk = std::min(bytes.size() - done, page_size - in_page);
    const PageId page = pages_[page_idx];
    BREP_CHECK(page != kInvalidPageId);
    if (chunk == page_size) {
      pager_->Write(page, bytes.subspan(done, chunk));
    } else {
      pager_->Patch(page, in_page, bytes.subspan(done, chunk));
    }
    done += chunk;
  }
}

template <typename T>
void DiskBBTree::WriteField(uint64_t off, T v) {
  uint8_t raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  WriteBytes(off, std::span<const uint8_t>(raw, sizeof(T)));
}

void DiskBBTree::ReadNodeHeader(uint64_t off, DiskNode* node) const {
  const size_t dim = div_.dim();
  uint8_t head[kHeadBytes] = {};
  node->ball.center.resize(dim);
  ReadBytes(off, {std::span<uint8_t>(head), AsBytes(node->ball.center)});

  size_t pos = 0;
  node->is_leaf = head[pos] != 0;
  pos += 1;
  node->count = ReadValue<uint32_t>(&head[pos]);
  pos += 4;
  node->ball.radius = ReadValue<double>(&head[pos]);
  pos += 8;
  node->dist_mean = ReadValue<double>(&head[pos]);
  pos += 8;
  node->dist_std = ReadValue<double>(&head[pos]);
}

DiskBBTree::DiskNode DiskBBTree::ReadNodeHeader(uint64_t off) const {
  DiskNode node;
  ReadNodeHeader(off, &node);
  return node;
}

void DiskBBTree::CheckLeafPayload(uint64_t off, uint32_t count) const {
  const uint64_t extent = uint64_t{pages_.size()} * page_size_;
  const uint64_t tail_bytes = uint64_t{count} * (4 + dim() * sizeof(double));
  BREP_CHECK_MSG(  // before any count-driven allocation
      tail_bytes <= extent && off + NodeFixedBytes() <= extent - tail_bytes,
      "corrupted tree page (leaf payload out of bounds)");
}

void DiskBBTree::ReadNodeTail(uint64_t off, DiskNode* node) const {
  const uint64_t tail = off + NodeFixedBytes();
  full_node_reads_->fetch_add(1, std::memory_order_relaxed);
  if (node->is_leaf) {
    CheckLeafPayload(off, node->count);
    node->ids.resize(node->count);
    node->points.resize(size_t(node->count) * dim());
    // The ids and the SoA vectors are adjacent on the pages: one pass
    // copies each straight into its buffer.
    ReadBytes(tail, {AsBytes(node->ids), AsBytes(node->points)});
  } else {
    uint8_t offsets[16] = {};
    ReadBytes(tail, {std::span<uint8_t>(offsets)});
    node->left_off = ReadValue<uint64_t>(&offsets[0]);
    node->right_off = ReadValue<uint64_t>(&offsets[8]);
  }
}

DiskBBTree::DiskNode DiskBBTree::ReadNode(uint64_t off) const {
  DiskNode node = ReadNodeHeader(off);
  ReadNodeTail(off, &node);
  return node;
}

std::vector<uint8_t> DiskBBTree::EncodeLeaf(const DiskNode& node) const {
  const size_t dim = div_.dim();
  BREP_CHECK(node.points.size() == node.ids.size() * dim);
  std::vector<uint8_t> bytes;
  bytes.reserve(LeafRecordBytes(node.ids.size()));
  AppendValue<uint8_t>(&bytes, 1);
  AppendValue<uint32_t>(&bytes, static_cast<uint32_t>(node.ids.size()));
  AppendValue<double>(&bytes, node.ball.radius);
  AppendValue<double>(&bytes, node.dist_mean);
  AppendValue<double>(&bytes, node.dist_std);
  AppendBytes(&bytes, node.ball.center.data(), dim * sizeof(double));
  AppendBytes(&bytes, node.ids.data(), 4 * node.ids.size());
  AppendBytes(&bytes, node.points.data(),
              node.points.size() * sizeof(double));
  return bytes;
}

std::vector<uint8_t> DiskBBTree::EncodeInterior(const DiskNode& node) const {
  const size_t dim = div_.dim();
  std::vector<uint8_t> bytes;
  bytes.reserve(InteriorRecordBytes());
  AppendValue<uint8_t>(&bytes, 0);
  AppendValue<uint32_t>(&bytes, node.count);
  AppendValue<double>(&bytes, node.ball.radius);
  AppendValue<double>(&bytes, node.dist_mean);
  AppendValue<double>(&bytes, node.dist_std);
  AppendBytes(&bytes, node.ball.center.data(), dim * sizeof(double));
  AppendValue<uint64_t>(&bytes, node.left_off);
  AppendValue<uint64_t>(&bytes, node.right_off);
  return bytes;
}

uint64_t DiskBBTree::AllocChunk(size_t bytes) {
  const size_t page_size = page_size_;
  const size_t slots = (bytes + page_size - 1) / page_size;
  BREP_CHECK(slots > 0);
  size_t start = pages_.size();
  // First fit over the released runs; split the remainder back in.
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second < slots) continue;
    start = it->first;
    const size_t remainder = it->second - slots;
    free_runs_.erase(it);
    if (remainder > 0) free_runs_[start + slots] = remainder;
    break;
  }
  if (start == pages_.size()) {
    pages_.resize(pages_.size() + slots, kInvalidPageId);
  }
  for (size_t s = start; s < start + slots; ++s) {
    BREP_CHECK(pages_[s] == kInvalidPageId);
    pages_[s] = pager_->Allocate();
  }
  const uint64_t off = uint64_t{start} * page_size;
  chunk_map_[off] = static_cast<uint32_t>(slots);
  return off;
}

void DiskBBTree::FreeChunkAt(uint64_t off) {
  const auto it = chunk_map_.find(off);
  BREP_CHECK(it != chunk_map_.end());
  const size_t page_size = page_size_;
  const size_t start = off / page_size;
  const size_t slots = it->second;
  for (size_t s = start; s < start + slots; ++s) {
    pager_->Free(pages_[s]);
    pages_[s] = kInvalidPageId;
  }
  chunk_map_.erase(it);
  // Coalesce with adjacent free runs so big leaves can land here later.
  size_t run_start = start, run_len = slots;
  auto next = free_runs_.upper_bound(run_start);
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == run_start) {
      run_start = prev->first;
      run_len += prev->second;
      free_runs_.erase(prev);
    }
  }
  next = free_runs_.upper_bound(run_start);
  if (next != free_runs_.end() && next->first == run_start + run_len) {
    run_len += next->second;
    free_runs_.erase(next);
  }
  free_runs_[run_start] = run_len;
}

size_t DiskBBTree::AllocCapacity(uint64_t off) const {
  const auto it = chunk_map_.find(off);
  if (it == chunk_map_.end()) return 0;
  return size_t{it->second} * page_size_;
}

uint64_t DiskBBTree::ReplaceNode(uint64_t off, uint64_t parent_off,
                                 bool from_left, size_t old_bytes,
                                 std::span<const uint8_t> bytes) {
  const size_t capacity = std::max(old_bytes, AllocCapacity(off));
  if (bytes.size() <= capacity) {
    WriteBytes(off, bytes);
    return off;
  }
  const uint64_t new_off = AllocChunk(bytes.size());
  WriteBytes(new_off, bytes);
  if (chunk_map_.count(off) > 0) FreeChunkAt(off);
  if (parent_off == kNoNode) {
    root_offset_ = new_off;
  } else {
    WriteField<uint64_t>(parent_off + NodeFixedBytes() + (from_left ? 0 : 8),
                         new_off);
  }
  return new_off;
}

void DiskBBTree::SplitLocal(const Matrix& pts,
                            std::span<const uint32_t> local,
                            std::span<const double> center, Rng& rng,
                            std::vector<uint32_t>* left,
                            std::vector<uint32_t>* right) const {
  left->clear();
  right->clear();
  const KMeansResult split =
      BregmanKMeans(pts, local, div_, 2, rng, kmeans_iters_);
  for (size_t i = 0; i < local.size(); ++i) {
    (split.assignment[i] == 0 ? left : right)->push_back(local[i]);
  }
  if (!left->empty() && !right->empty()) return;
  // Degenerate 2-means (BBTree construction keeps an oversized leaf here):
  // split at the median divergence to the center instead, which succeeds
  // whenever the points are not all identical and keeps the disk tree's
  // leaf-occupancy invariant strict.
  std::vector<uint32_t> order(local.begin(), local.end());
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return div_.Divergence(pts.Row(a), center) <
           div_.Divergence(pts.Row(b), center);
  });
  left->assign(order.begin(), order.begin() + order.size() / 2);
  right->assign(order.begin() + order.size() / 2, order.end());
}

void DiskBBTree::ComputeBallAndStats(const Matrix& pts,
                                     std::span<const uint32_t> local,
                                     DiskNode* node) const {
  node->ball.center = div_.Mean(pts, local);
  node->ball.radius = 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (uint32_t li : local) {
    const double d = div_.Divergence(pts.Row(li), node->ball.center);
    node->ball.radius = std::max(node->ball.radius, d);
    sum += d;
    sum_sq += d * d;
  }
  const double n = static_cast<double>(local.size());
  node->dist_mean = sum / n;
  node->dist_std = std::sqrt(
      std::max(0.0, sum_sq / n - node->dist_mean * node->dist_mean));
  node->count = static_cast<uint32_t>(local.size());
}

uint64_t DiskBBTree::WriteSubtree(const Matrix& pts,
                                  std::span<const uint32_t> global_ids,
                                  std::span<const uint32_t> local, Rng& rng) {
  const size_t dim = div_.dim();
  DiskNode node;
  ComputeBallAndStats(pts, local, &node);

  if (local.size() > max_leaf_size_ && node.ball.radius > 0.0) {
    std::vector<uint32_t> left_local, right_local;
    SplitLocal(pts, local, node.ball.center, rng, &left_local, &right_local);
    node.is_leaf = false;
    node.left_off = WriteSubtree(pts, global_ids, left_local, rng);
    node.right_off = WriteSubtree(pts, global_ids, right_local, rng);
    const std::vector<uint8_t> bytes = EncodeInterior(node);
    const uint64_t off = AllocChunk(bytes.size());
    WriteBytes(off, bytes);
    ++num_nodes_;
    return off;
  }

  node.is_leaf = true;
  node.ids.reserve(local.size());
  for (uint32_t li : local) node.ids.push_back(global_ids[li]);
  node.points.resize(local.size() * dim);
  for (size_t i = 0; i < local.size(); ++i) {
    const auto row = pts.Row(local[i]);
    for (size_t j = 0; j < dim; ++j) node.points[j * local.size() + i] = row[j];
  }
  const std::vector<uint8_t> bytes = EncodeLeaf(node);
  const uint64_t off = AllocChunk(bytes.size());
  WriteBytes(off, bytes);
  ++num_nodes_;
  return off;
}

void DiskBBTree::Insert(uint32_t id, std::span<const double> x) {
  BREP_CHECK(x.size() == div_.dim());
  if (root_offset_ == kNoNode) {
    DiskNode node;
    node.is_leaf = true;
    node.ball.center.assign(x.begin(), x.end());
    node.ball.radius = 0.0;
    node.count = 1;
    node.ids.push_back(id);
    node.points.assign(x.begin(), x.end());
    const std::vector<uint8_t> bytes = EncodeLeaf(node);
    root_offset_ = AllocChunk(bytes.size());
    WriteBytes(root_offset_, bytes);
    ++num_nodes_;
    num_points_ = 1;
    return;
  }

  // Descend to the leaf whose center is nearest, widening every ball and
  // bumping every subtree count on the way as in-place header field
  // writes, so every ancestor still covers the new point.
  uint64_t off = root_offset_;
  uint64_t parent_off = kNoNode;
  bool from_left = false;
  while (true) {
    DiskNode node = ReadNodeHeader(off);
    const double d = div_.Divergence(x, node.ball.center);
    const double widened = std::max(node.ball.radius, d);
    if (node.is_leaf) {
      InsertIntoLeaf(off, parent_off, from_left, std::move(node), widened, id,
                     x);
      break;
    }
    // Count and radius are adjacent header fields -- one Patch of the page
    // covers both.
    if (widened != node.ball.radius) {
      uint8_t fields[4 + 8];
      const uint32_t count = node.count + 1;
      std::memcpy(fields, &count, 4);
      std::memcpy(fields + 4, &widened, 8);
      WriteBytes(off + kOffCount, fields);
    } else {
      WriteField<uint32_t>(off + kOffCount, node.count + 1);
    }
    ReadNodeTail(off, &node);
    const DiskNode left = ReadNodeHeader(node.left_off);
    const DiskNode right = ReadNodeHeader(node.right_off);
    const double d_left = div_.Divergence(x, left.ball.center);
    const double d_right = div_.Divergence(x, right.ball.center);
    parent_off = off;
    from_left = d_left <= d_right;
    off = from_left ? node.left_off : node.right_off;
  }
  ++num_points_;
}

void DiskBBTree::InsertIntoLeaf(uint64_t off, uint64_t parent_off,
                                bool from_left, DiskNode leaf,
                                double widened_radius, uint32_t id,
                                std::span<const double> x) {
  ReadNodeTail(off, &leaf);
  const size_t old_bytes = LeafRecordBytes(leaf.ids.size());
  AppendPointSoA(&leaf.points, leaf.ids.size(), div_.dim(), x);
  leaf.ids.push_back(id);
  leaf.ball.radius = widened_radius;
  leaf.count = static_cast<uint32_t>(leaf.ids.size());

  if (leaf.ids.size() <= max_leaf_size_ || leaf.ball.radius <= 0.0) {
    ReplaceNode(off, parent_off, from_left, old_bytes, EncodeLeaf(leaf));
    return;
  }

  // Overflow: split by Bregman 2-means, exactly like construction. The
  // leaf's logical position becomes an interior node keeping the (widened)
  // ball; the two sides are written from scratch as fresh subtrees.
  Rng rng(insert_seed_++);
  std::vector<uint32_t> global_ids = std::move(leaf.ids);
  const Matrix pts(global_ids.size(), div_.dim(),
                   SoAToRows(leaf.points, global_ids.size(), div_.dim()));
  std::vector<uint32_t> local(global_ids.size());
  std::iota(local.begin(), local.end(), 0);
  std::vector<uint32_t> left_local, right_local;
  SplitLocal(pts, local, leaf.ball.center, rng, &left_local, &right_local);

  DiskNode interior;
  interior.is_leaf = false;
  interior.ball = std::move(leaf.ball);
  interior.dist_mean = leaf.dist_mean;
  interior.dist_std = leaf.dist_std;
  interior.count = static_cast<uint32_t>(global_ids.size());
  interior.left_off = WriteSubtree(pts, global_ids, left_local, rng);
  interior.right_off = WriteSubtree(pts, global_ids, right_local, rng);
  // One leaf became one interior plus the freshly written subtrees (counted
  // by WriteSubtree), so only the replacement is count-neutral. An interior
  // record never outgrows the leaf it replaces (a leaf about to split holds
  // at least two payload entries, which outweigh two child offsets).
  ReplaceNode(off, parent_off, from_left, old_bytes, EncodeInterior(interior));
}

bool DiskBBTree::FindLeafPath(uint64_t off, bool from_left,
                              std::span<const double> x, uint32_t id,
                              std::vector<PathFrame>* path) const {
  DiskNode node = ReadNodeHeader(off);
  // Exact containment: the stored vector's divergence to every ancestor
  // center was folded into that ancestor's radius (max) by construction or
  // by the insert descent, and both sides recompute through the same
  // non-inlined Divergence, so a strict comparison never prunes the leaf
  // actually holding the id.
  if (div_.Divergence(x, node.ball.center) > node.ball.radius) return false;
  path->push_back(PathFrame{off, node.count, from_left});
  ReadNodeTail(off, &node);
  if (node.is_leaf) {
    if (std::find(node.ids.begin(), node.ids.end(), id) != node.ids.end()) {
      return true;
    }
  } else {
    if (FindLeafPath(node.left_off, true, x, id, path)) return true;
    if (FindLeafPath(node.right_off, false, x, id, path)) return true;
  }
  path->pop_back();
  return false;
}

bool DiskBBTree::TryMergeWithSibling(const DiskNode& leaf,
                                     const std::vector<PathFrame>& path) {
  if (path.size() < 2) return false;  // the leaf is the root
  const PathFrame leaf_frame = path.back();
  const PathFrame parent = path[path.size() - 2];
  DiskNode pnode = ReadNode(parent.off);
  BREP_CHECK(!pnode.is_leaf);
  const uint64_t sib_off =
      leaf_frame.from_left ? pnode.right_off : pnode.left_off;
  DiskNode sibling = ReadNodeHeader(sib_off);
  // Merge a leaf pair that shrank to three quarters of a leaf's capacity:
  // aggressive enough that delete churn actually reclaims structure (and
  // chunk pages) instead of accumulating near-empty leaves, with a
  // quarter-leaf of headroom against thrashing into the next split.
  if (!sibling.is_leaf ||
      leaf.ids.size() + sibling.count > max_leaf_size_ * 3 / 4) {
    return false;
  }
  ReadNodeTail(sib_off, &sibling);

  DiskNode merged;
  merged.is_leaf = true;
  merged.ids = leaf.ids;
  merged.ids.insert(merged.ids.end(), sibling.ids.begin(),
                    sibling.ids.end());
  merged.points = ConcatSoA(leaf.points, leaf.ids.size(), sibling.points,
                            sibling.ids.size(), div_.dim());
  // Exact fresh geometry (center = mean, radius = max divergence), like a
  // bulk-built leaf: containment stays bit-exact for later deletes.
  const Matrix pts(merged.ids.size(), div_.dim(),
                   SoAToRows(merged.points, merged.ids.size(), div_.dim()));
  std::vector<uint32_t> local(merged.ids.size());
  std::iota(local.begin(), local.end(), 0);
  ComputeBallAndStats(pts, local, &merged);

  // The merged leaf takes the parent's place; both old leaf records die.
  const uint64_t grand_off =
      path.size() >= 3 ? path[path.size() - 3].off : kNoNode;
  const bool parent_from_left = parent.from_left;
  if (chunk_map_.count(leaf_frame.off) > 0) FreeChunkAt(leaf_frame.off);
  if (chunk_map_.count(sib_off) > 0) FreeChunkAt(sib_off);
  ReplaceNode(parent.off, grand_off, parent_from_left,
              InteriorRecordBytes(), EncodeLeaf(merged));
  num_nodes_ -= 2;
  return true;
}

bool DiskBBTree::Delete(uint32_t id, std::span<const double> x) {
  BREP_CHECK(x.size() == div_.dim());
  if (root_offset_ == kNoNode) return false;
  std::vector<PathFrame> path;
  if (!FindLeafPath(root_offset_, false, x, id, &path)) return false;

  const PathFrame leaf_frame = path.back();
  DiskNode leaf = ReadNode(leaf_frame.off);
  const auto it = std::find(leaf.ids.begin(), leaf.ids.end(), id);
  BREP_CHECK(it != leaf.ids.end());
  const size_t dim = div_.dim();
  const size_t pos = static_cast<size_t>(it - leaf.ids.begin());
  ErasePointSoA(&leaf.points, leaf.ids.size(), dim, pos);
  leaf.ids.erase(it);
  leaf.count = static_cast<uint32_t>(leaf.ids.size());

  size_t ancestors = path.size() - 1;
  if (!leaf.ids.empty()) {
    if (!TryMergeWithSibling(leaf, path)) {
      // Shrinking rewrite always fits in place. The ball is left as-is: a
      // valid (possibly loose) cover of the remaining points.
      WriteBytes(leaf_frame.off, EncodeLeaf(leaf));
    } else {
      ancestors = path.size() - 2;
    }
  } else if (path.size() == 1) {
    // The tree's last point: collapse to the empty state.
    if (chunk_map_.count(leaf_frame.off) > 0) FreeChunkAt(leaf_frame.off);
    root_offset_ = kNoNode;
    num_nodes_ -= 1;
    ancestors = 0;
  } else {
    // Empty leaf: splice its sibling into the grandparent and return both
    // records' chunk pages (if any) to the free-list.
    const PathFrame parent = path[path.size() - 2];
    DiskNode pnode = ReadNode(parent.off);
    BREP_CHECK(!pnode.is_leaf);
    const uint64_t sibling =
        leaf_frame.from_left ? pnode.right_off : pnode.left_off;
    if (path.size() == 2) {
      root_offset_ = sibling;
    } else {
      const PathFrame grand = path[path.size() - 3];
      WriteField<uint64_t>(
          grand.off + NodeFixedBytes() + (parent.from_left ? 0 : 8), sibling);
    }
    if (chunk_map_.count(leaf_frame.off) > 0) FreeChunkAt(leaf_frame.off);
    if (chunk_map_.count(parent.off) > 0) FreeChunkAt(parent.off);
    num_nodes_ -= 2;
    ancestors = path.size() - 2;
  }
  for (size_t i = 0; i < ancestors; ++i) {
    WriteField<uint32_t>(path[i].off + kOffCount, path[i].count - 1);
  }
  --num_points_;
  return true;
}

uint32_t DiskBBTree::CheckSubtree(
    uint64_t off, std::vector<const DiskNode*>* ancestors, uint64_t* nodes,
    std::vector<std::pair<uint64_t, uint64_t>>* extents) const {
  const DiskNode node = ReadNode(off);
  ++*nodes;
  const size_t record_bytes = node.is_leaf ? LeafRecordBytes(node.ids.size())
                                           : InteriorRecordBytes();
  extents->emplace_back(off, off + record_bytes);
  // A record must stay inside its allocation: the bulk-built packed region
  // for original nodes, the registered chunk for relocated/split ones.
  const auto chunk = chunk_map_.find(off);
  if (chunk != chunk_map_.end()) {
    BREP_CHECK_MSG(record_bytes <=
                       size_t{chunk->second} * page_size_,
                   "node record overflows its chunk");
  } else {
    BREP_CHECK_MSG(off + record_bytes <= blob_size_,
                   "node record outside the packed region and any chunk");
  }

  uint32_t count = 0;
  if (node.is_leaf) {
    BREP_CHECK_MSG(!node.ids.empty(), "empty leaf left in the tree");
    BREP_CHECK_MSG(node.ids.size() <= max_leaf_size_ ||
                       node.ball.radius <= 0.0,
                   "oversized leaf (missed split)");
    const size_t dim = div_.dim();
    std::vector<double> p(dim);
    for (size_t i = 0; i < node.ids.size(); ++i) {
      for (size_t j = 0; j < dim; ++j) {
        p[j] = node.points[j * node.ids.size() + i];
      }
      BREP_CHECK_MSG(
          div_.Divergence(p, node.ball.center) <= node.ball.radius,
          "leaf ball does not contain its point");
      for (const DiskNode* anc : *ancestors) {
        BREP_CHECK_MSG(
            div_.Divergence(p, anc->ball.center) <= anc->ball.radius,
            "ancestor ball does not contain a descendant point");
      }
    }
    count = static_cast<uint32_t>(node.ids.size());
  } else {
    ancestors->push_back(&node);
    const uint32_t left = CheckSubtree(node.left_off, ancestors, nodes,
                                       extents);
    const uint32_t right = CheckSubtree(node.right_off, ancestors, nodes,
                                        extents);
    ancestors->pop_back();
    count = left + right;
  }
  BREP_CHECK_MSG(count == node.count, "subtree count field drifted");
  return count;
}

void DiskBBTree::DebugCheckInvariants() const {
  const size_t page_size = page_size_;
  const size_t packed_slots = (blob_size_ + page_size - 1) / page_size;
  BREP_CHECK(packed_slots <= pages_.size());

  // The page table partitions into: packed region, chunks, free runs. No
  // slot may be claimed twice, no page referenced twice, free runs hold
  // exactly the released (kInvalidPageId) slots.
  std::vector<char> state(pages_.size(), 0);  // 1 packed, 2 chunk, 3 free
  for (size_t s = 0; s < packed_slots; ++s) {
    BREP_CHECK_MSG(pages_[s] != kInvalidPageId,
                   "packed-region page was released");
    state[s] = 1;
  }
  for (const auto& [off, slots] : chunk_map_) {
    BREP_CHECK_MSG(off % page_size == 0, "chunk offset not page-aligned");
    const size_t start = off / page_size;
    BREP_CHECK_MSG(start >= packed_slots &&
                       start + slots <= pages_.size() && slots > 0,
                   "chunk outside the mutable slot range");
    for (size_t s = start; s < start + slots; ++s) {
      BREP_CHECK_MSG(state[s] == 0, "page slot claimed twice");
      BREP_CHECK_MSG(pages_[s] != kInvalidPageId, "chunk page was released");
      state[s] = 2;
    }
  }
  for (const auto& [start, len] : free_runs_) {
    BREP_CHECK_MSG(start + len <= pages_.size() && len > 0,
                   "free run out of range");
    for (size_t s = start; s < start + len; ++s) {
      BREP_CHECK_MSG(state[s] == 0, "page slot claimed twice");
      BREP_CHECK_MSG(pages_[s] == kInvalidPageId,
                     "free run covers a live page");
      state[s] = 3;
    }
  }
  std::vector<PageId> live;
  for (size_t s = 0; s < pages_.size(); ++s) {
    BREP_CHECK_MSG(state[s] != 0, "page slot not accounted for");
    if (pages_[s] != kInvalidPageId) live.push_back(pages_[s]);
  }
  std::sort(live.begin(), live.end());
  BREP_CHECK_MSG(std::adjacent_find(live.begin(), live.end()) == live.end(),
                 "page referenced twice by one tree");

  if (root_offset_ == kNoNode) {
    BREP_CHECK_MSG(num_points_ == 0 && num_nodes_ == 0,
                   "empty tree with non-zero counters");
    BREP_CHECK_MSG(chunk_map_.empty(), "empty tree still owns chunks");
    return;
  }
  std::vector<const DiskNode*> ancestors;
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  uint64_t nodes = 0;
  const uint32_t total = CheckSubtree(root_offset_, &ancestors, &nodes,
                                      &extents);
  BREP_CHECK_MSG(total == num_points_, "tree point count drifted");
  BREP_CHECK_MSG(nodes == num_nodes_, "tree node count drifted");
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    BREP_CHECK_MSG(extents[i - 1].second <= extents[i].first,
                   "node records overlap");
  }
}

std::vector<uint32_t> DiskBBTree::RangeSearchExact(
    std::span<const double> y, double radius, const TransformedDataset& tuples,
    size_t partition, WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  BREP_CHECK(partition < tuples.num_partitions());
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;
  if (root_offset_ == kNoNode) return {};

  // Leaf points are decided through the identity D = a_x + a_y + b_yy +
  // b_xy: the SoA payload streams through the cross-term kernel (one dot
  // product per point, no phi), a_x comes from the tuple table, and only
  // points the rounding bound cannot decide pay the exact expression. When
  // phi is plain arithmetic the batched exact expression is cheaper than
  // that (simd::IdentityPays), so every point takes it.
  const simd::DivergenceScan scan(div_, y);
  std::optional<simd::IdentityScan> identity;
  if (simd::IdentityPays(div_.kernel_info())) identity.emplace(scan);
  std::vector<double> dist;  // exact path
  std::vector<double> bxy;   // identity path
  std::vector<double> gx;
  BallQuery balls(div_, scan, bound_iters_, &st.ball_steps);
  DiskNode node;  // decode buffers reused across the descent

  std::vector<uint32_t> result;
  std::vector<uint64_t> stack{root_offset_};
  while (!stack.empty()) {
    const uint64_t off = stack.back();
    stack.pop_back();
    ReadNodeHeader(off, &node);
    ++st.nodes_visited;
    if (!balls.MayReachRange(node.ball, radius)) continue;
    ReadNodeTail(off, &node);
    if (node.is_leaf) {
      ++st.leaves_visited;
      const size_t count = node.ids.size();
      const double* xs = node.points.data();
      st.points_evaluated += count;
      if (identity) {
        bxy.resize(count);
        gx.resize(count);
        identity->CrossTermsSoA(xs, count, bxy.data(), gx.data());
        for (size_t i = 0; i < count; ++i) {
          BREP_CHECK_MSG(node.ids[i] < tuples.num_points(),
                         "corrupted tree page (leaf id out of range)");
          const PointTuple& t = tuples.At(node.ids[i], partition);
          if (identity->WithinRadius(t.alpha, t.alpha_abs, bxy[i], gx[i],
                                     /*parts=*/1, radius, xs + i, count,
                                     &st.exact_evals)) {
            result.push_back(node.ids[i]);
          }
        }
      } else {
        dist.resize(count);
        scan.BatchSoA(xs, count, dist.data());
        st.exact_evals += count;
        for (size_t i = 0; i < count; ++i) {
          if (dist[i] <= radius) result.push_back(node.ids[i]);
        }
      }
    } else {
      // Left child on top: the descent walks the bulk build's preorder
      // layout forwards, so it leaves each page for good once done with it
      // and a small pool misses it at most once.
      stack.push_back(node.right_off);
      stack.push_back(node.left_off);
    }
  }
  return result;
}

std::vector<uint32_t> DiskBBTree::NearestLeafIds(std::span<const double> y,
                                                 size_t count,
                                                 WorkCounters* stats) const {
  BREP_CHECK(y.size() == div_.dim());
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;
  std::vector<uint32_t> ids;
  if (root_offset_ == kNoNode) return ids;

  const simd::DivergenceScan scan(div_, y);
  // Keyed by D(center, y) from the node's header, read at push time; a
  // popped leaf reads its ids, a popped interior node its child offsets.
  struct Entry {
    double key;
    uint64_t off;
    bool is_leaf;
    uint32_t count;
    bool operator>(const Entry& o) const {
      return key != o.key ? key > o.key : off > o.off;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  DiskNode node;  // decode buffers reused across the walk
  const auto push = [&](uint64_t off) {
    ReadNodeHeader(off, &node);
    const double d = scan.One(node.ball.center);
    frontier.push(Entry{std::isnan(d) ? std::numeric_limits<double>::infinity()
                                      : d,
                        off, node.is_leaf, node.count});
  };
  push(root_offset_);
  while (!frontier.empty() && ids.size() < count) {
    const Entry e = frontier.top();
    frontier.pop();
    ++st.nodes_visited;
    if (e.is_leaf) {
      ++st.leaves_visited;
      CheckLeafPayload(e.off, e.count);
      const size_t have = ids.size();
      ids.resize(have + e.count);
      ReadBytes(e.off + NodeFixedBytes(),
                {std::span(reinterpret_cast<uint8_t*>(ids.data() + have),
                           size_t{e.count} * sizeof(uint32_t))});
    } else {
      node.is_leaf = false;  // `node` holds the last header pushed, not e's
      ReadNodeTail(e.off, &node);
      const uint64_t left = node.left_off, right = node.right_off;
      push(left);
      push(right);
    }
  }
  return ids;
}

template <typename Gate>
std::vector<Neighbor> DiskBBTree::KnnImpl(std::span<const double> y, size_t k,
                                          const PointStore& store,
                                          WorkCounters* stats,
                                          const Gate& gate) const {
  BREP_CHECK(y.size() == div_.dim());
  BREP_CHECK_MSG(store.dim() == div_.dim(),
                 "disk kNN evaluates in the tree's own space");
  WorkCounters local;
  WorkCounters& st = stats != nullptr ? *stats : local;
  if (root_offset_ == kNoNode) return {};

  // phi(y)/phi'(y) cached once for every leaf point fetched and every
  // ball tested below.
  const simd::DivergenceScan scan(div_, y);
  BallQuery balls(div_, scan, bound_iters_, &st.ball_steps);

  TopK topk(k);
  // The frontier carries each node's decoded header (read once, at push
  // time, to compute its bound), so a popped node fetches only its tail --
  // no byte is read or decoded twice on the descent.
  struct Entry {
    double lb;
    uint64_t off;
    DiskNode header;
    bool operator>(const Entry& o) const { return lb > o.lb; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  DiskNode root;
  ReadNodeHeader(root_offset_, &root);
  frontier.push(Entry{0.0, root_offset_, std::move(root)});

  while (!frontier.empty()) {
    // Move rather than copy: the entry carries the node's center vector and
    // is discarded by the pop() on the next line, so stealing its buffers
    // is safe and keeps the pop allocation-free.
    Entry e = std::move(const_cast<Entry&>(frontier.top()));
    frontier.pop();
    if (e.lb >= topk.Threshold()) continue;
    DiskNode node = std::move(e.header);
    ReadNodeTail(e.off, &node);
    ++st.nodes_visited;
    if (!gate(e.lb, node, topk.Threshold())) continue;
    if (node.is_leaf) {
      ++st.leaves_visited;
      store.FetchMany(node.ids,
                      [&](uint32_t id, std::span<const double> x) {
                        topk.Push(scan.One(x), id);
                        ++st.points_evaluated;
                      });
    } else {
      DiskNode left, right;
      ReadNodeHeader(node.left_off, &left);
      ReadNodeHeader(node.right_off, &right);
      const double lb_l = balls.LowerBound(left.ball);
      const double lb_r = balls.LowerBound(right.ball);
      if (lb_l < topk.Threshold()) {
        frontier.push(Entry{lb_l, node.left_off, std::move(left)});
      }
      if (lb_r < topk.Threshold()) {
        frontier.push(Entry{lb_r, node.right_off, std::move(right)});
      }
    }
  }
  return topk.SortedResults();
}

std::vector<Neighbor> DiskBBTree::KnnSearch(std::span<const double> y,
                                            size_t k, const PointStore& store,
                                            WorkCounters* stats) const {
  return KnnImpl(y, k, store, stats,
                 [](double, const DiskNode&, double) { return true; });
}

std::vector<Neighbor> DiskBBTree::KnnSearchVariational(
    std::span<const double> y, size_t k, const PointStore& store,
    double min_expected_hits, WorkCounters* stats) const {
  auto gate = [min_expected_hits](double lb, const DiskNode& node,
                                  double threshold) {
    if (threshold == std::numeric_limits<double>::infinity()) return true;
    // Gaussian model of per-point distances within the node: centered at
    // lb + dist_mean with spread dist_std (data-distribution heuristic in
    // the spirit of Coviello et al.'s variational estimate).
    const double sigma = node.dist_std + 1e-12;
    const double z = (threshold - lb - node.dist_mean) / sigma;
    const double p_improve = NormalCdf(z);
    return static_cast<double>(node.count) * p_improve >= min_expected_hits;
  };
  return KnnImpl(y, k, store, stats, gate);
}

}  // namespace brep
