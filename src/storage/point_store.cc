#include "storage/point_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace brep {

PointStore::PointStore(Pager* pager, const Matrix& data,
                       std::span<const uint32_t> order)
    : pager_(pager), src_(pager), dim_(data.cols()) {
  BREP_CHECK(pager_ != nullptr);
  BREP_CHECK(!data.empty());
  const size_t point_bytes = dim_ * sizeof(double);
  BREP_CHECK_MSG(point_bytes <= pager_->page_size(),
                 "page size too small for one point");
  points_per_page_ = PointsPerPage(pager_->page_size(), dim_);

  const size_t n = data.rows();
  std::vector<uint32_t> layout;
  if (order.empty()) {
    layout.resize(n);
    for (size_t i = 0; i < n; ++i) layout[i] = static_cast<uint32_t>(i);
  } else {
    BREP_CHECK(order.size() == n);
    layout.assign(order.begin(), order.end());
  }

  address_of_.Resize(n);
  std::vector<uint8_t> page_bytes(pager_->page_size(), 0);
  size_t slot = 0;
  PageId current = kInvalidPageId;
  auto flush = [&]() {
    if (current != kInvalidPageId && slot > 0) {
      pager_->Write(current, page_bytes);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (slot == 0) {
      current = pager_->Allocate();
      page_index_of_[current] = static_cast<uint32_t>(data_pages_.size());
      data_pages_.push_back(current);
      page_slots_.emplace_back(points_per_page_, kNoPoint);
      page_live_.push_back(0);
      std::fill(page_bytes.begin(), page_bytes.end(), 0);
    }
    const uint32_t id = layout[i];
    const auto row = data.Row(id);
    std::memcpy(page_bytes.data() + slot * point_bytes, row.data(),
                point_bytes);
    address_of_.Set(id, PointAddress{current, static_cast<uint16_t>(slot)});
    page_slots_.back()[slot] = id;
    ++page_live_.back();
    if (++slot == points_per_page_) {
      pager_->Write(current, page_bytes);
      slot = 0;
    }
  }
  flush();
  live_ = n;
  // The last page's unfilled tail is free for later Appends (highest slot
  // popped last so appends fill the page front to back).
  if (slot > 0) {
    const auto pi = static_cast<uint32_t>(data_pages_.size() - 1);
    for (size_t s = points_per_page_; s-- > slot;) {
      free_slots_.push_back(SlotRef{pi, static_cast<uint16_t>(s)});
    }
  }
}

PointStore::PointStore(Pager* pager, const PointStoreLayout& layout)
    : pager_(pager), src_(pager), dim_(layout.dim) {
  BREP_CHECK(pager_ != nullptr);
  BREP_CHECK(dim_ > 0);
  const size_t point_bytes = dim_ * sizeof(double);
  BREP_CHECK_MSG(point_bytes <= pager_->page_size(),
                 "page size too small for one point");
  points_per_page_ = PointsPerPage(pager_->page_size(), dim_);

  const size_t pages = layout.data_pages.size();
  BREP_CHECK_MSG(layout.slots.size() == pages * points_per_page_,
                 "point-store layout slot count mismatch");
  BREP_CHECK(layout.id_space > 0);

  data_pages_ = layout.data_pages;
  address_of_.Resize(layout.id_space);  // default PointAddress = not stored
  page_slots_.resize(pages);
  page_live_.assign(pages, 0);
  for (size_t pi = 0; pi < pages; ++pi) {
    const PageId page_id = data_pages_[pi];
    auto& slots = page_slots_[pi];
    slots.assign(points_per_page_, kNoPoint);
    if (page_id == kInvalidPageId) {  // freed page: all slots dead
      retired_entries_.push_back(static_cast<uint32_t>(pi));
      continue;
    }
    BREP_CHECK(page_id < pager_->num_pages());
    page_index_of_[page_id] = static_cast<uint32_t>(pi);
    for (size_t s = 0; s < points_per_page_; ++s) {
      const uint32_t id = layout.slots[pi * points_per_page_ + s];
      if (id == kNoPoint) {
        free_slots_.push_back(
            SlotRef{static_cast<uint32_t>(pi), static_cast<uint16_t>(s)});
        continue;
      }
      BREP_CHECK(id < layout.id_space);
      BREP_CHECK(address_of_[id].page == kInvalidPageId);  // no duplicates
      slots[s] = id;
      address_of_.Set(id, PointAddress{page_id, static_cast<uint16_t>(s)});
      ++page_live_[pi];
      ++live_;
    }
  }
}

PointStore::PointStore(const PageSource* src, size_t dim,
                       size_t points_per_page, size_t live,
                       CowVec<PointAddress> address_of)
    : pager_(nullptr),
      src_(src),
      dim_(dim),
      points_per_page_(points_per_page),
      live_(live),
      address_of_(std::move(address_of)) {}

std::unique_ptr<PointStore> PointStore::SnapshotClone(
    const PageSource* src) const {
  BREP_CHECK(src != nullptr);
  return std::unique_ptr<PointStore>(
      new PointStore(src, dim_, points_per_page_, live_, address_of_));
}

PointStoreLayout PointStore::layout() const {
  PointStoreLayout layout;
  layout.dim = dim_;
  layout.id_space = address_of_.size();
  layout.data_pages = data_pages_;
  layout.slots.reserve(data_pages_.size() * points_per_page_);
  for (const auto& slots : page_slots_) {
    layout.slots.insert(layout.slots.end(), slots.begin(), slots.end());
  }
  return layout;
}

void PointStore::AddPage() {
  const PageId page = pager_->Allocate();
  uint32_t pi;
  if (!retired_entries_.empty()) {
    // Reclaim a retired slot-table entry (its slots are all kNoPoint).
    pi = retired_entries_.back();
    retired_entries_.pop_back();
    data_pages_[pi] = page;
  } else {
    pi = static_cast<uint32_t>(data_pages_.size());
    data_pages_.push_back(page);
    page_slots_.emplace_back(points_per_page_, kNoPoint);
    page_live_.push_back(0);
  }
  page_index_of_[page] = pi;
  for (size_t s = points_per_page_; s-- > 0;) {
    free_slots_.push_back(SlotRef{pi, static_cast<uint16_t>(s)});
  }
}

void PointStore::WriteSlot(uint32_t page_index, uint16_t slot,
                           std::span<const double> x) {
  const size_t point_bytes = dim_ * sizeof(double);
  pager_->Patch(data_pages_[page_index], size_t{slot} * point_bytes,
                std::span<const uint8_t>(
                    reinterpret_cast<const uint8_t*>(x.data()), point_bytes));
}

void PointStore::Append(uint32_t id, std::span<const double> x) {
  BREP_CHECK(x.size() == dim_);
  if (id == address_of_.size()) {
    address_of_.PushBack(PointAddress{});
  } else {
    BREP_CHECK_MSG(id < address_of_.size() &&
                       address_of_[id].page == kInvalidPageId,
                   "Append requires a fresh or tombstoned id");
  }
  if (free_slots_.empty()) AddPage();
  const SlotRef ref = free_slots_.back();
  free_slots_.pop_back();
  WriteSlot(ref.page_index, ref.slot, x);
  page_slots_[ref.page_index][ref.slot] = id;
  ++page_live_[ref.page_index];
  address_of_.Set(id, PointAddress{data_pages_[ref.page_index], ref.slot});
  ++live_;
}

void PointStore::Remove(uint32_t id) {
  BREP_CHECK_MSG(Contains(id), "Remove of an id that is not stored");
  const PointAddress addr = address_of_[id];
  const uint32_t pi = page_index_of_.at(addr.page);
  address_of_.Set(id, PointAddress{});
  page_slots_[pi][addr.slot] = kNoPoint;
  --page_live_[pi];
  --live_;
  if (page_live_[pi] == 0) {
    // Last point gone: return the whole page to the pager's free-list and
    // retire its slots (they are no longer backed by a page).
    std::erase_if(free_slots_,
                  [pi](const SlotRef& s) { return s.page_index == pi; });
    pager_->Free(addr.page);
    page_index_of_.erase(addr.page);
    data_pages_[pi] = kInvalidPageId;
    retired_entries_.push_back(pi);
  } else {
    free_slots_.push_back(SlotRef{pi, addr.slot});
  }
}

void PointStore::Fetch(uint32_t id, std::span<double> out) const {
  BREP_CHECK_MSG(Contains(id), "Fetch of an id that is not stored");
  BREP_CHECK(out.size() == dim_);
  const PointAddress addr = address_of_[id];
  const PagePin page = src_->PinPage(addr.page);
  std::memcpy(out.data(), page->data() + addr.slot * dim_ * sizeof(double),
              dim_ * sizeof(double));
}

const PageImage* PointStore::PageMemo::Find(PageId id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return nullptr;
  return pages[static_cast<size_t>(it - ids.begin())].get();
}

void PointStore::FetchMany(
    std::span<const uint32_t> ids,
    const std::function<void(uint32_t, std::span<const double>)>& cb,
    const PageMemo* reuse, PageMemo* keep) const {
  BREP_CHECK(keep == nullptr || keep->ids.empty());
  // Group requested ids by page, then read each page once in ascending
  // order (a real engine would sort candidate addresses the same way).
  std::vector<uint32_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
    const PointAddress pa = address_of_[a];
    const PointAddress pb = address_of_[b];
    if (pa.page != pb.page) return pa.page < pb.page;
    return pa.slot < pb.slot;
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  PagePin pin;                    // the loaded page, unless `reuse` kept it
  const uint8_t* page = nullptr;  // the loaded page's bytes
  PageId loaded = kInvalidPageId;
  for (uint32_t id : sorted) {
    BREP_CHECK_MSG(Contains(id), "FetchMany of an id that is not stored");
    const PointAddress addr = address_of_[id];
    if (addr.page != loaded) {
      loaded = addr.page;
      const PageImage* kept =
          reuse != nullptr ? reuse->Find(addr.page) : nullptr;
      if (kept == nullptr) {
        pin = src_->PinPage(addr.page);
        if (keep != nullptr) {
          keep->ids.push_back(addr.page);
          keep->pages.push_back(pin);
        }
        kept = pin.get();
      }
      page = kept->data();
    }
    const auto* doubles = reinterpret_cast<const double*>(
        page + addr.slot * dim_ * sizeof(double));
    cb(id, std::span<const double>(doubles, dim_));
  }
}

size_t PointStore::CountDistinctPages(std::span<const uint32_t> ids) const {
  std::vector<PageId> pages;
  pages.reserve(ids.size());
  for (uint32_t id : ids) pages.push_back(address_of_[id].page);
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages.size();
}

std::vector<PageId> PointStore::LivePages() const {
  std::vector<PageId> pages;
  pages.reserve(page_index_of_.size());
  for (PageId id : data_pages_) {
    if (id != kInvalidPageId) pages.push_back(id);
  }
  return pages;
}

void PointStore::DebugCheckInvariants() const {
  size_t live = 0;
  for (uint32_t id = 0; id < address_of_.size(); ++id) {
    const PointAddress addr = address_of_[id];
    if (addr.page == kInvalidPageId) continue;
    ++live;
    const auto it = page_index_of_.find(addr.page);
    BREP_CHECK_MSG(it != page_index_of_.end(),
                   "live point addresses a page the store does not own");
    BREP_CHECK_MSG(addr.slot < points_per_page_ &&
                       page_slots_[it->second][addr.slot] == id,
                   "slot table and address table disagree");
  }
  BREP_CHECK_MSG(live == live_, "live-point count drifted");

  size_t free_expected = 0;
  for (size_t pi = 0; pi < data_pages_.size(); ++pi) {
    size_t page_live = 0, page_free = 0;
    for (uint32_t id : page_slots_[pi]) {
      (id == kNoPoint ? page_free : page_live) += 1;
    }
    BREP_CHECK_MSG(page_live == page_live_[pi], "per-page live count drifted");
    if (data_pages_[pi] == kInvalidPageId) {
      BREP_CHECK_MSG(page_live == 0, "freed page still holds live slots");
    } else {
      BREP_CHECK_MSG(page_live > 0, "owned page holds no live point");
      BREP_CHECK_MSG(data_pages_[pi] < pager_->num_pages(),
                     "owned page out of pager range");
      free_expected += page_free;
    }
  }
  BREP_CHECK_MSG(free_slots_.size() == free_expected,
                 "free-slot pool out of sync with slot tables");
  for (const SlotRef& s : free_slots_) {
    BREP_CHECK_MSG(s.page_index < data_pages_.size() &&
                       data_pages_[s.page_index] != kInvalidPageId &&
                       page_slots_[s.page_index][s.slot] == kNoPoint,
                   "free-slot pool references an occupied or freed slot");
  }
  size_t invalid_entries = 0;
  for (PageId id : data_pages_) invalid_entries += id == kInvalidPageId;
  BREP_CHECK_MSG(retired_entries_.size() == invalid_entries,
                 "retired-entry pool out of sync with the page table");
  for (uint32_t pi : retired_entries_) {
    BREP_CHECK_MSG(pi < data_pages_.size() &&
                       data_pages_[pi] == kInvalidPageId,
                   "retired-entry pool references a live page entry");
  }
}

}  // namespace brep
