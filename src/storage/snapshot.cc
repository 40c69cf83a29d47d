#include "storage/snapshot.h"

#include <cstring>

#include "common/check.h"

namespace brep {

PageSnapshot::PageSnapshot(Pager& pager)
    : PageSource(pager.page_size()),
      base_(&pager),
      num_pages_(pager.num_pages()),
      free_head_(pager.free_list_head()),
      free_count_(pager.num_free_pages()),
      catalog_(pager.catalog()),
      table_(pager.table_),
      shadow_pages_(pager.shadow_pages_) {
  // From here on, any shadow buffer that existed at capture time is shared
  // with this snapshot: the pager must stop overwriting them in place.
  pager.last_snapshot_gen_ = pager.next_gen_;
}

void PageSnapshot::FetchPage(PageId id, uint8_t* out) const {
  BREP_CHECK(id < num_pages_);
  const Pager::VersionedPage& entry = table_[id];
  if (entry.data != nullptr) {
    std::memcpy(out, entry.data->data(), page_size_);
  } else {
    base_->DoRead(id, out);
  }
  base_->reads_.fetch_add(1, std::memory_order_relaxed);
}

PagePin PageSnapshot::PinPage(PageId id) const {
  BREP_CHECK(id < num_pages_);
  return base_->PinEntry(id, table_[id]);
}

uint64_t PageSnapshot::PageGen(PageId id) const {
  BREP_CHECK(id < num_pages_);
  return table_[id].gen;
}

}  // namespace brep
