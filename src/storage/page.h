#ifndef BREP_STORAGE_PAGE_H_
#define BREP_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace brep {

/// Identifier of a fixed-size page on the (simulated) disk.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// Raw page contents.
using PageBuffer = std::vector<uint8_t>;

/// A page's bytes, in one of two forms:
///  * owned storage that is not value-initialised: the buffer of a read
///    that overwrites every byte (PageSource::FetchPage) and of a Pager
///    shadow page (whose writer fills every byte), where a PageBuffer
///    would zero-fill the page just before the bytes replace it;
///  * a read-only view of bytes someone else owns (View): a FilePager
///    page inside its file mapping, which the view's owner keeps mapped.
class PageImage {
 public:
  explicit PageImage(size_t size)
      : owned_(std::make_unique_for_overwrite<uint8_t[]>(size)),
        data_(owned_.get()),
        size_(size) {}

  /// A read-only view of `size` bytes at `bytes`, which must outlive it.
  static PageImage View(const uint8_t* bytes, size_t size) {
    return PageImage(bytes, size);
  }

  /// The writable bytes of an owned image; a view has none (nullptr).
  uint8_t* data() { return owned_.get(); }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

 private:
  PageImage(const uint8_t* bytes, size_t size) : data_(bytes), size_(size) {}

  std::unique_ptr<uint8_t[]> owned_;  // null in a view
  const uint8_t* data_;
  size_t size_;
};

/// A pinned page: shared ownership of an immutable page image (for a
/// FilePager base page, a view that co-owns the file mapping it points
/// into). A pin keeps its bytes alive and unchanged for as long as the
/// caller holds it, even after a buffer pool evicts the page, the pager
/// writes a newer version or the file grows (see PageSource::PinPage).
using PagePin = std::shared_ptr<const PageImage>;

/// Counters the evaluation uses as its "I/O cost" metric: number of page
/// reads/writes issued against the simulated disk. The paper reports I/O
/// cost as a count of page accesses, so counting pages reproduces its
/// metric exactly, independent of the disk's speed.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;

  IoStats operator-(const IoStats& other) const {
    return {reads - other.reads, writes - other.writes};
  }
};

}  // namespace brep

#endif  // BREP_STORAGE_PAGE_H_
