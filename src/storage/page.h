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

/// A page's bytes in storage that is not value-initialised: the buffer of
/// a read that overwrites every byte (PageSource::FetchPage) and of a
/// Pager shadow page (whose writer fills every byte), where a PageBuffer
/// would zero-fill the page just before the bytes replace it.
class PageImage {
 public:
  explicit PageImage(size_t size)
      : bytes_(std::make_unique_for_overwrite<uint8_t[]>(size)), size_(size) {}

  uint8_t* data() { return bytes_.get(); }
  const uint8_t* data() const { return bytes_.get(); }
  size_t size() const { return size_; }
  uint8_t operator[](size_t i) const { return bytes_[i]; }

 private:
  std::unique_ptr<uint8_t[]> bytes_;
  size_t size_;
};

/// A pinned page: shared ownership of an immutable page image. A pin keeps
/// its bytes alive and unchanged for as long as the caller holds it, even
/// after a buffer pool evicts the page or the pager writes a newer version.
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
