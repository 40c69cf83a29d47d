#ifndef BREP_STORAGE_PAGE_H_
#define BREP_STORAGE_PAGE_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace brep {

/// Identifier of a fixed-size page on the (simulated) disk.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// Raw page contents.
using PageBuffer = std::vector<uint8_t>;

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
