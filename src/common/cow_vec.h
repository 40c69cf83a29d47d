#ifndef BREP_COMMON_COW_VEC_H_
#define BREP_COMMON_COW_VEC_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"

namespace brep {

/// A chunked copy-on-write vector: the structural backbone of the MVCC
/// snapshots (versioned page table, transformed-tuple table, point-address
/// table).
///
/// Elements live in fixed-size chunks, each owned by a shared_ptr; the spine
/// (a plain vector of those pointers) is small. Copying a CowVec copies only
/// the spine -- O(size / ChunkElems) pointer bumps -- and the copy then
/// shares every chunk with the original. A mutation (`Set`, `PushBack`,
/// `Resize`) first clones the touched chunk iff it is shared
/// (use_count() > 1), so a snapshot held elsewhere never observes the write.
///
/// Thread-safety: a CowVec value is NOT internally synchronized -- the
/// writer mutates its own instance under the writer mutex. Safety for
/// readers comes from the copy discipline: a reader only ever touches a
/// snapshot copy whose chunks are immutable (the writer clones before
/// writing any chunk that copy shares).
template <typename T>
class CowVec {
 public:
  /// Elements per chunk. Large enough that the spine stays tiny and
  /// serialization runs over long contiguous spans; small enough that one
  /// COW clone is cheap relative to a page write.
  static constexpr size_t kChunkElems = 1024;

  CowVec() = default;

  /// Adopt an existing flat vector (deserialization path). O(n) copy into
  /// fresh unshared chunks.
  explicit CowVec(std::span<const T> values) { Assign(values); }

  // Copies snapshot the spine and share chunks (the whole point).
  CowVec(const CowVec&) = default;
  CowVec& operator=(const CowVec&) = default;
  CowVec(CowVec&&) noexcept = default;
  CowVec& operator=(CowVec&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    return (*chunks_[i / kChunkElems])[i % kChunkElems];
  }

  /// Write one element, cloning the containing chunk first when it is
  /// shared with a snapshot.
  void Set(size_t i, T value) {
    BREP_CHECK(i < size_);
    MutableChunk(i / kChunkElems)[i % kChunkElems] = std::move(value);
  }

  void PushBack(T value) {
    const size_t chunk = size_ / kChunkElems;
    const size_t slot = size_ % kChunkElems;
    if (slot == 0) {
      chunks_.push_back(std::make_shared<std::vector<T>>());
      chunks_.back()->reserve(kChunkElems);
    }
    std::vector<T>& c = MutableChunk(chunk);
    BREP_CHECK(c.size() == slot);
    c.push_back(std::move(value));
    ++size_;
  }

  /// Grow (default-constructing new elements) or shrink. Shrinking trims
  /// whole chunks off the spine and truncates the last kept chunk.
  void Resize(size_t n) {
    if (n < size_) {
      const size_t keep_chunks = (n + kChunkElems - 1) / kChunkElems;
      chunks_.resize(keep_chunks);
      if (n % kChunkElems != 0) MutableChunk(keep_chunks - 1).resize(n % kChunkElems);
      size_ = n;
      return;
    }
    while (size_ < n) PushBack(T{});
  }

  void Assign(std::span<const T> values) {
    chunks_.clear();
    size_ = 0;
    chunks_.reserve((values.size() + kChunkElems - 1) / kChunkElems);
    for (size_t off = 0; off < values.size(); off += kChunkElems) {
      const size_t len = std::min(kChunkElems, values.size() - off);
      chunks_.push_back(std::make_shared<std::vector<T>>(
          values.begin() + static_cast<ptrdiff_t>(off),
          values.begin() + static_cast<ptrdiff_t>(off + len)));
    }
    size_ = values.size();
  }

  /// Contiguous spans in order, for serialization: the concatenation is the
  /// element sequence, byte-identical to a flat vector's contents.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    for (const auto& c : chunks_) fn(std::span<const T>(*c));
  }

 private:
  std::vector<T>& MutableChunk(size_t chunk) {
    std::shared_ptr<std::vector<T>>& slot = chunks_[chunk];
    if (slot.use_count() > 1) {
      slot = std::make_shared<std::vector<T>>(*slot);
    }
    return *slot;
  }

  std::vector<std::shared_ptr<std::vector<T>>> chunks_;
  size_t size_ = 0;
};

}  // namespace brep

#endif  // BREP_COMMON_COW_VEC_H_
