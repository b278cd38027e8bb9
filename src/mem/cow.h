// Copy-on-write RAM images for whole-machine snapshots (DESIGN.md §2h).
//
// A RamImage is an immutable, refcounted byte image of one RAM region. On Linux it
// is a sealed memfd: a Ram maps it MAP_PRIVATE, so every machine forked from the
// same snapshot shares the image's physical pages until it writes — forking a booted
// 128 MiB guest touches no RAM at all. Where memfd is unavailable the image degrades
// to a heap buffer and Adopt() copies (correct, just not CoW).

#ifndef SRC_MEM_COW_H_
#define SRC_MEM_COW_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace vfm {

class RamImage {
 public:
  // Takes ownership of `fd` (a memfd holding `size` bytes). fd < 0 means the
  // heap-backed fallback; `heap` then holds the bytes.
  RamImage(int fd, uint64_t size, std::vector<uint8_t> heap);
  ~RamImage();

  RamImage(const RamImage&) = delete;
  RamImage& operator=(const RamImage&) = delete;

  // Builds an image by copying `size` bytes from `data`. Prefers a memfd; falls
  // back to the heap. Never fails.
  static std::shared_ptr<RamImage> FromBytes(const void* data, uint64_t size);

  uint64_t size() const { return size_; }
  int fd() const { return fd_; }
  bool mappable() const { return fd_ >= 0; }
  // Heap-fallback view (only when !mappable()).
  const uint8_t* heap_data() const { return heap_.data(); }

  // Reads the image's bytes (for hashing / serialization), regardless of backing:
  // all of them, or `size` bytes from `offset` on.
  void CopyTo(void* out) const { CopyRange(0, size_, out); }
  void CopyRange(uint64_t offset, uint64_t size, void* out) const;

 private:
  int fd_;
  uint64_t size_;
  std::vector<uint8_t> heap_;
};

}  // namespace vfm

#endif  // SRC_MEM_COW_H_
