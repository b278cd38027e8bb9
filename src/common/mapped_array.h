// A fixed-size array in its own anonymous memory mapping.
//
// Elements start as all-zero bytes and are never constructed or destroyed. A page
// of the array becomes resident only when first written, and the whole mapping
// goes back to the OS on destruction. Two kinds of state use it:
//  - large, sparsely written arrays, such as the bus's per-page exec line masks
//    (DESIGN.md §2b), which then cost memory only where something was marked;
//  - per-hart translation caches (DESIGN.md §2k), which fleet workers allocate on
//    short-lived threads: heap blocks would land in those threads' allocator arenas
//    and stay there, fragmented, after another thread frees them.
// T must therefore be trivially copyable and destructible, and an all-zero element
// must be a valid (empty) value.

#ifndef SRC_COMMON_MAPPED_ARRAY_H_
#define SRC_COMMON_MAPPED_ARRAY_H_

#include <cstddef>
#include <cstdlib>
#include <type_traits>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "src/common/check.h"

namespace vfm {

template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "MappedArray elements are zero-filled, never constructed or destroyed");

 public:
  MappedArray() = default;
  explicit MappedArray(size_t count) : size_(count) {
    if (count == 0) {
      return;
    }
#ifdef __linux__
    void* map = ::mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    VFM_CHECK_MSG(map != MAP_FAILED, "anonymous mapping failed");
    data_ = static_cast<T*>(map);
#else
    data_ = static_cast<T*>(std::calloc(count, sizeof(T)));
    VFM_CHECK_MSG(data_ != nullptr, "array allocation failed");
#endif
  }
  ~MappedArray() { Release(); }

  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  MappedArray& operator=(MappedArray&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void Release() {
    if (data_ == nullptr) {
      return;
    }
#ifdef __linux__
    ::munmap(data_, size_ * sizeof(T));
#else
    std::free(data_);
#endif
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace vfm

#endif  // SRC_COMMON_MAPPED_ARRAY_H_
