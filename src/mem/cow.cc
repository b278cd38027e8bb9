#include "src/mem/cow.h"

#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/common/check.h"

namespace vfm {

RamImage::RamImage(int fd, uint64_t size, std::vector<uint8_t> heap)
    : fd_(fd), size_(size), heap_(std::move(heap)) {
  if (fd_ < 0) {
    VFM_CHECK(heap_.size() == size_);
  }
}

RamImage::~RamImage() {
#ifdef __linux__
  if (fd_ >= 0) {
    ::close(fd_);
  }
#endif
}

std::shared_ptr<RamImage> RamImage::FromBytes(const void* data, uint64_t size) {
#ifdef __linux__
  const int fd = ::memfd_create("vfm-ram-image", MFD_CLOEXEC);
  if (fd >= 0) {
    bool ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0;
    const uint8_t* src = static_cast<const uint8_t*>(data);
    uint64_t written = 0;
    while (ok && written < size) {
      const ssize_t n = ::pwrite(fd, src + written, size - written,
                                 static_cast<off_t>(written));
      if (n <= 0) {
        ok = false;
        break;
      }
      written += static_cast<uint64_t>(n);
    }
    if (ok) {
      return std::make_shared<RamImage>(fd, size, std::vector<uint8_t>{});
    }
    ::close(fd);
  }
#endif
  const uint8_t* src = static_cast<const uint8_t*>(data);
  return std::make_shared<RamImage>(-1, size, std::vector<uint8_t>(src, src + size));
}

void RamImage::CopyRange(uint64_t offset, uint64_t size, void* out) const {
  VFM_CHECK_MSG(offset <= size_ && size <= size_ - offset, "RamImage range out of bounds");
#ifdef __linux__
  if (fd_ >= 0) {
    uint8_t* dst = static_cast<uint8_t*>(out);
    uint64_t done = 0;
    while (done < size) {
      const ssize_t n =
          ::pread(fd_, dst + done, size - done, static_cast<off_t>(offset + done));
      VFM_CHECK_MSG(n > 0, "RamImage read failed");
      done += static_cast<uint64_t>(n);
    }
    return;
  }
#endif
  if (size != 0) {
    std::memcpy(out, heap_.data() + offset, size);
  }
}

}  // namespace vfm
