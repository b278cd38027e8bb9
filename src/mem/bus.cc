#include "src/mem/bus.h"

#include <algorithm>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/common/check.h"

namespace vfm {

void MmioDevice::SaveState(StateWriter& writer) const { (void)writer; }
bool MmioDevice::LoadState(StateReader& reader) {
  (void)reader;
  return true;
}

namespace {

uint64_t SystemPageSize() {
#ifdef __linux__
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

}  // namespace

uint64_t Ram::ImageSize(uint64_t size) {
  const uint64_t page = SystemPageSize();
  return (size + page - 1) & ~(page - 1);
}

uint64_t Ram::map_size() const { return ImageSize(size_); }

Ram::Ram(uint64_t base, uint64_t size)
    : base_(base),
      size_(size),
      page_marks_((size + (uint64_t{1} << kPageShift) - 1) >> kPageShift),
      exec_lines_(page_marks_.size()),
      mark_groups_((page_marks_.size() + (uint64_t{64} << kGroupShift) - 1) >>
                       (kGroupShift + 6),
                   0) {
  VFM_CHECK_MSG(size > 0, "RAM region must be non-empty");
#ifdef __linux__
  // Preferred backing: an owned memfd mapped shared. Freezing then costs nothing —
  // the fd transfers into the RamImage and this mapping flips to a private view.
  const int fd = ::memfd_create("vfm-ram", MFD_CLOEXEC);
  if (fd >= 0 && ::ftruncate(fd, static_cast<off_t>(map_size())) == 0) {
    void* map = ::mmap(nullptr, map_size(), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<uint8_t*>(map);
      mapped_ = true;
      owned_fd_ = fd;
      return;
    }
  }
  if (fd >= 0) {
    ::close(fd);
  }
#endif
  // Fallback: heap backing, manually aligned to the host page size so CoW page
  // references stay well-formed even without mmap.
  const uint64_t page = SystemPageSize();
  heap_.resize(map_size() + page, 0);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(heap_.data());
  data_ = reinterpret_cast<uint8_t*>((raw + page - 1) & ~(uintptr_t{page} - 1));
}

Ram::~Ram() {
#ifdef __linux__
  if (mapped_) {
    ::munmap(data_, map_size());
  }
  if (owned_fd_ >= 0) {
    ::close(owned_fd_);
  }
#endif
}

std::shared_ptr<RamImage> Ram::Freeze() {
  if (image_ != nullptr && !maybe_dirty_) {
    return image_;  // unmodified view of an existing image: share it
  }
#ifdef __linux__
  if (mapped_ && owned_fd_ >= 0) {
    // Transfer the backing into the image and keep a private view of it mapped at
    // the same address (data() must not move: harts hold host pointers into it).
    auto image = std::make_shared<RamImage>(owned_fd_, map_size(), std::vector<uint8_t>{});
    owned_fd_ = -1;
    void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
    VFM_CHECK_MSG(map == data_, "RAM freeze remap failed");
    image_ = std::move(image);
    maybe_dirty_ = false;
    return image_;
  }
  if (mapped_) {
    // A modified private view: the image's pages are no longer ours to give away,
    // so copy the current contents into a fresh image and rebase onto it.
    auto image = RamImage::FromBytes(data_, map_size());
    if (image->mappable()) {
      void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
      VFM_CHECK_MSG(map == data_, "RAM freeze remap failed");
    }
    image_ = std::move(image);
    maybe_dirty_ = false;
    return image_;
  }
#endif
  image_ = RamImage::FromBytes(data_, map_size());
  maybe_dirty_ = false;
  return image_;
}

void Ram::Mark(uint64_t offset, uint8_t mark) {
  const uint64_t page = offset >> kPageShift;
  if ((mark & kExecMark) != 0) {
    __atomic_fetch_or(&exec_lines_[page], uint64_t{1} << ((offset >> kLineShift) & 63),
                      __ATOMIC_RELAXED);
  }
  __atomic_fetch_or(&page_marks_[page], mark, __ATOMIC_RELAXED);
  const uint64_t group = page >> kGroupShift;
  __atomic_fetch_or(&mark_groups_[group >> 6], uint64_t{1} << (group & 63), __ATOMIC_RELAXED);
}

uint8_t Ram::StoreHits(uint64_t offset, uint64_t size) const {
  const uint64_t last = offset + size - 1;
  const uint64_t first_page = offset >> kPageShift;
  const uint64_t last_page = last >> kPageShift;
  uint8_t hits = 0;
  for (uint64_t page = first_page; page <= last_page; ++page) {
    const uint8_t marks = page_marks_[page];
    hits |= marks & kPtMark;
    if ((marks & kExecMark) != 0) {
      // The store's lines within this page: from its first byte's line (or line 0)
      // through its last byte's line (or line 63).
      const unsigned lo = page == first_page ? (offset >> kLineShift) & 63 : 0;
      const unsigned hi = page == last_page ? (last >> kLineShift) & 63 : 63;
      const uint64_t span = (~uint64_t{0} << lo) & (~uint64_t{0} >> (63 - hi));
      if ((exec_lines_[page] & span) != 0) {
        hits |= kExecMark;
      }
    }
  }
  return hits;
}

bool Ram::ClearMarks(uint8_t classes) {
  const uint8_t keep = static_cast<uint8_t>(~classes);
  bool any = false;
  for (size_t word = 0; word < mark_groups_.size(); ++word) {
    uint64_t pending = mark_groups_[word];
    while (pending != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(pending));
      pending &= pending - 1;
      const uint64_t first = ((word << 6) + bit) << kGroupShift;
      const uint64_t end = std::min<uint64_t>(first + (uint64_t{1} << kGroupShift),
                                              page_marks_.size());
      bool group_marked = false;
      for (uint64_t page = first; page < end; ++page) {
        // Line masks are non-zero only on exec-marked pages, so unmarked pages'
        // masks are never written (and their lazily mapped storage never touched).
        if ((page_marks_[page] & classes & kExecMark) != 0) {
          exec_lines_[page] = 0;
        }
        page_marks_[page] &= keep;
        group_marked |= page_marks_[page] != 0;
      }
      if (!group_marked) {
        mark_groups_[word] &= ~(uint64_t{1} << bit);
      }
    }
    any |= mark_groups_[word] != 0;
  }
  return any;
}

void Ram::AdoptImage(std::shared_ptr<RamImage> image) {
  VFM_CHECK_MSG(image != nullptr && image->size() == map_size(),
                "RAM image size mismatch");
  if (image == image_ && !maybe_dirty_) {
    return;  // already an unmodified view of this image
  }
#ifdef __linux__
  if (mapped_ && image->mappable()) {
    void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
    VFM_CHECK_MSG(map == data_, "RAM adopt remap failed");
    if (owned_fd_ >= 0) {
      ::close(owned_fd_);
      owned_fd_ = -1;
    }
    image_ = std::move(image);
    maybe_dirty_ = false;
    return;
  }
#endif
  image->CopyTo(data_);
  image_ = std::move(image);
  maybe_dirty_ = false;
}

Bus::Bus(uint64_t ram_base, uint64_t ram_size) : ram_(ram_base, ram_size) {}

void Bus::AddMmio(uint64_t base, uint64_t size, MmioDevice* device) {
  VFM_CHECK(device != nullptr);
  mmio_.push_back(MmioWindow{base, size, device});
}

const Bus::MmioWindow* Bus::FindMmio(uint64_t addr) const {
  for (const auto& window : mmio_) {
    if (addr >= window.base && addr < window.base + window.size) {
      return &window;
    }
  }
  return nullptr;
}

bool Bus::ReadMmio(uint64_t addr, unsigned size, uint64_t* value) {
  const MmioWindow* window = FindMmio(addr);
  if (window == nullptr) {
    return false;
  }
  VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                "MMIO read dispatched mid-segment (must happen at a quantum barrier)");
  ++mmio_ops_;
  if (addr + size > window->base + window->size) {
    return false;
  }
  return window->device->MmioRead(addr - window->base, size, value);
}

bool Bus::WriteMmio(uint64_t addr, unsigned size, uint64_t value) {
  const MmioWindow* window = FindMmio(addr);
  if (window == nullptr) {
    return false;
  }
  VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                "MMIO write dispatched mid-segment (must happen at a quantum barrier)");
  ++mmio_ops_;
  if (addr + size > window->base + window->size) {
    return false;
  }
  return window->device->MmioWrite(addr - window->base, size, value);
}

bool Bus::ReadBytes(uint64_t addr, void* out, uint64_t size) const {
  if (!ram_.Contains(addr, size)) {
    return false;
  }
  std::memcpy(out, ram_.data() + (addr - ram_.base()), size);
  return true;
}

bool Bus::WriteBytes(uint64_t addr, const void* data, uint64_t size) {
  if (!ram_.Contains(addr, size)) {
    return false;
  }
  const uint64_t offset = addr - ram_.base();
  // Bulk writes (image loads, DMA) invalidate on every marked page they touch, not
  // only on marked lines: they are rare and may span many pages, so the conservative
  // check costs nothing that matters.
  if (any_marks_ && size != 0) {
    uint8_t marks = 0;
    for (uint64_t page = offset >> Ram::kPageShift;
         page <= (offset + size - 1) >> Ram::kPageShift; ++page) {
      marks |= ram_.page_marks()[page];
    }
    InvalidateMarkedPages(marks);
  }
  ram_.SetMaybeDirty();
  std::memcpy(ram_.data() + offset, data, size);
  return true;
}

// Mark setting uses relaxed atomic OR (Ram::Mark): during quantum-mode segments
// several harts fill their caches (and therefore mark pages) concurrently. Marks are
// monotonic within a segment — only ever set, never read or cleared until the next
// barrier — so relaxed ordering is sufficient (DESIGN.md §2i).
void Bus::MarkExecLine(uint64_t paddr) {
  if (!ram_.Contains(paddr, 1)) {
    return;
  }
  ram_.Mark(paddr - ram_.base(), kExecMark);
  any_marks_.store(true, std::memory_order_relaxed);
}

bool Bus::MarkPtPage(uint64_t paddr) {
  if (!ram_.Contains(paddr, 1)) {
    return false;
  }
  ram_.Mark(paddr - ram_.base(), kPtMark);
  any_marks_.store(true, std::memory_order_relaxed);
  return true;
}

void Bus::AdoptRam(std::shared_ptr<RamImage> image) {
  ram_.AdoptImage(std::move(image));
  ram_.ClearMarks(kExecMark | kPtMark);
  any_marks_ = false;
}

void Bus::InvalidateMarkedPages(uint8_t marks) {
  if (marks == 0) {
    return;
  }
  if ((marks & kExecMark) != 0) {
    ++code_generation_;
  }
  if ((marks & kPtMark) != 0) {
    ++pt_generation_;
  }
  // Clear only the invalidated classes; other classes' marks stay live.
  any_marks_ = ram_.ClearMarks(marks);
}

}  // namespace vfm
