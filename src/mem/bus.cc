#include "src/mem/bus.h"

#include <algorithm>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/common/check.h"
#include "src/common/state.h"

namespace vfm {

void MmioDevice::SaveState(StateWriter& writer) const { (void)writer; }
bool MmioDevice::LoadState(StateReader& reader) {
  (void)reader;
  return true;
}

namespace {

uint64_t HostPageSize() {
#ifdef __linux__
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

}  // namespace

uint64_t Ram::map_size() const {
  const uint64_t page = HostPageSize();
  return (size_ + page - 1) & ~(page - 1);
}

Ram::Ram(uint64_t base, uint64_t size)
    : base_(base),
      size_(size),
      page_marks_((size + (uint64_t{1} << kPageShift) - 1) >> kPageShift),
      exec_lines_(page_marks_.size()),
      mark_groups_((page_marks_.size() + (uint64_t{64} << kGroupShift) - 1) >>
                       (kGroupShift + 6),
                   0) {
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
  const uint64_t page = HostPageSize();
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
    // the same address (data() must not move: harts hold host pointers into it,
    // guarded by ram_generation, and the bus fast path caches it).
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

Ram* Bus::AddRam(uint64_t base, uint64_t size) {
  VFM_CHECK_MSG(size > 0, "RAM region must be non-empty");
  for (const auto& existing : ram_) {
    const bool overlaps = base < existing->base() + existing->size() && existing->base() < base + size;
    VFM_CHECK_MSG(!overlaps, "RAM regions overlap");
  }
  ram_.push_back(std::make_unique<Ram>(base, size));
  ++ram_generation_;  // invalidates any cached host page pointers via the TLB stamps
  if (ram_.size() == 1) {
    ram0_base_ = base;
    ram0_limit_ = size;
    ram0_data_ = ram_.front()->data();
    ram0_marks_ = ram_.front()->page_marks();
    ram0_region_ = ram_.front().get();
  }
  return ram_.back().get();
}

void Bus::AddMmio(uint64_t base, uint64_t size, MmioDevice* device) {
  VFM_CHECK(device != nullptr);
  mmio_.push_back(MmioWindow{base, size, device});
}

const Ram* Bus::FindRam(uint64_t addr, uint64_t size) const {
  for (const auto& region : ram_) {
    if (addr >= region->base() && addr + size <= region->base() + region->size()) {
      return region.get();
    }
  }
  return nullptr;
}

const Bus::MmioWindow* Bus::FindMmio(uint64_t addr) const {
  for (const auto& window : mmio_) {
    if (addr >= window.base && addr < window.base + window.size) {
      return &window;
    }
  }
  return nullptr;
}

bool Bus::ReadSlow(uint64_t addr, unsigned size, uint64_t* value) {
  if (const Ram* region = FindRam(addr, size)) {
    uint64_t v = 0;
    std::memcpy(&v, region->data() + (addr - region->base()), size);
    *value = v;
    return true;
  }
  if (const MmioWindow* window = FindMmio(addr)) {
    VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                  "MMIO read dispatched mid-segment (must happen at a quantum barrier)");
    ++mmio_ops_;
    if (addr + size > window->base + window->size) {
      return false;
    }
    return window->device->MmioRead(addr - window->base, size, value);
  }
  return false;
}

bool Bus::WriteSlow(uint64_t addr, unsigned size, uint64_t value) {
  if (const Ram* region = FindRam(addr, size)) {
    Ram* mutable_region = const_cast<Ram*>(region);
    InvalidateMarkedPages(region->StoreHits(addr - region->base(), size));
    mutable_region->SetMaybeDirty();
    std::memcpy(mutable_region->data() + (addr - region->base()), &value, size);
    return true;
  }
  if (const MmioWindow* window = FindMmio(addr)) {
    VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                  "MMIO write dispatched mid-segment (must happen at a quantum barrier)");
    ++mmio_ops_;
    if (addr + size > window->base + window->size) {
      return false;
    }
    return window->device->MmioWrite(addr - window->base, size, value);
  }
  return false;
}

bool Bus::ReadBytes(uint64_t addr, void* out, uint64_t size) const {
  const Ram* region = FindRam(addr, size);
  if (region == nullptr) {
    return false;
  }
  std::memcpy(out, region->data() + (addr - region->base()), size);
  return true;
}

bool Bus::WriteBytes(uint64_t addr, const void* data, uint64_t size) {
  const Ram* region = FindRam(addr, size);
  if (region == nullptr) {
    return false;
  }
  Ram* mutable_region = const_cast<Ram*>(region);
  // Bulk writes (image loads, DMA) invalidate on every marked page they touch, not
  // only on marked lines: they are rare and may span many pages, so the conservative
  // check costs nothing that matters.
  if (any_marks_) {
    const uint64_t first = (addr - region->base()) >> Ram::kPageShift;
    const uint64_t last = (addr - region->base() + size - 1) >> Ram::kPageShift;
    uint8_t marks = 0;
    for (uint64_t page = first; page <= last; ++page) {
      marks |= mutable_region->page_marks()[page];
    }
    InvalidateMarkedPages(marks);
  }
  mutable_region->SetMaybeDirty();
  std::memcpy(mutable_region->data() + (addr - region->base()), data, size);
  return true;
}

bool Bus::IsRam(uint64_t addr, uint64_t size) const { return FindRam(addr, size) != nullptr; }

bool Bus::HostPage(uint64_t paddr, uint8_t** data, const uint8_t** marks) const {
  const uint64_t page_base = paddr & ~((uint64_t{1} << Ram::kPageShift) - 1);
  const Ram* region = FindRam(page_base, uint64_t{1} << Ram::kPageShift);
  if (region == nullptr || (region->base() & ((uint64_t{1} << Ram::kPageShift) - 1)) != 0) {
    // A non-page-aligned region would split the frame across two mark slots.
    return false;
  }
  Ram* mutable_region = const_cast<Ram*>(region);
  const uint64_t offset = page_base - region->base();
  *data = mutable_region->data() + offset;
  *marks = mutable_region->page_marks() + (offset >> Ram::kPageShift);
  return true;
}

// Mark setting uses relaxed atomic OR (Ram::Mark): during quantum-mode segments
// several harts fill their caches (and therefore mark pages) concurrently. Marks are
// monotonic within a segment — only ever set, never read or cleared until the next
// barrier — so relaxed ordering is sufficient (DESIGN.md §2i).
void Bus::MarkExecLine(uint64_t paddr) {
  const Ram* region = FindRam(paddr, 1);
  if (region == nullptr) {
    return;
  }
  const_cast<Ram*>(region)->Mark(paddr - region->base(), kExecMark);
  any_marks_.store(true, std::memory_order_relaxed);
}

bool Bus::MarkPtPage(uint64_t paddr) {
  const Ram* region = FindRam(paddr, 1);
  if (region == nullptr) {
    return false;
  }
  const_cast<Ram*>(region)->Mark(paddr - region->base(), kPtMark);
  any_marks_.store(true, std::memory_order_relaxed);
  return true;
}

void Bus::FreezeRam(std::vector<std::shared_ptr<RamImage>>* images) {
  for (auto& region : ram_) {
    images->push_back(region->Freeze());
  }
}

void Bus::AdoptRam(const std::vector<std::shared_ptr<RamImage>>& images) {
  VFM_CHECK_MSG(images.size() == ram_.size(), "snapshot RAM region count mismatch");
  for (size_t i = 0; i < ram_.size(); ++i) {
    ram_[i]->AdoptImage(images[i]);
    ram_[i]->ClearMarks(kExecMark | kPtMark);
  }
  any_marks_ = false;
}

void Bus::SetRamMaybeDirty() {
  for (auto& region : ram_) {
    region->SetMaybeDirty();
  }
}

void Bus::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("BUSS"), 1);
  writer.U32(static_cast<uint32_t>(ram_.size()));
  for (const auto& region : ram_) {
    writer.U64(region->base());
    writer.U64(region->size());
  }
  // Informational: generations let a debugger relate a snapshot to live counters.
  writer.U64(code_generation_);
  writer.U64(pt_generation_);
  writer.U64(ram_generation_);
  writer.EndSection();
}

bool Bus::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("BUSS"));
  const uint32_t count = reader.U32();
  if (reader.ok() && count != ram_.size()) {
    reader.Fail("snapshot RAM region count mismatch");
  }
  for (const auto& region : ram_) {
    const uint64_t base = reader.U64();
    const uint64_t size = reader.U64();
    if (reader.ok() && (base != region->base() || size != region->size())) {
      reader.Fail("snapshot RAM region geometry mismatch");
    }
  }
  reader.EndSection();  // generations: read-only debug info, skipped
  if (!reader.ok()) {
    return false;
  }
  // All translation caches are being reset by the restore, so dependency marks
  // restart empty and rebuild on refill.
  for (auto& region : ram_) {
    region->ClearMarks(kExecMark | kPtMark);
  }
  any_marks_ = false;
  return true;
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
  bool any = false;
  for (auto& region : ram_) {
    any |= region->ClearMarks(marks);
  }
  any_marks_ = any;
}

}  // namespace vfm
