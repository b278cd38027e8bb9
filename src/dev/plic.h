// A minimal Platform-Level Interrupt Controller. Both evaluation platforms delegate
// all external interrupts to the OS (paper §4.3: "other devices such as the PLIC ...
// do not need emulation"), so this model implements just enough for an S-mode kernel
// to take device interrupts: per-source pending bits, one enable word and a
// claim/complete register for the supervisor context of each hart.
//
// Register layout (one 4-byte register each, simplified but documented):
//   0x0000 + 4*src        priority (stored, otherwise ignored; priority 0 masks)
//   0x1000                pending bitmap (sources 1..31)
//   0x2000 + 0x80*hart    S-context enable bitmap
//   0x200004 + 0x1000*hart claim (read) / complete (write)

#ifndef SRC_DEV_PLIC_H_
#define SRC_DEV_PLIC_H_

#include <cstdint>
#include <vector>

#include "src/common/state.h"
#include "src/mem/bus.h"

namespace vfm {

class Plic : public ListedState<Plic, MmioDevice> {
 public:
  static constexpr uint64_t kSize = 0x400000;
  static constexpr unsigned kMaxSources = 32;

  explicit Plic(unsigned hart_count);

  const char* name() const override { return "plic"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override;
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override;

  // Uniform state API (DESIGN.md §2h): the pending and claimed bitmaps, each hart
  // context's enable word, then every source's priority.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("PLIC"), 1);
    io.U32(pending_);
    io.U32(claimed_);
    uint32_t harts = hart_count_;
    io.U32(harts);
    io.Require(harts == hart_count_, "plic hart count mismatch");
    for (uint32_t& enable : enable_) {
      io.U32(enable);
    }
    for (uint32_t& priority : priority_) {
      io.U32(priority);
    }
    io.EndSection();
    if constexpr (Io::kLoading) {
      RebuildPriorityMask();  // priority_mask_ is derived state
    }
  }

  // Device-side interface: raise or clear a source's interrupt line.
  void RaiseSource(unsigned source);
  void ClearSource(unsigned source);

  // True if the supervisor context of `hart` has a claimable interrupt (drives SEIP).
  bool SeipPending(unsigned hart) const;

  // Raw pending bitmap (bit N = source N), for state hashing.
  uint32_t pending() const { return pending_; }

 private:
  uint32_t ClaimableMask(unsigned hart) const;
  void RebuildPriorityMask();

  unsigned hart_count_;
  uint32_t pending_ = 0;
  uint32_t priority_mask_ = 0;
  uint32_t claimed_ = 0;
  std::vector<uint32_t> enable_;
  uint32_t priority_[kMaxSources] = {};
};

}  // namespace vfm

#endif  // SRC_DEV_PLIC_H_
