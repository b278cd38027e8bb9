// Core-Local Interruptor (CLINT): the machine-timer and software-interrupt device, and
// the only MMIO device the monitor must emulate (paper §4.3). Layout follows the
// de-facto SiFive CLINT standard used by both evaluation platforms:
//   0x0000 + 4*hart : msip (software interrupt pending, bit 0)
//   0x4000 + 8*hart : mtimecmp (64-bit timer deadline)
//   0xBFF8          : mtime (64-bit free-running counter)

#ifndef SRC_DEV_CLINT_H_
#define SRC_DEV_CLINT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/state.h"
#include "src/mem/bus.h"

namespace vfm {

class Clint : public ListedState<Clint, MmioDevice> {
 public:
  static constexpr uint64_t kMsipBase = 0x0;
  static constexpr uint64_t kMtimecmpBase = 0x4000;
  static constexpr uint64_t kMtimeOffset = 0xBFF8;
  static constexpr uint64_t kSize = 0xC000;

  explicit Clint(unsigned hart_count);

  const char* name() const override { return "clint"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override;
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override;

  // Uniform state API (DESIGN.md §2h): mtime, then each hart's comparator and msip.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("CLNT"), 1);
    io.U64(mtime_);
    uint32_t harts = hart_count();
    io.U32(harts);
    io.Require(harts == hart_count(), "clint hart count mismatch");
    for (unsigned i = 0; i < hart_count(); ++i) {
      io.U64(mtimecmp_[i]);
      io.Bool(msip_[i]);
    }
    io.EndSection();
  }

  // Timer state, driven by the machine.
  uint64_t mtime() const { return mtime_; }
  void set_mtime(uint64_t value) { mtime_ = value; }
  void AdvanceTime(uint64_t ticks) { mtime_ += ticks; }

  // Optional live timebase, installed by single-hart machines: returns the ticks due
  // from hart 0's cycle counter. The batched run loop pushes mtime only at batch
  // boundaries, so guest-visible reads (mtime MMIO here, the time CSR via the hart's
  // time source) and every read the monitor makes (src/core/vclint.h) go through
  // SyncedTime(), which pulls mtime forward to the exact per-instruction value
  // first. The push is monotonic: software that wrote mtime ahead of the clock keeps
  // its value, matching the run loop's own push.
  void set_tick_source(std::function<uint64_t()> source) { tick_source_ = std::move(source); }
  uint64_t SyncedTime() {
    if (tick_source_) {
      const uint64_t due = tick_source_();
      if (due > mtime_) {
        mtime_ = due;
      }
    }
    return mtime_;
  }

  uint64_t mtimecmp(unsigned hart) const { return mtimecmp_[hart]; }
  void set_mtimecmp(unsigned hart, uint64_t value) { mtimecmp_[hart] = value; }

  bool msip(unsigned hart) const { return msip_[hart]; }
  void set_msip(unsigned hart, bool value) { msip_[hart] = value; }

  // Interrupt lines the machine samples into each hart's mip. Under quantum/parallel
  // multi-hart execution these must only be recomputed at barrier points — mid-segment
  // sampling would observe timer/IPI state at a host-scheduling-dependent instant
  // (DESIGN.md §2i); the gate turns that ordering bug into an immediate CHECK failure.
  bool MtipPending(unsigned hart) const {
    VFM_CHECK(barrier_gate_ == nullptr || !*barrier_gate_);
    return mtime_ >= mtimecmp_[hart];
  }
  bool MsipPending(unsigned hart) const {
    VFM_CHECK(barrier_gate_ == nullptr || !*barrier_gate_);
    return msip_[hart];
  }

  // Installs the mid-segment flag the pending-line asserts above check (nullptr to
  // remove). The Machine raises the flag while hart segments are in flight.
  void SetBarrierGate(const bool* gate) { barrier_gate_ = gate; }

  unsigned hart_count() const { return static_cast<unsigned>(mtimecmp_.size()); }

 private:
  uint64_t mtime_ = 0;
  std::vector<uint64_t> mtimecmp_;
  std::vector<bool> msip_;
  std::function<uint64_t()> tick_source_;
  const bool* barrier_gate_ = nullptr;
};

}  // namespace vfm

#endif  // SRC_DEV_CLINT_H_
