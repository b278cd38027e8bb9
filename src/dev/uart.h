// A minimal 8250-style UART. The guest writes bytes to THR; host code collects them
// (console output of firmware and kernel). Reads drain a host-provided input queue.
//   0x00 RBR/THR   receive/transmit
//   0x05 LSR       line status: bit 0 = data ready, bit 5 = THR empty (always set)

#ifndef SRC_DEV_UART_H_
#define SRC_DEV_UART_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/state.h"
#include "src/mem/bus.h"

namespace vfm {

class Uart : public ListedState<Uart, MmioDevice> {
 public:
  static constexpr uint64_t kSize = 0x100;
  static constexpr uint64_t kDataOffset = 0x00;
  static constexpr uint64_t kLsrOffset = 0x05;
  static constexpr uint8_t kLsrDataReady = 0x01;
  static constexpr uint8_t kLsrThrEmpty = 0x20;

  const char* name() const override { return "uart"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override;
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override;

  // Uniform state API (DESIGN.md §2h): the console output and the queued input, each
  // as a blob. echo_ is a host-side setting, not machine state.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("UART"), 1);
    io.Bytes(output_);
    io.Bytes(input_);
    io.EndSection();
  }

  // Host-side access to the console.
  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }
  void PushInput(const std::string& text);
  bool has_input() const { return !input_.empty(); }
  size_t input_pending() const { return input_.size(); }

  // When true, bytes are also echoed to the host's stderr (used by examples).
  void set_echo(bool echo) { echo_ = echo; }

 private:
  std::string output_;
  std::deque<uint8_t> input_;
  bool echo_ = false;
};

}  // namespace vfm

#endif  // SRC_DEV_UART_H_
