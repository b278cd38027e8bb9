#include "src/dev/uart.h"

#include <cstdio>

namespace vfm {

bool Uart::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  if (size != 1) {
    return false;
  }
  switch (offset) {
    case kDataOffset:
      if (input_.empty()) {
        *value = 0;
      } else {
        *value = input_.front();
        input_.pop_front();
      }
      return true;
    case kLsrOffset:
      *value = kLsrThrEmpty | (input_.empty() ? 0 : kLsrDataReady);
      return true;
    default:
      if (offset < kSize) {
        *value = 0;
        return true;
      }
      return false;
  }
}

bool Uart::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  if (size != 1) {
    return false;
  }
  if (offset == kDataOffset) {
    const char byte = static_cast<char>(value & 0xFF);
    output_.push_back(byte);
    if (echo_) {
      std::fputc(byte, stderr);
    }
    return true;
  }
  return offset < kSize;  // other registers accept and ignore writes
}

void Uart::PushInput(const std::string& text) {
  for (char c : text) {
    input_.push_back(static_cast<uint8_t>(c));
  }
}

}  // namespace vfm
