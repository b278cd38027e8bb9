#include "src/common/state.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"

namespace vfm {

uint32_t StateWriter::BeginSection(uint32_t tag, uint32_t version) {
  U32(tag);
  U32(version);
  open_.push_back(bytes_.size());
  U64(0);  // payload length, patched by EndSection()
  return version;
}

void StateWriter::EndSection(uint64_t trailing) {
  VFM_CHECK_MSG(!open_.empty(), "EndSection without BeginSection");
  const size_t len_at = open_.back();
  open_.pop_back();
  VFM_CHECK_MSG(trailing == 0 || open_.empty(), "only an outermost section has trailing bytes");
  const uint64_t payload = bytes_.size() - (len_at + sizeof(uint64_t)) + trailing;
  std::memcpy(bytes_.data() + len_at, &payload, sizeof payload);
}

void StateWriter::Bytes(const void* data, uint64_t size) {
  U64(size);
  Raw(data, size);
}

bool StateReader::Take(void* out, size_t size) {
  if (!ok()) {
    return false;
  }
  const size_t limit = limits_.empty() ? size_ : limits_.back();
  if (pos_ + size > limit) {
    Fail("state stream truncated");
    return false;
  }
  if (size != 0) {  // out may be null for an empty blob (an empty vector's data())
    std::memcpy(out, data_ + pos_, size);
  }
  pos_ += size;
  return true;
}

uint8_t StateReader::U8() {
  uint8_t v = 0;
  Take(&v, sizeof v);
  return v;
}

uint16_t StateReader::U16() {
  uint16_t v = 0;
  Take(&v, sizeof v);
  return v;
}

uint32_t StateReader::U32() {
  uint32_t v = 0;
  Take(&v, sizeof v);
  return v;
}

uint64_t StateReader::U64() {
  uint64_t v = 0;
  Take(&v, sizeof v);
  return v;
}

uint32_t StateReader::BeginSection(uint32_t tag) {
  const uint32_t got = U32();
  const uint32_t version = U32();
  const uint64_t payload = U64();
  if (!ok()) {
    return 0;
  }
  if (got != tag) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "expected section '%c%c%c%c', found '%c%c%c%c'",
                  static_cast<char>(tag), static_cast<char>(tag >> 8),
                  static_cast<char>(tag >> 16), static_cast<char>(tag >> 24),
                  static_cast<char>(got), static_cast<char>(got >> 8),
                  static_cast<char>(got >> 16), static_cast<char>(got >> 24));
    Fail(msg);
    return 0;
  }
  const size_t limit = limits_.empty() ? size_ : limits_.back();
  if (payload > limit - pos_) {
    Fail("section payload exceeds stream");
    return 0;
  }
  limits_.push_back(pos_ + payload);
  return version;
}

void StateReader::BeginSection(uint32_t tag, uint32_t version, const char* what,
                               const char* artifact) {
  const uint32_t got = BeginSection(tag);
  if (ok() && got != version) {
    Fail("unsupported " + std::string(what) + " version " + std::to_string(got) +
         " (this build reads version " + std::to_string(version) + "); re-record the " +
         artifact);
  }
}

void StateReader::EndSection() {
  if (!ok()) {
    return;
  }
  if (limits_.empty()) {
    Fail("EndSection without BeginSection");
    return;
  }
  pos_ = limits_.back();  // skip any unread remainder (forward compatibility)
  limits_.pop_back();
}

uint32_t StateReader::PeekTag() {
  if (!ok()) {
    return 0;
  }
  const size_t limit = limits_.empty() ? size_ : limits_.back();
  if (pos_ + sizeof(uint32_t) > limit) {
    return 0;
  }
  uint32_t tag = 0;
  std::memcpy(&tag, data_ + pos_, sizeof tag);
  return tag;
}

void StateReader::SkipSection() {
  const uint32_t tag = PeekTag();
  if (tag == 0) {
    Fail("SkipSection: no section present");
    return;
  }
  BeginSection(tag);
  EndSection();
}

const uint8_t* StateReader::BytesView(uint64_t* size) {
  *size = 0;
  const uint64_t length = U64();
  if (!ok()) {
    return nullptr;
  }
  const size_t limit = limits_.empty() ? size_ : limits_.back();
  if (length > limit - pos_) {
    Fail("blob exceeds stream");
    return nullptr;
  }
  const uint8_t* view = data_ + pos_;
  pos_ += length;
  *size = length;
  return view;
}

std::string StateReader::Str() {
  std::string s;
  Bytes(s);
  return s;
}

void StateReader::FixedBytes(void* out, uint64_t size) {
  const uint64_t got = U64();
  if (!ok()) {
    return;
  }
  if (got != size) {
    char msg[64];
    std::snprintf(msg, sizeof msg, "blob size mismatch: want %" PRIu64 ", got %" PRIu64,
                  size, got);
    Fail(msg);
    return;
  }
  Take(out, size);
}

void StateReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
}

bool StateReader::SectionBytesRemain() const {
  if (!ok() || limits_.empty()) {
    return false;
  }
  return pos_ < limits_.back();
}

}  // namespace vfm
