// Uniform machine-state serialization (DESIGN.md §2h). Every stateful component —
// devices, harts, the bus, the monitor — saves and loads itself through one
// StateWriter/StateReader pair, so eight implementations share one format instead of
// inventing eight.
//
// Wire format: a flat byte stream of *sections*. A section is
//
//   [u32 tag (fourcc)] [u32 version] [u64 payload_len] [payload bytes]
//
// all little-endian. Sections nest: a payload may itself contain sections (the
// machine section contains one hart section per hart, a hart section contains a CSR
// section, ...). Readers that understand version N of a section may stop reading
// early; EndSection() skips the unread remainder, so writers can append fields to a
// section in version N+1 without breaking version-N readers. Unknown trailing
// sections are likewise skippable via SkipSection().
//
// Primitives are fixed-width little-endian; byte blobs are u64-length-prefixed.
// Readers never abort on malformed input: errors are sticky (ok() turns false, all
// subsequent reads return zeros) and carry a message, so LoadState paths can reject
// a corrupt or mismatched snapshot cleanly.

#ifndef SRC_COMMON_STATE_H_
#define SRC_COMMON_STATE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace vfm {

// Builds a section tag from a 4-character literal: StateTag("HART").
constexpr uint32_t StateTag(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

class StateWriter {
 public:
  // Opens a section; payload length is patched in by the matching EndSection().
  // Sections may nest. An outermost section whose payload ends in bytes too large
  // to stage here (a RAM image bound for a file) is closed with the count of those
  // bytes as `trailing`: the caller writes them right after bytes().
  void BeginSection(uint32_t tag, uint32_t version);
  void EndSection(uint64_t trailing = 0);

  void U8(uint8_t v) { bytes_.push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // u64 length prefix + raw bytes.
  void Bytes(const void* data, uint64_t size);
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  void Raw(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  std::vector<uint8_t> bytes_;
  std::vector<size_t> open_;  // offsets of the payload_len fields of open sections
};

class StateReader {
 public:
  StateReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit StateReader(const std::vector<uint8_t>& bytes)
      : StateReader(bytes.data(), bytes.size()) {}

  // Opens the next section, which must carry `tag`. Returns its version (0 on
  // error). The matching EndSection() skips whatever payload the caller did not
  // consume (forward compatibility).
  uint32_t BeginSection(uint32_t tag);
  void EndSection();
  // Peeks the next section's tag without consuming it (0 if none/err).
  uint32_t PeekTag();
  // Skips one whole section, payload and all.
  void SkipSection();

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  bool Bool() { return U8() != 0; }
  // Reads a length-prefixed blob into out (resized). Fails (sticky) on overrun.
  void Bytes(std::vector<uint8_t>* out);
  // Reads a length-prefixed blob without copying it: returns a pointer into the
  // stream (valid while the stream's buffer lives) and sets *size, or returns null
  // with *size = 0 on failure.
  const uint8_t* BytesView(uint64_t* size);
  std::string Str();
  // Reads a length-prefixed blob of exactly `size` bytes into `out`.
  void FixedBytes(void* out, uint64_t size);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Marks the stream as failed (e.g. a semantic check in LoadState).
  void Fail(const std::string& message);

  // True when the current innermost section still has unread payload.
  bool SectionBytesRemain() const;

 private:
  bool Take(void* out, size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::vector<size_t> limits_;  // payload-end offsets of open sections
  std::string error_;
};

}  // namespace vfm

#endif  // SRC_COMMON_STATE_H_
