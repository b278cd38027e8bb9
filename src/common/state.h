// Uniform machine-state serialization (DESIGN.md §2h). Every stateful component —
// devices, harts, the bus, the monitor — lists its fields once, in wire order, in a
// `template <typename Io> void VisitState(Io& io)`, and both StateWriter and
// StateReader drive that one listing: `io.U64(field)` writes the field or reads it
// back. A field's load rule sits beside it as `io.Require(...)`, which only the reader
// checks, and post-load rebuilds sit under `if constexpr (Io::kLoading)`. ListedState
// serves a component's public SaveState/LoadState from its listing.
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
// subsequent reads return zeros) and carry a message, so loads can reject a corrupt
// or mismatched snapshot cleanly. Components do not stage their loads: a failed load
// leaves the component in an unspecified state. Machine::RestoreSnapshot stages a
// whole restore in a fresh machine before it touches its own, and Monitor::LoadState
// puts the monitor's state back when its load fails.

#ifndef SRC_COMMON_STATE_H_
#define SRC_COMMON_STATE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
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
  static constexpr bool kLoading = false;

  // Opens a section; payload length is patched in by the matching EndSection().
  // Sections may nest. An outermost section whose payload ends in bytes too large
  // to stage here (a RAM image bound for a file) is closed with the count of those
  // bytes as `trailing`: the caller writes them right after bytes(). Returns
  // `version`, as StateReader returns the version it finds.
  uint32_t BeginSection(uint32_t tag, uint32_t version);
  // The version gate's writing side (see StateReader).
  void BeginSection(uint32_t tag, uint32_t version, const char* /*what*/,
                    const char* /*artifact*/) {
    BeginSection(tag, version);
  }
  void EndSection(uint64_t trailing = 0);

  void U8(uint8_t v) { bytes_.push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // u64 length prefix + raw bytes.
  void Bytes(const void* data, uint64_t size);
  void FixedBytes(const void* data, uint64_t size) { Bytes(data, size); }
  // A container of bytes (vector, string, deque) as one blob.
  template <typename Container>
  void Bytes(const Container& bytes) {
    if constexpr (requires { bytes.data(); }) {
      Bytes(bytes.data(), bytes.size());
    } else {
      U64(bytes.size());
      for (const uint8_t byte : bytes) {
        U8(byte);
      }
    }
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }

  // A load rule: only StateReader checks it.
  template <typename Message>
  void Require(bool /*holds*/, const Message& /*message*/) {}

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

  static constexpr bool kLoading = true;

  // Opens the next section, which must carry `tag`. Returns its version (0 on
  // error). The matching EndSection() skips whatever payload the caller did not
  // consume (forward compatibility). The two-argument form is a listing's: it
  // ignores the version the writer writes.
  uint32_t BeginSection(uint32_t tag);
  uint32_t BeginSection(uint32_t tag, uint32_t /*version*/) { return BeginSection(tag); }
  // The version gate: opens a section that this build reads only at `version`, and
  // fails on any other with "unsupported <what> version N (this build reads version
  // M); re-record the <artifact>".
  void BeginSection(uint32_t tag, uint32_t version, const char* what, const char* artifact);
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
  // A listing's reads: each stores into the field it is given.
  void U8(uint8_t& v) { v = U8(); }
  void U32(uint32_t& v) { v = U32(); }
  void U64(uint64_t& v) { v = U64(); }
  void Bool(bool& v) { v = Bool(); }
  void Bool(std::vector<bool>::reference v) { v = Bool(); }
  // Reads a length-prefixed blob into out (resized). Fails (sticky) on overrun and
  // leaves out as it was. A container without contiguous storage (a deque) is read a
  // byte at a time, as StateWriter writes it, so a length that runs past the section
  // fails as a truncation.
  void Bytes(std::vector<uint8_t>* out) { Bytes(*out); }
  template <typename Container>
  void Bytes(Container& out) {
    if constexpr (requires { out.data(); }) {
      uint64_t size = 0;
      const uint8_t* view = BytesView(&size);
      if (view != nullptr) {
        out.assign(view, view + size);
      }
    } else {
      const uint64_t size = U64();
      Container bytes;
      for (uint64_t i = 0; ok() && i < size; ++i) {
        bytes.push_back(U8());
      }
      if (ok()) {
        out = std::move(bytes);
      }
    }
  }
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
  // A load rule: fails with `message` unless the rule holds. `message` is a string or
  // a function that builds one, called only when the rule fails on a stream that had
  // not failed yet, so a load that passes builds no message.
  template <typename Message>
  void Require(bool holds, const Message& message) {
    if (!holds && ok()) {
      if constexpr (std::is_invocable_v<const Message&>) {
        Fail(message());
      } else {
        Fail(message);
      }
    }
  }

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

// Serves a component's SaveState and LoadState from its one listing, VisitState.
// `Base` is the class the component derives from otherwise: a device passes
// MmioDevice, whose state API is virtual, and these two override it. The default
// base is empty and distinct per component, so a component whose first member is
// another listed component (VirtContext's CsrFile) keeps its layout.
template <typename Derived>
struct NoStateBase {};

template <typename Derived, typename Base = NoStateBase<Derived>>
class ListedState : public Base {
 public:
  void SaveState(StateWriter& writer) const {
    // A StateWriter only reads the fields it visits, so nothing is written through
    // this cast.
    const_cast<Derived&>(static_cast<const Derived&>(*this)).VisitState(writer);
  }
  bool LoadState(StateReader& reader) {
    static_cast<Derived&>(*this).VisitState(reader);
    return reader.ok();
  }
};

}  // namespace vfm

#endif  // SRC_COMMON_STATE_H_
