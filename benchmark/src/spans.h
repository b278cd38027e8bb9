// In-memory span recorder for the traced pass. The benchmark opens a span around
// each call it makes into a layer (setup, chunk, monitor callback, fork, fleet
// repetition, one-machine fleet call); spans nest, so a span's self time is its
// duration minus the time its children cover. Spans are kept in memory and
// written once, at exit, as Chrome trace-event JSON (opens in Perfetto).

#ifndef BENCHMARK_SRC_SPANS_H_
#define BENCHMARK_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vfm::bench {

class Spans {
 public:
  // Spans nested three or more levels deep past this many are not kept for the
  // trace file; they still count toward the per-name totals, so self times
  // cover every span.
  static constexpr size_t kMaxKept = 200'000;

  // Per-name aggregate over every span closed so far.
  struct Totals {
    const char* name = nullptr;
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;
    uint64_t self_ns() const { return total_ns - child_ns; }
  };

  // A disabled recorder (the untraced pass) ignores Begin and End.
  explicit Spans(bool enabled) : enabled_(enabled) {}

  // Opens a span named `name` (a string literal) at `now_ns` as a child of the
  // innermost open span. `request` tags the request a span serves (-1: none).
  void Begin(const char* name, uint64_t now_ns, int64_t request = -1) {
    if (enabled_) {
      Open(name, now_ns, request);
    }
  }
  // Closes the innermost open span at `now_ns`.
  void End(uint64_t now_ns) {
    if (enabled_) {
      Close(now_ns);
    }
  }

  Totals TotalsFor(const char* name) const;

  // Writes every kept span as a complete ("X") trace event. Returns false on
  // I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct OpenSpan {
    uint32_t id;
    uint32_t parent;
    const char* name;
    int64_t request;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  struct Record {
    uint32_t id;
    uint32_t parent;
    const char* name;
    int64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  void Open(const char* name, uint64_t now_ns, int64_t request);
  void Close(uint64_t now_ns);
  Totals& TotalsSlot(const char* name);

  bool enabled_;
  std::vector<OpenSpan> stack_;
  std::vector<Record> kept_;
  std::vector<Totals> totals_;
  uint64_t dropped_ = 0;
  uint32_t next_id_ = 1;
};

}  // namespace vfm::bench

#endif  // BENCHMARK_SRC_SPANS_H_
