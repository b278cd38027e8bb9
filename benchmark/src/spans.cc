#include "benchmark/src/spans.h"

#include <cstdio>
#include <cstring>

namespace vfm::bench {

Spans::Totals& Spans::TotalsSlot(const char* name) {
  for (Totals& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) {
      return t;
    }
  }
  totals_.push_back(Totals{name});
  return totals_.back();
}

void Spans::Open(const char* name, uint64_t now_ns, int64_t request) {
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(OpenSpan{next_id_++, parent, name, request, now_ns, 0});
}

void Spans::Close(uint64_t now_ns) {
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = now_ns - open.start_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  Totals& totals = TotalsSlot(open.name);
  totals.total_ns += duration;
  totals.child_ns += open.child_ns;
  // Outer spans (at most two levels deep) are always kept, so a capped trace
  // still shows the whole run's structure.
  if (kept_.size() < kMaxKept || stack_.size() < 3) {
    kept_.push_back(Record{open.id, open.parent, open.name, open.request, open.start_ns, now_ns});
  } else {
    ++dropped_;
  }
}

Spans::Totals Spans::TotalsFor(const char* name) const {
  for (const Totals& t : totals_) {
    if (std::strcmp(t.name, name) == 0) {
      return t;
    }
  }
  return Totals{name};
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Spans are recorded as they close, so the earliest start can be anywhere.
  uint64_t first = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const Record& r : kept_) {
    first = r.start_ns < first ? r.start_ns : first;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%llu},"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_));
  bool comma = false;
  for (const Record& r : kept_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u",
                 comma ? "," : "", r.name, static_cast<double>(r.start_ns - first) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id, r.parent);
    if (r.request >= 0) {
      std::fprintf(f, ",\"request\":%lld", static_cast<long long>(r.request));
    }
    std::fprintf(f, "}}");
    comma = true;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vfm::bench
