#include "src/trace/trace.h"

#include <cstdio>

#include "src/common/check.h"

namespace vfm {
namespace {

constexpr uint32_t kTraceTag = StateTag("TRAC");
constexpr uint32_t kEventTag = StateTag("TREV");
// Version 2: checkpoint hashes start from the standard FNV-1a offset basis, and the
// host-time event kind (3) is gone. Version 3: a hart's checkpoint hash covers its
// whole saved state, so an older trace's hashes cannot match.
constexpr uint32_t kTraceVersion = 3;
constexpr uint32_t kEventVersion = 1;

// The header's one listing, inside the TRAC section.
template <typename Io, typename Header>
void VisitHeader(Io& io, Header& header) {
  io.Bytes(header.fingerprint);
  io.U64(header.anchor_retired);
  io.U64(header.anchor_rounds);
  io.U32(header.hart_count);
  io.U64(header.hash_period);
}

// One event's listing: a TREV section. `Event` may be const.
template <typename Io, typename Event>
void VisitEvent(Io& io, Event& event) {
  io.BeginSection(kEventTag, kEventVersion, "trace event", "trace");
  uint8_t kind = static_cast<uint8_t>(event.kind);
  io.U8(kind);
  if constexpr (Io::kLoading) {
    event.kind = static_cast<TraceEventKind>(kind);
  }
  io.U8(event.sub);
  io.U32(event.hart);
  io.U64(event.retired);
  io.U64(event.round);
  io.U64(event.a);
  io.U64(event.b);
  io.Bytes(event.payload);
  io.EndSection();
}

bool IsDroppable(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kUartInput:
    case TraceEventKind::kPlicLine:
    case TraceEventKind::kLoadImage:
      return true;
    default:
      return false;
  }
}

}  // namespace

void TraceWriter::Begin(const TraceHeader& header) {
  VFM_CHECK_MSG(!begun_, "TraceWriter::Begin called twice");
  begun_ = true;
  writer_.BeginSection(kTraceTag, kTraceVersion);
  VisitHeader(writer_, header);
}

void TraceWriter::Append(const TraceEvent& event) {
  VFM_CHECK_MSG(begun_, "TraceWriter::Append before Begin");
  VisitEvent(writer_, event);
  ++event_count_;
}

std::vector<uint8_t> TraceWriter::Finish() {
  VFM_CHECK_MSG(begun_, "TraceWriter::Finish before Begin");
  writer_.EndSection();
  return writer_.Take();
}

TraceReader::TraceReader(const std::vector<uint8_t>& bytes) {
  StateReader reader(bytes.data(), bytes.size());
  reader.BeginSection(kTraceTag, kTraceVersion, "trace", "trace");
  VisitHeader(reader, header_);
  while (reader.ok() && reader.SectionBytesRemain()) {
    TraceEvent event;
    VisitEvent(reader, event);
    if (reader.ok()) {
      events_.push_back(std::move(event));
    }
  }
  reader.EndSection();
  if (!reader.ok()) {
    error_ = reader.error();
    return;
  }
  if (events_.empty() || events_.back().kind != TraceEventKind::kEnd) {
    error_ = "trace truncated: missing end-of-trace event";
    return;
  }
}

bool WriteTraceFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && written == bytes.size();
  return ok;
}

bool ReadTraceFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return false;
  }
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return false;
  }
  std::rewind(f);
  bytes->assign(static_cast<size_t>(size), 0);
  const size_t got =
      size == 0 ? 0 : std::fread(bytes->data(), 1, bytes->size(), f);
  std::fclose(f);
  return got == bytes->size();
}

namespace {

// Rebuilds a trace with the events whose indices appear in `keep` (in order).
// Header fields are carried over untouched.
std::vector<uint8_t> RebuildTrace(const TraceHeader& header,
                                  const std::vector<TraceEvent>& events,
                                  const std::vector<size_t>& keep) {
  TraceWriter writer;
  writer.Begin(header);
  for (size_t index : keep) writer.Append(events[index]);
  return writer.Finish();
}

}  // namespace

std::vector<uint8_t> ShrinkTrace(
    const std::vector<uint8_t>& trace,
    const std::function<bool(const std::vector<uint8_t>&)>& still_fails,
    unsigned max_runs) {
  TraceReader reader(trace);
  if (!reader.ok()) return trace;
  unsigned runs = 0;
  auto fails = [&](const std::vector<uint8_t>& candidate) {
    ++runs;
    return still_fails(candidate);
  };
  if (runs >= max_runs || !fails(trace)) return trace;

  const std::vector<TraceEvent>& events = reader.events();
  std::vector<size_t> droppable;
  for (size_t i = 0; i < events.size(); ++i) {
    if (IsDroppable(events[i].kind)) droppable.push_back(i);
  }

  // ddmin over the droppable subset, mirroring ShrinkProgram: try removing
  // chunks of droppable events; halve the chunk size when a pass removes
  // nothing.
  std::vector<size_t> kept = droppable;  // droppable events still present
  std::vector<uint8_t> best = trace;
  size_t chunk = kept.size();
  while (chunk >= 1 && !kept.empty() && runs < max_runs) {
    bool removed_any = false;
    for (size_t start = 0; start < kept.size() && runs < max_runs;) {
      std::vector<size_t> candidate_droppable;
      for (size_t i = 0; i < kept.size(); ++i) {
        if (i < start || i >= start + chunk) {
          candidate_droppable.push_back(kept[i]);
        }
      }
      std::vector<size_t> keep_indices;
      size_t next_droppable = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        if (!IsDroppable(events[i].kind)) {
          keep_indices.push_back(i);
        } else if (next_droppable < candidate_droppable.size() &&
                   candidate_droppable[next_droppable] == i) {
          keep_indices.push_back(i);
          ++next_droppable;
        }
      }
      std::vector<uint8_t> candidate =
          RebuildTrace(reader.header(), events, keep_indices);
      if (fails(candidate)) {
        kept = std::move(candidate_droppable);
        best = std::move(candidate);
        removed_any = true;
        // Same start now names the next chunk.
      } else {
        start += chunk;
      }
    }
    if (!removed_any) {
      if (chunk == 1) break;
      chunk /= 2;
    } else if (chunk > kept.size() && !kept.empty()) {
      chunk = kept.size();
    }
  }
  return best;
}

}  // namespace vfm
