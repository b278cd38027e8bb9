// Deterministic record/replay traces (DESIGN.md §2j). A trace is the log of every
// *external* input a Machine received — UART rx bytes, PLIC line injections,
// LoadImage writes, snapshot points, and the host's run calls themselves
// (their budgets are part of the schedule) — each stamped with the machine-global
// (retired, round) coordinate at which it was applied. Simulated execution is a pure
// function of (snapshot, trace): anchoring the log at a whole-machine snapshot turns
// any failure into a one-command reproduction (`tools/vfm_replay`).
//
// Inputs are only ever applied at run-loop barriers (quantum barriers, batch
// boundaries, StepAll rounds — the same serial points DESIGN.md §2i already
// guarantees), so the coordinate system is deterministic and parallel-safe by
// construction. Alongside the inputs the recorder emits periodic *verification*
// events — a rolling per-hart/device state hash and block-device completion edges —
// so a replay that drifts reports the first divergent (hart, retired, round)
// coordinate instead of silently continuing.
//
// Wire format: one `TRAC` section (src/common/state.h) holding the header — an
// opaque machine-config fingerprint blob, the anchor coordinate, the hash cadence —
// followed by one nested `TREV` section per event. The final event is always kEnd;
// a trace without it is truncated and rejected. The trace layer is machine-agnostic:
// the Machine supplies fingerprints and hashes, this layer only carries them.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/state.h"

namespace vfm {

enum class TraceEventKind : uint8_t {
  kUartInput = 1,     // payload = rx bytes pushed into the UART input queue
  kPlicLine = 2,      // a = source, b = level (1 raise / 0 clear)
  kLoadImage = 4,     // a = physical address, payload = bytes
  kSnapshotPoint = 5, // host took a snapshot / forked the machine here
  kRun = 6,           // sub = TraceRunKind, a = max_instructions, b = max_rounds
  kRunDone = 7,       // a = finished flag; coordinate is the run's stop point
  kBlockdevCompletion = 8,  // a = cumulative completed-command count (verify)
  kStateHash = 9,     // payload = per-hart hashes + device hash, u64 LE each (verify)
  kEnd = 10,          // final: like kStateHash, plus a = RAM hash, b = blockdev hash
};

// Which Machine run entry point a kRun event records. Replay re-issues the same
// call with the same budgets, so the run stops on the identical barrier.
enum class TraceRunKind : uint8_t {
  kStepAll = 1,
  kRunUntilFinished = 2,
  kRunUntil = 3,  // predicate runs replay by target coordinate (the kRunDone event)
  kRunSlice = 4,  // non-blocking fleet slice: stops at idle-park instead of FF
  kFastForwardIdleTo = 5,  // a = target mtime tick (scheduler un-parking a machine)
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kEnd;
  uint8_t sub = 0;       // TraceRunKind for kRun events
  uint32_t hart = 0;     // reserved per-hart attribution (0 for machine-global)
  uint64_t retired = 0;  // machine-global retired-instruction coordinate
  uint64_t round = 0;    // machine-global round coordinate
  uint64_t a = 0;
  uint64_t b = 0;
  std::vector<uint8_t> payload;
};

struct TraceHeader {
  // Opaque machine-config fingerprint; ReplayFrom rejects a trace whose
  // fingerprint does not match the destination machine (the same rejection path
  // snapshot restore uses).
  std::vector<uint8_t> fingerprint;
  uint64_t anchor_retired = 0;  // machine progress at StartRecording
  uint64_t anchor_rounds = 0;
  uint32_t hart_count = 0;
  uint64_t hash_period = 0;  // rounds between kStateHash checkpoints
};

class TraceWriter {
 public:
  void Begin(const TraceHeader& header);
  void Append(const TraceEvent& event);
  // Closes the trace. Call exactly once, after Begin.
  std::vector<uint8_t> Finish();

  uint64_t event_count() const { return event_count_; }

 private:
  StateWriter writer_;
  bool begun_ = false;
  uint64_t event_count_ = 0;
};

// Parses a whole trace eagerly (traces are input logs, not execution logs — they
// stay small), so replay can scan ahead (e.g. for a run's stop coordinate) and
// corruption is detected up front. A trace whose last event is not kEnd is
// truncated; a TRAC section with an unknown version is version-skewed; both are
// errors here, before any replay state is touched.
class TraceReader {
 public:
  explicit TraceReader(const std::vector<uint8_t>& bytes);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const TraceHeader& header() const { return header_; }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  TraceHeader header_;
  std::vector<TraceEvent> events_;
  std::string error_;
};

bool WriteTraceFile(const std::string& path, const std::vector<uint8_t>& bytes);
bool ReadTraceFile(const std::string& path, std::vector<uint8_t>* bytes);

// ddmin-style event-log minimization (the trace-side counterpart of
// ShrinkProgram): repeatedly drops chunks of the *droppable* events — host input
// injections (kUartInput / kPlicLine / kLoadImage) — while
// `still_fails` holds for the rebuilt trace, calling it at most `max_runs` times.
// Structural events (runs, snapshot points, verification checkpoints) are never
// dropped: they are the schedule, not the inputs. Returns the smallest failing
// trace found (the input unchanged if it does not fail, or cannot be parsed).
std::vector<uint8_t> ShrinkTrace(
    const std::vector<uint8_t>& trace,
    const std::function<bool(const std::vector<uint8_t>&)>& still_fails,
    unsigned max_runs = 100);

}  // namespace vfm

#endif  // SRC_TRACE_TRACE_H_
