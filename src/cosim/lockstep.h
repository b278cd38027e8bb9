// Lockstep differential execution of generated guest programs (DESIGN.md §2e).
//
// One program is run to completion on several Machine configurations that differ
// only in host-side tuning (decoded-instruction cache, software TLB, and lowered
// superblocks on/off and sized — knobs documented as having no effect on simulated
// behaviour), and the complete observable
// outcome of each run — final architectural state of every hart, retired-instruction
// and cycle counts, the full trap trace, UART output, a RAM image hash, and the
// finisher verdict — is compared field by field against the baseline configuration.
// On single-hart programs the baseline runs a per-instruction StepAll loop (so the
// batched run of the other configurations is itself under test) and additionally
// steps every privileged instruction against the reference model in-flight,
// extending src/verif's single-step checking to whole-program trap/PMP/paging
// interleavings. Multi-hart programs run the quantum schedule (DESIGN.md §2i) on
// every configuration, so there the comparison checks that the schedule depends on
// neither the cache tuning nor the parallel worker pool.
//
// A divergence is minimized by ShrinkProgram (ddmin over the program's kept-action
// set) and persisted as a replayable seed file (program.h).

#ifndef SRC_COSIM_LOCKSTEP_H_
#define SRC_COSIM_LOCKSTEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/cosim/program.h"
#include "src/sim/machine.h"

namespace vfm {

// One tuning point of the lockstep matrix.
struct LockstepConfig {
  const char* name;
  SimTuning tuning;
};

// The decode-cache x TLB x superblock configurations every program runs under, plus
// the parallel worker pool. Index 0 is the caches-off baseline; the "tiny" entries
// use deliberately small caches so index-aliasing eviction paths are exercised, not
// just hits.
const std::vector<LockstepConfig>& LockstepConfigs();

// Looks a configuration up by name ("superblock", "parallel", ...); nullptr if unknown.
const LockstepConfig* FindLockstepConfig(const std::string& name);

// The MachineConfig a lockstep run builds for (program, config) — exported so tools
// can construct bit-identical machines for snapshot/trace repro artifacts.
MachineConfig CosimMachineConfig(const CosimProgram& program, const LockstepConfig& config);

// Architectural snapshot of one hart at end of run. Everything here must be identical
// across tuning configurations.
struct HartSnapshot {
  uint64_t pc = 0;
  uint8_t priv = 0;
  bool waiting = false;
  uint64_t gpr[32] = {};
  uint64_t instret = 0;
  uint64_t cycles = 0;
  uint64_t traps_taken = 0;
  std::vector<uint64_t> csrs;  // values of kComparedCsrs, in order
  uint64_t pmpcfg[8] = {};     // unpacked cfg bytes
  uint64_t pmpaddr[8] = {};
};

// The CSRs captured into HartSnapshot::csrs (architectural Get views).
extern const uint16_t kComparedCsrs[];
extern const unsigned kComparedCsrCount;

// One taken trap, as seen by the Machine's trap observer.
struct TrapEvent {
  uint8_t hart = 0;
  uint64_t cause = 0;
  uint64_t pc = 0;  // post-vector pc (the handler entry)
  uint64_t instret = 0;
  uint64_t cycles = 0;

  bool operator==(const TrapEvent&) const = default;
};

// Complete observable outcome of one program run on one configuration.
struct RunOutcome {
  std::string build_error;  // non-empty: the program failed to assemble (a bug)
  bool finished = false;    // finisher fired (vs. instruction-budget exhaustion)
  uint32_t exit_code = 0;
  std::string uart;
  uint64_t ram_hash = 0;  // FNV-1a over the whole RAM image
  std::vector<HartSnapshot> harts;
  // RunProgramSplit only: every hart where phase 1 stopped, before the snapshot.
  // Phase 2 runs the remaining budget, so the end state cannot show a phase 1 that
  // stopped past its budget; CheckProgram compares these across configurations.
  std::vector<HartSnapshot> phase1_harts;
  std::vector<TrapEvent> traps;  // first kMaxTrapTrace events
  uint64_t total_traps = 0;
  // Reference-model lockstep (baseline configuration, single-hart programs only).
  uint64_t ref_checks = 0;       // privileged steps checked against RefStep
  std::string ref_divergence;    // first hart-vs-refmodel mismatch, empty if none
  // Block-engine engagement (observability only — tuning-dependent by design, so
  // deliberately NOT part of CompareOutcomes). Summed over all harts: block builds
  // and mid-block deopts.
  uint64_t threaded_promotions = 0;
  uint64_t threaded_deopts = 0;
};

constexpr unsigned kMaxTrapTrace = 2048;

// Runs `program` on `config`. `with_refmodel` engages the in-flight reference-model
// check (forces the per-instruction loop; single-hart programs only).
RunOutcome RunProgram(const CosimProgram& program, const LockstepConfig& config,
                      bool with_refmodel);

// Runs `program` on `config` split at `snapshot_at` retired instructions: phase 1
// runs on one Machine, a whole-machine snapshot is saved and restored into a second,
// freshly constructed Machine, and phase 2 finishes there with the remaining
// instruction and round budget. With correct snapshots the combined outcome is
// bit-identical to the uninterrupted RunProgram — this is the snapshot round-trip
// oracle of the lockstep matrix (DESIGN.md §2h). Every hart's state after phase 1
// goes to RunOutcome::phase1_harts. A restore failure is reported through
// RunOutcome::build_error.
RunOutcome RunProgramSplit(const CosimProgram& program, const LockstepConfig& config,
                           uint64_t snapshot_at);

// Record/replay leg (DESIGN.md §2j): runs `program` on `record_config` with an
// anchor snapshot saved at `trace_at` retired instructions and recording on from
// there to the end of the run. Mid-run the recorder is fed the nondeterministic
// inputs only a trace can reproduce — UART receive bytes, a PLIC line edge on a
// masked source, and a snapshot point (the CoW freeze the fuzzer's snapshot leg
// performs) — all chosen to be invisible to the generated program's outcome. The
// trace is then replayed from the anchor on a second, freshly built machine using
// `replay_config`. Configs differ only in host tuning, which the trace fingerprint
// excludes, so the replay must be divergence-free either way; if it is not, the
// verifier's first-divergence coordinate localizes where the two runs part ways.
struct TracedRunResult {
  std::string error;           // setup failure (program build, restore, ...)
  RunOutcome outcome;          // the recorded run's observable outcome
  ReplayResult replay;         // the replay verifier's verdict
  Snapshot anchor;             // the anchor snapshot the trace hangs off
  std::vector<uint8_t> trace;  // the serialized event log
  // Quanta the replay ran on the worker pool (Machine::pooled_quanta).
  uint64_t replay_pooled_quanta = 0;
};
TracedRunResult RunProgramTraced(const CosimProgram& program,
                                 const LockstepConfig& record_config,
                                 const LockstepConfig& replay_config,
                                 uint64_t trace_at);

// Fork-from-boot-snapshot mode (DESIGN.md §2h): when enabled, every Machine the
// lockstep runners need is obtained by Fork()ing a cached pristine per-configuration
// template instead of being constructed from scratch. Soaks skip the repeated
// construction prefix, and — because outcomes are still compared across
// configurations — every fuzzed program doubles as a CoW-fork correctness check.
// Disabling clears the template pool.
void SetForkPoolEnabled(bool enabled);

// Returns a human-readable description of the first difference between two outcomes,
// or an empty string if they are observably identical.
std::string CompareOutcomes(const RunOutcome& a, const RunOutcome& b);

// Runs `program` across all LockstepConfigs + the refmodel check and reports the
// first divergence found.
struct CheckResult {
  bool ok = true;
  std::string detail;  // "<config>: <field diff>" or "refmodel: ..." when !ok
};
CheckResult CheckProgram(const CosimProgram& program);

// ddmin-style minimization: repeatedly removes chunks of the kept-action set while
// `still_fails` holds, calling it at most `max_runs` times. Returns the smallest
// failing program found (keep set always non-empty).
CosimProgram ShrinkProgram(const CosimProgram& program,
                           const std::function<bool(const CosimProgram&)>& still_fails,
                           unsigned max_runs = 250);

}  // namespace vfm

#endif  // SRC_COSIM_LOCKSTEP_H_
