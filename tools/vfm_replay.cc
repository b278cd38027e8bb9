// One-command deterministic reproduction of recorded runs (DESIGN.md §2j).
//
// Repro mode — replay a snapshot-anchored input-event trace and print the verdict:
//
//   vfm_replay --snapshot fail.snap --trace fail.trace [--tuning NAME] [--tamper-gpr R]
//
// The machine is rebuilt from the config embedded in the snapshot file; `--tuning`
// swaps in a named lockstep tuning (legal because the trace fingerprint deliberately
// excludes tuning — replaying a serially recorded trace on the parallel engine is
// how worker-pool divergences are localized). `--tamper-gpr R` flips hart 0's register R
// right after the restore, to demonstrate the verifier's divergence coordinate.
// Exit status: 0 = replayed clean, 1 = diverged (first coordinate printed), 2 = error.
//
// Record mode — boot a native vf2-sim system with a timer + memory kernel workload,
// snapshot mid-run, record the rest with UART/PLIC inputs injected mid-trace, then
// self-check both directions: the clean replay must verify end to end (matching UART
// output and retired-instruction counts), and a tampered replay must report a
// divergence:
//
//   vfm_replay --record DIR [--harts N] [--tuning NAME] [--replay-tuning NAME]
//
// The artifacts land in DIR/record.snap + DIR/record.trace, replayable with the
// repro mode above (or `cosim_fuzz --replay-trace DIR/record`).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/cosim/lockstep.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/trace/trace.h"

namespace {

struct Options {
  std::string record_dir;     // non-empty: record mode
  std::string snapshot;       // repro mode: the .snap file
  std::string trace;          // repro mode: the .trace file
  std::string tuning;         // machine tuning (record) / replay override (repro)
  std::string replay_tuning;  // record mode: tuning for the self-check replay
  unsigned harts = 1;
  uint64_t hash_period = 256;  // rounds between rolling-hash checkpoints
  int tamper_gpr = -1;         // repro mode: flip hart 0 gpr N after restore
};

void Usage() {
  std::fprintf(stderr,
               "usage: vfm_replay --snapshot FILE --trace FILE [--tuning NAME] "
               "[--tamper-gpr R]\n"
               "       vfm_replay --record DIR [--harts 1-64] [--tuning NAME]\n"
               "                  [--replay-tuning NAME] [--hash-period N]\n"
               "exit status: 0 replayed clean, 1 diverged, 2 error\n");
}

// Parses a count flag: a number in [1, max], else 0 (empty, trailing junk, zero or
// out of range), which the caller rejects with the usage text.
unsigned ParseCount(const char* text, unsigned long max) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 0);
  return end != text && *end == '\0' && value <= max ? static_cast<unsigned>(value) : 0;
}

// Overlays one lockstep tuning point onto a MachineConfig (the same mapping the
// cosim runners use), leaving the memory map / ISA / hart count untouched.
bool ApplyTuning(const std::string& name, vfm::MachineConfig* config) {
  const vfm::LockstepConfig* t = vfm::FindLockstepConfig(name);
  if (t == nullptr) {
    std::fprintf(stderr, "vfm_replay: unknown tuning '%s' (see LockstepConfigs)\n",
                 name.c_str());
    return false;
  }
  config->tuning = t->tuning;
  return true;
}

int ReproMode(const Options& opts) {
  vfm::MachineConfig config;
  vfm::Snapshot snapshot;
  if (!vfm::ReadSnapshotFile(opts.snapshot, &config, &snapshot)) {
    std::fprintf(stderr, "vfm_replay: cannot load snapshot %s\n", opts.snapshot.c_str());
    return 2;
  }
  if (!opts.tuning.empty() && !ApplyTuning(opts.tuning, &config)) {
    return 2;
  }
  std::vector<uint8_t> trace;
  if (!vfm::ReadTraceFile(opts.trace, &trace)) {
    std::fprintf(stderr, "vfm_replay: cannot load trace %s\n", opts.trace.c_str());
    return 2;
  }
  vfm::Machine machine(config);
  std::function<bool()> post_restore;
  if (opts.tamper_gpr >= 0) {
    post_restore = [&machine, &opts] {
      const unsigned r = static_cast<unsigned>(opts.tamper_gpr);
      machine.hart(0).set_gpr(r, machine.hart(0).gpr(r) ^ 1);
      return true;
    };
  }
  const vfm::ReplayResult result = machine.ReplayFrom(snapshot, trace, post_restore);
  std::printf("%s + %s: %s\n  %" PRIu64 " events applied, %" PRIu64
              " checkpoints verified\n",
              opts.snapshot.c_str(), opts.trace.c_str(),
              vfm::DescribeReplay(result).c_str(), result.events_applied,
              result.hashes_checked);
  if (!result.error.empty()) {
    return 2;
  }
  return result.ok ? 0 : 1;
}

int RecordMode(const Options& opts) {
  std::error_code ec;
  std::filesystem::create_directories(opts.record_dir, ec);

  vfm::PlatformProfile profile =
      vfm::MakePlatform(vfm::PlatformKind::kVf2Sim, opts.harts, /*with_blockdev=*/false);
  if (!opts.tuning.empty() && !ApplyTuning(opts.tuning, &profile.machine)) {
    return 2;
  }

  // A timer-driven kernel workload: hart 0 takes 30 S-timer interrupts, sweeps
  // memory, and fires the finisher; secondaries run memory loops and park. The
  // timer wait keeps the machine alive long past the anchor point.
  vfm::KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = opts.harts;
  config.timer_interval = 200;
  vfm::KernelBuilder kb(config);
  kb.EmitPrint("vfm_replay: recorded workload\n");
  if (opts.harts > 1) {
    kb.EmitStartSecondaries();
  }
  kb.EmitSetTimerRelative(100);
  kb.EmitWaitSlotAtLeast(vfm::KernelSlots::kTimerTicks, 30);
  kb.EmitMemoryLoop(20'000);
  kb.EmitPrint("vfm_replay: workload done\n");
  kb.EmitFinish(/*pass=*/true);
  if (opts.harts > 1) {
    kb.DefineSecondaryMain();
    kb.EmitMemoryLoop(50'000);
    kb.EmitSecondaryPark();
  }
  vfm::System system = vfm::BootSystem(profile, vfm::DeployMode::kNative, kb.Finish());
  vfm::Machine& machine = *system.machine;

  // Run partway, then anchor: snapshot to file, recording on from the same point.
  if (machine.RunUntilFinished(60'000)) {
    std::fprintf(stderr, "vfm_replay: workload finished before the anchor point\n");
    return 2;
  }
  vfm::Snapshot anchor;
  machine.SaveSnapshot(anchor);
  const std::string snap_path = opts.record_dir + "/record.snap";
  const std::string trace_path = opts.record_dir + "/record.trace";
  if (!vfm::WriteSnapshotFile(snap_path, profile.machine, anchor)) {
    std::fprintf(stderr, "vfm_replay: cannot write %s\n", snap_path.c_str());
    return 2;
  }
  if (!machine.StartRecording(trace_path, opts.hash_period)) {
    std::fprintf(stderr, "vfm_replay: StartRecording failed\n");
    return 2;
  }

  // The recorded tail: host inputs land mid-run (a UART rx burst and a PLIC line
  // edge on an unprogrammed source — queued and hashed, invisible to the kernel),
  // plus a mid-trace snapshot point, split across two run calls so the trace
  // carries more than one schedule segment.
  machine.InjectUartInput("replay");
  machine.InjectPlicLine(9, true);
  bool finished = machine.RunUntilFinished(150'000);
  vfm::Snapshot scratch;
  machine.SaveSnapshot(scratch);  // recorded as a kSnapshotPoint
  machine.InjectPlicLine(9, false);
  machine.InjectUartInput("!");
  if (!finished) {
    finished = machine.RunUntilFinished(80'000'000);
  }
  if (!machine.StopRecording()) {
    std::fprintf(stderr, "vfm_replay: StopRecording failed (write to %s?)\n",
                 trace_path.c_str());
    return 2;
  }
  if (!finished) {
    std::fprintf(stderr, "vfm_replay: workload did not finish within budget\n");
    return 2;
  }
  std::printf("recorded: %s + %s\n  run: %" PRIu64 " instructions, %" PRIu64
              " rounds, %zu UART bytes\n",
              snap_path.c_str(), trace_path.c_str(), machine.progress().retired,
              machine.progress().rounds, machine.uart().output().size());

  // Self-check 1: the clean replay — loaded back through the files — must verify
  // end to end and land on the identical observable outcome.
  vfm::MachineConfig replay_config;
  vfm::Snapshot snapshot;
  if (!vfm::ReadSnapshotFile(snap_path, &replay_config, &snapshot)) {
    std::fprintf(stderr, "vfm_replay: cannot load %s back\n", snap_path.c_str());
    return 2;
  }
  const std::string& replay_tuning =
      opts.replay_tuning.empty() ? opts.tuning : opts.replay_tuning;
  if (!replay_tuning.empty() && !ApplyTuning(replay_tuning, &replay_config)) {
    return 2;
  }
  std::vector<uint8_t> trace;
  if (!vfm::ReadTraceFile(trace_path, &trace)) {
    std::fprintf(stderr, "vfm_replay: cannot load %s back\n", trace_path.c_str());
    return 2;
  }
  vfm::Machine replayed(replay_config);
  const vfm::ReplayResult clean = replayed.ReplayFrom(snapshot, trace);
  std::printf("  clean replay%s%s: %s (%" PRIu64 " checkpoints, %" PRIu64
              " quanta on the worker pool)\n",
              replay_tuning.empty() ? "" : " on ",
              replay_tuning.empty() ? "" : replay_tuning.c_str(),
              vfm::DescribeReplay(clean).c_str(), clean.hashes_checked,
              replayed.pooled_quanta());
  if (!clean.ok) {
    return 1;
  }
  if (replayed.uart().output() != machine.uart().output() ||
      replayed.total_instret() != machine.total_instret()) {
    std::fprintf(stderr,
                 "vfm_replay: replay verified but outcome differs (uart %zu vs %zu "
                 "bytes, instret %" PRIu64 " vs %" PRIu64 ")\n",
                 replayed.uart().output().size(), machine.uart().output().size(),
                 replayed.total_instret(), machine.total_instret());
    return 1;
  }

  // Self-check 2: a tampered replay must report a divergence coordinate. tp (x4)
  // is written once during kernel boot — long before the anchor — so the flip
  // survives to the first rolling-hash checkpoint instead of being overwritten.
  vfm::Machine tampered(replay_config);
  const vfm::ReplayResult diverged =
      tampered.ReplayFrom(snapshot, trace, [&tampered] {
        tampered.hart(0).set_gpr(4, tampered.hart(0).gpr(4) ^ 1);
        return true;
      });
  std::printf("  tampered replay: %s\n", vfm::DescribeReplay(diverged).c_str());
  if (!diverged.diverged) {
    std::fprintf(stderr, "vfm_replay: tampered replay was not detected\n");
    return 1;
  }
  std::printf("vfm_replay: record + replay self-check passed\n"
              "  reproduce: vfm_replay --snapshot %s --trace %s\n",
              snap_path.c_str(), trace_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--record") {
      opts.record_dir = next();
    } else if (arg == "--snapshot") {
      opts.snapshot = next();
    } else if (arg == "--trace") {
      opts.trace = next();
    } else if (arg == "--tuning") {
      opts.tuning = next();
    } else if (arg == "--replay-tuning") {
      opts.replay_tuning = next();
    } else if (arg == "--harts") {
      opts.harts = ParseCount(next(), 64);  // the firmware's hart limit
      if (opts.harts == 0) {
        Usage();
        return 2;
      }
    } else if (arg == "--hash-period") {
      opts.hash_period = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--tamper-gpr") {
      opts.tamper_gpr = std::atoi(next());
    } else {
      Usage();
      return 2;
    }
  }
  vfm::SetLogLevel(vfm::LogLevel::kError);
  if (!opts.record_dir.empty()) {
    return RecordMode(opts);
  }
  if (!opts.snapshot.empty() && !opts.trace.empty()) {
    return ReproMode(opts);
  }
  Usage();
  return 2;
}
