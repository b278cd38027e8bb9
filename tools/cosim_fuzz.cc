// Co-simulation fuzzer CLI (DESIGN.md §2e). Generates seeded random guest programs
// and runs each across every LockstepConfig (decode cache x TLB x superblock, and
// the parallel worker pool) plus the in-flight reference-model check. On
// divergence, the failing program is ddmin-shrunk and saved as a replayable seed
// file; `--replay <file>` reproduces it deterministically.
//
//   cosim_fuzz --programs 500 --seed 1            # fuzz 500 programs
//   cosim_fuzz --replay cosim-fail-0x2a.cosim     # reproduce a recorded failure
//   cosim_fuzz --corpus tests/corpus              # re-check pinned regression seeds
//
// Record/replay legs (DESIGN.md §2j): `--record DIR` additionally runs every program
// with an anchor snapshot + input-event trace recorded mid-run and replayed on a
// second machine (serial-quantum traces replay on the parallel engine for
// multi-hart programs); a replay divergence persists DIR/trace-fail-<seed>.{snap,trace}
// — a one-command repro via `--replay-trace` or tools/vfm_replay. `--trace-at N`
// threads the trace leg through CheckProgram itself (all tunings), like the seed-file
// `trace` key.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/cosim/lockstep.h"
#include "src/cosim/program.h"
#include "src/trace/trace.h"

namespace {

struct Options {
  uint64_t programs = 200;
  uint64_t seed = 1;
  unsigned actions = 160;
  uint64_t budget = 100'000;
  int harts = 0;  // 0 = alternate 1/2
  uint64_t snapshot_at = 0;  // nonzero: add the snapshot round-trip leg per program
  uint64_t trace_at = 0;     // nonzero: thread the record/replay leg through CheckProgram
  bool fork_boot = false;    // obtain run machines by forking cached templates
  std::string replay;
  std::string corpus;
  std::string record_dir;    // non-empty: record+replay every program, keep failures here
  std::string replay_trace;  // non-empty: replay a saved BASE.snap + BASE.trace pair
  std::string save_dir = ".";
  bool shrink = true;
};

// Anchor for the --record leg when --trace-at is not given: early enough that even
// short generated programs (which finish around ~1500 retired instructions) are
// still running when recording starts.
constexpr uint64_t kDefaultRecordAnchor = 800;

void Usage() {
  std::fprintf(stderr,
               "usage: cosim_fuzz [--programs N] [--seed S] [--actions N] [--budget N]\n"
               "                  [--harts 1-4] [--snapshot-at N] [--trace-at N] [--fork-boot]\n"
               "                  [--replay FILE] [--corpus DIR]\n"
               "                  [--record DIR] [--replay-trace BASE]\n"
               "                  [--save-dir DIR] [--no-shrink]\n");
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Runs one program; on divergence shrinks it, saves a seed file, and prints the
// one-command reproduction line. Returns true when the program behaved identically
// everywhere.
bool CheckAndReport(const vfm::CosimProgram& program, const Options& opts,
                    const char* origin) {
  const vfm::CheckResult result = vfm::CheckProgram(program);
  if (result.ok) {
    return true;
  }
  std::fprintf(stderr, "DIVERGENCE (%s, seed 0x%" PRIx64 ", %u harts, %zu/%zu actions)\n  %s\n",
               origin, program.seed, program.opts.harts, program.keep.size(),
               program.actions.size(), result.detail.c_str());
  vfm::CosimProgram minimal = program;
  if (opts.shrink) {
    minimal = vfm::ShrinkProgram(
        program, [](const vfm::CosimProgram& p) { return !vfm::CheckProgram(p).ok; });
    std::fprintf(stderr, "  shrunk to %zu actions: %s\n", minimal.keep.size(),
                 vfm::CheckProgram(minimal).detail.c_str());
  }
  char name[96];
  std::snprintf(name, sizeof name, "cosim-fail-0x%016" PRIx64 ".cosim", program.seed);
  const std::string path = opts.save_dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << vfm::SaveSeedFile(minimal);
  out.close();
  std::fprintf(stderr, "  saved: %s\n  reproduce: cosim_fuzz --replay %s\n", path.c_str(),
               path.c_str());
  return false;
}

// The --record leg: records `program` mid-run into a snapshot-anchored event trace
// and replays it on a second machine. Single-hart programs record and replay on the
// full superblock stack; multi-hart programs replay that recording of the serial
// quantum schedule on the parallel engine, so the replay verifier doubles as a
// worker-pool bit-identity check. A replay divergence is persisted as
// <dir>/trace-fail-<seed>.snap/.trace (the trace ddmin-shrunk first) with a
// one-command repro line.
bool TraceAndReport(const vfm::CosimProgram& program, const Options& opts,
                    const char* origin) {
  const bool multi = program.opts.harts > 1;
  const vfm::LockstepConfig* record_cfg = vfm::FindLockstepConfig("superblock");
  const vfm::LockstepConfig* replay_cfg =
      vfm::FindLockstepConfig(multi ? "parallel" : "superblock");
  if (record_cfg == nullptr || replay_cfg == nullptr) {
    std::fprintf(stderr, "cosim_fuzz: lockstep config table is missing superblock/parallel\n");
    return false;
  }
  const uint64_t trace_at = opts.trace_at != 0 ? opts.trace_at : kDefaultRecordAnchor;
  const vfm::TracedRunResult traced =
      vfm::RunProgramTraced(program, *record_cfg, *replay_cfg, trace_at);
  if (traced.error.empty() && traced.replay.ok) {
    return true;
  }
  std::fprintf(stderr,
               "TRACE DIVERGENCE (%s, seed 0x%" PRIx64 ", %u harts, %s -> %s)\n  %s\n",
               origin, program.seed, program.opts.harts, record_cfg->name,
               replay_cfg->name,
               traced.error.empty() ? vfm::DescribeReplay(traced.replay).c_str()
                                    : traced.error.c_str());
  if (traced.trace.empty()) {
    return false;  // setup failed before a trace existed; nothing to persist
  }
  // Shrink the event log: drop injected inputs while the replay still fails.
  std::vector<uint8_t> trace = traced.trace;
  const vfm::MachineConfig mc = vfm::CosimMachineConfig(program, *replay_cfg);
  if (opts.shrink) {
    trace = vfm::ShrinkTrace(trace, [&](const std::vector<uint8_t>& candidate) {
      vfm::Machine machine(mc);
      return !machine.ReplayFrom(traced.anchor, candidate).ok;
    });
  }
  char name[96];
  std::snprintf(name, sizeof name, "trace-fail-0x%016" PRIx64, program.seed);
  const std::string base = opts.record_dir + "/" + name;
  if (!vfm::WriteSnapshotFile(base + ".snap", mc, traced.anchor) ||
      !vfm::WriteTraceFile(base + ".trace", trace)) {
    std::fprintf(stderr, "  (failed to save repro artifacts under %s)\n",
                 opts.record_dir.c_str());
    return false;
  }
  std::fprintf(stderr,
               "  saved: %s.snap + %s.trace\n"
               "  reproduce: cosim_fuzz --replay-trace %s\n"
               "         or: vfm_replay --snapshot %s.snap --trace %s.trace\n",
               base.c_str(), base.c_str(), base.c_str(), base.c_str(), base.c_str());
  return false;
}

// The --replay-trace mode: loads BASE.snap + BASE.trace and replays the event log
// on a machine built from the snapshot's embedded config. Exit status mirrors
// vfm_replay: 0 replayed clean, 1 diverged (coordinate printed), 2 bad artifacts.
int ReplayTraceArtifacts(const std::string& base) {
  vfm::MachineConfig config;
  vfm::Snapshot snapshot;
  if (!vfm::ReadSnapshotFile(base + ".snap", &config, &snapshot)) {
    std::fprintf(stderr, "cosim_fuzz: cannot load snapshot %s.snap\n", base.c_str());
    return 2;
  }
  std::vector<uint8_t> trace;
  if (!vfm::ReadTraceFile(base + ".trace", &trace)) {
    std::fprintf(stderr, "cosim_fuzz: cannot load trace %s.trace\n", base.c_str());
    return 2;
  }
  vfm::Machine machine(config);
  const vfm::ReplayResult result = machine.ReplayFrom(snapshot, trace);
  std::printf("%s: %s (%" PRIu64 " events applied, %" PRIu64 " checkpoints)\n",
              base.c_str(), vfm::DescribeReplay(result).c_str(), result.events_applied,
              result.hashes_checked);
  if (!result.error.empty()) {
    return 2;
  }
  return result.ok ? 0 : 1;
}

bool ReplayFile(const std::string& path, const Options& opts) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cosim_fuzz: cannot read %s\n", path.c_str());
    return false;
  }
  const vfm::Result<vfm::CosimProgram> program = vfm::ParseSeedFile(text);
  if (!program.ok()) {
    std::fprintf(stderr, "cosim_fuzz: %s: %s\n", path.c_str(), program.error().c_str());
    return false;
  }
  Options replay_opts = opts;
  replay_opts.shrink = false;  // the file is already minimal; just reproduce
  if (CheckAndReport(program.value(), replay_opts, path.c_str())) {
    std::printf("%s: no divergence (all configurations identical)\n", path.c_str());
    // Report how hard the block engine was exercised, so pinned seeds can be
    // checked for actually reaching block-build/deopt paths (not just passing).
    for (const vfm::LockstepConfig& config : vfm::LockstepConfigs()) {
      if (config.tuning.superblock_entries == 0 || config.tuning.decode_cache_entries == 0) {
        continue;
      }
      const vfm::RunOutcome out =
          vfm::RunProgram(program.value(), config, /*with_refmodel=*/false);
      std::printf("  %s: %" PRIu64 " block builds, %" PRIu64 " deopts\n", config.name,
                  out.threaded_promotions, out.threaded_deopts);
    }
    if (program.value().opts.snapshot_at != 0) {
      std::printf("  snapshot leg: split at %" PRIu64
                  " retired instructions matched the uninterrupted run on all %zu "
                  "configurations\n",
                  program.value().opts.snapshot_at, vfm::LockstepConfigs().size());
    }
    if (program.value().opts.trace_at != 0) {
      std::printf("  trace leg: recorded at %" PRIu64
                  " retired instructions, replayed divergence-free on all %zu "
                  "configurations%s\n",
                  program.value().opts.trace_at, vfm::LockstepConfigs().size(),
                  program.value().opts.harts > 1 ? " (plus superblock -> parallel cross-replay)"
                                                 : "");
    }
    return true;
  }
  return false;
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
    if (arg == "--programs") {
      opts.programs = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--actions") {
      opts.actions = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--budget") {
      opts.budget = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--harts") {
      opts.harts = std::atoi(next());
      if (opts.harts < 1 || opts.harts > 4) {  // what a seed file can replay
        Usage();
        return 2;
      }
    } else if (arg == "--snapshot-at") {
      opts.snapshot_at = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--trace-at") {
      opts.trace_at = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--fork-boot") {
      opts.fork_boot = true;
    } else if (arg == "--replay") {
      opts.replay = next();
    } else if (arg == "--corpus") {
      opts.corpus = next();
    } else if (arg == "--record") {
      opts.record_dir = next();
    } else if (arg == "--replay-trace") {
      opts.replay_trace = next();
    } else if (arg == "--save-dir") {
      opts.save_dir = next();
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else {
      Usage();
      return 2;
    }
  }

  // Budget-exhausted runs are expected (and compared); silence the per-run warning.
  vfm::SetLogLevel(vfm::LogLevel::kError);

  // Fork-from-boot-snapshot mode: run machines are CoW forks of cached pristine
  // templates, so soaks skip the per-run construction prefix and every program
  // exercises Machine::Fork.
  vfm::SetForkPoolEnabled(opts.fork_boot);

  if (!opts.replay_trace.empty()) {
    return ReplayTraceArtifacts(opts.replay_trace);
  }

  if (!opts.replay.empty()) {
    return ReplayFile(opts.replay, opts) ? 0 : 1;
  }

  unsigned failures = 0;
  uint64_t checked = 0;

  if (!opts.corpus.empty()) {
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(opts.corpus, ec)) {
      if (entry.path().extension() == ".cosim") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
      ++checked;
      if (!ReplayFile(file, opts)) {
        ++failures;
      }
    }
    std::printf("corpus: %zu seed files checked\n", files.size());
  }

  for (uint64_t i = 0; i < opts.programs; ++i) {
    vfm::GenOptions gen;
    gen.num_actions = opts.actions;
    gen.budget = opts.budget;
    // Every third program runs two harts (WFI/IPI echo on hart 1) unless pinned.
    gen.harts = opts.harts != 0 ? static_cast<unsigned>(opts.harts) : (i % 3 == 2 ? 2 : 1);
    gen.snapshot_at = opts.snapshot_at;
    gen.trace_at = opts.trace_at;
    const vfm::CosimProgram program = vfm::GenerateProgram(opts.seed + i, gen);
    ++checked;
    if (!CheckAndReport(program, opts, "fuzz")) {
      ++failures;
    }
    if (!opts.record_dir.empty() && !TraceAndReport(program, opts, "fuzz")) {
      ++failures;
    }
    if ((i + 1) % 100 == 0) {
      std::printf("... %" PRIu64 "/%" PRIu64 " programs, %u divergences\n", i + 1,
                  opts.programs, failures);
      std::fflush(stdout);
    }
  }

  std::printf("cosim_fuzz: %" PRIu64 " programs x %zu configurations, %u divergences\n", checked,
              vfm::LockstepConfigs().size(), failures);
  return failures == 0 ? 0 : 1;
}
