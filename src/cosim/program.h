// Seeded random guest-program generation for the lockstep co-simulation fuzzer
// (DESIGN.md §2e). A program is a deterministic function of (seed, options): the
// generator first materializes a plan — a flat list of Actions with every register,
// address, immediate, and CSR value already chosen — and the builder then assembles
// the plan into a self-contained RV64 image via the in-tree Assembler. Keeping plan
// and emission separate is what makes shrinking and replay work: any subset of the
// action list still assembles to a runnable, terminating program, and a failure is
// fully described by (seed, options, kept-action indices), which is what the seed
// file records.
//
// Generated programs exercise the whole trap-and-translate surface the decoded-
// instruction cache and software TLB claim to be transparent to: mixed M/S/U code,
// Sv39 page-table setups with hardware A/D updates, PMP reconfiguration, CSR churn,
// ecalls/ebreaks/illegal instructions, sfence.vma/fence.i, self-modifying stores,
// misaligned accesses, and WFI/timer interplay. Every program terminates: a fixed
// M-mode handler skips faulting instructions, a trap-count limit ends runaway fault
// cascades through the test finisher, and the run loop's round bound catches the
// rest (all deterministically, so a non-terminating plan is never a divergence).

#ifndef SRC_COSIM_PROGRAM_H_
#define SRC_COSIM_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/asm/assembler.h"
#include "src/common/result.h"

namespace vfm {

// Physical layout of a co-sim guest. The machine is built with a deliberately small
// RAM so that constructing and hashing four machines per program stays cheap.
struct CosimLayout {
  static constexpr uint64_t kRamBase = 0x8000'0000;
  static constexpr uint64_t kRamSize = 2ull << 20;
  static constexpr uint64_t kDataPhys = kRamBase + 0x10'0000;   // 64 KiB data region
  static constexpr uint64_t kDataSize = 0x1'0000;
  static constexpr uint64_t kSavePhys = kRamBase + 0x12'0000;   // per-hart save areas
  static constexpr uint64_t kPtRoot = kRamBase + 0x14'0000;     // Sv39 root table
  static constexpr uint64_t kPtL1 = kPtRoot + 0x1000;
  static constexpr uint64_t kPtL0 = kPtRoot + 0x2000;
  // Virtual windows installed by the generated page tables:
  //  - identity gigapages over devices (U=0) and RAM (U=0), so S-mode runs paged at
  //    its physical addresses;
  //  - kDataVaddr: sixteen 4 KiB user pages (R+W, A/D initially clear, so walks
  //    perform hardware A/D updates into the PT page) over the data region;
  //  - kUserAlias: a U=1 RWX gigapage alias of RAM, where U-mode code executes.
  static constexpr uint64_t kDataVaddr = 0xC000'0000;
  static constexpr uint64_t kUserAlias = 0x1'0000'0000;
  static constexpr uint64_t kAliasOffset = kUserAlias - kRamBase;
};

// What kind of work one action block performs. Every parameter is materialized at
// generation time; emission consumes no randomness.
enum class ActionKind : uint8_t {
  kAlu,         // register arithmetic on the pool registers
  kLoadStore,   // load/store in the data region (sometimes misaligned)
  kCsrOp,       // one Zicsr instruction on a curated CSR list
  kPmpWrite,    // pmpcfg0 / pmpaddr0..6 reconfiguration (never entry 7, never L bits)
  kSatpSwitch,  // satp := Sv39 root or bare, followed by sfence.vma
  kModeSwitch,  // M->S / M->U / S->U via xRET, or any->M via ecall escalation
  kTrapOp,      // ecall / ebreak / illegal instruction
  kFenceOp,     // fence.i / fence / sfence.vma (rs1=x0 and per-address forms)
  kSelfModify,  // store an instruction word ahead of the pc, fence.i, execute it
  kTimer,       // CLINT mtimecmp arming, IPIs, SSIP injection, WFI
  kLoop,        // bounded counted loop over simple sub-actions
  kAmo,         // AMO / LR+SC on the data region
  kUartPutc,    // one byte to the UART (console output is compared across configs)
};

struct Action {
  ActionKind kind = ActionKind::kAlu;
  uint8_t mode_hint = 3;    // PrivMode the generator assumed at this point
  bool paged_hint = false;  // whether the generator assumed satp was Sv39
  uint8_t sub = 0;          // sub-kind selector, meaning depends on `kind`
  uint8_t rd = 0, ra = 0, rb = 0;  // pool registers (absolute x-register numbers)
  uint16_t csr = 0;
  uint64_t a = 0, b = 0;    // materialized values / addresses / immediates
  std::vector<Action> body;  // kLoop only
};

struct GenOptions {
  unsigned harts = 1;         // 1 to 4 (harts 1.. run a WFI/IPI echo loop)
  unsigned num_actions = 160;
  uint64_t budget = 100'000;  // instruction budget per run
  unsigned trap_limit = 300;  // M-handler bails through the finisher past this
  // When nonzero, CheckProgram adds a snapshot leg per configuration: the run is
  // split at this many retired instructions (save -> restore into a fresh Machine ->
  // finish there) and must reproduce the uninterrupted outcome bit for bit.
  uint64_t snapshot_at = 0;
  // When nonzero, CheckProgram adds a record/replay leg per configuration: an anchor
  // snapshot is saved at this many retired instructions, the rest of the run is
  // recorded (with outcome-invisible UART/PLIC inputs and a mid-run snapshot point
  // injected), and the trace must replay divergence-free from the anchor on a fresh
  // machine (DESIGN.md §2j).
  uint64_t trace_at = 0;
};

struct CosimProgram {
  uint64_t seed = 0;
  GenOptions opts;
  std::vector<Action> actions;
  // Indices of the top-level actions that are emitted (the shrinker's working set).
  // Always sorted; GenerateProgram initializes it to all indices.
  std::vector<uint32_t> keep;
};

// Deterministically generates the action plan for (seed, opts).
CosimProgram GenerateProgram(uint64_t seed, const GenOptions& opts);

// Assembles the kept actions into a bootable image (entry at CosimLayout::kRamBase).
Result<Image> BuildCosimImage(const CosimProgram& program);

// Seed-file serialization. The file records (seed, options, keep) — enough to
// regenerate the identical program on any build — not the assembled bytes.
std::string SaveSeedFile(const CosimProgram& program);
Result<CosimProgram> ParseSeedFile(const std::string& text);

// Exit codes the generated program reports through the test finisher (value >> 16).
constexpr uint32_t kCosimExitDone = 0x60;       // ran every action to the end
constexpr uint32_t kCosimExitTrapLimit = 0x7A;  // M handler hit the trap-count limit

}  // namespace vfm

#endif  // SRC_COSIM_PROGRAM_H_
