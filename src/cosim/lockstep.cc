#include "src/cosim/lockstep.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "src/common/hash.h"
#include "src/isa/csr.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/refmodel/refmodel.h"
#include "src/sim/machine.h"
#include "src/sim/machine_pool.h"

namespace vfm {

const uint16_t kComparedCsrs[] = {
    kCsrMstatus, kCsrMie,      kCsrMip,        kCsrMideleg,    kCsrMedeleg, kCsrMtvec,
    kCsrMepc,    kCsrMcause,   kCsrMtval,      kCsrMscratch,   kCsrMcounteren,
    kCsrMenvcfg, kCsrStvec,    kCsrSepc,       kCsrSscratch,   kCsrSatp,    kCsrScause,
    kCsrStval,   kCsrScounteren, kCsrSenvcfg,  kCsrSstatus,    kCsrSie,     kCsrSip,
};
const unsigned kComparedCsrCount = sizeof(kComparedCsrs) / sizeof(kComparedCsrs[0]);

const LockstepConfig* FindLockstepConfig(const std::string& name) {
  for (const LockstepConfig& config : LockstepConfigs()) {
    if (name == config.name) {
      return &config;
    }
  }
  return nullptr;
}

MachineConfig CosimMachineConfig(const CosimProgram& program, const LockstepConfig& config) {
  MachineConfig mc;
  mc.hart_count = program.opts.harts;
  mc.isa.has_time_csr = true;  // richer CSR surface: `time` reads compare, not trap
  mc.tuning = config.tuning;
  mc.map.ram_size = CosimLayout::kRamSize;
  return mc;
}

const std::vector<LockstepConfig>& LockstepConfigs() {
  // Designated initializers leave every unnamed knob at its SimTuning default.
  static const std::vector<LockstepConfig> kConfigs = {
      // Baseline: every layer interpreted.
      {"nocache-notlb", {.decode_cache_entries = 0, .tlb_entries = 0, .superblock_entries = 0}},
      // Decode cache alone.
      {"dcache-notlb", {.tlb_entries = 0, .superblock_entries = 0}},
      // TLB alone.
      {"nocache-tlb", {.decode_cache_entries = 0, .superblock_entries = 0}},
      // Both, tiny: exercises aliasing eviction.
      {"tiny-dcache-tlb",
       {.decode_cache_entries = 64, .tlb_entries = 64, .superblock_entries = 0}},
      // The full stack: lowered superblocks over the decode cache and TLB.
      {"superblock", {}},
      // Tiny everything: block aliasing, eviction and invalidation of live blocks,
      // and op-arena restarts (a 4-entry cache's arena holds 260 ops, DESIGN.md §2f).
      {"tiny-superblock",
       {.decode_cache_entries = 64, .tlb_entries = 64, .superblock_entries = 4}},
      // The full stack with parallel_harts: quanta long enough to pay for the
      // handoff run each hart's segment on its own host thread (DESIGN.md §2i), and
      // on multi-hart programs the worker pool must reproduce the serial quantum
      // schedule bit for bit; single-hart programs ignore the knob.
      {"parallel", {.parallel_harts = true}},
  };
  return kConfigs;
}

namespace {

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  return buf;
}

// Instructions the reference model's RefStep covers. Counter CSRs are excluded: the
// model's mcycle/minstret do not advance with the hart's clock, so reads of them (and
// of the hpm ranges) are checked only by the cross-configuration comparison.
bool CoveredByRef(const DecodedInstr& instr) {
  switch (instr.op) {
    case Op::kMret:
    case Op::kSret:
    case Op::kWfi:
    case Op::kSfenceVma:
    case Op::kEcall:
    case Op::kEbreak:
      return true;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: {
      const uint16_t c = instr.csr;
      if ((c >= 0xB00 && c <= 0xB9F) || (c >= 0xC00 && c <= 0xC9F) ||
          (c >= 0x320 && c <= 0x33F)) {
        return false;
      }
      return true;
    }
    default:
      return false;
  }
}

void MirrorToRef(const Hart& hart, uint64_t mtime, RefState* ref) {
  const CsrFile& csrs = hart.csrs();
  *ref = RefState();
  ref->pc = hart.pc();
  ref->priv = hart.priv();
  for (unsigned i = 0; i < 32; ++i) {
    ref->gpr[i] = hart.gpr(i);
  }
  ref->mstatus = csrs.Get(kCsrMstatus);
  ref->misa = csrs.Get(kCsrMisa);
  ref->medeleg = csrs.Get(kCsrMedeleg);
  ref->mideleg = csrs.Get(kCsrMideleg);
  ref->mie = csrs.Get(kCsrMie);
  ref->mip = csrs.Get(kCsrMip);  // effective: lines are constant within one tick
  ref->mtvec = csrs.Get(kCsrMtvec);
  ref->mcounteren = csrs.Get(kCsrMcounteren);
  ref->menvcfg = csrs.Get(kCsrMenvcfg);
  ref->mcountinhibit = csrs.Get(kCsrMcountinhibit);
  ref->mscratch = csrs.Get(kCsrMscratch);
  ref->mepc = csrs.Get(kCsrMepc);
  ref->mcause = csrs.Get(kCsrMcause);
  ref->mtval = csrs.Get(kCsrMtval);
  ref->mseccfg = csrs.Get(kCsrMseccfg);
  ref->mcycle = csrs.Get(kCsrMcycle);
  ref->minstret = csrs.Get(kCsrMinstret);
  ref->stvec = csrs.Get(kCsrStvec);
  ref->scounteren = csrs.Get(kCsrScounteren);
  ref->senvcfg = csrs.Get(kCsrSenvcfg);
  ref->sscratch = csrs.Get(kCsrSscratch);
  ref->sepc = csrs.Get(kCsrSepc);
  ref->scause = csrs.Get(kCsrScause);
  ref->stval = csrs.Get(kCsrStval);
  ref->satp = csrs.Get(kCsrSatp);
  for (unsigned i = 0; i < 8; ++i) {
    ref->pmpcfg[i] = csrs.pmp().GetCfg(i).ToByte();
    ref->pmpaddr[i] = csrs.pmp().GetAddr(i);
  }
  ref->time = mtime;
}

// Post-step comparison of the hart against the predicted reference state. The cycle
// and retirement counters are deliberately absent (the model has no clock).
std::string CompareHartVsRef(const Hart& hart, const RefConfig& config, const RefState& ref) {
  for (unsigned i = 0; i < kComparedCsrCount; ++i) {
    const uint16_t addr = kComparedCsrs[i];
    const uint64_t got = hart.csrs().Get(addr);
    const uint64_t want = RefCsrGet(config, ref, addr);
    if (got != want) {
      return CsrName(addr) + ": hart " + Hex(got) + " ref " + Hex(want);
    }
  }
  if (hart.pc() != ref.pc) {
    return "pc: hart " + Hex(hart.pc()) + " ref " + Hex(ref.pc);
  }
  if (hart.priv() != ref.priv) {
    return std::string("priv: hart ") + PrivModeName(hart.priv()) + " ref " +
           PrivModeName(ref.priv);
  }
  for (unsigned i = 0; i < 32; ++i) {
    if (hart.gpr(i) != ref.gpr[i]) {
      return "x" + std::to_string(i) + ": hart " + Hex(hart.gpr(i)) + " ref " +
             Hex(ref.gpr[i]);
    }
  }
  for (unsigned i = 0; i < 8; ++i) {
    if (hart.csrs().pmp().GetCfg(i).ToByte() != ref.pmpcfg[i] ||
        hart.csrs().pmp().GetAddr(i) != ref.pmpaddr[i]) {
      return "pmp entry " + std::to_string(i) + " mismatch";
    }
  }
  return {};
}

// Whether the baseline loop can predict the next instruction: the fetch must be
// untranslated (the reference model has no MMU) and readable from RAM.
bool FetchPredictable(const Hart& hart, const Bus& bus) {
  if ((hart.pc() & 3) != 0) {
    return false;
  }
  if (hart.priv() != PrivMode::kMachine &&
      (hart.csrs().satp() >> SatpBits::kModeLo) != SatpBits::kModeBare) {
    return false;
  }
  if (!bus.IsRam(hart.pc(), 4)) {
    return false;
  }
  return hart.csrs().pmp().Check(hart.pc(), 4, AccessType::kFetch, hart.priv());
}

void RefreshLines(Machine& machine) {
  for (unsigned i = 0; i < machine.hart_count(); ++i) {
    CsrFile& csrs = machine.hart(i).csrs();
    csrs.SetInterruptLine(InterruptCause::kMachineTimer, machine.clint().MtipPending(i));
    csrs.SetInterruptLine(InterruptCause::kMachineSoftware, machine.clint().MsipPending(i));
    csrs.SetInterruptLine(InterruptCause::kSupervisorExternal, machine.plic().SeipPending(i));
  }
}

// The baseline run loop: per-instruction StepAll rounds with the RunUntilFinished
// budget semantics (so "finished" means the same thing in every configuration), plus
// the in-flight reference-model check on each predictable privileged step.
void RunBaselineLoop(Machine& machine, const CosimProgram& program, RunOutcome* out) {
  Hart& hart = machine.hart(0);
  const RefConfig ref_config{
      .pmp_entries = 8, .has_time_csr = true, .has_sstc = false, .has_custom_csrs = false};
  const uint64_t budget = program.opts.budget;
  uint64_t retired = 0;
  uint64_t rounds = 0;
  RefState ref;
  while (!machine.finisher().finished()) {
    // Sample the device lines exactly as StepAll is about to, so the interrupt
    // prediction below sees what the hart will see.
    RefreshLines(machine);
    bool predicted = false;
    if (out->ref_divergence.empty()) {
      const std::optional<uint64_t> irq = hart.PendingInterrupt();
      if (irq.has_value()) {
        MirrorToRef(hart, machine.clint().mtime(), &ref);
        RefTrapEntry(&ref, *irq, 0);
        predicted = true;
      } else if (!hart.waiting() && FetchPredictable(hart, machine.bus())) {
        uint32_t word = 0;
        if (machine.bus().ReadBytes(hart.pc(), &word, 4)) {
          const DecodedInstr instr = Decode(word);
          if (CoveredByRef(instr)) {
            MirrorToRef(hart, machine.clint().mtime(), &ref);
            ref = RefStep(ref_config, ref, instr).state;
            predicted = true;
          }
        }
      }
    }
    retired += machine.StepAll();
    if (predicted) {
      ++out->ref_checks;
      const std::string diff = CompareHartVsRef(hart, ref_config, ref);
      if (!diff.empty()) {
        out->ref_divergence =
            diff + " (at instret " + std::to_string(hart.instret()) + ")";
      }
    }
    ++rounds;
    if (retired >= budget || rounds >= 4 * budget) {
      break;  // same budget semantics as RunUntilFinished
    }
  }
}

HartSnapshot SnapshotHart(const Hart& hart) {
  HartSnapshot snap;
  snap.pc = hart.pc();
  snap.priv = static_cast<uint8_t>(hart.priv());
  snap.waiting = hart.waiting();
  for (unsigned i = 0; i < 32; ++i) {
    snap.gpr[i] = hart.gpr(i);
  }
  snap.instret = hart.instret();
  snap.cycles = hart.cycles();
  snap.traps_taken = hart.traps_taken();
  snap.csrs.reserve(kComparedCsrCount);
  for (unsigned i = 0; i < kComparedCsrCount; ++i) {
    snap.csrs.push_back(hart.csrs().Get(kComparedCsrs[i]));
  }
  for (unsigned i = 0; i < 8; ++i) {
    snap.pmpcfg[i] = hart.csrs().pmp().GetCfg(i).ToByte();
    snap.pmpaddr[i] = hart.csrs().pmp().GetAddr(i);
  }
  return snap;
}

// The first difference between two runs' hart states, or an empty string.
std::string CompareHarts(const std::vector<HartSnapshot>& a, const std::vector<HartSnapshot>& b) {
  if (a.size() != b.size()) {
    return "hart count";
  }
  for (size_t h = 0; h < a.size(); ++h) {
    const HartSnapshot& x = a[h];
    const HartSnapshot& y = b[h];
    const std::string who = "hart" + std::to_string(h) + " ";
    if (x.pc != y.pc) {
      return who + "pc: " + Hex(x.pc) + " vs " + Hex(y.pc);
    }
    if (x.priv != y.priv) {
      return who + "priv: " + std::to_string(x.priv) + " vs " + std::to_string(y.priv);
    }
    if (x.waiting != y.waiting) {
      return who + "waiting differs";
    }
    if (x.instret != y.instret) {
      return who + "instret: " + std::to_string(x.instret) + " vs " + std::to_string(y.instret);
    }
    if (x.cycles != y.cycles) {
      return who + "cycles: " + std::to_string(x.cycles) + " vs " + std::to_string(y.cycles);
    }
    if (x.traps_taken != y.traps_taken) {
      return who + "traps_taken: " + std::to_string(x.traps_taken) + " vs " +
             std::to_string(y.traps_taken);
    }
    for (unsigned i = 0; i < 32; ++i) {
      if (x.gpr[i] != y.gpr[i]) {
        return who + "x" + std::to_string(i) + ": " + Hex(x.gpr[i]) + " vs " + Hex(y.gpr[i]);
      }
    }
    for (unsigned i = 0; i < kComparedCsrCount; ++i) {
      if (x.csrs[i] != y.csrs[i]) {
        return who + CsrName(kComparedCsrs[i]) + ": " + Hex(x.csrs[i]) + " vs " +
               Hex(y.csrs[i]);
      }
    }
    for (unsigned i = 0; i < 8; ++i) {
      if (x.pmpcfg[i] != y.pmpcfg[i] || x.pmpaddr[i] != y.pmpaddr[i]) {
        return who + "pmp entry " + std::to_string(i) + " differs";
      }
    }
  }
  return {};
}

bool g_fork_pool_enabled = false;

MachinePool& ForkPool() {
  static auto* pool = new MachinePool();
  return *pool;
}

// Obtains a Machine for one run: a fresh construction, or — in fork-pool mode — a
// CoW fork of a pristine template cached per (configuration, hart count).
std::unique_ptr<Machine> MakeCosimMachine(const CosimProgram& program,
                                          const LockstepConfig& config) {
  const MachineConfig mc = CosimMachineConfig(program, config);
  if (!g_fork_pool_enabled) {
    return std::make_unique<Machine>(mc);
  }
  const std::string key =
      std::string(config.name) + "/" + std::to_string(mc.hart_count);
  return ForkPool().Acquire(key, [&mc] { return std::make_unique<Machine>(mc); });
}

void InstallTrapObserver(Machine& machine, RunOutcome* out) {
  machine.SetTrapObserver([out](const Hart& hart, const StepResult& result) {
    ++out->total_traps;
    if (out->traps.size() < kMaxTrapTrace) {
      out->traps.push_back({static_cast<uint8_t>(hart.index()), result.trap_cause, hart.pc(),
                            hart.instret(), hart.cycles()});
    }
  });
}

void CollectOutcome(Machine& machine, RunOutcome* out) {
  out->finished = machine.finisher().finished();
  out->exit_code = machine.finisher().exit_code();
  out->uart = machine.uart().output();
  std::vector<uint8_t> ram(CosimLayout::kRamSize);
  if (machine.bus().ReadBytes(CosimLayout::kRamBase, ram.data(), ram.size())) {
    out->ram_hash = Fnv1a64(ram.data(), ram.size());
  }
  for (unsigned i = 0; i < machine.hart_count(); ++i) {
    out->harts.push_back(SnapshotHart(machine.hart(i)));
    out->threaded_promotions += machine.hart(i).threaded_promotions();
    out->threaded_deopts += machine.hart(i).threaded_deopts();
  }
}

}  // namespace

RunOutcome RunProgram(const CosimProgram& program, const LockstepConfig& config,
                      bool with_refmodel) {
  RunOutcome out;
  const Result<Image> image = BuildCosimImage(program);
  if (!image.ok()) {
    out.build_error = image.error();
    return out;
  }

  const std::unique_ptr<Machine> machine = MakeCosimMachine(program, config);
  machine->LoadImage(image.value().base, image.value().bytes);
  InstallTrapObserver(*machine, &out);

  if (with_refmodel && program.opts.harts == 1) {
    RunBaselineLoop(*machine, program, &out);
  } else {
    machine->RunUntilFinished(program.opts.budget);
  }

  CollectOutcome(*machine, &out);
  return out;
}

RunOutcome RunProgramSplit(const CosimProgram& program, const LockstepConfig& config,
                           uint64_t snapshot_at) {
  RunOutcome out;
  const Result<Image> image = BuildCosimImage(program);
  if (!image.ok()) {
    out.build_error = image.error();
    return out;
  }

  const uint64_t budget = program.opts.budget;
  const uint64_t round_cap = 4 * budget;

  // Phase 1: run to the snapshot point on the first machine, tracking exactly how
  // much of the instruction and round budget it consumed.
  const std::unique_ptr<Machine> first = MakeCosimMachine(program, config);
  first->LoadImage(image.value().base, image.value().bytes);
  InstallTrapObserver(*first, &out);
  Machine::RunProgress progress;
  first->RunUntilFinished(std::min(snapshot_at, budget), round_cap, &progress);

  for (unsigned i = 0; i < first->hart_count(); ++i) {
    out.phase1_harts.push_back(SnapshotHart(first->hart(i)));
  }
  Snapshot snapshot;
  first->SaveSnapshot(snapshot);

  // Phase 2: restore into a fresh machine and finish with the *remaining* budget,
  // so the split run retires instructions at the same budget boundaries as the
  // uninterrupted one.
  const std::unique_ptr<Machine> second = MakeCosimMachine(program, config);
  if (!second->RestoreSnapshot(snapshot)) {
    out.build_error = "snapshot restore failed";
    return out;
  }
  InstallTrapObserver(*second, &out);
  if (!second->finisher().finished() && progress.retired < budget &&
      progress.rounds < round_cap) {
    second->RunUntilFinished(budget - progress.retired, round_cap - progress.rounds,
                             nullptr);
  }

  CollectOutcome(*second, &out);
  return out;
}

TracedRunResult RunProgramTraced(const CosimProgram& program,
                                 const LockstepConfig& record_config,
                                 const LockstepConfig& replay_config,
                                 uint64_t trace_at) {
  TracedRunResult res;
  const Result<Image> image = BuildCosimImage(program);
  if (!image.ok()) {
    res.error = image.error();
    return res;
  }

  const uint64_t budget = program.opts.budget;
  const uint64_t round_cap = 4 * budget;

  // Phase 1 (unrecorded): run to the anchor point, as the fuzzer would have before
  // a failure appeared.
  const std::unique_ptr<Machine> rec = MakeCosimMachine(program, record_config);
  rec->LoadImage(image.value().base, image.value().bytes);
  InstallTrapObserver(*rec, &res.outcome);
  Machine::RunProgress progress;
  rec->RunUntilFinished(std::min(trace_at, budget), round_cap, &progress);

  // Anchor: snapshot first, then start recording — the trace's anchor coordinate is
  // the snapshot's saved progress, which is what ReplayFrom checks.
  rec->SaveSnapshot(res.anchor);
  if (!rec->StartRecording("", /*hash_period_rounds=*/64)) {
    res.error = "StartRecording failed";
    return res;
  }

  // Inputs only the trace can reproduce. The UART bytes sit in the receive FIFO
  // (generated programs never read it) and the PLIC edge lands on a priority-0 —
  // i.e. masked — source: both are invisible to the compared outcome but present in
  // the hashed device state, so a replay that loses either diverges.
  rec->InjectUartInput("rr");
  rec->InjectPlicLine(31, true);

  uint64_t spent_retired = progress.retired;
  uint64_t spent_rounds = progress.rounds;
  if (!rec->finisher().finished() && spent_retired < budget && spent_rounds < round_cap) {
    // Split the remainder into two run calls with a snapshot point and more inputs
    // between them, so the trace carries events at a mid-run coordinate too. Both
    // budgets are halved — an idling program burns rounds, not instructions, and
    // must still leave room for the second run.
    Machine::RunProgress second;
    rec->RunUntilFinished((budget - spent_retired + 1) / 2,
                          (round_cap - spent_rounds + 1) / 2, &second);
    spent_retired += second.retired;
    spent_rounds += second.rounds;
    {
      Snapshot mid;  // the CoW freeze must replay at the identical coordinate
      rec->SaveSnapshot(mid);
    }
    rec->InjectUartInput("x");
    rec->InjectPlicLine(31, false);
    if (!rec->finisher().finished() && spent_retired < budget &&
        spent_rounds < round_cap) {
      rec->RunUntilFinished(budget - spent_retired, round_cap - spent_rounds, nullptr);
    }
  }
  rec->StopRecording(&res.trace);
  CollectOutcome(*rec, &res.outcome);

  // Replay on a fresh machine. The config fingerprint deliberately excludes tuning,
  // so a cross-tuning replay is legal — that is how a schedule divergence between
  // two tunings gets localized to its first differing coordinate.
  const std::unique_ptr<Machine> rep = MakeCosimMachine(program, replay_config);
  res.replay = rep->ReplayFrom(res.anchor, res.trace);
  res.replay_pooled_quanta = rep->pooled_quanta();
  return res;
}

void SetForkPoolEnabled(bool enabled) {
  g_fork_pool_enabled = enabled;
  if (!enabled) {
    ForkPool().Clear();
  }
}

std::string CompareOutcomes(const RunOutcome& a, const RunOutcome& b) {
  if (a.finished != b.finished) {
    return std::string("finished: ") + (a.finished ? "yes" : "no") + " vs " +
           (b.finished ? "yes" : "no");
  }
  if (a.exit_code != b.exit_code) {
    return "exit_code: " + Hex(a.exit_code) + " vs " + Hex(b.exit_code);
  }
  if (a.uart != b.uart) {
    return "uart output: \"" + a.uart + "\" vs \"" + b.uart + "\"";
  }
  if (a.total_traps != b.total_traps) {
    return "total traps: " + std::to_string(a.total_traps) + " vs " +
           std::to_string(b.total_traps);
  }
  if (a.traps.size() != b.traps.size()) {
    return "trap trace length: " + std::to_string(a.traps.size()) + " vs " +
           std::to_string(b.traps.size());
  }
  for (size_t i = 0; i < a.traps.size(); ++i) {
    if (!(a.traps[i] == b.traps[i])) {
      return "trap[" + std::to_string(i) + "]: hart" + std::to_string(a.traps[i].hart) +
             " cause " + Hex(a.traps[i].cause) + " pc " + Hex(a.traps[i].pc) + " @instret " +
             std::to_string(a.traps[i].instret) + "/cycles " + std::to_string(a.traps[i].cycles) +
             " vs hart" + std::to_string(b.traps[i].hart) + " cause " + Hex(b.traps[i].cause) +
             " pc " + Hex(b.traps[i].pc) + " @instret " + std::to_string(b.traps[i].instret) +
             "/cycles " + std::to_string(b.traps[i].cycles);
    }
  }
  const std::string harts = CompareHarts(a.harts, b.harts);
  if (!harts.empty()) {
    return harts;
  }
  if (a.ram_hash != b.ram_hash) {
    return "ram hash: " + Hex(a.ram_hash) + " vs " + Hex(b.ram_hash);
  }
  return {};
}

CheckResult CheckProgram(const CosimProgram& program) {
  const std::vector<LockstepConfig>& configs = LockstepConfigs();
  const RunOutcome baseline = RunProgram(program, configs[0], /*with_refmodel=*/true);
  if (!baseline.build_error.empty()) {
    return {false, "build: " + baseline.build_error};
  }
  if (!baseline.ref_divergence.empty()) {
    return {false, "refmodel: " + baseline.ref_divergence};
  }
  // Every configuration, multi-hart programs included, must reproduce the baseline:
  // every run call drives the one run loop, so the quantum schedule of a multi-hart
  // program may depend on neither the decode-cache/TLB/superblock tuning nor the
  // worker pool.
  for (size_t i = 1; i < configs.size(); ++i) {
    const RunOutcome alt = RunProgram(program, configs[i], /*with_refmodel=*/false);
    if (!alt.build_error.empty()) {
      return {false, "build: " + alt.build_error};
    }
    const std::string diff = CompareOutcomes(baseline, alt);
    if (!diff.empty()) {
      return {false, std::string(configs[i].name) + " vs " + configs[0].name + ": " + diff};
    }
  }
  // The snapshot leg: every configuration's split run (save at snapshot_at retired
  // instructions, restore into a fresh machine, finish there) must reproduce the
  // uninterrupted outcome bit for bit, and must stop phase 1 where the first
  // configuration does: a budget is a batch boundary, which the end state cannot
  // show, so a batch that runs past its budget is visible only there.
  if (program.opts.snapshot_at != 0) {
    std::vector<HartSnapshot> first_stop;
    for (const LockstepConfig& config : configs) {
      const RunOutcome split =
          RunProgramSplit(program, config, program.opts.snapshot_at);
      if (!split.build_error.empty()) {
        return {false, std::string(config.name) + " snapshot: " + split.build_error};
      }
      if (&config == &configs[0]) {
        first_stop = split.phase1_harts;
      } else if (const std::string stop = CompareHarts(first_stop, split.phase1_harts);
                 !stop.empty()) {
        return {false, std::string(config.name) + " vs " + configs[0].name +
                           " snapshot stop point: " + stop};
      }
      const RunOutcome whole = RunProgram(program, config, /*with_refmodel=*/false);
      const std::string diff = CompareOutcomes(whole, split);
      if (!diff.empty()) {
        return {false, std::string(config.name) + " snapshot round-trip: " + diff};
      }
    }
  }
  // The record/replay leg: recording the back half of the run (with injected inputs)
  // and replaying it from the anchor snapshot on a fresh machine of the same tuning
  // must be divergence-free on every configuration. On multi-hart programs a
  // cross-tuning leg records on the serial quantum schedule ("superblock") and
  // replays on the parallel engine — the two are bit-identical by §2i, so the
  // replay verifier passing here is exactly that property restated through the
  // trace.
  if (program.opts.trace_at != 0) {
    for (const LockstepConfig& config : configs) {
      const TracedRunResult traced =
          RunProgramTraced(program, config, config, program.opts.trace_at);
      if (!traced.error.empty()) {
        return {false, std::string(config.name) + " trace: " + traced.error};
      }
      if (!traced.replay.ok) {
        return {false, std::string(config.name) +
                           " trace replay: " + DescribeReplay(traced.replay)};
      }
    }
    if (program.opts.harts > 1) {
      const LockstepConfig* serial = FindLockstepConfig("superblock");
      const LockstepConfig* parallel = FindLockstepConfig("parallel");
      if (serial != nullptr && parallel != nullptr) {
        const TracedRunResult cross =
            RunProgramTraced(program, *serial, *parallel, program.opts.trace_at);
        if (!cross.error.empty()) {
          return {false, "superblock->parallel trace: " + cross.error};
        }
        if (!cross.replay.ok) {
          return {false,
                  "superblock->parallel trace replay: " + DescribeReplay(cross.replay)};
        }
      }
    }
  }
  return {};
}

CosimProgram ShrinkProgram(const CosimProgram& program,
                           const std::function<bool(const CosimProgram&)>& still_fails,
                           unsigned max_runs) {
  CosimProgram current = program;
  unsigned runs = 0;
  size_t chunk = (current.keep.size() + 1) / 2;
  while (chunk >= 1 && runs < max_runs && current.keep.size() > 1) {
    bool removed_any = false;
    size_t start = 0;
    while (start < current.keep.size() && runs < max_runs) {
      CosimProgram trial = current;
      const size_t end = std::min(start + chunk, trial.keep.size());
      trial.keep.erase(trial.keep.begin() + static_cast<long>(start),
                       trial.keep.begin() + static_cast<long>(end));
      if (trial.keep.empty()) {
        break;  // never try the empty program
      }
      ++runs;
      if (still_fails(trial)) {
        current = std::move(trial);
        removed_any = true;  // retry the same position, which now holds new actions
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) {
        break;  // 1-minimal: no single action can be removed
      }
    } else {
      chunk = (chunk + 1) / 2;
      if (chunk > current.keep.size()) {
        chunk = current.keep.size();
      }
    }
  }
  return current;
}

}  // namespace vfm
