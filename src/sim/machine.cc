#include "src/sim/machine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/common/state.h"

namespace vfm {

bool Finisher::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  (void)offset;
  (void)size;
  *value = 0;
  return true;
}

bool Finisher::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  if (offset != 0 || (size != 4 && size != 8)) {
    return false;
  }
  const uint32_t code = static_cast<uint32_t>(value & 0xFFFF);
  if (code == kFinishPass || code == kFinishFail) {
    finished_ = true;
    exit_code_ = static_cast<uint32_t>(value >> 16);
    if (code == kFinishFail) {
      exit_code_ = exit_code_ == 0 ? 1 : exit_code_;
    }
  }
  return true;
}

namespace {

// Why `config` cannot be built into a running machine, or "" if it can: at least
// one hart, the two cost-model invariants (the block executor's single budget
// compare needs every instruction to charge a cycle; the run loops divide cycles by
// the mtime tick), and a memory map with non-empty RAM whose regions are pairwise
// disjoint (silent aliasing would route accesses to whichever window registered
// first). The Machine constructor aborts on these; ReadMachineConfig rejects them.
std::string ConfigError(const MachineConfig& config) {
  if (config.hart_count == 0) {
    return "hart_count is 0";
  }
  if (config.cost.instr_base == 0) {
    return "cost.instr_base is 0 (every instruction must charge a cycle)";
  }
  if (config.cost.mtime_tick_cycles == 0) {
    return "cost.mtime_tick_cycles is 0";
  }
  if (config.map.ram_size == 0) {
    return "map.ram_size is 0";
  }
  struct Region {
    const char* name;
    uint64_t base;
    uint64_t size;
  };
  Region regions[6];
  unsigned count = 0;
  regions[count++] = {"ram", config.map.ram_base, config.map.ram_size};
  regions[count++] = {"clint", config.map.clint_base, Clint::kSize};
  regions[count++] = {"plic", config.map.plic_base, Plic::kSize};
  regions[count++] = {"uart", config.map.uart_base, Uart::kSize};
  regions[count++] = {"finisher", config.map.finisher_base, Finisher::kSize};
  if (config.blockdev.enabled) {
    regions[count++] = {"blockdev", config.map.blockdev_base, BlockDev::kSize};
  }
  for (unsigned i = 0; i < count; ++i) {
    for (unsigned j = i + 1; j < count; ++j) {
      const bool overlap = regions[i].base < regions[j].base + regions[j].size &&
                           regions[j].base < regions[i].base + regions[i].size;
      if (overlap) {
        char message[160];
        std::snprintf(message, sizeof message,
                      "memory map regions overlap: %s [0x%" PRIx64 ", 0x%" PRIx64
                      ") and %s [0x%" PRIx64 ", 0x%" PRIx64 ")",
                      regions[i].name, regions[i].base, regions[i].base + regions[i].size,
                      regions[j].name, regions[j].base, regions[j].base + regions[j].size);
        return message;
      }
    }
  }
  return "";
}

// The constructor's config check, run before the bus builds the RAM region.
const MachineConfig& CheckedConfig(const MachineConfig& config) {
  const std::string error = ConfigError(config);
  VFM_CHECK_MSG(error.empty(), "invalid MachineConfig: %s", error.c_str());
  return config;
}

// Why a snapshot RAM image of `image_size` bytes cannot back the RAM of a machine
// built from `map`, or "" when it can. Images arrive from files and from callers,
// so both load paths check before anything adopts one.
std::string RamImageSizeError(uint64_t image_size, const MemoryMap& map) {
  const uint64_t expected = Ram::ImageSize(map.ram_size);
  if (image_size == expected) {
    return "";
  }
  return "snapshot RAM image is " + std::to_string(image_size) +
         " bytes, but this machine's RAM maps " + std::to_string(expected);
}

// Converts the quantum-boundary cycle delta (measured on hart 0's clock) into an
// absolute stop bound on `hart`'s own clock, saturating on overflow. The delta form
// matters: hart clocks drift apart (traps charge different costs), so an absolute
// hart-0 cycle target could pin a drifted hart to one-instruction segments forever.
uint64_t SegmentStopCycles(const Hart& hart, uint64_t stop_delta) {
  if (stop_delta == ~uint64_t{0}) {
    return ~uint64_t{0};
  }
  const uint64_t now = hart.cycles();
  const uint64_t stop = now + stop_delta;
  return stop >= now ? stop : ~uint64_t{0};
}

// Folds one word into an FNV-1a hash, the rolling hash behind the replay
// verifier's checkpoints. Not cryptographic — it only needs to make two diverged
// states hash differently with overwhelming probability, cheaply.
uint64_t FnvU64(uint64_t value, uint64_t h) { return Fnv1a64(&value, sizeof value, h); }

// Hashes everything `part` saves in a snapshot, so a checkpoint sees any state that a
// restore would carry.
template <typename Part>
uint64_t HashSavedState(const Part& part) {
  StateWriter writer;
  part.SaveState(writer);
  return Fnv1a64(writer.bytes().data(), writer.bytes().size());
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string CoordString(uint64_t retired, uint64_t round) {
  return "(retired " + std::to_string(retired) + ", round " + std::to_string(round) + ")";
}

// The simulated-behaviour-relevant configuration, in wire order: what a snapshot or
// a trace must match to load. Host tuning is left out on purpose: restoring onto a
// differently tuned machine is exactly the cosim matrix's job. `Config` may be const.
template <typename Io, typename Config>
void VisitFingerprintFields(Io& io, Config& config) {
  io.U32(config.hart_count);
  io.U64(config.map.ram_base);
  io.U64(config.map.ram_size);
  io.U64(config.map.clint_base);
  io.U64(config.map.plic_base);
  io.U64(config.map.uart_base);
  io.U64(config.map.blockdev_base);
  io.U64(config.map.finisher_base);
  io.Bool(config.blockdev.enabled);
  io.U64(config.blockdev.sectors);
  io.U32(config.isa.pmp_entries);
  io.Bool(config.isa.has_time_csr);
  io.Bool(config.isa.has_sstc);
  io.Bool(config.isa.has_h_ext);
  io.Bool(config.isa.has_custom_csrs);
  io.Bool(config.isa.hw_misaligned);
}

std::vector<uint8_t> FingerprintBytes(const MachineConfig& config) {
  StateWriter writer;
  VisitFingerprintFields(writer, config);
  return writer.Take();
}

// The fingerprint that snapshot restore and trace replay share: written from
// `config`, or read and required to match it, rejected with a message naming `what`
// ("snapshot", "trace").
template <typename Io>
void VisitFingerprint(Io& io, const MachineConfig& config, const char* what) {
  if constexpr (Io::kLoading) {
    MachineConfig recorded = config;
    VisitFingerprintFields(io, recorded);
    io.Require(FingerprintBytes(recorded) == FingerprintBytes(config), [what] {
      return std::string(what) + " fingerprint does not match this machine's configuration";
    });
  } else {
    VisitFingerprintFields(io, config);
  }
}

// MACH section version. Version 2 added machine-lifetime progress, version 3 the
// horizon hold (Machine::HoldTickHorizon).
constexpr uint32_t kMachineStateVersion = 3;

// MCFG section version. Version 2 dropped three SimTuning fields (tlb_enabled,
// threaded_enabled, threaded_promote_threshold), version 3 dropped quantum_harts;
// files of an older version are rejected rather than misread.
constexpr uint32_t kMachineConfigVersion = 3;

// The whole MachineConfig: the fingerprint, then the rest of the ISA, the block
// device's timing, the cost model and the host tuning.
template <typename Io, typename Config>
void VisitMachineConfig(Io& io, Config& config) {
  io.BeginSection(StateTag("MCFG"), kMachineConfigVersion, "machine config", "snapshot");
  VisitFingerprintFields(io, config);
  io.U64(config.isa.mvendorid);
  io.U64(config.isa.marchid);
  io.U64(config.isa.mimpid);
  io.U64(config.blockdev.latency_ticks);
  io.U64(config.blockdev.ticks_per_sector);
  io.U64(config.cost.instr_base);
  io.U64(config.cost.instr_muldiv);
  io.U64(config.cost.instr_mem);
  io.U64(config.cost.trap_entry);
  io.U64(config.cost.page_walk_level);
  io.U64(config.cost.hal_csr_access);
  io.U64(config.cost.monitor_dispatch);
  io.U64(config.cost.hal_mem_access);
  io.U64(config.cost.hal_base_op);
  io.U64(config.cost.tlb_flush);
  io.U64(config.cost.mtime_tick_cycles);
  io.U64(config.cost.freq_mhz);
  io.U32(config.tuning.decode_cache_entries);
  io.U32(config.tuning.max_batch_instructions);
  io.U32(config.tuning.tlb_entries);
  io.U32(config.tuning.superblock_entries);
  io.Bool(config.tuning.parallel_harts);
  io.EndSection();
}

}  // namespace

void WriteMachineConfig(StateWriter& writer, const MachineConfig& config) {
  VisitMachineConfig(writer, config);
}

bool ReadMachineConfig(StateReader& reader, MachineConfig* config) {
  MachineConfig c;
  VisitMachineConfig(reader, c);
  if (reader.ok()) {
    const std::string error = ConfigError(c);
    if (!error.empty()) {
      reader.Fail("machine config: " + error);
    }
  }
  if (!reader.ok()) {
    return false;
  }
  if (config != nullptr) {
    *config = c;
  }
  return true;
}

Machine::Machine(const MachineConfig& config)
    : config_(CheckedConfig(config)), bus_(config_.map.ram_base, config_.map.ram_size) {
  clint_ = std::make_unique<Clint>(config_.hart_count);
  bus_.AddMmio(config_.map.clint_base, Clint::kSize, clint_.get());

  plic_ = std::make_unique<Plic>(config_.hart_count);
  bus_.AddMmio(config_.map.plic_base, Plic::kSize, plic_.get());

  uart_ = std::make_unique<Uart>();
  bus_.AddMmio(config_.map.uart_base, Uart::kSize, uart_.get());

  finisher_ = std::make_unique<Finisher>();
  bus_.AddMmio(config_.map.finisher_base, Finisher::kSize, finisher_.get());

  if (config_.blockdev.enabled) {
    blockdev_ = std::make_unique<BlockDev>(&bus_, plic_.get(), /*plic_source=*/2,
                                           config_.blockdev.sectors,
                                           config_.blockdev.latency_ticks,
                                           config_.blockdev.ticks_per_sector);
    bus_.AddMmio(config_.map.blockdev_base, BlockDev::kSize, blockdev_.get());
  }

  for (unsigned i = 0; i < config_.hart_count; ++i) {
    harts_.push_back(std::make_unique<Hart>(i, &bus_, config_.isa, &config_.cost, config_.tuning));
    Clint* clint = clint_.get();
    harts_.back()->csrs().set_time_source([clint] { return clint->SyncedTime(); });
    harts_.back()->set_pc(config_.map.ram_base);
  }
  segment_stops_.resize(config_.hart_count);
  segment_results_.resize(config_.hart_count);
  // A single hart batches instructions and defers the mtime push to batch
  // boundaries; the CLINT's tick source lets mid-batch mtime reads (MMIO and the
  // time CSR) observe the exact per-instruction value anyway. Cycles are always
  // spilled before a load/store or CSR read executes, so the division here sees
  // precisely the per-instruction mcycle. Multi-hart machines keep the plain stored
  // counter, pushed at quantum barriers: every hart of a segment reads the same
  // frozen timebase (DESIGN.md §2i). They also arm the barrier-ordering asserts
  // (Clint pending lines, Bus MMIO dispatch): any such access while segments are in
  // flight is a scheduling bug, not a tolerable reordering.
  if (config_.hart_count == 1) {
    Hart* hart0 = harts_[0].get();
    const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
    clint_->set_tick_source([hart0, tick_cycles] { return hart0->cycles() / tick_cycles; });
  } else {
    bus_.SetMmioBarrierGate(&segment_in_flight_);
    clint_->SetBarrierGate(&segment_in_flight_);
  }
}

Machine::~Machine() {
  if (pool_ != nullptr) {
    pool_->shutdown = true;
    pool_->epoch.fetch_add(1, std::memory_order_release);
    pool_->epoch.notify_all();
    for (std::thread& thread : pool_->threads) {
      thread.join();
    }
  }
}

namespace {

// How long a side of the worker pool's handoff spins on the other's word before it
// parks. A pooled segment of 4096 instructions takes about 12 us on a 4-vCPU x86-64
// VM, so inside a run of pooled quanta the other side arrives within a segment or
// two, and a bound of a few segments' time keeps every such handoff out of the
// kernel; a worker that inline quanta or the end of a run call leave idle gives its
// core back after this long. A time rather than an iteration count, because a
// relax hint's cost differs several-fold across x86 parts.
constexpr std::chrono::microseconds kSpinBeforePark{50};

// Tells the core that it is in a spin-wait loop.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

// Returns the first value of `word` (read with acquire loads) for which `ready`
// holds, spinning for kSpinBeforePark and then parking on the word until it changes.
template <typename Ready>
uint32_t AwaitWord(const std::atomic<uint32_t>& word, Ready ready) {
  const auto park_at = std::chrono::steady_clock::now() + kSpinBeforePark;
  uint32_t value;
  while (!ready(value = word.load(std::memory_order_acquire))) {
    if (std::chrono::steady_clock::now() < park_at) {
      CpuRelax();
    } else {
      word.wait(value, std::memory_order_acquire);
    }
  }
  return value;
}

}  // namespace

void Machine::EnsurePool() {
  if (pool_ != nullptr) {
    return;
  }
  pool_ = std::make_unique<WorkerPool>();
  for (unsigned i = 1; i < hart_count(); ++i) {
    pool_->threads.emplace_back([this, i] { WorkerMain(i); });
  }
}

void Machine::WorkerMain(unsigned hart_index) {
  WorkerPool& pool = *pool_;
  const uint32_t workers = hart_count() - 1;
  uint32_t seen_epoch = 0;
  while (true) {
    seen_epoch =
        AwaitWord(pool.epoch, [seen_epoch](uint32_t epoch) { return epoch != seen_epoch; });
    if (pool.shutdown) {
      return;
    }
    // The segment itself: this hart's private execution. Everything it shares with
    // other segments is read-only for the duration (RAM, devices, mtime), except the
    // bus's dependency page marks, which are monotonic relaxed-atomic set-bits.
    Hart& hart = *harts_[hart_index];
    new (&segment_results_[hart_index])
        Hart::BatchResult(hart.RunBatch(pool.batch, segment_stops_[hart_index]));
    if (pool.done.fetch_add(1, std::memory_order_release) + 1 == workers) {
      pool.done.notify_one();
    }
  }
}

// Recording state: the open trace plus the high-water marks the barrier hook
// compares against. Owned by the Machine between StartRecording and StopRecording.
struct Machine::Recorder {
  TraceWriter writer;
  std::string path;
  uint64_t hash_period = 1;
  uint64_t last_hash_rounds = 0;
  uint64_t last_blockdev_completions = 0;
};

// Replay state: the parsed event list and a cursor into it, plus the result being
// filled in. Lives on ReplayFrom's stack; `replay_` points at it so the barrier
// hook can consume checkpoints while the replayed runs execute.
struct Machine::ReplayCursor {
  const std::vector<TraceEvent>* events = nullptr;
  size_t next = 0;
  ReplayResult* result = nullptr;
};

bool Machine::LoadImage(uint64_t addr, const std::vector<uint8_t>& image) {
  const bool ok = bus_.WriteBytes(addr, image.data(), image.size());
  if (ok && recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kLoadImage;
    event.a = addr;
    event.payload = image;
    RecordEvent(std::move(event));
  }
  return ok;
}

void Machine::RefreshInterruptLines() {
  // Writing a line is idempotent but not free (mask, merge); on the hot path almost
  // every round leaves every line unchanged, so compare against the CSR file's true
  // line state and touch only lines whose level actually flipped.
  for (unsigned i = 0; i < hart_count(); ++i) {
    CsrFile& csrs = harts_[i]->csrs();
    const bool mtip = clint_->MtipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kMachineTimer) != mtip) {
      csrs.SetInterruptLine(InterruptCause::kMachineTimer, mtip);
    }
    const bool msip = clint_->MsipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kMachineSoftware) != msip) {
      csrs.SetInterruptLine(InterruptCause::kMachineSoftware, msip);
    }
    const bool seip = plic_->SeipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kSupervisorExternal) != seip) {
      csrs.SetInterruptLine(InterruptCause::kSupervisorExternal, seip);
    }
  }
}

bool Machine::IdleParked() {
  // Any enabled pending interrupt wakes its hart on the very next tick, so only a
  // machine where every hart is parked with nothing pending counts as idle.
  RefreshInterruptLines();
  for (const auto& hart : harts_) {
    if (!hart->waiting() || (hart->csrs().EffectiveMip() & hart->csrs().mie()) != 0) {
      return false;
    }
  }
  return true;
}

bool Machine::NextDeadline(uint64_t* wake_tick) const {
  // Earliest future event that can change interrupt state, in mtime ticks. While all
  // harts are parked only the timer comparators and the block device move on their
  // own; everything else needs an instruction to execute. Candidates are conservative
  // — a comparator counts even if its interrupt is masked or (for Sstc) the STCE
  // enable is off. Waking early just re-parks and fast-forwards again; it never
  // skips an event.
  const uint64_t mtime = clint_->mtime();
  uint64_t wake = 0;
  bool have_wake = false;
  const auto consider = [&](uint64_t tick) {
    if (tick > mtime && (!have_wake || tick < wake)) {
      wake = tick;
      have_wake = true;
    }
  };
  for (unsigned i = 0; i < hart_count(); ++i) {
    consider(clint_->mtimecmp(i));
    if (config_.isa.has_sstc) {
      consider(harts_[i]->csrs().stimecmp());
    }
  }
  if (blockdev_ && blockdev_->busy()) {
    consider(blockdev_->deadline());
  }
  if (have_wake && wake_tick != nullptr) {
    *wake_tick = wake;
  }
  return have_wake;
}

uint64_t Machine::FastForwardIdle(uint64_t max_rounds) {
  if (max_rounds == 0 || !IdleParked()) {
    return 0;
  }
  uint64_t wake_tick = 0;
  const bool have_wake = NextDeadline(&wake_tick);
  // A parked round charges exactly one cycle per hart, and mtime reaches wake_tick on
  // the round where hart 0's clock reaches wake_tick * mtime_tick_cycles — jump every
  // clock exactly there. With no candidate nothing will ever wake the machine, so
  // burn the caller's whole round budget at once.
  uint64_t skip = max_rounds;
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  if (have_wake && wake_tick <= ~uint64_t{0} / tick_cycles) {
    const uint64_t wake_cycles = wake_tick * tick_cycles;
    const uint64_t now = harts_[0]->cycles();
    if (wake_cycles <= now) {
      return 0;  // software moved the timebase around; fall back to normal rounds
    }
    skip = wake_cycles - now < max_rounds ? wake_cycles - now : max_rounds;
  }
  for (auto& hart : harts_) {
    hart->csrs().AddCycles(skip);
  }
  const uint64_t now = harts_[0]->cycles();
  const uint64_t ticks_due = now / tick_cycles;
  if (ticks_due > clint_->mtime()) {
    clint_->set_mtime(ticks_due);
  }
  if (blockdev_) {
    blockdev_->Tick(clint_->mtime());
  }
  lifetime_rounds_ += skip;
  return skip;
}

uint64_t Machine::FastForwardIdleTo(uint64_t target_tick) {
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  // The jump advances the machine-lifetime round coordinate, so a recording must
  // carry it as a run event for replay to land on the same coordinates.
  const bool traced =
      BeginTracedRun(TraceRunKind::kFastForwardIdleTo, target_tick, 0);
  uint64_t skipped = 0;
  const uint64_t now = harts_[0]->cycles();
  const uint64_t target_cycles = target_tick > ~uint64_t{0} / tick_cycles
                                     ? ~uint64_t{0}
                                     : target_tick * tick_cycles;
  if (target_cycles > now) {
    // FastForwardIdle jumps to min(own wake edge, cap), which is exactly the
    // "target or earlier wake, whichever first" contract.
    skipped = FastForwardIdle(target_cycles - now);
    TraceBarrier();
  }
  if (traced) {
    EndTracedRun();
  }
  return skipped;
}

uint64_t Machine::StepAll() {
  // A one-round slice: the round cap ends the loop after one barrier, before any
  // idle stop or fast-forward, and a slice reports no budget warning.
  RunProgress progress;
  RunLoop(TraceRunKind::kStepAll, /*max_instructions=*/1, /*max_rounds=*/1,
          /*batch_cap=*/1, nullptr, /*slice=*/true, &progress);
  return progress.retired;
}

bool Machine::RunUntilFinished(uint64_t max_instructions) {
  return RunUntilFinished(max_instructions, 4 * max_instructions, nullptr);
}

bool Machine::RunUntilFinished(uint64_t max_instructions, uint64_t max_rounds,
                               RunProgress* progress) {
  return RunLoop(TraceRunKind::kRunUntilFinished, max_instructions, max_rounds,
                 config_.tuning.max_batch_instructions, nullptr, /*slice=*/false,
                 progress) == RunStop::kFinished;
}

bool Machine::RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions) {
  return RunUntil(predicate, max_instructions, 4 * max_instructions, nullptr);
}

bool Machine::RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions,
                       uint64_t max_rounds, RunProgress* progress) {
  return RunLoop(TraceRunKind::kRunUntil, max_instructions, max_rounds, 1, &predicate,
                 /*slice=*/false, progress) != RunStop::kBudget;
}

Machine::SliceResult Machine::RunSlice(uint64_t max_instructions, uint64_t max_rounds) {
  if (max_rounds == 0) {
    max_rounds = max_instructions > ~uint64_t{0} / 4 ? ~uint64_t{0}
                                                     : 4 * max_instructions;
  }
  RunProgress progress;
  const RunStop stop =
      RunLoop(TraceRunKind::kRunSlice, max_instructions, max_rounds,
              config_.tuning.max_batch_instructions, nullptr, /*slice=*/true, &progress);
  SliceResult result;
  result.retired = progress.retired;
  result.rounds = progress.rounds;
  result.finished = stop == RunStop::kFinished;
  result.idle = stop == RunStop::kIdle;
  return result;
}

Machine::RunStop Machine::RunLoop(TraceRunKind kind, uint64_t max_instructions,
                                  uint64_t max_rounds, uint64_t batch_cap,
                                  const std::function<bool()>* predicate, bool slice,
                                  RunProgress* progress) {
  const bool traced = BeginTracedRun(kind, max_instructions, max_rounds);
  // Superblock host-pointer stores bypass Bus::Write, so any run may dirty RAM
  // behind the bus's back; mark conservatively for the CoW freeze reuse.
  bus_.ram().SetMaybeDirty();
  const RunStop stop =
      hart_count() > 1
          ? RunBarriers<true>(max_instructions, max_rounds, batch_cap, predicate, slice,
                              progress)
          : RunBarriers<false>(max_instructions, max_rounds, batch_cap, predicate, slice,
                               progress);
  if (traced) {
    EndTracedRun();
  }
  return stop;
}

template <bool kMulti>
Machine::RunStop Machine::RunBarriers(uint64_t max_instructions, uint64_t max_rounds,
                                      uint64_t batch_cap,
                                      const std::function<bool()>* predicate, bool slice,
                                      RunProgress* progress) {
  // Segments, store buffers, barrier continuations and idle parity isolate harts
  // from each other; a lone hart needs none of them, and its copy of the loop
  // compiles them away.
  const unsigned count = kMulti ? hart_count() : 1;
  const bool may_pool = kMulti && config_.tuning.parallel_harts;
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  const uint64_t max_tick = ~uint64_t{0} / tick_cycles;  // tick * tick_cycles fits
  // Per-hart segment bounds and results; the worker pool reads and writes the
  // members, a lone hart keeps its own on the stack.
  uint64_t own_stop = 0;
  Hart::BatchResult own_result;
  uint64_t* const stops = kMulti ? segment_stops_.data() : &own_stop;
  Hart::BatchResult* const results = kMulti ? segment_results_.data() : &own_result;
  const auto deliver_trap = [this](Hart& hart, const StepResult& result) {
    if (result.trapped) {
      if (trap_observer_) {
        trap_observer_(hart, result);
      }
      if (result.entered_mmode && owner_ != nullptr) {
        owner_->OnMachineTrap(hart);
      }
    }
  };
  uint64_t retired = 0;
  uint64_t rounds = 0;
  RunStop stop = RunStop::kFinished;
  while (!finisher_->finished()) {
    if (predicate != nullptr && (*predicate)()) {
      stop = RunStop::kPredicate;
      break;
    }
    RefreshInterruptLines();
    // Batch size: the cap, clamped so the batch cannot overshoot the round bound (a
    // batch tick is one round). The round clamp is consistent across a split run:
    // both legs inherit the remaining allowance, so at the same barrier they compute
    // the same bound. One hart also clamps to the instruction budget: its batch
    // boundaries are invisible, so RunUntilFinished(B) stops at exactly B. Quantum
    // boundaries are guest-visible schedule points and must be a function of
    // architectural state alone — a budget clamp would give a split run
    // (RunProgramSplit: smaller phase-1 budget) different boundaries than the
    // uninterrupted run — so several harts stop at the first barrier at or past the
    // budget instead, identically in both legs, overshooting by at most one segment
    // per hart.
    uint64_t n = batch_cap < max_rounds - rounds ? batch_cap : max_rounds - rounds;
    if (!kMulti && max_instructions - retired < n) {
      n = max_instructions - retired;
    }
    // A busy block device may complete on any mtime tick, so it serializes to
    // one-instruction batches until it goes idle. A zero budget still runs one.
    const bool blockdev_busy = blockdev_ != nullptr && blockdev_->busy();
    if (n == 0 || blockdev_busy) {
      n = 1;
    }
    // Horizon. A timebase tick is only architecturally observable through (a) an
    // mtime read — single-hart MMIO and time-CSR reads, and every read the M-mode
    // owner makes, are live-synced from hart 0's clock (Clint::SyncedTime), and a
    // multi-hart MMIO read is a sync event that ends the segment — and (b) the MTIP
    // edge at a hart's mtimecmp, where the batch must stop so the interrupt is
    // sampled on the same instruction boundary as per-instruction stepping. A
    // monitor keeps the physical mtimecmp at its earliest deadline, so its timers
    // are such edges too. So the horizon runs to the earliest future comparator
    // edge, not to the next tick. Cases that reintroduce per-tick observers keep
    // the one-tick horizon: Sstc (stimecmp comparators fire on ticks outside the
    // CLINT), a busy block device (its completion deadline is an mtime tick;
    // n == 1 above already serializes it), and, on several harts, a hold the M-mode
    // owner set (HoldTickHorizon): a monitor holds while a cross-hart exchange is
    // live, so that an IPI or a remote fence it forwards reaches its target within a
    // tick instead of a whole quantum. With every comparator in the past there is no
    // future edge — the next one needs an mtimecmp write, which ends the batch — so
    // the horizon is unbounded and the batch cap alone sizes the batch. This keeps
    // barrier costs amortized over thousands of instructions instead of one
    // ~hundred-cycle timer tick.
    uint64_t horizon = (clint_->mtime() + 1) * tick_cycles;
    if ((!kMulti || clint_->mtime() >= hold_tick_) && !config_.isa.has_sstc &&
        !blockdev_busy) {
      horizon = ~uint64_t{0};
      for (unsigned i = 0; i < count; ++i) {
        const uint64_t cmp = clint_->mtimecmp(i);
        if (cmp > clint_->mtime()) {
          const uint64_t edge = cmp > max_tick ? ~uint64_t{0} : cmp * tick_cycles;
          horizon = edge < horizon ? edge : horizon;
        }
      }
    }
    // The horizon as a cycle delta on hart 0's clock (see SegmentStopCycles for why
    // a delta), fixed here at the serial point because barrier continuations need
    // the same bound the segment ran under. A horizon already passed still runs one
    // instruction, as any batch does.
    const uint64_t now0 = harts_[0]->cycles();
    const uint64_t stop_delta =
        horizon == ~uint64_t{0} ? horizon : horizon > now0 ? horizon - now0 : 1;
    for (unsigned i = 0; i < count; ++i) {
      stops[i] = SegmentStopCycles(*harts_[i], stop_delta);
    }
    // -- Segments: private per-hart execution, serial in hart order or on the pool;
    // bit-identical either way because segments only read frozen shared state. Every
    // instruction charges at least one cycle, so no segment runs past
    // min(n, stop_delta) instructions. Only a bound of kMinPooledSegment or more pays
    // for the pool's thread handoff; shorter quanta (the one-tick horizon of a hold,
    // Sstc or a busy block device, a near timer edge, per-instruction
    // RunUntil/StepAll) run in hart order here. A monitored machine outside its
    // holds batches like a native one, so its long quanta reach the pool too.
    const bool parallel =
        may_pool && (n < stop_delta ? n : stop_delta) >= kMinPooledSegment;
    if constexpr (kMulti) {
      for (auto& hart : harts_) {
        hart->BeginSegment();
      }
      segment_in_flight_ = true;
    }
    if (parallel) {
      EnsurePool();
      ++pooled_quanta_;
      pool_->batch = n;
      pool_->done.store(0, std::memory_order_relaxed);
      pool_->epoch.fetch_add(1, std::memory_order_release);
      pool_->epoch.notify_all();
    }
    for (unsigned i = 0; i < (parallel ? 1 : count); ++i) {
      // Constructed in place, so RunBatch writes the slot itself: copying a result
      // through a temporary reads its fields back wider than they were stored.
      new (&results[i]) Hart::BatchResult(harts_[i]->RunBatch(n, stops[i]));
    }
    if (parallel) {
      AwaitWord(pool_->done, [count](uint32_t done) { return done == count - 1; });
    }
    // -- Barrier: all cross-hart effects, in canonical hart order. -----------------
    // (a) Buffered stores flush through Bus::Write (marks and generations bump as
    //     the serial stores would have).
    if constexpr (kMulti) {
      segment_in_flight_ = false;
      for (auto& hart : harts_) {
        hart->EndSegment();
        hart->ApplySegmentStores();
      }
    }
    // (b) Batch-final traps reach the trap observer and the M-mode owner.
    for (unsigned i = 0; i < count; ++i) {
      deliver_trap(*harts_[i], results[i].last);
    }
    // (c) Harts whose segment ended early — a sync-event abort (MMIO, AMO/LR/SC,
    //     fence.i, a non-RAM page walk) or a trap — finish their quantum serially
    //     here: every other hart is quiesced at the barrier, so their cross-hart
    //     effects are globally ordered, and segment mode is off, so RunBatch runs
    //     them normally (MMIO executes, stores hit RAM directly). Without this
    //     continuation one sync event would cost its hart the rest of the quantum,
    //     starving MMIO- and trap-heavy phases (firmware boot, SBI calls) by a
    //     factor of the batch cap. Interrupt lines refresh before every
    //     continuation batch, as they do before every batch: a handler that
    //     silences its interrupt (an mtimecmp or msip store) must not take the
    //     stale line again after its mret.
    uint64_t quantum_rounds = 0;
    for (unsigned i = 0; i < count; ++i) {
      Hart& hart = *harts_[i];
      Hart::BatchResult& result = results[i];
      if (kMulti && (hart.ConsumeSyncPending() || result.last.trapped)) {
        while (result.executed < n && hart.cycles() < stops[i] &&
               !hart.waiting() && !finisher_->finished()) {
          RefreshInterruptLines();
          const Hart::BatchResult cont = hart.RunBatch(n - result.executed, stops[i]);
          result.executed += cont.executed;
          result.retired += cont.retired;
          deliver_trap(hart, cont.last);
        }
      }
      retired += result.retired;
      lifetime_retired_ += result.retired;
      quantum_rounds = result.executed > quantum_rounds ? result.executed : quantum_rounds;
    }
    // Idle parity: in per-instruction rounds a parked hart charges one cycle per
    // round, so harts that parked partway through this quantum are charged the
    // rounds they idled through. This keeps hart clocks — and mtime, which follows
    // hart 0 — advancing while some harts park, so timers held by a parked hart
    // still fire while its siblings compute. (A lone hart ran the whole quantum.)
    bool parked = true;
    for (unsigned i = 0; i < count; ++i) {
      const bool waiting = harts_[i]->waiting();
      if (waiting && results[i].executed < quantum_rounds) {
        harts_[i]->csrs().AddCycles(quantum_rounds - results[i].executed);
      }
      parked = parked && waiting;
    }
    // (d) Timebase and device ticks, from hart 0's clock. Most batches end within
    //     a tick, so the division runs only once the next tick boundary is passed.
    const uint64_t now = harts_[0]->cycles();
    const uint64_t mtime = clint_->mtime();
    if (mtime < max_tick && (mtime + 1) * tick_cycles <= now) {
      clint_->set_mtime(now / tick_cycles);
    }
    if (blockdev_) {
      blockdev_->Tick(clint_->mtime());
    }
    // A quantum advances wall-clock by its longest hart segment; count rounds so
    // the 4x round bound keeps its per-instruction meaning for the busiest hart.
    rounds += quantum_rounds;
    lifetime_rounds_ += quantum_rounds;
    // (e) A parked machine burned its round on one idle cycle; jump straight to the
    //     next wake candidate instead of taking one such round per cycle. Nothing
    //     here observes the skipped rounds, so the full jump is exact (see
    //     FastForwardIdle) — except a predicate, which may watch mtime: capped at
    //     the next tick, it still observes every timebase value it would have seen
    //     round by round. A slice instead stops at the park point and hands the
    //     fast-forward decision to the scheduler (RunSlice).
    bool idle = false;
    if (parked && rounds < max_rounds) {
      if (slice) {
        idle = IdleParked();
      } else {
        uint64_t cap = max_rounds - rounds;
        if (predicate != nullptr) {
          const uint64_t next_tick_cycles = (clint_->mtime() + 1) * tick_cycles;
          if (next_tick_cycles > now && next_tick_cycles - now < cap) {
            cap = next_tick_cycles - now;
          }
        }
        rounds += FastForwardIdle(cap);
      }
    }
    TraceBarrier();
    if (idle) {
      stop = RunStop::kIdle;
      break;
    }
    // The round bound also terminates a machine where every hart is parked in WFI.
    if (retired >= max_instructions || rounds >= max_rounds) {
      if (!slice) {
        VFM_LOG_WARN("sim", "instruction budget exhausted (%llu instructions, %s)",
                     static_cast<unsigned long long>(max_instructions),
                     parked ? "all harts idle" : "harts still running");
      }
      stop = RunStop::kBudget;
      break;
    }
  }
  if (progress != nullptr) {
    progress->retired = retired;
    progress->rounds = rounds;
  }
  return stop;
}

void Machine::SaveSnapshot(Snapshot& snapshot) {
  // A snapshot point is a replayable host action: the CoW freeze is behaviour-
  // invisible, but replay must mirror it so the RAM's freeze (a remap) happens at
  // the identical coordinate.
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kSnapshotPoint;
    RecordEvent(std::move(event));
  }
  snapshot.state.clear();
  StateWriter writer;
  VisitState(writer);
  snapshot.state = writer.Take();
  snapshot.ram = bus_.ram().Freeze();
}

template <typename Io>
void Machine::VisitState(Io& io) {
  const uint32_t version = io.BeginSection(StateTag("MACH"), kMachineStateVersion);
  // Configuration fingerprint: a snapshot only restores onto a machine whose
  // simulated-behaviour-relevant configuration matches bit for bit.
  VisitFingerprint(io, config_, "snapshot");
  // Version 2: machine-lifetime progress, the anchor for record/replay coordinates.
  // Version 3: the horizon hold, part of the quantum schedule of several harts. A
  // file of an older version loads with them zero.
  if constexpr (Io::kLoading) {
    lifetime_retired_ = 0;
    lifetime_rounds_ = 0;
    hold_tick_ = 0;
  }
  if (version >= 2) {
    io.U64(lifetime_retired_);
    io.U64(lifetime_rounds_);
  }
  if (version >= 3) {
    io.U64(hold_tick_);
  }
  // Per-hart sections, the bus section, then every device in bus registration
  // order — the uniform state API means the machine never enumerates device types.
  for (const auto& hart : harts_) {
    hart->VisitState(io);
  }
  bus_.VisitState(io);
  for (const Bus::MmioWindow& window : bus_.mmio_windows()) {
    if constexpr (Io::kLoading) {
      window.device->LoadState(io);
    } else {
      window.device->SaveState(io);
    }
  }
  io.EndSection();
}

bool Machine::RestoreSnapshot(const Snapshot& snapshot) {
  if (!Machine(config_).LoadSnapshot(snapshot)) {
    return false;
  }
  // Restoring to an arbitrary point invalidates the open trace's coordinate
  // system; a recording cannot continue across it.
  if (recorder_ != nullptr) {
    VFM_LOG_WARN("sim", "snapshot restore while recording: recording abandoned");
    recorder_.reset();
  }
  const bool loaded = LoadSnapshot(snapshot);
  VFM_CHECK_MSG(loaded, "Machine::RestoreSnapshot: a load that staged cleanly failed");
  return true;
}

bool Machine::LoadSnapshot(const Snapshot& snapshot) {
  const std::string ram_error = snapshot.ram == nullptr
                                    ? "snapshot has no RAM image"
                                    : RamImageSizeError(snapshot.ram->size(), config_.map);
  if (!ram_error.empty()) {
    VFM_LOG_WARN("sim", "snapshot restore failed: %s", ram_error.c_str());
    return false;
  }
  StateReader reader(snapshot.state);
  VisitState(reader);
  if (!reader.ok()) {
    VFM_LOG_WARN("sim", "snapshot restore failed: %s", reader.error().c_str());
    return false;
  }
  bus_.AdoptRam(snapshot.ram);
  return true;
}

std::unique_ptr<Machine> Machine::Fork() {
  Snapshot snapshot;
  SaveSnapshot(snapshot);
  auto child = std::make_unique<Machine>(config_);
  const bool restored = child->LoadSnapshot(snapshot);
  VFM_CHECK_MSG(restored, "Machine::Fork: restore of own snapshot failed");
  return child;
}

uint64_t Machine::total_instret() const {
  uint64_t total = 0;
  for (const auto& hart : harts_) {
    total += hart->instret();
  }
  return total;
}

// -- Deterministic record/replay (DESIGN.md §2j). -----------------------------------

std::string DescribeReplay(const ReplayResult& result) {
  if (result.ok) {
    return "ok";
  }
  if (result.diverged) {
    return "diverged at hart " + std::to_string(result.hart) + " " +
           CoordString(result.retired, result.round) + ": " + result.detail;
  }
  return result.error;
}

bool Machine::StartRecording(const std::string& path, uint64_t hash_period_rounds) {
  if (recorder_ != nullptr || replay_ != nullptr) {
    return false;
  }
  recorder_ = std::make_unique<Recorder>();
  recorder_->path = path;
  recorder_->hash_period = hash_period_rounds > 0 ? hash_period_rounds : 1;
  recorder_->last_hash_rounds = lifetime_rounds_;
  recorder_->last_blockdev_completions =
      blockdev_ != nullptr ? blockdev_->completed_commands() : 0;
  TraceHeader header;
  StateWriter fingerprint;
  VisitFingerprint(fingerprint, config_, "trace");
  header.fingerprint = fingerprint.Take();
  header.anchor_retired = lifetime_retired_;
  header.anchor_rounds = lifetime_rounds_;
  header.hart_count = hart_count();
  header.hash_period = recorder_->hash_period;
  recorder_->writer.Begin(header);
  return true;
}

bool Machine::StopRecording(std::vector<uint8_t>* trace_out) {
  if (recorder_ == nullptr) {
    return false;
  }
  // The end-of-trace event doubles as the deepest checkpoint: besides the rolling
  // state hashes it carries a full RAM hash and (if present) a full block-device
  // state hash, too expensive for the periodic cadence but cheap once per trace.
  TraceEvent end;
  end.kind = TraceEventKind::kEnd;
  end.payload = StateHashPayload();
  end.a = HashRam();
  end.b = blockdev_ != nullptr ? HashSavedState(*blockdev_) : 0;
  RecordEvent(std::move(end));
  std::vector<uint8_t> bytes = recorder_->writer.Finish();
  bool ok = true;
  if (!recorder_->path.empty()) {
    ok = WriteTraceFile(recorder_->path, bytes);
    if (!ok) {
      VFM_LOG_WARN("sim", "failed to write trace file %s", recorder_->path.c_str());
    }
  }
  if (trace_out != nullptr) {
    *trace_out = std::move(bytes);
  }
  recorder_.reset();
  return ok;
}

void Machine::InjectUartInput(const std::string& bytes) {
  uart_->PushInput(bytes);
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kUartInput;
    event.payload.assign(bytes.begin(), bytes.end());
    RecordEvent(std::move(event));
  }
}

void Machine::InjectPlicLine(unsigned source, bool level) {
  if (level) {
    plic_->RaiseSource(source);
  } else {
    plic_->ClearSource(source);
  }
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kPlicLine;
    event.a = source;
    event.b = level ? 1 : 0;
    RecordEvent(std::move(event));
  }
}

bool Machine::BeginTracedRun(TraceRunKind kind, uint64_t a, uint64_t b) {
  if (recorder_ == nullptr || in_traced_run_) {
    return false;
  }
  in_traced_run_ = true;
  TraceEvent event;
  event.kind = TraceEventKind::kRun;
  event.sub = static_cast<uint8_t>(kind);
  event.a = a;
  event.b = b;
  RecordEvent(std::move(event));
  return true;
}

void Machine::EndTracedRun() {
  TraceEvent event;
  event.kind = TraceEventKind::kRunDone;
  event.a = finisher_->finished() ? 1 : 0;
  RecordEvent(std::move(event));
  in_traced_run_ = false;
}

void Machine::RecordEvent(TraceEvent event) {
  event.retired = lifetime_retired_;
  event.round = lifetime_rounds_;
  recorder_->writer.Append(event);
}

void Machine::TraceBarrier() {
  if (recorder_ != nullptr) {
    if (blockdev_ != nullptr) {
      const uint64_t done = blockdev_->completed_commands();
      if (done != recorder_->last_blockdev_completions) {
        recorder_->last_blockdev_completions = done;
        TraceEvent event;
        event.kind = TraceEventKind::kBlockdevCompletion;
        event.a = done;
        RecordEvent(std::move(event));
      }
    }
    if (lifetime_rounds_ - recorder_->last_hash_rounds >= recorder_->hash_period) {
      recorder_->last_hash_rounds = lifetime_rounds_;
      TraceEvent event;
      event.kind = TraceEventKind::kStateHash;
      event.payload = StateHashPayload();
      RecordEvent(std::move(event));
    }
  } else if (replay_ != nullptr) {
    ReplayConsumeCheckpoints();
  }
}

void Machine::ReplayConsumeCheckpoints() {
  ReplayCursor& cursor = *replay_;
  ReplayResult& result = *cursor.result;
  while (!result.diverged && cursor.next < cursor.events->size()) {
    const TraceEvent& event = (*cursor.events)[cursor.next];
    if (event.kind != TraceEventKind::kStateHash &&
        event.kind != TraceEventKind::kBlockdevCompletion) {
      break;
    }
    if (event.round > lifetime_rounds_) {
      break;  // not due yet
    }
    if (event.round != lifetime_rounds_ || event.retired != lifetime_retired_) {
      // The recording passed through a barrier coordinate this replay never
      // reached: the schedules themselves diverged before any hash could differ.
      ReplayDiverge(0, event,
                    "schedule drift: checkpoint recorded at " +
                        CoordString(event.retired, event.round) +
                        " but replay reached " +
                        CoordString(lifetime_retired_, lifetime_rounds_));
      break;
    }
    VerifyCheckpoint(event);
    ++cursor.next;
  }
}

void Machine::VerifyCheckpoint(const TraceEvent& event) {
  ReplayResult& result = *replay_->result;
  if (event.kind == TraceEventKind::kBlockdevCompletion) {
    const uint64_t done = blockdev_ != nullptr ? blockdev_->completed_commands() : 0;
    if (done != event.a) {
      ReplayDiverge(hart_count(), event,
                    "blockdev completion count " + std::to_string(done) +
                        " != recorded " + std::to_string(event.a));
    }
    return;
  }
  // kStateHash and kEnd share the payload layout: one hash per hart, then the
  // device hash. The first mismatching hart localizes the divergence.
  const size_t expected_size = (hart_count() + 1) * sizeof(uint64_t);
  if (event.payload.size() != expected_size) {
    result.error = "malformed trace: checkpoint payload size mismatch";
    return;
  }
  for (unsigned i = 0; i < hart_count(); ++i) {
    const uint64_t recorded = LoadLe64(event.payload.data() + i * sizeof(uint64_t));
    const uint64_t got = HashSavedState(*harts_[i]);
    if (got != recorded) {
      ReplayDiverge(i, event, "hart " + std::to_string(i) + " state hash mismatch");
      return;
    }
  }
  const uint64_t recorded_dev =
      LoadLe64(event.payload.data() + hart_count() * sizeof(uint64_t));
  if (HashDeviceState() != recorded_dev) {
    ReplayDiverge(hart_count(), event, "device state hash mismatch");
    return;
  }
  ++result.hashes_checked;
}

void Machine::ReplayDiverge(uint32_t hart, const TraceEvent& event,
                            const std::string& detail) {
  ReplayResult& result = *replay_->result;
  if (result.diverged) {
    return;  // keep the first divergence
  }
  result.diverged = true;
  result.hart = hart;
  result.retired = event.retired;
  result.round = event.round;
  result.detail = detail;
}

uint64_t Machine::HashDeviceState() const {
  // Device state is hashed through the uniform SaveState sections — any device
  // that joins the bus joins the checkpoint with no machine changes. The block
  // device is excluded here because its section carries the whole disk; its
  // registers are folded in from accessors below, and the disk contents are
  // covered by the end-of-trace full hash plus the completion-edge events.
  StateWriter writer;
  for (const Bus::MmioWindow& window : bus_.mmio_windows()) {
    if (blockdev_ != nullptr && window.device == blockdev_.get()) {
      continue;
    }
    window.device->SaveState(writer);
  }
  uint64_t h = Fnv1a64(writer.bytes().data(), writer.bytes().size());
  if (blockdev_ != nullptr) {
    h = FnvU64(blockdev_->status(), h);
    h = FnvU64(blockdev_->busy() ? blockdev_->deadline() : 0, h);
    h = FnvU64(blockdev_->completed_commands(), h);
  }
  return h;
}

std::vector<uint8_t> Machine::StateHashPayload() const {
  std::vector<uint8_t> payload;
  payload.reserve((hart_count() + 1) * sizeof(uint64_t));
  const auto append = [&payload](uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  for (unsigned i = 0; i < hart_count(); ++i) {
    append(HashSavedState(*harts_[i]));
  }
  append(HashDeviceState());
  return payload;
}

uint64_t Machine::HashRam() const {
  return Fnv1a64(bus_.ram().data(), bus_.ram().size());
}

void Machine::ExecuteReplayRun(const TraceEvent& run) {
  ReplayCursor& cursor = *replay_;
  ReplayResult& result = *cursor.result;
  RunProgress progress;
  switch (static_cast<TraceRunKind>(run.sub)) {
    case TraceRunKind::kStepAll:
      StepAll();
      break;
    case TraceRunKind::kRunUntilFinished:
      // Replay re-issues the original budgets verbatim: quantum segment sizing
      // depends on the remaining round allowance, so a different budget would
      // change the schedule, not just the stop point.
      RunUntilFinished(run.a, run.b, &progress);
      break;
    case TraceRunKind::kRunSlice:
      // Slice stop points are a pure function of architectural state and the
      // budgets, so re-issuing the slice reproduces the recorded stop barrier.
      RunSlice(run.a, run.b);
      break;
    case TraceRunKind::kFastForwardIdleTo:
      FastForwardIdleTo(run.a);
      break;
    case TraceRunKind::kRunUntil: {
      // The original predicate is host code and cannot be serialized; its effect
      // can. Rounds strictly increase between predicate checks and the check
      // coordinates of a deterministic replay are identical, so "progress reached
      // the recorded stop coordinate" fires at exactly the recorded check.
      const TraceEvent* done = nullptr;
      for (size_t i = cursor.next; i < cursor.events->size(); ++i) {
        const TraceEventKind kind = (*cursor.events)[i].kind;
        if (kind == TraceEventKind::kRunDone) {
          done = &(*cursor.events)[i];
          break;
        }
        if (kind != TraceEventKind::kStateHash &&
            kind != TraceEventKind::kBlockdevCompletion) {
          break;
        }
      }
      if (done == nullptr) {
        result.error = "malformed trace: run event without a matching run-done";
        return;
      }
      const uint64_t target_retired = done->retired;
      const uint64_t target_round = done->round;
      RunUntil(
          [this, target_retired, target_round] {
            return lifetime_rounds_ >= target_round &&
                   lifetime_retired_ >= target_retired;
          },
          run.a, run.b, &progress);
      break;
    }
    default:
      result.error = "malformed trace: unknown run kind";
      return;
  }
  if (result.diverged || !result.error.empty()) {
    return;
  }
  // Checkpoints recorded at the stop coordinate may still be pending (e.g. a
  // zero-round run); consume them before matching the run-done event.
  ReplayConsumeCheckpoints();
  if (result.diverged) {
    return;
  }
  if (cursor.next >= cursor.events->size()) {
    result.error = "malformed trace: expected a run-done event";
    return;
  }
  if ((*cursor.events)[cursor.next].kind != TraceEventKind::kRunDone) {
    const TraceEvent& next = (*cursor.events)[cursor.next];
    if (next.kind == TraceEventKind::kStateHash ||
        next.kind == TraceEventKind::kBlockdevCompletion) {
      // The replay's run stopped before the recording reached its next
      // checkpoint — a schedule divergence, not a malformed trace.
      ReplayDiverge(0, next,
                    "replay run stopped at " +
                        CoordString(lifetime_retired_, lifetime_rounds_) +
                        " before the checkpoint recorded at " +
                        CoordString(next.retired, next.round));
    } else {
      result.error = "malformed trace: expected a run-done event";
    }
    return;
  }
  const TraceEvent& done = (*cursor.events)[cursor.next];
  if (done.retired != lifetime_retired_ || done.round != lifetime_rounds_) {
    ReplayDiverge(0, done,
                  "run stopped at " +
                      CoordString(lifetime_retired_, lifetime_rounds_) +
                      " but the recording stopped at " +
                      CoordString(done.retired, done.round));
    return;
  }
  if ((done.a != 0) != finisher_->finished()) {
    ReplayDiverge(0, done,
                  std::string("finished flag mismatch: replay ") +
                      (finisher_->finished() ? "finished" : "did not finish") +
                      ", recording " + (done.a != 0 ? "finished" : "did not"));
    return;
  }
  ++cursor.next;
  ++result.events_applied;
}

ReplayResult Machine::ReplayFrom(const Snapshot& snapshot,
                                 const std::vector<uint8_t>& trace,
                                 const std::function<bool()>& post_restore) {
  ReplayResult result;
  if (recorder_ != nullptr) {
    result.error = "cannot replay while recording";
    return result;
  }
  if (replay_ != nullptr) {
    result.error = "replay already in progress";
    return result;
  }
  TraceReader reader(trace);
  if (!reader.ok()) {
    result.error = "trace rejected: " + reader.error();
    return result;
  }
  const TraceHeader& header = reader.header();
  {
    // The same rejection path snapshot restore uses: the trace embeds the
    // recording machine's config fingerprint, checked against this machine.
    StateReader fingerprint(header.fingerprint);
    VisitFingerprint(fingerprint, config_, "trace");
    if (!fingerprint.ok()) {
      result.error = "trace rejected: " + fingerprint.error();
      return result;
    }
  }
  if (!RestoreSnapshot(snapshot)) {
    result.error = "snapshot restore failed";
    return result;
  }
  if (post_restore != nullptr && !post_restore()) {
    result.error = "post-restore hook failed";
    return result;
  }
  if (lifetime_retired_ != header.anchor_retired ||
      lifetime_rounds_ != header.anchor_rounds) {
    result.error = "trace anchor " +
                   CoordString(header.anchor_retired, header.anchor_rounds) +
                   " does not match the snapshot's progress " +
                   CoordString(lifetime_retired_, lifetime_rounds_);
    return result;
  }
  ReplayCursor cursor;
  cursor.events = &reader.events();
  cursor.result = &result;
  replay_ = &cursor;
  const std::vector<TraceEvent>& events = reader.events();
  bool saw_end = false;
  while (!result.diverged && result.error.empty() && !saw_end &&
         cursor.next < events.size()) {
    const TraceEvent& event = events[cursor.next];
    // Every input event was recorded between runs, at an exact coordinate; a
    // replay that is not at that coordinate when the event comes up has already
    // diverged in schedule.
    const bool checkpoint = event.kind == TraceEventKind::kStateHash ||
                            event.kind == TraceEventKind::kBlockdevCompletion;
    if (!checkpoint &&
        (event.retired != lifetime_retired_ || event.round != lifetime_rounds_)) {
      ReplayDiverge(0, event,
                    "schedule drift: event expected at " +
                        CoordString(event.retired, event.round) +
                        " but replay is at " +
                        CoordString(lifetime_retired_, lifetime_rounds_));
      break;
    }
    switch (event.kind) {
      case TraceEventKind::kUartInput:
        uart_->PushInput(std::string(event.payload.begin(), event.payload.end()));
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kPlicLine:
        if (event.a == 0 || event.a >= Plic::kMaxSources) {
          result.error = "malformed trace: PLIC source " + std::to_string(event.a) +
                         " does not exist";
          break;
        }
        if (event.b != 0) {
          plic_->RaiseSource(static_cast<unsigned>(event.a));
        } else {
          plic_->ClearSource(static_cast<unsigned>(event.a));
        }
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kLoadImage:
        if (!bus_.WriteBytes(event.a, event.payload.data(), event.payload.size())) {
          result.error = "replay LoadImage write failed";
          break;
        }
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kSnapshotPoint: {
        ++cursor.next;
        ++result.events_applied;
        Snapshot scratch;
        SaveSnapshot(scratch);  // mirror the recording's CoW freeze side effects
        break;
      }
      case TraceEventKind::kRun:
        ++cursor.next;
        ++result.events_applied;
        ExecuteReplayRun(event);
        break;
      case TraceEventKind::kStateHash:
      case TraceEventKind::kBlockdevCompletion:
        // Due exactly between runs (recorded at a barrier that coincided with a
        // run boundary).
        VerifyCheckpoint(event);
        ++cursor.next;
        break;
      case TraceEventKind::kRunDone:
        result.error = "malformed trace: stray run-done event";
        break;
      case TraceEventKind::kEnd: {
        VerifyCheckpoint(event);
        if (!result.diverged && result.error.empty()) {
          if (HashRam() != event.a) {
            ReplayDiverge(hart_count(), event, "RAM hash mismatch at end of trace");
          } else if (blockdev_ != nullptr && HashSavedState(*blockdev_) != event.b) {
            ReplayDiverge(hart_count(), event,
                          "blockdev state hash mismatch at end of trace");
          }
        }
        saw_end = true;
        ++cursor.next;
        break;
      }
      default:
        result.error = "malformed trace: unknown event kind";
        break;
    }
  }
  replay_ = nullptr;
  if (!result.diverged && result.error.empty() && !saw_end) {
    result.error = "trace truncated";  // unreachable: TraceReader enforces kEnd
  }
  result.ok = !result.diverged && result.error.empty();
  return result;
}

// -- Snapshot files (self-describing: full MachineConfig + state + RAM + aux). ------

// SNPF section version. Version 2 holds one RAM image; version 1 held a count of
// them first, and is rejected rather than misread.
constexpr uint32_t kSnapshotFileVersion = 2;

bool WriteSnapshotFile(const std::string& path, const MachineConfig& config,
                       const Snapshot& snapshot, const std::vector<uint8_t>& aux) {
  if (snapshot.ram == nullptr) {
    return false;
  }
  // Only what precedes the RAM image's bytes is staged (`head`), and the aux blob
  // after them (`tail`). The image goes from the snapshot to the file in chunks, so
  // writing a file never holds a second copy of the RAM.
  const uint64_t image_size = snapshot.ram->size();
  StateWriter tail;
  tail.Bytes(aux.data(), aux.size());
  StateWriter head;
  head.BeginSection(StateTag("SNPF"), kSnapshotFileVersion);
  WriteMachineConfig(head, config);
  head.Bytes(snapshot.state.data(), snapshot.state.size());
  head.U64(image_size);  // the image blob's length prefix
  head.EndSection(image_size + tail.bytes().size());

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const auto write = [file](const void* data, size_t size) {
    return std::fwrite(data, 1, size, file) == size;
  };
  bool ok = write(head.bytes().data(), head.bytes().size());
  constexpr uint64_t kChunk = uint64_t{1} << 20;
  std::vector<uint8_t> chunk(std::min(image_size, kChunk));
  for (uint64_t done = 0; ok && done < image_size; done += chunk.size()) {
    const size_t size = std::min<uint64_t>(chunk.size(), image_size - done);
    snapshot.ram->CopyRange(done, size, chunk.data());
    ok = write(chunk.data(), size);
  }
  ok = ok && write(tail.bytes().data(), tail.bytes().size());
  return std::fclose(file) == 0 && ok;
}

bool ReadSnapshotFile(const std::string& path, MachineConfig* config,
                      Snapshot* snapshot, std::vector<uint8_t>* aux) {
  std::vector<uint8_t> bytes;
  if (!ReadTraceFile(path, &bytes)) {
    return false;
  }
  StateReader reader(bytes);
  reader.BeginSection(StateTag("SNPF"), kSnapshotFileVersion, "snapshot file", "snapshot");
  MachineConfig file_config;
  if (reader.ok()) {
    ReadMachineConfig(reader, &file_config);
  }
  std::vector<uint8_t> state;
  reader.Bytes(&state);
  // The image is read in place from the file buffer, which lives until FromBytes
  // below has copied it into the snapshot's RAM image.
  uint64_t image_size = 0;
  const uint8_t* image = reader.BytesView(&image_size);
  if (reader.ok()) {
    const std::string error = RamImageSizeError(image_size, file_config.map);
    if (!error.empty()) {
      reader.Fail(error);
    }
  }
  std::vector<uint8_t> aux_bytes;
  reader.Bytes(&aux_bytes);
  reader.EndSection();
  if (!reader.ok()) {
    VFM_LOG_ERROR("sim", "snapshot file %s: %s", path.c_str(), reader.error().c_str());
    return false;
  }
  snapshot->state = std::move(state);
  snapshot->ram = RamImage::FromBytes(image, image_size);
  if (config != nullptr) {
    *config = file_config;
  }
  if (aux != nullptr) {
    *aux = std::move(aux_bytes);
  }
  return true;
}

}  // namespace vfm
