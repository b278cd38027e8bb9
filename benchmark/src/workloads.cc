#include "benchmark/src/workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string_view>
#include <thread>

#include "benchmark/src/clock.h"
#include "benchmark/src/guest.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/state.h"
#include "src/core/monitor.h"
#include "src/fleet/fleet.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm::bench {

namespace {

// -- Metric catalogue. BENCHMARK.json lists the same names; every run reports
// every name, with 0 for a layer the workload does not exercise.

struct MetricDef {
  const char* name;
  const char* unit;
};

// The first four are the bounded ones, and their times are host cycles
// (setup_s: seconds at kReferenceHz). The rest are in wall-clock time, which
// drifts with the host's core clock, and are reported for reading only.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_cycles_per_instr", "cycles/instr"},
    {"host_kcycles_per_request", "kcycles/req"},
    {"peak_rss_mib", "MiB"},
    {"setup_wall_s", "s"},
    {"guest_mips", "MIPS"},
    {"guest_mips_p10", "MIPS"},
    {"requests_per_host_s", "1/s"},
    {"host_ghz", "GHz"},
};

constexpr MetricDef kLayers[] = {
    {"setup.build_s", "s"},
    {"setup.boot_s", "s"},
    {"setup.warmup_s", "s"},
    {"mem.fork_us_p50", "us"},
    {"mem.fork_us_p99", "us"},
    {"sim.decode_hit_rate", "share"},
    {"sim.decode_misses_per_kinstr", "count/kinstr"},
    {"sim.superblock_hit_rate", "share"},
    {"sim.threaded_share", "share"},
    {"sim.promotions_per_kinstr", "count/kinstr"},
    {"sim.deopts_per_kinstr", "count/kinstr"},
    {"sim.tlb_hit_rate", "share"},
    {"sim.mem_fastpath_hit_rate", "share"},
    {"sim.tlb_flushes_per_kinstr", "count/kinstr"},
    {"sim.traps_per_kinstr", "count/kinstr"},
    {"sim.host_share", "share"},
    {"core.os_traps_per_kinstr", "count/kinstr"},
    {"core.traps.time_read", "share"},
    {"core.traps.set_timer", "share"},
    {"core.traps.misaligned", "share"},
    {"core.traps.ipi", "share"},
    {"core.traps.remote_fence", "share"},
    {"core.traps.other", "share"},
    {"core.fastpath_share", "share"},
    {"core.world_switches_per_kinstr", "count/kinstr"},
    {"core.emulated_per_switch", "count"},
    {"core.handler_ns_p50", "ns"},
    {"core.handler_ns_p99", "ns"},
    {"core.host_share", "share"},
    {"world.cycles_share.os", "share"},
    {"world.cycles_share.firmware", "share"},
    {"world.cycles_share.monitor", "share"},
    {"world.host_share.os", "share"},
    {"world.host_share.firmware", "share"},
    {"smp.cpu_util", "share"},
    {"smp.sys_share", "share"},
    {"smp.vol_switches_per_kinstr", "count/kinstr"},
    {"smp.main_thread_share", "share"},
    {"fleet.slices_per_request", "count"},
    {"fleet.retired_per_slice", "instr"},
    {"fleet.host_us_per_slice", "us"},
    {"fleet.worker_busy_share", "share"},
    {"fleet.steal_success_rate", "share"},
    {"fleet.idle_round_share", "share"},
    {"fleet1.host_share.run_slice", "share"},
    {"fleet1.host_share.fast_forward", "share"},
    {"fleet1.host_share.inject", "share"},
    {"fleet1.host_share.poll", "share"},
    {"fleet1.decode_hit_rate", "share"},
    {"fleet1.superblock_hit_rate", "share"},
    {"trace.guest_mips", "MIPS"},
    {"trace.overhead_share", "share"},
    {"exact.sim_instret", "instr"},
    {"exact.sim_cycles", "cycles"},
    {"exact.sim_latency_p50_us", "us"},
    {"exact.sim_latency_p99_us", "us"},
};

template <size_t N>
class MetricSet {
 public:
  explicit MetricSet(const MetricDef (&defs)[N]) : defs_(defs) {}

  void Set(const char* name, double value) {
    for (size_t i = 0; i < N; ++i) {
      if (std::string_view(defs_[i].name) == name) {
        values_[i] = value;
        return;
      }
    }
    VFM_CHECK_MSG(false, "unknown metric %s", name);
  }

  template <typename Emit>
  void ForEach(Emit emit) const {
    for (size_t i = 0; i < N; ++i) {
      emit(defs_[i].name, values_[i], defs_[i].unit);
    }
  }

 private:
  const MetricDef (&defs_)[N];
  std::array<double, N> values_{};
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// -- Hart counters, summed over a machine's harts. -----------------------------------

enum Counter {
  kRetired,
  kDecodeHits,
  kDecodeMisses,
  kSbHits,
  kSbMisses,
  kTlbHits,
  kTlbMisses,
  kTlbFlushes,
  kFastHits,
  kFastMisses,
  kThreadedInstrs,
  kPromotions,
  kDeopts,
  kTraps,
  kCounterCount,
};
using Counters = std::array<uint64_t, kCounterCount>;

Counters ReadCounters(const Machine& machine) {
  Counters c{};
  for (unsigned i = 0; i < machine.hart_count(); ++i) {
    const Hart& h = machine.hart(i);
    c[kRetired] += h.instret();
    c[kDecodeHits] += h.decode_cache_hits();
    c[kDecodeMisses] += h.decode_cache_misses();
    c[kSbHits] += h.superblock_hits();
    c[kSbMisses] += h.superblock_misses();
    c[kTlbHits] += h.tlb_hits();
    c[kTlbMisses] += h.tlb_misses();
    c[kTlbFlushes] += h.tlb_flushes();
    c[kFastHits] += h.host_fastpath_hits();
    c[kFastMisses] += h.host_fastpath_misses();
    c[kThreadedInstrs] += h.threaded_instrs();
    c[kPromotions] += h.threaded_promotions();
    c[kDeopts] += h.threaded_deopts();
    c[kTraps] += h.traps_taken();
  }
  return c;
}

void AddDelta(Counters& sum, const Counters& end, const Counters& start) {
  for (size_t i = 0; i < sum.size(); ++i) {
    sum[i] += end[i] - start[i];
  }
}

double HitRate(uint64_t hits, uint64_t misses) {
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

template <size_t N>
void SetSimLayers(MetricSet<N>& layers, const Counters& c) {
  const double kinstr = static_cast<double>(c[kRetired]) / 1000.0;
  const auto per_kinstr = [&](Counter k) { return Ratio(static_cast<double>(c[k]), kinstr); };
  layers.Set("sim.decode_hit_rate", HitRate(c[kDecodeHits], c[kDecodeMisses]));
  layers.Set("sim.decode_misses_per_kinstr", per_kinstr(kDecodeMisses));
  layers.Set("sim.superblock_hit_rate", HitRate(c[kSbHits], c[kSbMisses]));
  layers.Set("sim.threaded_share", Ratio(static_cast<double>(c[kThreadedInstrs]),
                                         static_cast<double>(c[kRetired])));
  layers.Set("sim.promotions_per_kinstr", per_kinstr(kPromotions));
  layers.Set("sim.deopts_per_kinstr", per_kinstr(kDeopts));
  layers.Set("sim.tlb_hit_rate", HitRate(c[kTlbHits], c[kTlbMisses]));
  layers.Set("sim.mem_fastpath_hit_rate", HitRate(c[kFastHits], c[kFastMisses]));
  layers.Set("sim.tlb_flushes_per_kinstr", per_kinstr(kTlbFlushes));
  layers.Set("sim.traps_per_kinstr", per_kinstr(kTraps));
}

// -- Process resource usage over the measured window. --------------------------------

// Process resource usage: a reading, or (built up with AddSince) a total over
// the measured units, which excludes the set-ups between them.
struct Usage {
  uint64_t wall_ns = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double main_cpu_s = 0;
  uint64_t vol_switches = 0;

  void AddSince(const Usage& from) {
    const Usage now = Now();
    wall_ns += now.wall_ns - from.wall_ns;
    cpu_s += now.cpu_s - from.cpu_s;
    sys_s += now.sys_s - from.sys_s;
    main_cpu_s += now.main_cpu_s - from.main_cpu_s;
    vol_switches += now.vol_switches - from.vol_switches;
  }

  static Usage Now() {
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    rusage self{};
    rusage main_thread{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_THREAD, &main_thread);
    Usage u;
    u.wall_ns = NowNs();
    u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime);
    u.sys_s = secs(self.ru_stime);
    u.main_cpu_s = secs(main_thread.ru_utime) + secs(main_thread.ru_stime);
    u.vol_switches = static_cast<uint64_t>(self.ru_nvcsw);
    return u;
  }
};

template <size_t N>
void SetSmpLayers(MetricSet<N>& layers, const Usage& window, uint64_t retired) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  layers.Set("smp.cpu_util", Ratio(window.cpu_s, Seconds(window.wall_ns) * cores));
  layers.Set("smp.sys_share", Ratio(window.sys_s, window.cpu_s));
  layers.Set("smp.vol_switches_per_kinstr", Ratio(static_cast<double>(window.vol_switches),
                                                  static_cast<double>(retired) / 1000.0));
  layers.Set("smp.main_thread_share", Ratio(window.main_cpu_s, window.cpu_s));
}

// The process's own peak resident set (VmHWM). Not ru_maxrss: Linux carries
// ru_maxrss over exec, so it would include the launching process's RSS.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0;  // unknown: the run fails its "not positive" check
}

// Fork latency of `machine`, `count` times, one span each.
std::vector<double> TimeForks(Machine& machine, unsigned count, Spans& spans) {
  std::vector<double> us;
  us.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    const uint64_t t0 = NowNs();
    spans.Begin("fork", t0);
    std::unique_ptr<Machine> child = machine.Fork();
    const uint64_t t1 = NowNs();
    spans.End(t1);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return us;
}

// -- Samples every workload collects. ------------------------------------------------

// A run repeats its unit of work until the units alone have taken the measured
// window. One set-up precedes each unit, so the set-ups sample the host across
// the whole run rather than one moment of it; a run has at least kMinSetups.
constexpr size_t kMinSetups = 5;

uint64_t WindowNs(const Options& options) {
  return static_cast<uint64_t>(options.seconds * 1e9);
}

struct Measurements {
  explicit Measurements(unsigned cores) : busy_cores(cores) {}

  // Reads the core clock with as many cores busy as the measured work keeps.
  double ReadClock() {
    hz.push_back(MeasureCoreHz(busy_cores));
    return hz.back();
  }

  // One set-up: its phases, and its whole time in wall seconds and in host
  // cycles (read with `clock_busy_cores` busy, since set-up may use fewer).
  void AddSetup(uint64_t build_ns, uint64_t boot_ns, uint64_t warmup_ns, uint64_t setup_ns,
                unsigned clock_busy_cores) {
    build_s.push_back(Seconds(build_ns));
    boot_s.push_back(Seconds(boot_ns));
    warmup_s.push_back(Seconds(warmup_ns));
    setup_wall_s.push_back(Seconds(setup_ns));
    setup_s.push_back(Seconds(setup_ns) * MeasureCoreHz(clock_busy_cores) / kReferenceHz);
  }

  // `samples` names what mips holds a sample of: chunks or fleet repetitions.
  void ReportEndToEnd(Report& report, const char* samples) const {
    MetricSet e2e(kEndToEnd);
    e2e.Set("setup_s", Median(setup_s));
    e2e.Set("setup_wall_s", Median(setup_wall_s));
    e2e.Set("host_cycles_per_instr", cycles_per_instr);
    e2e.Set("host_kcycles_per_request", kcycles_per_request);
    e2e.Set("peak_rss_mib", PeakRssMib());
    e2e.Set("guest_mips", Median(mips));
    e2e.Set("guest_mips_p10", Quantile(mips, 0.1));
    e2e.Set("requests_per_host_s", Median(rates));
    e2e.Set("host_ghz", Median(hz) / 1e9);
    e2e.ForEach([&](const char* n, double v, const char* u) { report.EndToEnd(n, v, u); });
    report.Samples("setups", setup_s.size());
    report.Samples(samples, mips.size());
  }

  template <size_t N>
  void SetCommonLayers(MetricSet<N>& layers) const {
    layers.Set("setup.build_s", Median(build_s));
    layers.Set("setup.boot_s", Median(boot_s));
    layers.Set("setup.warmup_s", Median(warmup_s));
    layers.Set("mem.fork_us_p50", Quantile(fork_us, 0.5));
    layers.Set("mem.fork_us_p99", Quantile(fork_us, 0.99));
    layers.Set("trace.guest_mips", Median(traced_mips));
    layers.Set("trace.overhead_share", 1.0 - Ratio(Median(traced_mips), Median(mips)));
  }

  const unsigned busy_cores;  // host threads the measured work keeps running
  std::vector<double> setup_s, setup_wall_s, build_s, boot_s, warmup_s;
  std::vector<double> fork_us;  // traced pass: forks of the template
  // MIPS per full chunk (fleet: per repetition) of untraced and traced units.
  std::vector<double> mips, traced_mips;
  // Requests per host second of each untraced unit (fleet: repetition) that
  // passed every check.
  std::vector<double> rates;
  std::vector<double> hz;  // every core clock reading
  // The bounded throughput metrics, from the untraced units that passed.
  double cycles_per_instr = 0;
  double kcycles_per_request = 0;
};

// The host cost of one unit of work, built chunk by chunk: each chunk of the
// unit (and the fork before it) is taken at quantile `q` of its repetitions
// over the run. Interference from other tenants of the host only ever adds
// time. With one host thread, a few repetitions of each chunk escape it, so the
// fastest (q = 0) is the chunk's own cost and stays steady where a median over
// chunks moves with the host's load. With a thread per hart meeting at a
// barrier every quantum, nearly every chunk is disturbed on some thread and
// the fastest repetition is luck, so there the median (q = 0.5) is steadier.
class ChunkCosts {
 public:
  explicit ChunkCosts(double q) : q_(q) {}

  // Adds one unit: its fork's host cycles and each chunk's host cycles and
  // retired instructions.
  void AddUnit(double fork_cycles, const std::vector<std::pair<double, uint64_t>>& chunks) {
    fork_cycles_.push_back(fork_cycles);
    if (chunk_cycles_.empty()) {
      chunk_cycles_.resize(chunks.size());
      for (const auto& chunk : chunks) {
        retired_ += chunk.second;
      }
    }
    // Repetitions of a unit compute the same thing, so they chunk the same way.
    VFM_CHECK(chunks.size() == chunk_cycles_.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      chunk_cycles_[i].push_back(chunks[i].first);
    }
  }

  double CyclesPerInstr() const { return Ratio(ChunkCycles(), static_cast<double>(retired_)); }
  double KcyclesPerRequest(uint64_t requests) const {
    return Ratio((Quantile(fork_cycles_, q_) + ChunkCycles()) / 1e3, static_cast<double>(requests));
  }

 private:
  double ChunkCycles() const {
    double sum = 0;
    for (const std::vector<double>& repetitions : chunk_cycles_) {
      sum += Quantile(repetitions, q_);
    }
    return sum;
  }

  const double q_;
  std::vector<double> fork_cycles_;                // per unit
  std::vector<std::vector<double>> chunk_cycles_;  // per chunk position, per unit
  uint64_t retired_ = 0;                           // per unit
};

// -- Monitor probe. -------------------------------------------------------------------

// A forwarding M-mode owner installed in place of the monitor on traced units. It
// times every monitor callback, and splits each hart's cycles and the host's time
// between the OS world, the firmware world and the monitor, by reading
// hart.cycles() and Monitor::in_firmware_world() at each callback's entry and exit.
class MonitorProbe : public MmodeOwner {
 public:
  enum World { kOs, kFirmware, kMonitor, kWorlds };

  explicit MonitorProbe(Spans& spans) : spans_(spans) {}

  // Takes over `machine`'s M-mode, forwarding every trap to `monitor`.
  void Attach(Machine& machine, Monitor& monitor) {
    machine_ = &machine;
    monitor_ = &monitor;
    machine.SetMmodeOwner(this);
    const unsigned n = machine.hart_count();
    start_cycles_.assign(n, 0);
    last_cycles_.assign(n, 0);
    in_firmware_.assign(n, false);
    for (unsigned i = 0; i < n; ++i) {
      start_cycles_[i] = last_cycles_[i] = machine.hart(i).cycles();
      in_firmware_[i] = monitor.in_firmware_world(i);
    }
    unit_cycles_.fill(0);
    monotonic_ = true;
  }

  void ChunkBegin(uint64_t now_ns) { last_ns_ = now_ns; }
  void ChunkEnd(uint64_t now_ns) { host_ns_[MachineWorld()] += now_ns - last_ns_; }

  // Closes the unit's cycle split. Returns false unless, for every hart, the OS,
  // firmware and monitor cycles sum exactly to the cycles the hart ran.
  bool Detach() {
    uint64_t ran = 0;
    for (unsigned i = 0; i < machine_->hart_count(); ++i) {
      AttributeCycles(i, machine_->hart(i).cycles());
      ran += machine_->hart(i).cycles() - start_cycles_[i];
    }
    uint64_t split = 0;
    for (unsigned w = 0; w < kWorlds; ++w) {
      split += unit_cycles_[w];
      cycles_[w] += unit_cycles_[w];
    }
    machine_->SetMmodeOwner(monitor_);
    return monotonic_ && split == ran;
  }

  void OnMachineTrap(Hart& hart) override {
    const uint64_t t0 = NowNs();
    host_ns_[MachineWorld()] += t0 - last_ns_;
    const unsigned index = hart.index();
    const uint64_t c0 = hart.cycles();
    AttributeCycles(index, c0);
    spans_.Begin("monitor", t0);
    monitor_->OnMachineTrap(hart);
    const uint64_t c1 = hart.cycles();
    monotonic_ = monotonic_ && c1 >= c0;
    unit_cycles_[kMonitor] += c1 - c0;
    last_cycles_[index] = c1;
    for (unsigned i = 0; i < in_firmware_.size(); ++i) {
      in_firmware_[i] = monitor_->in_firmware_world(i);
    }
    const uint64_t t1 = NowNs();
    spans_.End(t1);
    handler_ns_.push_back(static_cast<double>(t1 - t0));
    last_ns_ = t1;
  }

  uint64_t cycles(World w) const { return cycles_[w]; }
  // Host time inside chunks and outside monitor callbacks, by the world the
  // machine was in (the callbacks' own time is the "monitor" spans').
  uint64_t host_ns(World w) const { return host_ns_[w]; }
  const std::vector<double>& handler_ns() const { return handler_ns_; }

 private:
  // The machine is in the firmware world while any hart is.
  World MachineWorld() const {
    for (const bool fw : in_firmware_) {
      if (fw) {
        return kFirmware;
      }
    }
    return kOs;
  }

  void AttributeCycles(unsigned hart, uint64_t now) {
    monotonic_ = monotonic_ && now >= last_cycles_[hart];
    unit_cycles_[in_firmware_[hart] ? kFirmware : kOs] += now - last_cycles_[hart];
    last_cycles_[hart] = now;
  }

  Spans& spans_;
  Machine* machine_ = nullptr;
  Monitor* monitor_ = nullptr;
  std::vector<uint64_t> start_cycles_;
  std::vector<uint64_t> last_cycles_;
  std::vector<bool> in_firmware_;
  std::array<uint64_t, kWorlds> unit_cycles_{};
  std::array<uint64_t, kWorlds> cycles_{};
  std::array<uint64_t, kWorlds> host_ns_{};
  std::vector<double> handler_ns_;
  uint64_t last_ns_ = 0;
  bool monotonic_ = true;
};

// -- Single-machine workloads: cpu-sv39, redis-*, smp4-coremark. ---------------------

// Moves the calling thread round-robin over the CPUs the process may use. On a
// shared host one vCPU can stay slow for minutes while its sibling hyperthread
// serves another tenant; a single-hart run that visits every CPU, one unit on
// each in turn, keeps that from slowing all of its units (see ChunkCosts).
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort: on failure the thread stays put
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct MachineSpec {
  unsigned harts = 1;
  DeployMode mode = DeployMode::kNative;
  bool cpu_guest = false;  // the cpu-sv39 kernel; otherwise a request guest of `profile`
  WorkloadProfile profile;
  uint64_t unit_requests = 0;  // cpu guest: requests; request guest: per hart
  // Instructions one request retires, firmware included (measured, rounded up):
  // sizes the chunks and bounds a unit that never finishes.
  uint64_t request_instructions = 0;
};

constexpr uint64_t kChunksPerUnit = 120;
constexpr uint64_t kChunksPerClockRead = 4;

// Units are sized to take ~1-2 s each on a 4-core x86 host at the commit that
// introduced the benchmark, so a window holds about ten repetitions.
MachineSpec SpecFor(const std::string& name) {
  MachineSpec spec;
  if (name == "cpu-sv39") {
    spec.cpu_guest = true;
    spec.unit_requests = 2000;
    spec.request_instructions = 158'000;
  } else if (name == "redis-offload" || name == "redis-nooffload") {
    spec.profile = RedisProfile();
    const bool offload = name == "redis-offload";
    spec.mode = offload ? DeployMode::kMiralis : DeployMode::kMiralisNoOffload;
    spec.unit_requests = offload ? 10240 : 640;
    spec.request_instructions = 20'000;
  } else {
    spec.profile = CoreMarkProProfile();
    spec.harts = spec.profile.harts;
    spec.mode = DeployMode::kMiralis;
    spec.unit_requests = 128;
    spec.request_instructions = 163'000;
  }
  return spec;
}

class MachineBench {
 public:
  MachineBench(const MachineSpec& spec, const Options& options, Spans& spans, Report& report)
      : spec_(spec),
        options_(options),
        spans_(spans),
        report_(report),
        probe_(spans),
        samples_(spec.harts),  // one host thread per hart
        costs_(spec.harts > 1 ? 0.5 : 0.0) {
    if (options.smoke) {
      spec_.unit_requests = std::max<uint64_t>(1, spec_.unit_requests / 50);
    }
    const uint64_t unit_instructions = RequestsPerUnit() * spec_.request_instructions;
    chunk_instructions_ = unit_instructions / kChunksPerUnit;
    unit_budget_ = 2 * unit_instructions;
    platform_ = MakePlatform(PlatformKind::kVf2Sim, spec_.harts, /*with_blockdev=*/false);
    platform_.machine.tuning.parallel_harts = spec_.harts > 1;
  }

  void Run() {
    Setup();
    if (options_.traced) {
      samples_.fork_us = TimeForks(*template_.machine, options_.smoke ? 100 : 1000, spans_);
    }
    Usage window;
    for (uint64_t unit = 0; unit < 2 || window.wall_ns < WindowNs(options_); ++unit) {
      if (unit > 0) {
        Setup();
      }
      const bool traced = options_.traced && unit % 2 == 1;
      // Threads made later inherit the affinity, so only a single-hart run moves.
      if (spec_.harts == 1 && !traced) {
        cpus_.Next();
      }
      const Usage before = Usage::Now();
      RunUnit(unit, traced);
      window.AddSince(before);
    }
    while (samples_.setup_s.size() < kMinSetups) {
      Setup();
    }
    Summarize(window);
  }

 private:
  struct Unit {
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Monitor> monitor;
  };

  uint64_t RequestsPerUnit() const {
    return spec_.cpu_guest ? spec_.unit_requests : spec_.unit_requests * spec_.harts;
  }

  void Setup() {
    const uint64_t t0 = NowNs();
    spans_.Begin("setup", t0);
    const Image kernel =
        spec_.cpu_guest
            ? BuildCpuKernel(platform_, MakeCpuGuest(spec_.unit_requests, options_.seed))
            : BuildRequestKernel(platform_, MakeRequestGuest(spec_.profile, spec_.unit_requests,
                                                             options_.seed));
    const uint64_t t1 = NowNs();
    template_ = BootSystem(platform_, spec_.mode, kernel);
    results_ = KernelBuilder::ResultAddr(template_.kernel, 0);
    monitor_state_.clear();
    if (template_.monitor != nullptr) {
      StateWriter writer;
      template_.monitor->SaveState(writer);
      monitor_state_ = writer.Take();
    }
    const uint64_t t2 = NowNs();
    // Warm-up: the first chunks of one unit.
    Unit unit = Fork();
    for (unsigned i = 0; i < 10; ++i) {
      if (unit.machine->RunUntilFinished(chunk_instructions_)) {
        break;
      }
    }
    const uint64_t t3 = NowNs();
    spans_.End(t3);
    samples_.AddSetup(t1 - t0, t2 - t1, t3 - t2, t3 - t0, spec_.harts);
  }

  Unit Fork() {
    Unit unit;
    unit.machine = template_.machine->Fork();
    if (template_.monitor != nullptr) {
      unit.monitor = std::make_unique<Monitor>(unit.machine.get(), template_.monitor->config());
      StateReader reader(monitor_state_);
      VFM_CHECK_MSG(unit.monitor->LoadState(reader), "monitor state restore failed");
      unit.machine->SetMmodeOwner(unit.monitor.get());
    }
    return unit;
  }

  // Digest of everything the unit computed: per-hart architectural progress,
  // the kernel's result slots, console output and every monitor statistic.
  uint64_t UnitSignature(Unit& unit) const {
    Machine& m = *unit.machine;
    std::vector<uint64_t> words = {m.finisher().exit_code(), m.total_instret()};
    for (unsigned i = 0; i < m.hart_count(); ++i) {
      words.push_back(m.hart(i).instret());
      words.push_back(m.hart(i).cycles());
      words.push_back(m.hart(i).pc());
    }
    for (unsigned slot = 0; slot < KernelSlots::kCount; ++slot) {
      uint64_t value = 0;
      m.bus().Read(results_ + 8 * slot, 8, &value);
      words.push_back(value);
    }
    if (unit.monitor != nullptr) {
      const MonitorStats& s = unit.monitor->stats();
      words.insert(words.end(), {s.os_traps, s.firmware_traps, s.emulated_instrs,
                                 s.world_switches, s.injected_interrupts, s.mmio_emulations,
                                 s.mprv_emulations, s.fastpath_hits, s.policy_denials});
      words.insert(words.end(), std::begin(s.os_traps_by_cause), std::end(s.os_traps_by_cause));
    }
    words.push_back(Fnv1a64(m.uart().output().data(), m.uart().output().size()));
    return Fnv1a64(words.data(), words.size() * sizeof(uint64_t));
  }

  // An untraced unit also reads the core clock every few chunks, outside the
  // timed regions, to convert its host time into host cycles.
  void RunUnit(uint64_t index, bool traced) {
    report_.Attempt();
    double hz = traced ? 0 : samples_.ReadClock();
    const uint64_t u0 = NowNs();
    if (traced) {
      spans_.Begin("unit", u0, static_cast<int64_t>(index));
    }
    Unit unit = Fork();
    Machine& m = *unit.machine;
    if (traced && unit.monitor != nullptr) {
      probe_.Attach(m, *unit.monitor);
    }
    uint64_t host_ns = NowNs() - u0;  // fork and monitor restore
    const double fork_cycles = Seconds(host_ns) * hz;
    std::vector<std::pair<double, uint64_t>> chunk_costs;  // host cycles, retired
    const Counters c0 = ReadCounters(m);
    std::vector<double>& mips = traced ? samples_.traced_mips : samples_.mips;
    bool finished = false;
    for (uint64_t chunk = 1; !finished && m.total_instret() < unit_budget_; ++chunk) {
      if (!traced && chunk % kChunksPerClockRead == 0) {
        hz = samples_.ReadClock();
      }
      const uint64_t before = m.total_instret();
      const uint64_t t0 = NowNs();
      if (traced) {
        spans_.Begin("chunk", t0, static_cast<int64_t>(index));
        probe_.ChunkBegin(t0);
      }
      finished = m.RunUntilFinished(chunk_instructions_);
      const uint64_t t1 = NowNs();
      if (traced) {
        probe_.ChunkEnd(t1);
        spans_.End(t1);
      }
      const uint64_t retired = m.total_instret() - before;
      host_ns += t1 - t0;
      chunk_costs.emplace_back(Seconds(t1 - t0) * hz, retired);
      // The last chunk of a unit is partial; short chunks time mostly noise.
      if (retired >= chunk_instructions_ / 2) {
        mips.push_back(static_cast<double>(retired) * 1e3 / static_cast<double>(t1 - t0));
      }
    }
    window_retired_ += m.total_instret();
    bool ok = CheckUnit(unit, finished);
    if (traced && unit.monitor != nullptr && !probe_.Detach() && ok) {
      report_.Fail("world cycle split does not sum to the harts' cycles");
      ok = false;
    }
    const uint64_t u1 = NowNs();
    if (traced) {
      spans_.End(u1);
      AddDelta(sim_, ReadCounters(m), c0);
      if (unit.monitor != nullptr) {
        AddMonitorStats(unit.monitor->stats());
      }
    } else if (ok) {
      samples_.rates.push_back(static_cast<double>(RequestsPerUnit()) / Seconds(host_ns));
      costs_.AddUnit(fork_cycles, chunk_costs);
    }
  }

  bool CheckUnit(Unit& unit, bool finished) {
    Machine& m = *unit.machine;
    if (!finished) {
      report_.Fail("unit did not reach the finisher within its instruction budget");
      return false;
    }
    if (m.finisher().exit_code() != 0) {
      report_.Fail("guest finisher reported failure");
      return false;
    }
    uint64_t completed = 0;
    m.bus().Read(results_ + 8 * KernelSlots::kScratch, 8, &completed);
    if (completed != RequestsPerUnit()) {
      report_.Fail("guest completed fewer requests than it was given");
      return false;
    }
    const uint64_t signature = UnitSignature(unit);
    if (!have_reference_) {
      have_reference_ = true;
      report_.Signature(signature);
      report_.Exact("sim_instret", static_cast<double>(m.total_instret()));
      report_.Exact("sim_cycles", static_cast<double>(m.cycles()));
      report_.Exact("sim_latency_p50_us", 0);
      report_.Exact("sim_latency_p99_us", 0);
      sim_instret_ = m.total_instret();
      sim_cycles_ = m.cycles();
      reference_ = signature;
    } else if (signature != reference_) {
      report_.Fail("simulated outputs differ between repetitions of the same unit");
      return false;
    }
    return true;
  }

  void AddMonitorStats(const MonitorStats& s) {
    core_.os_traps += s.os_traps;
    core_.emulated_instrs += s.emulated_instrs;
    core_.world_switches += s.world_switches;
    core_.fastpath_hits += s.fastpath_hits;
    for (unsigned i = 0; i < static_cast<unsigned>(OsTrapCause::kCount); ++i) {
      core_.os_traps_by_cause[i] += s.os_traps_by_cause[i];
    }
  }

  void Summarize(const Usage& window) {
    samples_.cycles_per_instr = costs_.CyclesPerInstr();
    samples_.kcycles_per_request = costs_.KcyclesPerRequest(RequestsPerUnit());
    samples_.ReportEndToEnd(report_, "chunks");
    report_.Samples("units", samples_.rates.size());
    if (!options_.traced) {
      return;
    }
    report_.Samples("traced_chunks", samples_.traced_mips.size());
    report_.Samples("handler_calls", probe_.handler_ns().size());
    MetricSet layers(kLayers);
    samples_.SetCommonLayers(layers);
    SetSimLayers(layers, sim_);
    // Host time of the traced units, from the spans: a chunk's self time is the
    // simulator's, the monitor callbacks inside it are the monitor's.
    const double measured = static_cast<double>(spans_.TotalsFor("unit").total_ns);
    const double monitor_ns = static_cast<double>(spans_.TotalsFor("monitor").total_ns);
    layers.Set("sim.host_share",
               Ratio(static_cast<double>(spans_.TotalsFor("chunk").self_ns()), measured));
    if (spec_.mode != DeployMode::kNative) {
      const double kinstr = static_cast<double>(sim_[kRetired]) / 1000.0;
      const double os_traps = static_cast<double>(core_.os_traps);
      layers.Set("core.os_traps_per_kinstr", Ratio(os_traps, kinstr));
      const char* const causes[] = {"core.traps.time_read", "core.traps.set_timer",
                                    "core.traps.misaligned", "core.traps.ipi",
                                    "core.traps.remote_fence", "core.traps.other"};
      for (unsigned i = 0; i < static_cast<unsigned>(OsTrapCause::kCount); ++i) {
        layers.Set(causes[i], Ratio(static_cast<double>(core_.os_traps_by_cause[i]), os_traps));
      }
      layers.Set("core.fastpath_share", Ratio(static_cast<double>(core_.fastpath_hits), os_traps));
      layers.Set("core.world_switches_per_kinstr",
                 Ratio(static_cast<double>(core_.world_switches), kinstr));
      layers.Set("core.emulated_per_switch", Ratio(static_cast<double>(core_.emulated_instrs),
                                                   static_cast<double>(core_.world_switches)));
      layers.Set("core.handler_ns_p50", Quantile(probe_.handler_ns(), 0.5));
      layers.Set("core.handler_ns_p99", Quantile(probe_.handler_ns(), 0.99));
      layers.Set("core.host_share", Ratio(monitor_ns, measured));
      const double cycles = static_cast<double>(probe_.cycles(MonitorProbe::kOs) +
                                                probe_.cycles(MonitorProbe::kFirmware) +
                                                probe_.cycles(MonitorProbe::kMonitor));
      layers.Set("world.cycles_share.os",
                 Ratio(static_cast<double>(probe_.cycles(MonitorProbe::kOs)), cycles));
      layers.Set("world.cycles_share.firmware",
                 Ratio(static_cast<double>(probe_.cycles(MonitorProbe::kFirmware)), cycles));
      layers.Set("world.cycles_share.monitor",
                 Ratio(static_cast<double>(probe_.cycles(MonitorProbe::kMonitor)), cycles));
      layers.Set("world.host_share.os",
                 Ratio(static_cast<double>(probe_.host_ns(MonitorProbe::kOs)), measured));
      layers.Set("world.host_share.firmware",
                 Ratio(static_cast<double>(probe_.host_ns(MonitorProbe::kFirmware)), measured));
    }
    SetSmpLayers(layers, window, window_retired_);
    layers.Set("exact.sim_instret", static_cast<double>(sim_instret_));
    layers.Set("exact.sim_cycles", static_cast<double>(sim_cycles_));
    layers.ForEach([&](const char* n, double v, const char* u) { report_.Layer(n, v, u); });
  }

  MachineSpec spec_;
  const Options& options_;
  Spans& spans_;
  Report& report_;
  uint64_t chunk_instructions_ = 0;
  uint64_t unit_budget_ = 0;  // a unit still running past this many instructions fails
  PlatformProfile platform_;
  System template_;
  uint64_t results_ = 0;  // guest address of the kernel's result slots
  std::vector<uint8_t> monitor_state_;
  MonitorProbe probe_;
  Measurements samples_;
  ChunkCosts costs_;
  CpuRotation cpus_;
  uint64_t window_retired_ = 0;
  Counters sim_{};
  MonitorStats core_{};
  bool have_reference_ = false;
  uint64_t reference_ = 0;
  uint64_t sim_instret_ = 0;
  uint64_t sim_cycles_ = 0;
};

// -- fleet-open. --------------------------------------------------------------------

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

constexpr unsigned kFleetWorkers = 2;

class FleetBench {
 public:
  FleetBench(const Options& options, Spans& spans, Report& report)
      : options_(options), spans_(spans), report_(report), samples_(kFleetWorkers) {
    config_.machines = options.smoke ? 16 : 128;
    config_.requests_per_machine = options.smoke ? 8 : 32;
    config_.mean_interarrival_ticks = 2000;
    config_.poll_interval_ticks = 500;
    config_.workers = kFleetWorkers;
    // The seed sets the arrival schedules only: the profile's per-request
    // compute is one value for the whole fleet, so jittering it would change
    // the total work.
    config_.seed = options.seed;
    leg_machines_ = options.smoke ? 2 : 8;
  }

  void Run() {
    Setup();
    if (options_.traced) {
      samples_.fork_us =
          TimeForks(*manager_->BootedTemplate(), options_.smoke ? 100 : 1000, spans_);
    }
    Usage window;
    for (uint64_t rep = 0; rep < 2 || window.wall_ns < WindowNs(options_); ++rep) {
      if (rep > 0) {
        Setup();
      }
      const Usage before = Usage::Now();
      RunRepetition(rep, options_.traced && rep % 2 == 1);
      window.AddSince(before);
    }
    while (samples_.setup_s.size() < kMinSetups) {
      Setup();
    }
    Summarize(window);
  }

 private:
  void Setup() {
    const uint64_t t0 = NowNs();
    spans_.Begin("setup", t0);
    // The image build alone, for setup.build_s; the manager builds its own copy
    // inside BootedTemplate(), so this is timed outside setup_s.
    PlatformProfile platform = MakePlatform(config_.platform, 1, false);
    platform.machine.map.ram_size = config_.ram_size;
    FleetServerLayout layout;
    BuildFleetServerKernel(platform, config_.profile, config_.poll_interval_ticks, &layout);
    const uint64_t t1 = NowNs();
    manager_ = std::make_unique<FleetManager>(config_);
    Machine* tmpl = manager_->BootedTemplate();
    const uint64_t t2 = NowNs();
    {
      // The forks every Run() starts with.
      std::vector<std::unique_ptr<Machine>> forks;
      for (unsigned i = 0; i < config_.machines; ++i) {
        forks.push_back(tmpl->Fork());
      }
    }
    // Warm-up: the one-machine leg.
    for (unsigned i = 0; i < leg_machines_; ++i) {
      RunLegMachine(i);
    }
    const uint64_t t3 = NowNs();
    spans_.End(t3);
    samples_.AddSetup(t1 - t0, t2 - t1, t3 - t2, t3 - t1, /*clock_busy_cores=*/1);
  }

  // One forked server driven through the calls the fleet scheduler makes —
  // FastForwardIdleTo, InjectUartInput, RunSlice, and bus reads of the guest's
  // completion ring — on this thread, one request schedule to completion.
  void RunLegMachine(unsigned index) {
    report_.Attempt();
    Machine* tmpl = manager_->BootedTemplate();
    const FleetServerLayout& layout = manager_->layout();
    std::unique_ptr<Machine> m = tmpl->Fork();
    const Counters c0 = ReadCounters(*m);
    uint64_t rng = SeedRng(options_.seed ^ (0xF1EE'0000ull + index)).Next() | 1;
    const uint64_t span = 2 * config_.mean_interarrival_ticks - 1;
    uint64_t next_arrival = tmpl->clint().mtime() + 1 + XorShift64(&rng) % span;
    const uint64_t quota = config_.requests_per_machine;
    uint64_t injected = 0;
    uint64_t completed = 0;
    uint64_t drained = 0;  // completion timestamps read from the guest's ring
    uint64_t parked_wake = 0;
    bool shutdown_sent = false;
    // Spans carry the id of the next request due, the one the call serves.
    const auto timed = [&](const char* name, auto&& call) {
      spans_.Begin(name, NowNs(), static_cast<int64_t>(injected));
      call();
      spans_.End(NowNs());
    };
    spans_.Begin("fleet1", NowNs(), static_cast<int64_t>(index));
    bool finished = false;
    for (uint64_t turn = 0; !finished && turn < 1'000'000; ++turn) {
      if (parked_wake != 0) {
        timed("fleet1.fast_forward", [&] { m->FastForwardIdleTo(parked_wake); });
        parked_wake = 0;
      }
      timed("fleet1.inject", [&] {
        const uint64_t now = m->clint().mtime();
        while (injected < quota && next_arrival <= now) {
          m->InjectUartInput(std::string(1, static_cast<char>(kFleetRequestByte)));
          ++injected;
          next_arrival += 1 + XorShift64(&rng) % span;
        }
        if (!shutdown_sent && injected == quota && completed == quota) {
          m->InjectUartInput(std::string(1, static_cast<char>(kFleetShutdownByte)));
          shutdown_sent = true;
        }
      });
      Machine::SliceResult slice;
      timed("fleet1.run_slice", [&] { slice = m->RunSlice(config_.slice_instructions); });
      timed("fleet1.poll", [&] {
        m->bus().Read(layout.completed_addr, 8, &completed);
        for (; drained < completed; ++drained) {
          uint64_t tick = 0;
          m->bus().Read(layout.latency_ring + (drained & (layout.ring_entries - 1)) * 8, 8,
                        &tick);
        }
      });
      finished = slice.finished;
      if (!finished && slice.idle) {
        uint64_t wake = 0;
        if (m->NextDeadline(&wake)) {
          parked_wake = wake;
        } else if (injected < quota) {
          parked_wake = next_arrival;
        } else {
          break;
        }
      }
    }
    spans_.End(NowNs());
    AddDelta(leg_counters_, ReadCounters(*m), c0);
    if (!finished || m->finisher().exit_code() != 0 || completed != quota) {
      report_.Fail("one-machine fleet leg did not serve every request and finish");
    }
  }

  // An untraced repetition reads the core clock before and after, to convert
  // its host time into host cycles.
  void RunRepetition(uint64_t index, bool traced) {
    report_.Attempt(config_.machines);
    const double hz_before = traced ? 0 : samples_.ReadClock();
    const uint64_t t0 = NowNs();
    if (traced) {
      spans_.Begin("fleet_run", t0, static_cast<int64_t>(index));
    }
    const FleetStats stats = manager_->Run();
    const uint64_t t1 = NowNs();
    if (traced) {
      spans_.End(t1);
    }
    const double hz = traced ? 0 : (hz_before + samples_.ReadClock()) / 2;
    const uint64_t expected = uint64_t{config_.machines} * config_.requests_per_machine;
    bool ok = true;
    // A stalled machine is retired unfinished, so this counts it too.
    for (uint64_t i = stats.finished; i < config_.machines; ++i) {
      report_.Fail("fleet machine stalled or did not finish");
      ok = false;
    }
    if (stats.requests_injected != expected || stats.requests_completed != expected ||
        stats.latencies_ticks.size() != expected) {
      report_.Fail("fleet requests injected != completed");
      ok = false;
    }
    const uint64_t signature = stats.DeterministicSignature();
    if (!have_reference_) {
      have_reference_ = true;
      reference_ = signature;
      first_ = stats;
      report_.Signature(signature);
      report_.Exact("sim_instret", static_cast<double>(stats.total_retired));
      report_.Exact("sim_cycles", static_cast<double>(stats.total_cycles));
      report_.Exact("sim_latency_p50_us", stats.p50_us);
      report_.Exact("sim_latency_p99_us", stats.p99_us);
    } else if (signature != reference_) {
      report_.Fail("simulated outputs differ between fleet repetitions");
      ok = false;
    }
    const double seconds = Seconds(t1 - t0);
    window_retired_ += stats.total_retired;
    if (traced) {
      samples_.traced_mips.push_back(static_cast<double>(stats.total_retired) / seconds / 1e6);
      traced_.push_back(stats);
    } else if (ok) {
      const double retired = static_cast<double>(stats.total_retired);
      const double requests = static_cast<double>(stats.requests_completed);
      samples_.mips.push_back(retired / seconds / 1e6);
      samples_.rates.push_back(requests / seconds);
      cycles_per_instr_.push_back(seconds * hz / retired);
      kcycles_per_request_.push_back(seconds * hz / 1e3 / requests);
    }
  }

  // A repetition is one indivisible FleetManager::Run() on several threads, so
  // its cost is the median over repetitions (see ChunkCosts).
  void Summarize(const Usage& window) {
    samples_.cycles_per_instr = Median(cycles_per_instr_);
    samples_.kcycles_per_request = Median(kcycles_per_request_);
    samples_.ReportEndToEnd(report_, "repetitions");
    if (!options_.traced) {
      return;
    }
    report_.Samples("traced_repetitions", traced_.size());
    MetricSet layers(kLayers);
    samples_.SetCommonLayers(layers);
    // The fleet's own machines are internal to the executor; the sim layer is
    // read from the one-machine legs, which run the same guest the same way.
    SetSimLayers(layers, leg_counters_);
    const double leg_ns = static_cast<double>(spans_.TotalsFor("fleet1").total_ns);
    const auto leg_share = [&](const char* span) {
      return Ratio(static_cast<double>(spans_.TotalsFor(span).total_ns), leg_ns);
    };
    layers.Set("sim.host_share", leg_share("fleet1.run_slice") + leg_share("fleet1.fast_forward"));
    SetSmpLayers(layers, window, window_retired_);
    uint64_t slices = 0;
    uint64_t requests = 0;
    uint64_t retired = 0;
    uint64_t rounds = 0;
    uint64_t steals = 0;
    uint64_t attempts = 0;
    double busy = 0;
    double capacity = 0;
    for (const FleetStats& s : traced_) {
      for (size_t w = 0; w < s.worker_slices.size(); ++w) {
        slices += s.worker_slices[w];
        busy += s.worker_busy_seconds[w];
      }
      capacity += s.wall_seconds * static_cast<double>(s.worker_slices.size());
      requests += s.requests_completed;
      retired += s.total_retired;
      rounds += s.total_rounds;
      steals += s.steals;
      attempts += s.steal_attempts;
    }
    layers.Set("fleet.slices_per_request",
               Ratio(static_cast<double>(slices), static_cast<double>(requests)));
    layers.Set("fleet.retired_per_slice",
               Ratio(static_cast<double>(retired), static_cast<double>(slices)));
    layers.Set("fleet.host_us_per_slice", Ratio(busy * 1e6, static_cast<double>(slices)));
    layers.Set("fleet.worker_busy_share", Ratio(busy, capacity));
    layers.Set("fleet.steal_success_rate",
               Ratio(static_cast<double>(steals), static_cast<double>(attempts)));
    layers.Set("fleet.idle_round_share",
               rounds > retired ? Ratio(static_cast<double>(rounds - retired),
                                        static_cast<double>(rounds))
                                : 0.0);
    layers.Set("fleet1.host_share.run_slice", leg_share("fleet1.run_slice"));
    layers.Set("fleet1.host_share.fast_forward", leg_share("fleet1.fast_forward"));
    layers.Set("fleet1.host_share.inject", leg_share("fleet1.inject"));
    layers.Set("fleet1.host_share.poll", leg_share("fleet1.poll"));
    layers.Set("fleet1.decode_hit_rate",
               HitRate(leg_counters_[kDecodeHits], leg_counters_[kDecodeMisses]));
    layers.Set("fleet1.superblock_hit_rate",
               HitRate(leg_counters_[kSbHits], leg_counters_[kSbMisses]));
    layers.Set("exact.sim_instret", static_cast<double>(first_.total_retired));
    layers.Set("exact.sim_cycles", static_cast<double>(first_.total_cycles));
    layers.Set("exact.sim_latency_p50_us", first_.p50_us);
    layers.Set("exact.sim_latency_p99_us", first_.p99_us);
    layers.ForEach([&](const char* n, double v, const char* u) { report_.Layer(n, v, u); });
  }

  const Options& options_;
  Spans& spans_;
  Report& report_;
  FleetConfig config_;
  unsigned leg_machines_ = 0;
  std::unique_ptr<FleetManager> manager_;
  Counters leg_counters_{};  // one-machine legs, over every setup
  Measurements samples_;
  // Per untraced repetition that passed every check.
  std::vector<double> cycles_per_instr_, kcycles_per_request_;
  std::vector<FleetStats> traced_;
  FleetStats first_;
  uint64_t window_retired_ = 0;
  bool have_reference_ = false;
  uint64_t reference_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cpu-sv39", "redis-offload", "redis-nooffload",
                                                 "smp4-coremark", "fleet-open"};
  return names;
}

void RunWorkload(const Options& options, Spans& spans, Report& report) {
  spans.Begin("workload", NowNs());
  if (options.workload == "fleet-open") {
    FleetBench(options, spans, report).Run();
  } else {
    MachineBench(SpecFor(options.workload), options, spans, report).Run();
  }
  spans.End(NowNs());
}

}  // namespace vfm::bench
