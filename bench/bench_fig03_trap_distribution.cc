// Figure 3: distribution of M-mode trap causes over time during a Linux-like boot.
// The run has three phases mirroring the paper's trace (bootloader, early kernel
// initialization, idling in user space); traps are bucketed per time window and
// reported as per-cause percentages. Also reports the boot-time totals of §8.3.2 and
// the world-switch-rate claim of §3.4 (~1.17 switches/s during boot with offload).

#include <array>
#include <vector>

#include "bench/bench_util.h"
#include "src/isa/csr.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 800'000'000;
constexpr unsigned kCauseCount = static_cast<unsigned>(OsTrapCause::kCount);

Image BootLikeKernel(const PlatformProfile& profile) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.enable_paging = true;
  config.timer_interval = 1500;  // the periodic tick dominates once booted
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();

  // Phase 1 — bootloader + early init: bursts of misaligned accesses (unaligned
  // image parsing), time reads, and timer programming between compute bursts.
  for (unsigned burst = 0; burst < 24; ++burst) {
    kb.EmitComputeLoop(40, 32);
    for (unsigned i = 0; i < 6; ++i) {
      kb.EmitMisalignedLoad();
    }
    kb.EmitTimeRead();
    kb.EmitTimeRead();
    kb.EmitSetTimerRelative(1500);
  }
  kb.EmitPrint("minios: init complete\n");

  // Phase 2 — services starting: IPIs and remote fences appear.
  for (unsigned burst = 0; burst < 16; ++burst) {
    kb.EmitComputeLoop(60, 32);
    kb.EmitTimeRead();
    kb.EmitSendIpi(1);
    kb.EmitRemoteFence(1);
  }

  // Phase 3 — idle in user space: wait out ticks in WFI.
  a.La(t0, "k_results");
  a.Ld(s4, t0, 8 * KernelSlots::kTimerTicks);
  a.Addi(s4, s4, 40);
  const std::string wait = "f3_idle";
  a.Bind(wait);
  a.Wfi();
  a.La(t0, "k_results");
  a.Ld(t1, t0, 8 * KernelSlots::kTimerTicks);
  a.Bltu(t1, s4, wait);

  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

struct BootRun {
  uint64_t cycles = 0;
  double seconds = 0;
  uint64_t world_switches = 0;
  std::vector<std::array<uint64_t, kCauseCount>> windows;
  uint64_t total_traps = 0;
};

BootRun RunBoot(DeployMode mode, bool collect_windows) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, mode, BootLikeKernel(profile));

  BootRun run;
  std::array<uint64_t, kCauseCount> native_counts = {};
  if (mode == DeployMode::kNative) {
    system.machine->SetTrapObserver([&](const Hart& hart, const StepResult& step) {
      if (!step.entered_mmode || (step.trap_cause & kInterruptBit) != 0) {
        return;
      }
      // Only count traps from outside the firmware (the OS): the firmware runs in
      // M-mode natively, so its own re-entries never trap. The monitor classifies
      // its own with the same rules (MonitorStats).
      const OsTrapCause cause = ClassifyOsTrap(step.trap_cause, hart.csrs().Get(kCsrMtval),
                                               hart.gpr(17), hart.gpr(16));
      ++native_counts[static_cast<unsigned>(cause)];
    });
  }

  const uint64_t window_ticks = 2000;  // the "500 ms" window analog in timebase ticks
  std::array<uint64_t, kCauseCount> last = {};
  uint64_t next_window = window_ticks;
  auto snapshot = [&]() -> std::array<uint64_t, kCauseCount> {
    if (mode == DeployMode::kNative) {
      return native_counts;
    }
    std::array<uint64_t, kCauseCount> counts = {};
    for (unsigned i = 0; i < kCauseCount; ++i) {
      counts[i] = system.monitor->stats().os_traps_by_cause[i];
    }
    return counts;
  };

  const bool finished = system.machine->RunUntil(
      [&] {
        if (collect_windows && system.machine->clint().mtime() >= next_window) {
          const auto now = snapshot();
          std::array<uint64_t, kCauseCount> delta = {};
          for (unsigned i = 0; i < kCauseCount; ++i) {
            delta[i] = now[i] - last[i];
          }
          run.windows.push_back(delta);
          last = now;
          next_window += window_ticks;
        }
        return false;
      },
      kBudget);
  if (!finished || system.machine->finisher().exit_code() != 0) {
    std::fprintf(stderr, "figure-3 boot run failed (%s)\n", DeployModeName(mode));
    std::exit(1);
  }
  run.cycles = system.machine->cycles();
  run.seconds = static_cast<double>(run.cycles) /
                (static_cast<double>(profile.machine.cost.freq_mhz) * 1e6);
  if (system.monitor != nullptr) {
    run.world_switches = system.monitor->stats().world_switches;
  }
  const auto final_counts = snapshot();
  for (uint64_t count : final_counts) {
    run.total_traps += count;
  }
  return run;
}

}  // namespace
}  // namespace vfm

int main() {
  using vfm::OsTrapCause;
  vfm::PrintHeader("Figure 3", "M-mode trap causes over time during boot (vf2-sim)");

  vfm::BootRun native = vfm::RunBoot(vfm::DeployMode::kNative, /*collect_windows=*/true);
  std::printf("%-8s", "window");
  for (unsigned i = 0; i < vfm::kCauseCount; ++i) {
    std::printf(" %12s", vfm::OsTrapCauseName(static_cast<OsTrapCause>(i)));
  }
  std::printf("\n");
  for (size_t w = 0; w < native.windows.size(); ++w) {
    uint64_t total = 0;
    for (uint64_t c : native.windows[w]) {
      total += c;
    }
    std::printf("%-8zu", w);
    for (unsigned i = 0; i < vfm::kCauseCount; ++i) {
      std::printf(" %11.1f%%",
                  total == 0 ? 0.0 : 100.0 * static_cast<double>(native.windows[w][i]) /
                                         static_cast<double>(total));
    }
    std::printf("\n");
  }
  std::printf("\nboot totals (§8.3.2 analog):\n");
  vfm::BootRun monitor = vfm::RunBoot(vfm::DeployMode::kMiralis, false);
  vfm::BootRun no_offload = vfm::RunBoot(vfm::DeployMode::kMiralisNoOffload, false);
  std::printf("  %-22s %10.4f s   (baseline)\n", "native", native.seconds);
  std::printf("  %-22s %10.4f s   (%.1f%% overhead), %llu world switches (%.2f/s)\n", "monitor",
              monitor.seconds, 100.0 * (monitor.seconds / native.seconds - 1.0),
              static_cast<unsigned long long>(monitor.world_switches),
              static_cast<double>(monitor.world_switches) / monitor.seconds);
  std::printf("  %-22s %10.4f s   (%.1f%% overhead), %llu world switches (%.2f/s)\n",
              "monitor-no-offload", no_offload.seconds,
              100.0 * (no_offload.seconds / native.seconds - 1.0),
              static_cast<unsigned long long>(no_offload.world_switches),
              static_cast<double>(no_offload.world_switches) / no_offload.seconds);
  std::printf("  total OS traps during native boot: %llu\n",
              static_cast<unsigned long long>(native.total_traps));

  vfm::PrintFooter("Figure 3 + §8.3.2 (five causes ~= 99.98%% of traps; boot 47.5s native vs "
                   "48.0s Miralis vs 61.3s no-offload; offload cuts world switches to ~1/s)");
  return 0;
}
