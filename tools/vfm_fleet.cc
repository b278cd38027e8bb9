// Fleet executor CLI (DESIGN.md §2k): boots one fleet-server template, forks it
// into N machines, runs the work-stealing executor with an open-loop request
// front-end, and prints fleet-wide throughput and latency percentiles.
//
//   vfm_fleet --machines 1024 --workers 8 --requests 64 --rate 2000
//
// --rate is the mean request inter-arrival time in timebase ticks (0 = every
// request due at start); --profile picks the per-request work (memcached,
// redis).

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/fleet/fleet.h"

namespace vfm {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vfm_fleet [--machines N] [--workers N] [--requests N]\n"
               "                 [--rate TICKS] [--slice INSTR] [--poll TICKS]\n"
               "                 [--seed S] [--profile memcached|redis]\n"
               "                 [--heavy N]\n");
  return 2;
}

// Parses a count flag: a positive number, else 0 (empty, trailing junk, zero or out
// of range), which the caller rejects with the usage text.
unsigned ParseCount(const char* text) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 0);
  return end != text && *end == '\0' && value <= UINT_MAX ? static_cast<unsigned>(value)
                                                           : 0;
}

}  // namespace

int Main(int argc, char** argv) {
  FleetConfig config;
  config.workers = std::thread::hardware_concurrency() > 0
                       ? std::thread::hardware_concurrency()
                       : 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--machines") {
      config.machines = ParseCount(next());
      if (config.machines == 0) {
        return Usage();
      }
    } else if (arg == "--workers") {
      config.workers = ParseCount(next());
      if (config.workers == 0) {
        return Usage();
      }
    } else if (arg == "--requests") {
      config.requests_per_machine = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--rate") {
      config.mean_interarrival_ticks = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--slice") {
      config.slice_instructions = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--poll") {
      config.poll_interval_ticks = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--heavy") {
      config.heavy_machines = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
      config.heavy_interarrival_ticks = 0;  // heavy = closed-burst
    } else if (arg == "--profile") {
      const std::string name = next();
      if (name == "memcached") {
        config.profile = MemcachedLatencyProfile();
      } else if (name == "redis") {
        config.profile = RedisProfile();
      } else {
        std::fprintf(stderr, "unknown profile '%s'\n", name.c_str());
        return Usage();
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }

  FleetManager manager(config);
  const FleetStats stats = manager.Run();

  std::printf("fleet: %llu machines, %u workers, %llu requests/machine\n",
              static_cast<unsigned long long>(stats.machines), config.workers,
              static_cast<unsigned long long>(config.requests_per_machine));
  std::printf("  finished %llu  stalled %llu  requests %llu/%llu\n",
              static_cast<unsigned long long>(stats.finished),
              static_cast<unsigned long long>(stats.stalled),
              static_cast<unsigned long long>(stats.requests_completed),
              static_cast<unsigned long long>(stats.requests_injected));
  std::printf("  retired %.1fM instructions in %.3fs  ->  %.1f fleet MIPS, %.0f req/s\n",
              static_cast<double>(stats.total_retired) / 1e6, stats.wall_seconds,
              stats.fleet_mips, stats.requests_per_host_sec);
  std::printf("  latency p50 %.1fus  p99 %.1fus  p99.9 %.1fus  mean %.1fus\n",
              stats.p50_us, stats.p99_us, stats.p999_us, stats.mean_us);
  std::printf("  steals %llu (of %llu attempts)\n",
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.steal_attempts));
  for (size_t i = 0; i < stats.worker_retired.size(); ++i) {
    std::printf("  worker %zu: %llu slices, %.1fM instr, busy %.3fs\n", i,
                static_cast<unsigned long long>(stats.worker_slices[i]),
                static_cast<double>(stats.worker_retired[i]) / 1e6,
                stats.worker_busy_seconds[i]);
  }
  std::printf("  deterministic signature: %016llx\n",
              static_cast<unsigned long long>(stats.DeterministicSignature()));

  const bool ok = stats.stalled == 0 && stats.finished == stats.machines &&
                  stats.requests_completed ==
                      config.requests_per_machine * stats.machines;
  return ok ? 0 : 1;
}

}  // namespace vfm

int main(int argc, char** argv) { return vfm::Main(argc, argv); }
