#include "benchmark/src/clock.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace vfm::bench {

namespace {

// The fastest of three timed rounds of the chain, in Hz.
double ChainHz() {
  constexpr uint64_t kSteps = 50'000;
  constexpr double kCyclesPerStep = 6;
  uint64_t best_ns = ~uint64_t{0};
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t y = 1;
  for (int round = 0; round < 3; ++round) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kSteps; ++i) {
      x = (x ^ (x >> 7)) * 0xBF58476D1CE4E5B9ull + y;
      y += x >> 13;
      // Keeps the compiler from vectorizing or folding the chain.
      asm volatile("" : "+r"(x), "+r"(y));
    }
    best_ns = std::min(best_ns, NowNs() - t0);
  }
  return static_cast<double>(kSteps) * kCyclesPerStep * 1e9 /
         static_cast<double>(std::max<uint64_t>(best_ns, 1));
}

}  // namespace

double MeasureCoreHz(unsigned busy_cores) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> helpers;
  for (unsigned i = 1; i < busy_cores; ++i) {
    helpers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      ChainHz();
    });
  }
  while (ready.load() + 1 < busy_cores) {
  }
  go.store(true);
  const double hz = ChainHz();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  return hz;
}

}  // namespace vfm::bench
