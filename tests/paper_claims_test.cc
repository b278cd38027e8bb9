// The paper's shape claims as executable checks. Each test runs the library path the
// paper benches print from (RunWorkload), not their text, and asserts a claim of the
// paper's evaluation (§8.3) with a bound taken from the paper plus a stated margin,
// not from today's output. Every failure message names the figure and the number it
// checks. The benches' goldens pin the exact bytes; these tests say whether a change
// that moves them still reproduces the paper.
//
// Readings at the commit that added these checks, against their bounds:
//   Fig. 13 monitor rows: 1.024x-1.059x native (bound 0.97x);
//   Fig. 13 no-offload rows: 0.412x-0.613x (bound 0.7x), each far below its monitor
//     row; Redis no-offload 0.572x on p550-sim against 0.613x on vf2-sim (7% apart,
//     the tightest margin here);
//   Fig. 12 monitor p50/p90/p95: 3.6/3.6/5.9 us against native 4.2/4.2/6.5 us;
//   Fig. 12 no-offload p50: 3.8x native (bound 2x).
// Added later:
//   Fig. 10 monitor: 1.000x native (9,191 against 9,190 req/s, and 9,189 once a
//     monitored multi-hart machine batched outside cross-hart exchanges; bound 1%);
//   Fig. 10 no-offload: 0.973x native, 2.7% below it (bounds 0.5% and 6%).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

// The run budgets the benches use.
constexpr uint64_t kFig13Budget = 900'000'000;
constexpr uint64_t kFig12Budget = 600'000'000;
constexpr uint64_t kFig10Budget = 600'000'000;

// Fig. 10: "Miralis ~= native" on CPU-bound CoreMark-Pro, which traps rarely. The
// bound allows the monitor 1% either side of native.
constexpr double kFig10MonitorTolerance = 0.01;
// Fig. 10: no-offload "-1.9% on average". The bounds ask for a loss that shows (at
// least 0.5%) and stays small (at most 6%), as it must when the workload traps rarely.
constexpr double kFig10NoOffloadMinLoss = 0.005;
constexpr double kFig10NoOffloadMaxLoss = 0.06;

// Fig. 13: "Miralis ~= native, up to +7.6% on trap-heavy network apps". The bound
// allows the monitor 3% below native.
constexpr double kMonitorFloor = 0.97;
// Fig. 13: no-offload "up to -259% on Redis/P550", i.e. 0.28x native. The bound only
// asks that no-offload lose at least 30% on these trap-heavy applications.
constexpr double kNoOffloadCeiling = 0.7;
// Fig. 12: no-offload has "~2x the latency" of native at the median.
constexpr double kNoOffloadLatencyFactor = 2.0;

// A ratio as the benches print it.
std::string X(double ratio) {
  char text[32];
  std::snprintf(text, sizeof text, "%.3fx", ratio);
  return text;
}

struct Fig13Row {
  std::string where;  // "redis on vf2-sim"
  double monitor = 0;
  double no_offload = 0;
};

Fig13Row RunFig13Row(PlatformKind platform, const char* platform_name,
                     const WorkloadProfile& app) {
  const double native =
      RunWorkload(platform, DeployMode::kNative, app, kFig13Budget).requests_per_second;
  Fig13Row row;
  row.where = app.name + " on " + platform_name;
  row.monitor =
      RunWorkload(platform, DeployMode::kMiralis, app, kFig13Budget).requests_per_second /
      native;
  row.no_offload = RunWorkload(platform, DeployMode::kMiralisNoOffload, app, kFig13Budget)
                       .requests_per_second /
                   native;
  return row;
}

TEST(PaperClaimsTest, Fig13ApplicationPerformance) {
  std::vector<Fig13Row> rows;
  for (const auto& [platform, name] : {std::pair{PlatformKind::kVf2Sim, "vf2-sim"},
                                       std::pair{PlatformKind::kP550Sim, "p550-sim"}}) {
    for (const WorkloadProfile& app : {RedisProfile(), MemcachedProfile()}) {
      rows.push_back(RunFig13Row(platform, name, app));
    }
  }
  for (const Fig13Row& row : rows) {
    EXPECT_GE(row.monitor, kMonitorFloor)
        << "Fig. 13: " << row.where << " runs at " << X(row.monitor)
        << " native under the monitor; the paper has Miralis ~= native (up to +7.6%), "
        << "bound " << X(kMonitorFloor);
    EXPECT_LT(row.no_offload, row.monitor)
        << "Fig. 13: " << row.where << " runs at " << X(row.no_offload)
        << " native without offload, not below the monitor's " << X(row.monitor);
    EXPECT_LT(row.no_offload, kNoOffloadCeiling)
        << "Fig. 13: " << row.where << " runs at " << X(row.no_offload)
        << " native without offload; the paper loses up to 259% (Redis/P550), bound "
        << X(kNoOffloadCeiling);
  }
  // rows: redis vf2, memcached vf2, redis p550, memcached p550.
  EXPECT_LT(rows[2].no_offload, rows[0].no_offload)
      << "Fig. 13: Redis without offload runs at " << X(rows[2].no_offload)
      << " native on p550-sim, not below its " << X(rows[0].no_offload)
      << " on vf2-sim; the paper's worst no-offload case is Redis on the P550 (-259%)";
}

TEST(PaperClaimsTest, Fig10CoreMarkPro) {
  // Four harts, so a monitored run also goes through the quantum schedule and the
  // monitor's cross-hart holds (DESIGN.md §2i).
  const WorkloadProfile profile = CoreMarkProProfile();
  ASSERT_EQ(profile.harts, 4u);
  const auto score = [&profile](DeployMode mode) {
    return RunWorkload(PlatformKind::kVf2Sim, mode, profile, kFig10Budget)
        .requests_per_second;
  };
  const double native = score(DeployMode::kNative);
  const double monitor = score(DeployMode::kMiralis) / native;
  const double no_offload = score(DeployMode::kMiralisNoOffload) / native;
  EXPECT_NEAR(monitor, 1.0, kFig10MonitorTolerance)
      << "Fig. 10: CoreMark-Pro runs at " << X(monitor)
      << " native under the monitor; the paper has Miralis ~= native, bound "
      << kFig10MonitorTolerance * 100 << "% either side";
  EXPECT_GE(1.0 - no_offload, kFig10NoOffloadMinLoss)
      << "Fig. 10: CoreMark-Pro runs at " << X(no_offload)
      << " native without offload; the paper loses 1.9% on average, bound at least "
      << kFig10NoOffloadMinLoss * 100 << "%";
  EXPECT_LE(1.0 - no_offload, kFig10NoOffloadMaxLoss)
      << "Fig. 10: CoreMark-Pro runs at " << X(no_offload)
      << " native without offload; the paper loses 1.9% on average, bound at most "
      << kFig10NoOffloadMaxLoss * 100 << "%";
}

TEST(PaperClaimsTest, Fig12MemcachedLatency) {
  const WorkloadProfile profile = MemcachedLatencyProfile();
  const auto percentiles = [&profile](DeployMode mode) {
    const WorkloadRun run = RunWorkload(PlatformKind::kVf2Sim, mode, profile, kFig12Budget);
    Histogram histogram;
    for (const uint64_t ticks : run.latencies) {
      histogram.Record(ticks);
    }
    std::vector<uint64_t> ticks;
    for (const double p : {50.0, 90.0, 95.0}) {
      ticks.push_back(histogram.Percentile(p));
    }
    return ticks;
  };
  const std::vector<uint64_t> native = percentiles(DeployMode::kNative);
  const std::vector<uint64_t> monitor = percentiles(DeployMode::kMiralis);
  const std::vector<uint64_t> no_offload = percentiles(DeployMode::kMiralisNoOffload);
  const char* names[] = {"p50", "p90", "p95"};
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_LE(monitor[i], native[i])
        << "Fig. 12: the monitor's " << names[i] << " latency is " << monitor[i]
        << " ticks against native " << native[i]
        << "; the paper has Miralis at or below native up to p95 (263 vs 279 ns medians)";
  }
  EXPECT_GE(static_cast<double>(no_offload[0]),
            kNoOffloadLatencyFactor * static_cast<double>(native[0]))
      << "Fig. 12: the no-offload p50 latency is " << no_offload[0]
      << " ticks against native " << native[0] << "; the paper has ~"
      << X(kNoOffloadLatencyFactor);
}

}  // namespace
}  // namespace vfm
