#include "src/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/fleet/steal_deque.h"

namespace vfm {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

double TicksToUs(uint64_t ticks, const CostModel& cost) {
  if (cost.freq_mhz == 0) {
    return 0;
  }
  return static_cast<double>(ticks) * static_cast<double>(cost.mtime_tick_cycles) /
         static_cast<double>(cost.freq_mhz);
}

double Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) {
    index = sorted.size() - 1;
  }
  return static_cast<double>(sorted[index]);
}

}  // namespace

// Per-worker scheduler state. The deque holds runnable machines this worker
// owns; any worker may steal from it. Counters are written only by the owning
// worker thread and read after the join.
struct FleetManager::Worker {
  explicit Worker(size_t capacity) : deque(capacity) {}
  StealDeque<FleetMachine> deque;
  unsigned index = 0;
  uint64_t steals = 0;
  uint64_t steal_attempts = 0;
  uint64_t retired = 0;
  uint64_t slices = 0;
  double busy_seconds = 0;
};

uint64_t FleetStats::DeterministicSignature() const {
  const uint64_t fields[] = {machines,           finished,      stalled,      requests_injected,
                             requests_completed, total_retired, total_rounds, total_cycles};
  return Fnv1a64(latencies_ticks.data(), latencies_ticks.size() * sizeof(uint64_t),
                 Fnv1a64(fields, sizeof fields));
}

FleetManager::FleetManager(const FleetConfig& config) : config_(config) {
  VFM_CHECK_MSG(config_.machines > 0, "fleet needs at least one machine");
  VFM_CHECK_MSG(config_.workers > 0, "fleet needs at least one worker");
}

FleetManager::~FleetManager() = default;

void FleetManager::EnsureTemplate() {
  if (pool_.size() != 0) {
    return;
  }
  platform_ = MakePlatform(config_.platform, /*hart_count=*/1, /*with_blockdev=*/false);
  platform_.machine.map.ram_size = config_.ram_size;
  kernel_ = BuildFleetServerKernel(platform_, config_.profile,
                                   config_.poll_interval_ticks, &layout_);
  Machine* tmpl = pool_.TemplateFor("fleet-server", [this] {
    System system = BootSystem(platform_, DeployMode::kNative, kernel_);
    // Run the boot — firmware, kernel init, timer arm — up to the server loop's
    // first WFI park: that idle point is the fork point every fleet machine
    // starts from.
    Machine* machine = system.machine.get();
    for (unsigned i = 0; i < 64; ++i) {
      const Machine::SliceResult r = machine->RunSlice(4'000'000);
      VFM_CHECK_MSG(!r.finished, "fleet template finished during boot");
      if (r.idle) {
        return std::move(system.machine);
      }
    }
    VFM_CHECK_MSG(false, "fleet template never reached the server idle loop");
    return std::move(system.machine);
  });
  uint64_t wake = 0;
  VFM_CHECK_MSG(tmpl->NextDeadline(&wake),
                "fleet template parked with no wake edge (poll timer not armed?)");
  ready_tick_ = tmpl->clint().mtime();
}

Machine* FleetManager::BootedTemplate() {
  EnsureTemplate();
  return pool_.TemplateFor("fleet-server", nullptr);
}

uint64_t FleetManager::NextInterarrival(FleetMachine& fm) const {
  if (fm.interarrival == 0) {
    return 0;  // closed-burst: everything due immediately
  }
  const uint64_t span = 2 * fm.interarrival - 1;
  return 1 + XorShift64(&fm.rng) % span;
}

void FleetManager::PrepareFleet() {
  EnsureTemplate();
  fleet_.clear();
  fleet_.reserve(config_.machines);
  for (unsigned i = 0; i < config_.machines; ++i) {
    auto fm = std::make_unique<FleetMachine>();
    fm->machine = pool_.Acquire("fleet-server", nullptr);
    fm->index = i;
    fm->rng = SplitMix64(SplitMix64(config_.seed) ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    if (fm->rng == 0) {
      fm->rng = 1;
    }
    fm->interarrival = i < config_.heavy_machines ? config_.heavy_interarrival_ticks
                                                  : config_.mean_interarrival_ticks;
    fm->quota = config_.requests_per_machine;
    fm->next_arrival_tick = ready_tick_ + NextInterarrival(*fm);
    fm->start_cycles = fm->machine->cycles();
    fleet_.push_back(std::move(fm));
  }
}

void FleetManager::InjectDueArrivals(FleetMachine& fm) {
  const uint64_t now = fm.machine->clint().mtime();
  while (fm.arrivals_injected < fm.quota && fm.next_arrival_tick <= now) {
    fm.machine->InjectUartInput(std::string(1, static_cast<char>(kFleetRequestByte)));
    fm.inflight.push_back(fm.next_arrival_tick);
    ++fm.arrivals_injected;
    fm.next_arrival_tick += NextInterarrival(fm);
  }
  if (!fm.shutdown_sent && fm.arrivals_injected == fm.quota &&
      fm.drained == fm.quota) {
    fm.machine->InjectUartInput(std::string(1, static_cast<char>(kFleetShutdownByte)));
    fm.shutdown_sent = true;
  }
}

void FleetManager::DrainCompletions(FleetMachine& fm) {
  Machine& m = *fm.machine;
  uint64_t completed = 0;
  m.bus().Read(layout_.completed_addr, 8, &completed);
  const uint64_t mask = layout_.ring_entries - 1;
  // The guest publishes `completed` after the ring store; the host drains every
  // slice, and a slice can complete at most slice_instructions / compute-chain
  // requests (« ring size), so entries are never overwritten before this read.
  while (fm.drained < completed && !fm.inflight.empty()) {
    uint64_t completion_tick = 0;
    m.bus().Read(layout_.latency_ring + (fm.drained & mask) * 8, 8, &completion_tick);
    const uint64_t scheduled = fm.inflight.front();
    fm.inflight.pop_front();
    fm.latencies.push_back(completion_tick > scheduled ? completion_tick - scheduled
                                                       : 0);
    ++fm.drained;
  }
}

void FleetManager::ParkMachine(FleetMachine& fm, uint64_t wake_tick) {
  fm.parked_wake = wake_tick;
  std::lock_guard<std::mutex> lock(park_mutex_);
  parked_.push_back({wake_tick, &fm});
  std::push_heap(parked_.begin(), parked_.end(),
                 [](const Parked& a, const Parked& b) { return a.wake_tick > b.wake_tick; });
}

FleetManager::FleetMachine* FleetManager::PopParked() {
  std::lock_guard<std::mutex> lock(park_mutex_);
  if (parked_.empty()) {
    return nullptr;
  }
  std::pop_heap(parked_.begin(), parked_.end(),
                [](const Parked& a, const Parked& b) { return a.wake_tick > b.wake_tick; });
  FleetMachine* fm = parked_.back().machine;
  parked_.pop_back();
  return fm;
}

void FleetManager::RetireMachine(FleetMachine& fm) {
  fm.finished = fm.machine->finisher().finished();
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
}

void FleetManager::StepMachine(Worker& worker, FleetMachine& fm) {
  Machine& m = *fm.machine;
  if (fm.parked_wake != 0) {
    fm.rounds += m.FastForwardIdleTo(fm.parked_wake);
    fm.parked_wake = 0;
  }
  InjectDueArrivals(fm);
  const Machine::SliceResult slice = m.RunSlice(config_.slice_instructions);
  fm.retired += slice.retired;
  fm.rounds += slice.rounds;
  worker.retired += slice.retired;
  ++worker.slices;
  DrainCompletions(fm);
  if (slice.finished) {
    RetireMachine(fm);
    return;
  }
  if (!slice.idle) {
    worker.deque.Push(&fm);
    return;
  }
  // Parked: resume at the machine's own next wake edge — normally the guest's
  // poll timer. A machine with no edge armed but arrivals still scheduled wakes
  // at the next arrival (defensive: the injected byte alone cannot wake a guest
  // whose timer died, and the stall is then detected on the next turn).
  uint64_t wake = 0;
  if (m.NextDeadline(&wake)) {
    ParkMachine(fm, wake);
  } else if (fm.arrivals_injected < fm.quota) {
    ParkMachine(fm, fm.next_arrival_tick);
  } else {
    fm.stalled = true;
    RetireMachine(fm);
  }
}

FleetManager::FleetMachine* FleetManager::FindWork(Worker& worker) {
  FleetMachine* fm = worker.deque.Pop();
  if (fm != nullptr) {
    return fm;
  }
  const size_t n = workers_.size();
  for (size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(worker.index + k) % n];
    ++worker.steal_attempts;
    fm = victim.deque.Steal();
    if (fm != nullptr) {
      ++worker.steals;
      return fm;
    }
  }
  return PopParked();
}

void FleetManager::WorkerMain(unsigned index) {
  Worker& worker = *workers_[index];
  while (remaining_.load(std::memory_order_acquire) > 0) {
    FleetMachine* fm = FindWork(worker);
    if (fm == nullptr) {
      // Transiently dry: every live machine is currently held by another
      // worker. Yield instead of spinning hot; the barrier-free design means
      // this only happens at the tail of a run.
      std::this_thread::yield();
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    StepMachine(worker, *fm);
    worker.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
}

FleetStats FleetManager::Run() {
  PrepareFleet();

  workers_.clear();
  for (unsigned i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>(config_.machines);
    worker->index = i;
    workers_.push_back(std::move(worker));
  }
  // Block distribution: worker w starts with machines [w*N/W, (w+1)*N/W) — the
  // skewed-load configurations put all heavy machines on worker 0, which is
  // exactly the imbalance the stealing is there to fix.
  for (unsigned i = 0; i < config_.machines; ++i) {
    const unsigned w = static_cast<unsigned>(
        (static_cast<uint64_t>(i) * config_.workers) / config_.machines);
    workers_[w]->deque.Push(fleet_[i].get());
  }
  parked_.clear();
  remaining_.store(config_.machines, std::memory_order_release);

  const auto start = std::chrono::steady_clock::now();
  if (config_.workers == 1) {
    WorkerMain(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(config_.workers);
    for (unsigned i = 0; i < config_.workers; ++i) {
      threads.emplace_back([this, i] { WorkerMain(i); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  return Aggregate(wall);
}

FleetStats FleetManager::Aggregate(double wall_seconds) const {
  FleetStats stats;
  stats.machines = fleet_.size();
  for (const auto& fm : fleet_) {
    stats.finished += fm->finished ? 1 : 0;
    stats.stalled += fm->stalled ? 1 : 0;
    stats.requests_injected += fm->arrivals_injected;
    stats.requests_completed += fm->drained;
    stats.total_retired += fm->retired;
    stats.total_rounds += fm->rounds;
    stats.total_cycles += fm->machine->cycles() - fm->start_cycles;
    stats.latencies_ticks.insert(stats.latencies_ticks.end(), fm->latencies.begin(),
                                 fm->latencies.end());
  }
  std::sort(stats.latencies_ticks.begin(), stats.latencies_ticks.end());
  const CostModel& cost = platform_.machine.cost;
  stats.p50_us = TicksToUs(
      static_cast<uint64_t>(Percentile(stats.latencies_ticks, 0.50)), cost);
  stats.p99_us = TicksToUs(
      static_cast<uint64_t>(Percentile(stats.latencies_ticks, 0.99)), cost);
  stats.p999_us = TicksToUs(
      static_cast<uint64_t>(Percentile(stats.latencies_ticks, 0.999)), cost);
  if (!stats.latencies_ticks.empty()) {
    uint64_t sum = 0;
    for (const uint64_t ticks : stats.latencies_ticks) {
      sum += ticks;
    }
    stats.mean_us = TicksToUs(sum, cost) / static_cast<double>(stats.latencies_ticks.size());
  }
  stats.wall_seconds = wall_seconds;
  if (wall_seconds > 0) {
    stats.fleet_mips =
        static_cast<double>(stats.total_retired) / wall_seconds / 1e6;
    stats.requests_per_host_sec =
        static_cast<double>(stats.requests_completed) / wall_seconds;
  }
  for (const auto& worker : workers_) {
    stats.steals += worker->steals;
    stats.steal_attempts += worker->steal_attempts;
    stats.worker_retired.push_back(worker->retired);
    stats.worker_slices.push_back(worker->slices);
    stats.worker_busy_seconds.push_back(worker->busy_seconds);
  }
  return stats;
}

}  // namespace vfm
