// What one benchmark run reports: named metrics with units, the simulated
// outputs that must be bit-identical run to run, sample counts, and every
// failed check. Printed as one JSON line at the end of the run.

#ifndef BENCHMARK_SRC_REPORT_H_
#define BENCHMARK_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vfm::bench {

// q-quantile (0..1) of `values` by linear interpolation between order
// statistics; 0 when empty. Takes a copy: callers keep their sample order.
double Quantile(std::vector<double> values, double q);

class Report {
 public:
  // End-to-end metrics, as a user of the simulator sees them (untraced units).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  // Per-layer metrics (traced pass only).
  void Layer(const std::string& name, double value, const std::string& unit);
  // Simulated outputs of one unit of work: identical on every repetition, in
  // both passes, and on every commit that claims no simulated change.
  void Exact(const std::string& name, double value);
  // Digest of everything a unit of work computes (a superset of Exact).
  void Signature(uint64_t digest) { signature_ = digest; }
  void Samples(const std::string& name, uint64_t count);

  void Attempt(uint64_t count = 1) { attempted_ += count; }
  // Records a failed operation with a reason (deduplicated in the output).
  void Fail(const std::string& reason);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  std::string ToJson(const std::string& workload, uint64_t seed, bool traced, bool smoke,
                     double seconds, const std::string& trace_file) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<Metric> exact_;
  std::vector<std::pair<std::string, uint64_t>> samples_;
  std::vector<std::string> failures_;
  uint64_t signature_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace vfm::bench

#endif  // BENCHMARK_SRC_REPORT_H_
