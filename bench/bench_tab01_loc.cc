// Table 1: lines-of-code decomposition of the monitor. Counts the shipped sources of
// src/core by subsystem (the analog of the paper's Miralis breakdown) at runtime, so
// the numbers always reflect the tree being benchmarked.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

#ifndef VFM_SOURCE_DIR
#define VFM_SOURCE_DIR "."
#endif

unsigned CountLines(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "missing source file %s\n", path.c_str());
    std::exit(1);
  }
  unsigned lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

}  // namespace

int main() {
  vfm::PrintHeader("Table 1", "monitor lines-of-code decomposition");
  const std::filesystem::path root = std::filesystem::path(VFM_SOURCE_DIR) / "src" / "core";
  // Subsystem map mirroring the paper's categories.
  const std::map<std::string, std::vector<std::string>> subsystems = {
      {"Emulator (vcpu + vcsr)", {"vcpu.h", "vcpu.cc", "vcsr.h", "vcsr.cc"}},
      {"Hardware interface (vpmp + vclint)", {"vpmp.h", "vpmp.cc", "vclint.h", "vclint.cc"}},
      {"Monitor core + fast path", {"monitor.h", "monitor.cc"}},
      {"Policy interface", {"policy.h"}},
      {"Policies (sandbox + domain)",
       {"policies/sandbox.h", "policies/sandbox.cc", "policies/domain.h", "policies/domain.cc",
        "policies/keystone.h", "policies/ace.h"}},
  };
  unsigned total = 0;
  for (const auto& [name, files] : subsystems) {
    unsigned lines = 0;
    for (const std::string& file : files) {
      lines += CountLines(root / file);
    }
    std::printf("%-38s %6u LoC\n", name.c_str(), lines);
    total += lines;
  }
  std::printf("%-38s %6u LoC\n", "Total (src/core)", total);
  vfm::PrintFooter("Table 1 (Miralis: emulator 2.7k, hardware interface 1.1k, MMIO devices "
                   "430, fast path 190, other 1.8k, total 6.2k LoC)");
  return 0;
}
