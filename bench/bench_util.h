// Shared table-printing helpers for the benchmark binaries. Every bench regenerates
// one table or figure of the paper and prints it in a comparable textual form.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

namespace vfm {

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void PrintFooter(const std::string& paper_reference) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("paper reference: %s\n", paper_reference.c_str());
}

}  // namespace vfm

#endif  // BENCH_BENCH_UTIL_H_
