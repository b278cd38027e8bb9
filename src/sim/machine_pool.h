// A pool of pristine template machines handed out as copy-on-write forks
// (DESIGN.md §2h fork-from-template, §2k fleet boot amortization). The expensive
// prefix — Machine construction, image loading, a firmware boot — runs once per
// key inside the caller's factory; every subsequent Acquire is a ~30µs Fork()
// whose child shares RAM pages with the template until either side writes.
//
// Used by the cosim fuzzer's --fork-boot mode (one template per tuning
// configuration) and by the fleet manager (one booted server template forked
// into thousands of fleet machines). Not thread-safe: callers serialize access
// (both users acquire from a single coordinator thread).

#ifndef SRC_SIM_MACHINE_POOL_H_
#define SRC_SIM_MACHINE_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/sim/machine.h"

namespace vfm {

class MachinePool {
 public:
  // Builds (and caches) the template for `key`, constructing it with `make` on
  // the first request. The factory must return a non-null machine; it may run
  // the machine to any convenient fork point (e.g. a booted, idle server).
  using Factory = std::function<std::unique_ptr<Machine>()>;

  // A CoW fork of the template for `key`. The child has no M-mode owner or trap
  // observer installed (Fork() semantics).
  std::unique_ptr<Machine> Acquire(const std::string& key, const Factory& make);

  // The cached template itself (built on demand), for callers that need to read
  // its state — e.g. the progress coordinate every fork inherits. Owned by the
  // pool; valid until Clear().
  Machine* TemplateFor(const std::string& key, const Factory& make);

  // Drops every template (forks already handed out are unaffected — they own
  // their snapshot's RAM image).
  void Clear();

  size_t size() const { return templates_.size(); }
  uint64_t forks() const { return forks_; }

 private:
  std::map<std::string, std::unique_ptr<Machine>> templates_;
  uint64_t forks_ = 0;
};

}  // namespace vfm

#endif  // SRC_SIM_MACHINE_POOL_H_
