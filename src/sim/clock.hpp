// Virtual time.
//
// The entire performance model runs on virtual clocks: every simulated
// "process" (an OS thread inside the in-process cluster) owns a
// VirtualClock, and every timed operation — SSD access, network transfer,
// compute phase — *charges* modelled nanoseconds to the calling process's
// clock instead of sleeping.  Shared hardware (an SSD, a NIC) is modelled by
// sim::Resource, which maintains a timeline of busy intervals so that
// contention and queueing emerge exactly as in a discrete-event simulation,
// while data movement itself really happens (bytes are memcpy'd), keeping
// functional behaviour honest.
//
// This is the substitution that lets a single-core container reproduce the
// performance *shapes* of the paper's 128-core cluster: ratios between
// DRAM, local SSD, and remote SSD timings come from the device models, not
// from physical concurrency.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace nvm::sim {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(int64_t start_ns) : now_ns_(start_ns) {}

  int64_t now() const { return now_ns_; }

  // Advance by a non-negative duration.
  void Advance(int64_t ns) {
    if (ns > 0) now_ns_ += ns;
  }

  // Move forward to `t` if `t` is in the future; never moves backwards.
  void AdvanceTo(int64_t t) {
    if (t > now_ns_) now_ns_ = t;
  }

  void Reset(int64_t t = 0) { now_ns_ = t; }

 private:
  int64_t now_ns_ = 0;
};

// Any `need` of `candidates` items, fetched in rounds: each round forks
// one clock per outstanding item at its start — the next need - done
// untried candidates, in order — and joins them at the max, so a failure
// seen at the join pulls the next candidate into the following round and
// never overlaps the attempt that failed.  `try_one(fork, i)` runs
// candidate i on its forked clock and reports success.  `clock` ends at
// the last join; returns the number of successes.
template <typename TryOne>
size_t ForkJoinRounds(VirtualClock& clock, size_t need, size_t candidates,
                      TryOne&& try_one) {
  size_t done = 0;
  size_t next = 0;
  while (done < need && next < candidates) {
    const int64_t start = clock.now();
    int64_t join = start;
    const size_t end = std::min(candidates, next + (need - done));
    for (; next < end; ++next) {
      VirtualClock fork(start);
      if (try_one(fork, next)) ++done;
      join = std::max(join, fork.now());
    }
    clock.AdvanceTo(join);
  }
  return done;
}

// Per-thread execution context.  The simulated cluster installs one for
// each process thread; test code and main() get a lazily created default so
// the library works outside a cluster too.
struct ExecutionContext {
  VirtualClock clock;
  int node_id = 0;   // which simulated node this process runs on
  int rank = 0;      // global process rank (for minimpi)
  std::string name = "main";
};

// Context of the calling thread (never null; default-constructed on first
// use for threads outside a cluster).
ExecutionContext& CurrentContext();

// Install/remove an externally owned context for the calling thread.
// Passing nullptr reverts to the thread's default context.
void SetCurrentContext(ExecutionContext* ctx);

// Shorthand for CurrentContext().clock.
VirtualClock& CurrentClock();

}  // namespace nvm::sim
