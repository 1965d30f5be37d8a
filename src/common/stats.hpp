// Instrumentation counters.  (Latency histograms live with their one user,
// store::LatencyHistogram in store/qos.hpp.)
#pragma once

#include <atomic>
#include <cstdint>

namespace nvm {

// A named monotonically increasing counter (bytes moved, ops served...).
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace nvm
