// Hooks from the benchmark harness into the tracer.
//
// nvmbench and nvmbench_traced link the same harness objects.  trace.cpp,
// linked only into nvmbench_traced, defines nvmbench_tracer(); in nvmbench
// the weak reference stays null and every hook below is a no-op, so the
// untraced harness pays one predictable branch per application op.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "nvmbench.hpp"

namespace nvmbench {

// Virtual service and queueing time of one resource group, as read from
// the library's public busy_ns()/queue_delay_ns() getters.
struct GroupTime {
  int64_t busy_ns = 0;
  int64_t queue_ns = 0;
};

class Tracer {
 public:
  virtual ~Tracer() = default;
  // A testbed is about to be built: resource accounting restarts.
  virtual void TestbedBegin() = 0;
  // The testbed is about to be destroyed.  Compares, per resource group
  // ("ssd", "nic", "fuse-daemon", "manager-wal"), the service and queueing
  // time summed from the wrapped Resource::Schedule/Acquire calls against
  // `getters`; returns a description of every mismatch (empty when exact).
  virtual std::string TestbedEnd(
      const std::map<std::string, GroupTime>& getters) = 0;
  // Spans are aggregated only between PhaseBegin and PhaseEnd (the measured
  // phase).  `planned_ops` sizes the per-decile accounting.
  virtual void PhaseBegin(uint64_t planned_ops) = 0;
  virtual void PhaseEnd() = 0;
  // Brackets one application op; the id is stamped on every span inside.
  virtual void RequestBegin(uint64_t id) = 0;
  virtual void RequestEnd() = 0;
  // Per-layer host metrics of the phases since the last call.
  virtual Metrics TakeIteration() = 0;
  // Runs the substrate phase, writes the Chrome trace and the per-layer
  // summary under `out_dir`, and returns the substrate metrics.
  virtual Metrics Finish(const std::string& workload,
                         const std::string& out_dir) = 0;
};

}  // namespace nvmbench

extern "C" nvmbench::Tracer* nvmbench_tracer() __attribute__((weak));

namespace nvmbench {

inline Tracer* ActiveTracer() {
  return nvmbench_tracer != nullptr ? nvmbench_tracer() : nullptr;
}

// The testbed's per-group resource times from the public getters.
std::map<std::string, GroupTime> GetterTimes(nvm::workloads::Testbed& tb);

// Scoped helpers the workloads use.
class TracedTestbed {
 public:
  TracedTestbed() {
    if (Tracer* t = ActiveTracer()) t->TestbedBegin();
  }
  // Call before the testbed is destroyed; a mismatch is a failure.
  void End(nvm::workloads::Testbed& tb, Iteration& it) {
    if (Tracer* t = ActiveTracer()) {
      const std::string err = t->TestbedEnd(GetterTimes(tb));
      if (!err.empty()) Fail(it, "trace/getter mismatch: " + err);
    }
  }
};

inline void PhaseBegin(uint64_t planned_ops) {
  if (Tracer* t = ActiveTracer()) t->PhaseBegin(planned_ops);
}
inline void PhaseEnd() {
  if (Tracer* t = ActiveTracer()) t->PhaseEnd();
}

class Request {
 public:
  explicit Request(uint64_t id) : tracer_(ActiveTracer()) {
    if (tracer_ != nullptr) tracer_->RequestBegin(id);
  }
  ~Request() {
    if (tracer_ != nullptr) tracer_->RequestEnd();
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace nvmbench
