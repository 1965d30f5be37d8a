// Shared pieces of the repository benchmark harness (nvmbench).
//
// The harness runs one workload per process on one host thread.  Every
// simulated client owns a sim::ExecutionContext, and closed-loop workloads
// always step the client with the smallest virtual clock (ties go to the
// lowest client id), so every virtual-time result repeats bit for bit for a
// given seed.  The seed only shapes the generated inputs; the library never
// sees it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "workloads/testbed.hpp"

namespace nvm::store {
struct MaintenanceStats;
}  // namespace nvm::store

namespace nvmbench {

using nvm::sim::ExecutionContext;
using nvm::sim::VirtualClock;

inline constexpr size_t kClients = 4;           // client nodes 0..3
inline constexpr int kFirstBenefactorNode = 6;  // benefactors on nodes 6..11
inline constexpr size_t kBenefactors = 6;
inline constexpr uint64_t kChunk = 64 * 1024;
inline constexpr uint64_t kPage = 4 * 1024;

// A named value with its unit; the harness's only output currency.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What one iteration (fresh testbed(s), set-up, warm-up, measured phase,
// verification) of a workload produced.
struct Iteration {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // byte-verification and op failures
  double setup_s = 0;               // host: build, populate, warm up
  double measured_s = 0;            // host: the measured phase
  uint64_t measured_ops = 0;        // application ops in the measured phase
  // Virtual op latencies of the measured phase (ns), in issue order.
  std::vector<int64_t> latencies_ns;
  // Every virtual-time metric and every counter: these must repeat
  // exactly across iterations of one seed.
  Metrics exact;
};

// The shared testbed: 6 compute nodes, 6 remote X25-E benefactors on
// nodes 6-11 (manager on node 6), bonded GigE, 64 KiB chunks, 4 KiB pages,
// a 2 MiB fuselite cache and a 4 MiB page pool per client node, dirty-page
// and asynchronous eviction write-back.
nvm::workloads::TestbedOptions BaseTestbedOptions();

// Host CPU seconds this process has used (all threads).  The simulator is
// CPU bound, and CPU time leaves out the time the host spent running other
// processes, which is most of the noise in wall time on a shared machine.
double HostSeconds();

// Nearest-rank percentile (p in (0, 1]) of `sorted`.
int64_t Percentile(const std::vector<int64_t>& sorted, double p);

// Closed-loop scheduler: repeatedly installs the context of the client with
// the smallest virtual clock (ties: lowest index) and calls step(client)
// until every client's step has returned false.
void RunClosedLoop(std::vector<ExecutionContext>& clients,
                   const std::function<bool(size_t)>& step);

// Advance every client clock to the latest one (a phase barrier).
int64_t AlignClocks(std::vector<ExecutionContext>& clients);

// Contexts for client nodes 0..n-1, clocks at `t0`.
std::vector<ExecutionContext> MakeClients(size_t n, int64_t t0 = 0);

// Raw counters of one testbed, read from the library's public getters.
// Deltas of two captures give the per-layer numbers of a phase.
struct Counters {
  std::map<std::string, double> v;
  double operator[](const std::string& k) const;
};
Counters Capture(nvm::workloads::Testbed& tb);
// end - begin for every key (levels such as wear are taken from `end`).
Counters Delta(const Counters& begin, const Counters& end);
void Accumulate(Counters& into, const Counters& add);

// The per-layer counters of a measured phase, derived from a counter delta.
// `ops` is the phase's application op count, `app_bytes` the bytes the
// application moved, `span_ns` its virtual duration; `maint` (null when the
// maintenance service is off) gives the store.maintenance metrics.
void AddLayerMetrics(Metrics& out, const Counters& d, uint64_t ops,
                     uint64_t app_bytes, int64_t span_ns,
                     const nvm::store::MaintenanceStats* maint = nullptr);

// The end-to-end metrics every workload reports from its measured phase.
struct PhaseTotals {
  uint64_t app_bytes = 0;          // bytes the application read or wrote
  uint64_t app_bytes_written = 0;  // bytes the application wrote
  int64_t span_ns = 0;             // virtual duration of the phase
  uint64_t device_bytes_programmed = 0;
  uint64_t benefactor_bytes_used = 0;  // at the end of the phase
  uint64_t live_user_bytes = 0;        // at the end of the phase
};
void AddEndToEndMetrics(Metrics& out, std::vector<int64_t> latencies,
                        const PhaseTotals& t);

// Workload-specific headline numbers, reported as per-layer metrics on every
// workload (0 where the workload has no such phase).
struct AppMetrics {
  double ckpt_step_ms = 0;  // ckpt-ec: median virtual SsdCheckpoint time
  double restart_mbps = 0;  // ckpt-ec: virtual SsdRestart throughput
  double mttr_ms = 0;       // degraded: kill -> repair converged
  double max_rate_ops = 0;  // degraded: highest rung meeting the limit
};
void AddAppMetrics(Metrics& out, const AppMetrics& a);

// Virtual think time before a closed-loop client's next access:
// exponentially distributed with a mean of 2 us.  Besides modelling the
// application's own work, the randomness keeps the clients from marching
// in lock step, so every seed gives a different interleaving.
int64_t ThinkNs(nvm::Xoshiro256& rng);

// Deterministic byte fill: the same (seed, a, b) always gives the same
// bytes.
void FillBytes(uint8_t* out, size_t n, uint64_t seed, uint64_t a, uint64_t b);

// Records a failed op or verification in `it` (keeps the first few
// messages).
void Fail(Iteration& it, const std::string& what);

}  // namespace nvmbench
