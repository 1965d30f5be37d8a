// Multi-tenant QoS: per-resource admission scheduling in virtual time.
//
// The store's first admission discipline was the single-purpose
// `repair_bw_fraction` duty cycle — maintenance idles between batches,
// leaving device-timeline gaps foreground traffic backfills.  The
// QosScheduler arbitrates N tenants on every timed resource: each
// benefactor SSD and each node NIC is a *lane*, and every chunk-sized
// charge asks the scheduler for an admission time before it may book
// device time.  It does not subsume the duty cycle: a lone tenant is
// admitted free (below), so repair booked before the foreground arrives
// is never paced (bench_repair_mttr; DESIGN.md §4g has the numbers).
//
// Per lane and tenant the scheduler keeps a token bucket refilled at the
// tenant's guaranteed `bw_share` of the lane (tokens are nanoseconds of
// device time).  Admission:
//   - uncontended (no other tenant touched the lane within the contention
//     window): admit at `now`, spend no tokens.  This is what makes the
//     scheduler work-conserving — a lone tenant is never slowed, and the
//     single-tenant schedule is *identical* to qos=off.
//   - contended: the request may start once the bucket covers its service
//     time; an empty bucket earns at the tenant's *effective* rate —
//     guaranteed share plus, for the highest active priority tier, a
//     weight-proportional cut of the lane's unguaranteed bandwidth.
// Delayed admission only sets a start floor; the underlying sim::Resource
// still gap-backfills, so bandwidth a delayed tenant leaves idle is
// consumed by whoever is waiting (like the duty cycle's idle gaps).
//
// With `qos = false` Admit() returns `now` unconditionally and takes no
// lock — byte- and virtual-time-identical to the QoS-less store.  The
// per-tenant latency histograms are recorded either way (recording never
// touches a virtual clock).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "store/types.hpp"

namespace nvm::store {

// Lock-free log-bucketed latency histogram: 8 sub-buckets per power of
// two (~9% resolution), atomic counters, percentile readout returns the
// recorded maximum of the selected bucket's range.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr int kBuckets = 64 << kSubBits;

  void Record(int64_t ns);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // Upper edge of the bucket holding the p-th percentile sample (p in
  // [0,1]); 0 when empty.
  int64_t Percentile(double p) const;
  void Reset();

 private:
  static int BucketIndex(uint64_t v);
  static int64_t BucketUpperEdge(int index);

  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
};

// Snapshot of one tenant's scheduler + latency state.
struct QosTenantStats {
  TenantId id = kTenantForeground;
  uint64_t admitted = 0;       // admission requests seen
  uint64_t delayed = 0;        // admissions that waited on tokens
  int64_t delay_ns = 0;        // total admission delay
  uint64_t bytes = 0;          // wire bytes admitted
  uint64_t reads = 0;          // recorded read latencies
  uint64_t writes = 0;         // recorded write latencies
  int64_t read_p50_ns = 0, read_p99_ns = 0, read_p999_ns = 0;
  int64_t write_p50_ns = 0, write_p99_ns = 0, write_p999_ns = 0;
};

struct QosStats {
  std::vector<QosTenantStats> tenants;  // sorted by tenant id
};

class QosScheduler {
 public:
  enum class Lane : uint8_t { kSsd, kNic };

  // `nic_bw_mbps` sizes NIC-lane service estimates (the store does not
  // know wire times; the network does the real charging later).
  QosScheduler(const StoreConfig& config, double nic_bw_mbps);

  bool enabled() const { return enabled_; }

  // Earliest virtual time a `service_ns` request of `tenant` may begin on
  // lane (kind, id), given it arrives at `now`.  Always >= now; == now
  // when qos is off or the lane is uncontended.
  int64_t Admit(Lane kind, int id, TenantId tenant, int64_t service_ns,
                int64_t now);

  // Combined admission for one chunk transfer: `ssd_service_ns` on
  // benefactor `benefactor_lane`'s SSD plus `wire_bytes` on node
  // `node_lane`'s NIC.  Returns the max of the two lane floors.
  int64_t AdmitChunk(int benefactor_lane, int node_lane, TenantId tenant,
                     int64_t ssd_service_ns, uint64_t wire_bytes,
                     int64_t now);

  // Latency recording (on regardless of `qos`; virtual-time free).
  void RecordRead(TenantId tenant, int64_t ns);
  void RecordWrite(TenantId tenant, int64_t ns);

  QosStats Snapshot() const;

 private:
  struct Policy {
    double weight = 1.0;
    double share = 0.0;
    int priority = 1;
  };
  struct LaneTenant {
    double tokens_ns = 0;        // banked device time
    int64_t refill_at_ns = 0;    // bucket valid as of this instant
    int64_t active_until_ns = 0; // busy horizon on this lane
  };
  struct LaneState {
    std::mutex mu;
    // Latest admitted completion on this lane: every request admitted so
    // far is done by this instant.  A request arriving after the frontier
    // finds the lane idle and is admitted for free (work conservation).
    int64_t frontier_ns = 0;
    std::unordered_map<TenantId, LaneTenant> tenants;
  };
  struct TenantAccount {
    Policy policy;
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> delayed{0};
    std::atomic<int64_t> delay_ns{0};
    std::atomic<uint64_t> bytes{0};
    LatencyHistogram read_lat;
    LatencyHistogram write_lat;
  };

  Policy PolicyFor(TenantId tenant) const;
  TenantAccount& Account(TenantId tenant);
  LaneState& LaneFor(Lane kind, int id);

  const bool enabled_;
  const double min_rate_;      // starvation floor on the effective rate
  const int64_t burst_ns_;
  const int64_t window_ns_;
  const double nic_bw_mbps_;
  std::vector<QosTenant> policies_;

  mutable std::mutex lanes_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<LaneState>> lanes_;
  mutable std::mutex accounts_mu_;
  std::unordered_map<TenantId, std::unique_ptr<TenantAccount>> accounts_;
};

}  // namespace nvm::store
