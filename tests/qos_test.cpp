// Scheduler-fairness suite for the multi-tenant QoS scheduler:
// starvation-freedom (the effective-rate floor bounds any tenant's
// admission delay), work-conservation (a lone tenant is never slowed —
// which also makes single-tenant qos=on byte- and virtual-time-identical
// to qos=off), weight ratios honored within tolerance on a saturated
// lane, the guaranteed-share delay bound, and the qos=off identity pin
// (a store with QoS compiled in but disabled produces exactly the same
// virtual timeline and device traffic as one that never heard of QoS).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/qos.hpp"
#include "store/store.hpp"

namespace nvm {
namespace {

using store::kTenantForeground;
using store::kTenantMaintenance;
using store::LatencyHistogram;
using store::QosScheduler;
using store::QosStats;
using store::QosTenant;
using store::StoreConfig;
using store::TenantId;

constexpr int64_t kUs = 1'000;
constexpr int64_t kMs = 1'000'000;
constexpr auto kSsd = QosScheduler::Lane::kSsd;

StoreConfig QosConfig(std::vector<QosTenant> tenants, bool on = true) {
  StoreConfig cfg;
  cfg.qos = on;
  cfg.qos_tenants = std::move(tenants);
  return cfg;
}

TEST(QosSchedulerTest, OffIsPassThrough) {
  QosScheduler qos(QosConfig({{0, 1.0, 0.1, 1}, {2, 1.0, 0.9, 2}},
                             /*on=*/false),
                   230.0);
  EXPECT_FALSE(qos.enabled());
  // Even a pattern that would saturate the lane admits instantly.
  for (int i = 0; i < 100; ++i) {
    const int64_t now = i * kUs;
    EXPECT_EQ(qos.Admit(kSsd, 0, 0, 500 * kUs, now), now);
    EXPECT_EQ(qos.Admit(kSsd, 0, 2, 500 * kUs, now), now);
  }
}

TEST(QosSchedulerTest, LoneTenantIsNeverDelayed) {
  // Work conservation: with nobody else on the lane, admission is free —
  // qos=on with one tenant is identical to qos=off.
  QosScheduler qos(QosConfig({{0, 1.0, 0.25, 1}}), 230.0);
  ASSERT_TRUE(qos.enabled());
  int64_t now = 0;
  for (int i = 0; i < 1000; ++i) {
    // Far more demand than a 25% share could ever cover.
    EXPECT_EQ(qos.Admit(kSsd, 0, 0, 10 * kMs, now), now);
    now += kUs;
  }
  const QosStats stats = qos.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].delayed, 0u);
}

TEST(QosSchedulerTest, ContentionWindowExpires) {
  StoreConfig cfg = QosConfig({{0, 1.0, 0.1, 1}, {2, 1.0, 0.1, 1}});
  cfg.qos_window_ms = 4;
  QosScheduler qos(cfg, 230.0);
  // Tenant 2 books the lane until t=300us...
  EXPECT_EQ(qos.Admit(kSsd, 0, 2, 300 * kUs, 0), 0);
  // ...so tenant 0 arriving behind that backlog is contended (10% share,
  // empty bucket, large request => delayed)...
  EXPECT_GT(qos.Admit(kSsd, 0, 0, 2 * kMs, 200 * kUs), 200 * kUs);
  // ...but once tenant 2 has been idle past the window, tenant 0 is a
  // lone tenant again and admits instantly.
  const int64_t later = 100 * kMs;
  EXPECT_EQ(qos.Admit(kSsd, 0, 0, 2 * kMs, later), later);
}

// Interleaved closed-loop driver over one lane: each tenant issues its
// next request at the granted start (backlogged pipelining); an
// instantly-admitted request paces at completion so the loop always
// advances.  Returns per-tenant admitted counts at `horizon`.
template <size_t N>
void PumpInterleaved(QosScheduler& qos, const TenantId (&ids)[N],
                     int64_t service, int64_t horizon, int (&counts)[N]) {
  int64_t now[N] = {};
  bool live[N];
  for (size_t i = 0; i < N; ++i) {
    counts[i] = 0;
    live[i] = true;
  }
  size_t remaining = N;
  while (remaining > 0) {
    // Advance whichever loop is earliest in virtual time.
    size_t which = N;
    for (size_t i = 0; i < N; ++i) {
      if (live[i] && (which == N || now[i] < now[which])) which = i;
    }
    const int64_t start = qos.Admit(kSsd, 0, ids[which], service, now[which]);
    if (start + service > horizon) {
      live[which] = false;
      --remaining;
      continue;
    }
    ++counts[which];
    now[which] = start == now[which] ? start + service : start;
  }
}

TEST(QosSchedulerTest, WeightRatiosHonoredOnSaturatedLane) {
  // Same priority, no guaranteed shares: all bandwidth is the weighted
  // pool, split 3:1.
  QosScheduler qos(QosConfig({{0, 3.0, 0.0, 1}, {2, 1.0, 0.0, 1}}), 230.0);
  const int64_t service = 100 * kUs;
  const int64_t horizon = 500 * kMs;
  const TenantId ids[2] = {0, 2};
  int counts[2];
  PumpInterleaved(qos, ids, service, horizon, counts);
  ASSERT_GT(counts[1], 0);
  const double ratio =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  EXPECT_GT(ratio, 2.3) << counts[0] << " vs " << counts[1];
  EXPECT_LT(ratio, 3.7) << counts[0] << " vs " << counts[1];
}

TEST(QosSchedulerTest, StarvationFreedom) {
  // Tenant 2 has no share and loses every priority tie; the effective-
  // rate floor still guarantees it 2% of the lane.
  QosScheduler qos(QosConfig({{0, 1.0, 0.9, 2}, {2, 1.0, 0.0, 0}}), 230.0);
  const int64_t service = 100 * kUs;
  // Keep the aggressor visibly active across the whole run.
  for (int64_t t = 0; t < 1000 * kMs; t += kMs) {
    qos.Admit(kSsd, 0, 0, 900 * kUs, t);
  }
  int64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    const int64_t start = qos.Admit(kSsd, 0, 2, service, now);
    // Delay per request is bounded by service / floor-rate (2%).
    EXPECT_LE(start - now, service * 50 + kUs) << "request " << i;
    now = start + service;
  }
  const QosStats stats = qos.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[1].id, 2u);
  EXPECT_GT(stats.tenants[1].delayed, 0u);
}

TEST(QosSchedulerTest, GuaranteedShareBoundsBacklogDelay) {
  // A backlogged tenant with share s admits, in steady state, one
  // `service` request every ~service/s — here 2x service at s=0.5.
  QosScheduler qos(QosConfig({{0, 1.0, 0.5, 1}, {2, 1.0, 0.5, 1}}), 230.0);
  const int64_t service = 100 * kUs;
  const int64_t horizon = 100 * kMs;
  const TenantId ids[2] = {0, 2};
  int counts[2];
  PumpInterleaved(qos, ids, service, horizon, counts);
  // Each should get ~50% of the lane: horizon/service/2 = 500 requests.
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(counts[i], 400) << "tenant " << ids[i];
    EXPECT_LT(counts[i], 600) << "tenant " << ids[i];
  }
}

TEST(QosSchedulerTest, HistogramPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.5), 0);
  for (int i = 1; i <= 1000; ++i) h.Record(i * kUs);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed with 8 sub-buckets per octave: ~12.5% resolution, and
  // Percentile returns the bucket's upper edge (never an underestimate
  // beyond one bucket).
  const int64_t p50 = h.Percentile(0.50);
  const int64_t p99 = h.Percentile(0.99);
  EXPECT_GE(p50, 500 * kUs);
  EXPECT_LE(p50, 570 * kUs);
  EXPECT_GE(p99, 990 * kUs);
  EXPECT_LE(p99, 1130 * kUs);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(QosSchedulerTest, AdmitChunkAccountsBytes) {
  QosScheduler qos(QosConfig({{0, 1.0, 0.5, 1}}), 230.0);
  const int64_t start = qos.AdmitChunk(0, 3, 0, 100 * kUs, 64_KiB, 0);
  EXPECT_EQ(start, 0);  // lone tenant on both lanes
  const QosStats stats = qos.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].bytes, 64_KiB);
  EXPECT_EQ(stats.tenants[0].admitted, 2u);  // SSD lane + NIC lane
}

TEST(QosSchedulerConcurrencyTest, ParallelAdmissionsAreSane) {
  QosScheduler qos(QosConfig({{0, 2.0, 0.3, 1},
                              {2, 1.0, 0.3, 1},
                              {3, 1.0, 0.2, 0}}),
                   230.0);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&qos, &ok, t] {
      const TenantId tenant = static_cast<TenantId>(t % 3 == 1 ? 2 : t % 3);
      Xoshiro256 rng(1234 + static_cast<uint64_t>(t));
      int64_t now = 0;
      for (int i = 0; i < kIters; ++i) {
        const auto service = static_cast<int64_t>(rng.Next() % 100 + 1) * kUs;
        const int lane = static_cast<int>(rng.Next() % 2);
        const int64_t start = qos.Admit(kSsd, lane, tenant, service, now);
        if (start < now) ok.store(false);
        qos.RecordRead(tenant, start + service - now);
        now = start + static_cast<int64_t>(rng.Next() % 50) * kUs;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  const QosStats stats = qos.Snapshot();
  uint64_t total = 0;
  for (const auto& t : stats.tenants) total += t.admitted;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIters);
  for (const auto& t : stats.tenants) {
    if (t.reads > 0) {
      EXPECT_GT(t.read_p99_ns, 0);
    }
  }
}

// ---- end-to-end identity pin -------------------------------------------

constexpr uint64_t kChunk = 64_KiB;

struct RunResult {
  int64_t final_ns = 0;
  uint64_t ssd_written = 0;
  uint64_t ssd_read = 0;
};

// A fixed read/write workload against a 4-benefactor store; returns the
// exact final virtual time and aggregate device traffic.
RunResult RunFixedWorkload(std::function<void(StoreConfig&)> tweak) {
  net::ClusterConfig cc;
  cc.num_nodes = 5;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.store.chunk_bytes = kChunk;
  sc.store.replication = 2;
  if (tweak) tweak(sc.store);
  for (int b = 0; b < 4; ++b) sc.benefactor_nodes.push_back(b + 1);
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  store::AggregateStore store(cluster, sc);
  sim::CurrentClock().Reset();

  store::StoreClient& client = store.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "identity");
  EXPECT_TRUE(id.ok());
  constexpr uint32_t kChunks = 32;
  EXPECT_TRUE(client.Fallocate(clock, *id, kChunks * kChunk).ok());
  Bitmap all(kChunk / sc.store.page_bytes);
  all.SetAll();
  std::vector<uint8_t> buf(kChunk);
  Xoshiro256 rng(42);
  for (uint32_t i = 0; i < kChunks; ++i) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    EXPECT_TRUE(client.WriteChunkPages(clock, *id, i, all, buf).ok());
  }
  for (int round = 0; round < 3; ++round) {
    for (uint32_t i = 0; i < kChunks; i += 3) {
      EXPECT_TRUE(client.ReadChunk(clock, *id, i, buf).ok());
    }
    Bitmap some(kChunk / sc.store.page_bytes);
    for (size_t p = 0; p < some.size(); p += 2) some.Set(p);
    for (uint32_t i = 0; i < kChunks; i += 5) {
      EXPECT_TRUE(client.WriteChunkPages(clock, *id, i, some, buf).ok());
    }
  }

  RunResult r;
  r.final_ns = clock.now();
  for (size_t b = 0; b < store.num_benefactors(); ++b) {
    r.ssd_written += store.benefactor(b).ssd().host_bytes_written();
    r.ssd_read += store.benefactor(b).ssd().host_bytes_read();
  }
  return r;
}

TEST(QosIdentityTest, OffIsByteAndTimeIdentical) {
  // Baseline: a store with no QoS configuration at all.
  const RunResult base = RunFixedWorkload({});
  // qos=false with tenants configured: scheduler exists, must change
  // nothing.
  const RunResult off = RunFixedWorkload([](StoreConfig& cfg) {
    cfg.qos = false;
    cfg.qos_tenants = {{0, 2.0, 0.5, 2}, {1, 1.0, 0.1, 0}};
  });
  EXPECT_EQ(base.final_ns, off.final_ns);
  EXPECT_EQ(base.ssd_written, off.ssd_written);
  EXPECT_EQ(base.ssd_read, off.ssd_read);
}

TEST(QosIdentityTest, SingleTenantOnMatchesOff) {
  // Work conservation end to end: one tenant, qos=on — every admission
  // is uncontended, so the schedule is identical to qos=off.
  const RunResult base = RunFixedWorkload({});
  const RunResult on = RunFixedWorkload([](StoreConfig& cfg) {
    cfg.qos = true;
    cfg.qos_tenants = {{0, 1.0, 0.5, 1}};
  });
  EXPECT_EQ(base.final_ns, on.final_ns);
  EXPECT_EQ(base.ssd_written, on.ssd_written);
  EXPECT_EQ(base.ssd_read, on.ssd_read);
}

}  // namespace
}  // namespace nvm
