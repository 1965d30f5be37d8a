// Tests for the background maintenance service: heartbeat failure
// detection with a suspicion threshold (no repair storms from flapping),
// report-driven incremental repair with capacity-aware placement and the
// repair_bw_fraction duty-cycle throttle, the metadata scrubber (orphan
// reclamation, reservation-drift fixes, under-replication re-queueing),
// lost-chunk surfacing, and convergence under concurrent writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/report.hpp"
#include "store/store.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

// Fast maintenance cadence so tests cover many sweeps in little virtual
// time: 1 ms heartbeats, 3 misses to declare, 20 ms scrubs.
struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int replication,
               std::function<void(store::StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    sc.store.maintenance = true;
    sc.store.heartbeat_period_ms = 1;
    sc.store.heartbeat_misses = 3;
    sc.store.scrub_period_ms = 20;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }

  store::MaintenanceService& ms() { return *store->maintenance(); }
};

std::vector<uint8_t> Pattern(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks, const std::vector<uint8_t>& data,
                             sim::VirtualClock& clock) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(
        c.WriteChunkPages(clock, *id, i, all, {data.data() + i * kChunk, kChunk})
            .ok());
  }
  return *id;
}

// Every chunk of `id` carries exactly `replication` distinct replicas, all
// on alive benefactors.
void ExpectFullyReplicated(Rig& rig, store::FileId id, uint32_t chunks,
                           int replication) {
  sim::VirtualClock clock(0);
  auto locs = rig.store->manager().GetReadLocations(clock, id, 0, chunks);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < chunks; ++i) {
    const store::ReadLocation& loc = (*locs)[i];
    std::set<int> distinct(loc.benefactors.begin(), loc.benefactors.end());
    EXPECT_EQ(distinct.size(), static_cast<size_t>(replication))
        << "chunk " << i;
    for (int b : loc.benefactors) {
      EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(b)).alive())
          << "chunk " << i << " on dead benefactor " << b;
    }
  }
}

// ---- failure detector ----

TEST(MaintenanceTest, SuspicionThresholdRidesOutFlapping) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  WriteStoreFile(c, "/flap", 8, Pattern(8 * kChunk, 1), clock);

  // Two missed heartbeats: suspected, never declared, nothing enqueued.
  // Deadlines are relative to the worker's clock — client writes tick the
  // service, so it may already have swept a few times.  Drain any still
  // in-flight tick work first so no queued catch-up sweeps land after the
  // kill and inflate the miss count.
  rig.ms().RunUntil(rig.ms().now_ns());
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(1).Kill();
  rig.ms().RunUntil(t0 + 2 * kMs);
  auto s = rig.ms().stats();
  EXPECT_GE(s.heartbeat_sweeps, 2u);
  EXPECT_GE(s.benefactors_suspected, 1u);
  EXPECT_EQ(s.benefactors_declared_dead, 0u);
  EXPECT_EQ(s.repairs_enqueued, 0u);

  // The stall clears before the threshold: the miss counter resets, so
  // flapping cannot amplify into repair traffic.
  rig.store->benefactor(1).Revive();
  rig.ms().RunUntil(t0 + 4 * kMs);
  EXPECT_EQ(rig.ms().stats().benefactors_declared_dead, 0u);
  EXPECT_EQ(rig.ms().stats().repairs_enqueued, 0u);

  // A real death: three consecutive misses declare it and queue every
  // chunk that held a replica there; the queue then drains to full
  // replication on the survivors.
  rig.store->benefactor(1).Kill();
  rig.ms().RunUntil(t0 + 9 * kMs);
  s = rig.ms().stats();
  EXPECT_EQ(s.benefactors_declared_dead, 1u);
  EXPECT_GT(s.repairs_enqueued, 0u);
  EXPECT_GT(s.replicas_recreated, 0u);
  EXPECT_TRUE(rig.ms().QueueEmpty());

  auto fid = c.Open(clock, "/flap");
  ASSERT_TRUE(fid.ok());
  ExpectFullyReplicated(rig, *fid, 8, 2);
}

TEST(MaintenanceTest, RedeclareAfterReviveNeedsFullThresholdAgain) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  store::FileId id = WriteStoreFile(c, "/re", 4, Pattern(4 * kChunk, 2), clock);

  rig.ms().RunUntil(rig.ms().now_ns());  // drain in-flight tick work
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(2).Kill();
  rig.ms().RunUntil(t0 + 5 * kMs);  // declared after 3 misses, repaired
  EXPECT_EQ(rig.ms().stats().benefactors_declared_dead, 1u);
  ExpectFullyReplicated(rig, id, 4, 2);

  // Revive, then kill again: a second declaration requires three fresh
  // consecutive misses (and finds nothing to repair — the survivor set
  // already carries full replication).
  rig.store->benefactor(2).Revive();
  rig.ms().RunUntil(t0 + 7 * kMs);
  rig.store->benefactor(2).Kill();
  rig.ms().RunUntil(t0 + 9 * kMs);
  EXPECT_EQ(rig.ms().stats().benefactors_declared_dead, 1u);
  rig.ms().RunUntil(t0 + 12 * kMs);
  EXPECT_EQ(rig.ms().stats().benefactors_declared_dead, 2u);
  ExpectFullyReplicated(rig, id, 4, 2);
}

// ---- report-driven incremental repair ----

TEST(MaintenanceTest, DegradedWriteReportsDriveSelfHeal) {
  // Detector and scrubber pushed out of the horizon: ONLY the degraded
  // write reports can drive the self-heal (and the background sweeps
  // cannot repair the chunks before the overwrites even reach them).
  Rig rig(/*replication=*/2, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto before = Pattern(kChunks * kChunk, 3);
  const store::FileId id = WriteStoreFile(c, "/heal", kChunks, before, clock);

  // Kill a replica holder, then overwrite every chunk: each write that
  // misses the dead replica is a degraded success and reports the chunk.
  rig.store->benefactor(0).Kill();
  const auto after = Pattern(kChunks * kChunk, 4);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(
        c.WriteChunkPages(clock, id, i, all, {after.data() + i * kChunk, kChunk})
            .ok());
  }
  EXPECT_GT(c.degraded_writes(), 0u);
  auto s = rig.ms().stats();
  EXPECT_GT(s.degraded_reports, 0u);

  // No manual RepairReplication anywhere: draining the background queue
  // alone restores full replication.
  rig.ms().RunUntil(clock.now());
  s = rig.ms().stats();
  EXPECT_TRUE(rig.ms().QueueEmpty());
  EXPECT_GT(s.replicas_recreated, 0u);
  EXPECT_EQ(s.lost_chunks, 0u);
  ExpectFullyReplicated(rig, id, kChunks, 2);

  // Self-healed replication survives a SECOND failure: kill one of the
  // survivors and demand every byte of the latest data back.
  rig.store->benefactor(2).Kill();
  std::vector<uint8_t> buf(kChunk);
  sim::VirtualClock rclock(clock.now());
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(rclock, id, i, buf).ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(buf.data(), after.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

TEST(MaintenanceTest, RepairPlacementPrefersLeastLoadedBenefactor) {
  // Three alive candidates after the kill; the emptiest must receive the
  // re-replicated chunks (capacity-aware placement, not first-fit).  The
  // scrubber is pushed out of the test horizon so it cannot "fix" the
  // phantom reservations used to load one benefactor.
  Rig rig(/*replication=*/2, [](store::StoreConfig& cfg) {
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/place", 8, Pattern(8 * kChunk, 5), clock);

  // Load benefactor 3 with an extra (phantom) reservation so it is
  // clearly the fullest; benefactors 1 and 2 stay lighter.
  const store::ChunkKey phantom{/*origin_file=*/9998, 0, 0};
  ASSERT_TRUE(rig.store->benefactor(3).Reserve(phantom, 200 * kChunk).ok());
  const uint64_t free3 = rig.store->benefactor(3).bytes_free();

  // Deadlines are relative to the worker's settled clock: drain the
  // writes' tick work before reading it, or a catch-up task still in
  // flight can leave the deadline short of the sweeps a declaration needs.
  rig.ms().RunUntil(rig.ms().now_ns());
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(0).Kill();
  rig.ms().RunUntil(t0 + 5 * kMs);  // declare + drain
  ASSERT_TRUE(rig.ms().QueueEmpty());
  ExpectFullyReplicated(rig, id, 8, 2);
  // The fullest benefactor gained nothing beyond what it already held.
  EXPECT_EQ(rig.store->benefactor(3).bytes_free(), free3);
  ASSERT_TRUE(rig.store->benefactor(3).DeleteChunk(phantom).ok());
}

TEST(MaintenanceTest, ThrottleDutyCycleBoundsRepairTime) {
  auto run = [](double fraction) {
    Rig rig(/*replication=*/2, [&](store::StoreConfig& cfg) {
      cfg.repair_bw_fraction = fraction;
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    WriteStoreFile(c, "/thr", 16, Pattern(16 * kChunk, 6), clock);
    rig.ms().RunUntil(rig.ms().now_ns());  // drain in-flight tick work
    const int64_t t0 = rig.ms().now_ns();
    rig.store->benefactor(1).Kill();
    rig.ms().RunUntil(t0 + 5 * kMs);
    EXPECT_TRUE(rig.ms().QueueEmpty());
    auto s = rig.ms().stats();
    EXPECT_GT(s.replicas_recreated, 0u);
    EXPECT_GT(s.repair_busy_ns, 0);
    return s;
  };

  const auto full = run(1.0);
  const auto throttled = run(0.1);
  // Unthrottled: no idle injected at all.
  EXPECT_EQ(full.throttle_idle_ns, 0);
  // At f=0.1 the worker idles (1-f)/f = 9x its busy time (integer
  // truncation per batch can shave a little).
  EXPECT_GE(throttled.throttle_idle_ns, 8 * throttled.repair_busy_ns);
  // Same failure, same data: the throttled run converges later in virtual
  // time — bandwidth ceded to foreground traffic is repair time paid.
  EXPECT_GT(throttled.converged_at_ns, full.converged_at_ns);
}

// ---- scrubber ----

TEST(MaintenanceTest, ScrubReclaimsOrphansAndFixesReservationDrift) {
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  WriteStoreFile(c, "/scrub", 4, Pattern(4 * kChunk, 7), clock);

  // Manufacture inconsistencies behind the manager's back: a stored chunk
  // no metadata references (as an abandoned repair copy would leave) and
  // phantom reservations (leaked accounting).
  store::Benefactor& b = rig.store->benefactor(0);
  const uint64_t used_before = b.bytes_used();
  store::ChunkKey bogus;
  bogus.origin_file = 9999;
  bogus.index = 0;
  bogus.version = 0;
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  std::vector<uint8_t> junk(kChunk, 0xab);
  sim::VirtualClock dc(0);
  ASSERT_TRUE(b.WritePages(dc, bogus, all, junk).ok());
  const store::ChunkKey phantom{/*origin_file=*/9998, 0, 0};
  ASSERT_TRUE(b.Reserve(phantom, 3 * kChunk).ok());
  ASSERT_TRUE(b.HasChunk(bogus));

  // One scrub period later both are reconciled.
  rig.ms().RunUntil(rig.ms().now_ns() + 25 * kMs);
  auto s = rig.ms().stats();
  EXPECT_GE(s.scrub_passes, 1u);
  EXPECT_GE(s.scrub_orphans_deleted, 1u);
  EXPECT_GE(s.scrub_reservation_fixes, 3u);
  EXPECT_FALSE(b.HasChunk(bogus));
  EXPECT_EQ(b.bytes_used(), used_before);
}

TEST(MaintenanceTest, ScrubRequeuesFailuresTheReportPathMissed) {
  // Heartbeats effectively disabled: only the scrubber can notice that a
  // silently dead benefactor left chunks under-replicated (no write ever
  // touched them after the death, so no degraded report exists).
  Rig rig(/*replication=*/2, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;  // far beyond the test horizon
    cfg.scrub_period_ms = 5;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/silent", 8, Pattern(8 * kChunk, 8), clock);

  rig.ms().RunUntil(rig.ms().now_ns());  // drain in-flight tick work
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(2).Kill();
  rig.ms().RunUntil(t0 + 12 * kMs);  // two scrub passes
  auto s = rig.ms().stats();
  EXPECT_EQ(s.heartbeat_sweeps, 0u);
  EXPECT_EQ(s.degraded_reports, 0u);
  EXPECT_GT(s.scrub_requeued, 0u);
  EXPECT_GT(s.replicas_recreated, 0u);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  ExpectFullyReplicated(rig, id, 8, 2);
}

// ---- lost chunks ----

TEST(MaintenanceTest, LostChunksAreSurfacedNotSilentlyKept) {
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const store::FileId id =
      WriteStoreFile(c, "/lost", kChunks, Pattern(kChunks * kChunk, 9), clock);

  rig.ms().RunUntil(rig.ms().now_ns());  // drain in-flight tick work
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(1).Kill();
  // Declared dead after three misses; its chunks have no survivor.
  rig.ms().RunUntil(t0 + 5 * kMs);
  auto s = rig.ms().stats();
  EXPECT_EQ(s.lost_chunks, 2u);  // 8 chunks striped over 4 benefactors
  EXPECT_EQ(rig.store->manager().lost_chunks(), 2u);
  EXPECT_EQ(s.replicas_recreated, 0u);

  // A lost chunk's replica list records the truth — no survivors — so
  // reads fail fast with UNAVAILABLE instead of retrying dead benefactors.
  int lost_seen = 0;
  std::vector<uint8_t> buf(kChunk);
  sim::VirtualClock rclock(clock.now());
  for (uint32_t i = 0; i < kChunks; ++i) {
    auto loc = rig.store->manager().GetReadLocation(rclock, id, i);
    ASSERT_TRUE(loc.ok());
    if (loc->benefactors.empty()) {
      ++lost_seen;
      Status rs = c.ReadChunk(rclock, id, i, buf);
      EXPECT_FALSE(rs.ok());
      EXPECT_EQ(rs.code(), ErrorCode::kUnavailable);
    } else {
      EXPECT_TRUE(c.ReadChunk(rclock, id, i, buf).ok()) << "chunk " << i;
    }
  }
  EXPECT_EQ(lost_seen, 2);
  // The operator-facing report shouts about it.
  const std::string report = store::StatusReport(*rig.store);
  EXPECT_NE(report.find("LOST CHUNKS: 2"), std::string::npos) << report;
}

// ---- manual engine parity ----

// Both sweeps pushed out of the horizon: the background loops stay idle.
constexpr auto kQuiet = [](store::StoreConfig& cfg) {
  cfg.heartbeat_period_ms = 1'000'000;
  cfg.scrub_period_ms = 1'000'000;
};

TEST(MaintenanceTest, ManualRepairStillWorksAlongsideService) {
  // RepairReplication is a synchronous wrapper over the same engine; with
  // the service idle it must behave exactly as before.  The quiet rig
  // keeps it idle: with 1 ms heartbeats its worker could declare the dead
  // benefactor and re-replicate its chunks first, leaving nothing to
  // recreate.
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/manual", 8, Pattern(8 * kChunk, 10), clock);
  rig.store->benefactor(3).Kill();
  uint64_t lost = 0;
  auto recreated = rig.store->manager().RepairReplication(clock, &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_GT(*recreated, 0u);
  EXPECT_EQ(lost, 0u);
  ExpectFullyReplicated(rig, id, 8, 2);
}

// ---- repair-engine races ----
//
// These drive the plan/execute/commit engine by hand to pin down
// interleavings the background loops can produce but thread timing alone
// cannot reproduce deterministically.  The rigs push both sweeps out of
// the horizon so nothing interferes with the staged sequence.

TEST(MaintenanceTest, WriteLandingDuringRepairCopyCannotCommitStaleBytes) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto v1 = Pattern(kChunk, 21);
  const store::FileId id = WriteStoreFile(c, "/race", 1, v1, clock);

  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());
  ASSERT_EQ(loc0->benefactors.size(), 2u);
  const store::ChunkKey key = loc0->key;
  const int survivor = loc0->benefactors[0];
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();

  // A write is prepared — and so in flight — before the repair plans.
  auto wloc = m.PrepareWrite(clock, id, 0);
  ASSERT_TRUE(wloc.ok());

  // Plan + copy: the copy reads the PRE-write bytes off the survivor.
  auto plans = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  const int target = plans[0].targets[0];
  auto out = m.ExecuteRepairPlan(clock, plans[0]);
  ASSERT_EQ(out.written.size(), 1u);

  // The write's data now lands on the survivor and completes.
  const auto v2 = Pattern(kChunk, 22);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  sim::VirtualClock wc(clock.now());
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(survivor))
                  .WritePages(wc, key, all, v2)
                  .ok());
  m.CompleteWrite(clock, wloc->key);

  // The commit must refuse: its copy predates the landed write.  The
  // stale target is undone and the chunk handed back for retry.
  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);
  EXPECT_FALSE(
      rig.store->benefactor(static_cast<size_t>(target)).HasChunk(key));

  // The retry heals from the fresh bytes: every replica reads back v2.
  ASSERT_TRUE(m.RepairReplication(clock).ok());
  ExpectFullyReplicated(rig, id, 1, 2);
  auto healed = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(healed.ok());
  std::vector<uint8_t> got(kChunk);
  for (int b : healed->benefactors) {
    sim::VirtualClock rc(clock.now());
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(b))
                    .ReadChunk(rc, key, got)
                    .ok());
    EXPECT_EQ(got, v2) << "replica on benefactor " << b;
  }
}

TEST(MaintenanceTest, OpenWriteFencesRepairCommit) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/fence", 1, Pattern(kChunk, 23), clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());
  const store::ChunkKey key = loc0->key;
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();

  auto wloc = m.PrepareWrite(clock, id, 0);
  ASSERT_TRUE(wloc.ok());
  auto plans = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plans.size(), 1u);
  auto out = m.ExecuteRepairPlan(clock, plans[0]);

  // The prepared write has not completed: even though nothing moved the
  // epoch yet, the commit must refuse — the writer could still land
  // bytes on a survivor that the copied target would miss.
  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);

  // Once the write closes, the next cycle publishes normally.
  m.CompleteWrite(clock, wloc->key);
  auto recreated = m.RepairReplication(clock);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 1u);
  ExpectFullyReplicated(rig, id, 1, 2);
}

TEST(MaintenanceTest, ScrubSparesInFlightRepairTargets) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto v1 = Pattern(kChunk, 24);
  const store::FileId id = WriteStoreFile(c, "/sc", 1, v1, clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());
  const store::ChunkKey key = loc0->key;
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();

  auto plans = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  const auto target = static_cast<size_t>(plans[0].targets[0]);
  auto out = m.ExecuteRepairPlan(clock, plans[0]);
  ASSERT_TRUE(rig.store->benefactor(target).HasChunk(key));

  // A scrub between copy and commit must not reap the target as an
  // orphan nor "fix" its reservation: the copy is legitimately ahead of
  // the replica lists.
  auto scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  EXPECT_TRUE(rig.store->benefactor(target).HasChunk(key));

  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 1u);
  EXPECT_FALSE(requeue);
  ExpectFullyReplicated(rig, id, 1, 2);
  // Post-commit the target is a named replica — still nothing to reap,
  // and the published copy serves the data.
  scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  std::vector<uint8_t> got(kChunk);
  sim::VirtualClock rc(clock.now());
  ASSERT_TRUE(rig.store->benefactor(target).ReadChunk(rc, key, got).ok());
  EXPECT_EQ(got, v1);
}

TEST(MaintenanceTest, RacingRepairsNeverShareATarget) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto v1 = Pattern(kChunk, 31);
  const store::FileId id = WriteStoreFile(c, "/dup", 1, v1, clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());
  const store::ChunkKey key = loc0->key;
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();

  // Load one of the two non-holders with a phantom reservation so the
  // least-loaded rank puts the other first for both plans.
  int forced = -1, spare = -1;
  for (int b = 0; b < kBenefactors; ++b) {
    if (b == loc0->benefactors[0] || b == loc0->benefactors[1]) continue;
    (forced < 0 ? forced : spare) = b;
  }
  store::Benefactor& forced_b =
      rig.store->benefactor(static_cast<size_t>(forced));
  store::Benefactor& spare_b =
      rig.store->benefactor(static_cast<size_t>(spare));
  const store::ChunkKey phantom{/*origin_file=*/9998, 0, 0};
  ASSERT_TRUE(spare_b.Reserve(phantom, 16 * kChunk).ok());
  const uint64_t spare_loaded = spare_b.bytes_used();

  // Two drivers (maintenance worker + manual repair) plan the same key.
  // A holds its target's member of the key, so that benefactor refuses B:
  // B takes the loaded spare (it has room) and never A's target.
  auto plansA = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  auto plansB = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plansA.size(), 1u);
  ASSERT_EQ(plansB.size(), 1u);
  ASSERT_EQ(plansA[0].targets, std::vector<int>{forced});
  EXPECT_EQ(std::find(plansB[0].targets.begin(), plansB[0].targets.end(),
                      forced),
            plansB[0].targets.end());
  EXPECT_EQ(plansB[0].targets, std::vector<int>{spare});
  EXPECT_FALSE(plansB[0].incomplete);

  auto outA = m.ExecuteRepairPlan(clock, plansA[0]);
  EXPECT_EQ(m.CommitRepair(clock, outA), 1u);  // A publishes {survivor, target}

  // B's commit loses the race (the list changed under it): it requeues and
  // undoes only its own target, leaving the replica A published alone.
  const uint64_t used_mid = forced_b.bytes_used();
  auto outB = m.ExecuteRepairPlan(clock, plansB[0]);
  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, outB, &requeue), 0u);
  EXPECT_TRUE(requeue);
  EXPECT_TRUE(forced_b.HasChunk(key));
  EXPECT_EQ(forced_b.bytes_used(), used_mid);
  EXPECT_FALSE(spare_b.HasChunk(key));
  EXPECT_FALSE(spare_b.Reserved(key));
  EXPECT_EQ(spare_b.bytes_used(), spare_loaded);
  ExpectFullyReplicated(rig, id, 1, 2);

  // The requeued retry finds the chunk healthy (no-op) and the data
  // reads back intact off the repaired replica; accounting is clean.
  auto recreated = m.RepairReplication(clock);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 0u);
  std::vector<uint8_t> got(kChunk);
  sim::VirtualClock rc(clock.now());
  ASSERT_TRUE(forced_b.ReadChunk(rc, key, got).ok());
  EXPECT_EQ(got, v1);
  ASSERT_TRUE(spare_b.DeleteChunk(phantom).ok());
  auto scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
}

TEST(MaintenanceTest, LastSurvivorDeathBetweenPlanAndCopyRequeues) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/gone", 1, Pattern(kChunk, 41), clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());
  const store::ChunkKey key = loc0->key;
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();

  auto plans = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  const auto target = static_cast<size_t>(plans[0].targets[0]);
  // The last survivor dies before the copy can read it.
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[0])).Kill();
  auto out = m.ExecuteRepairPlan(clock, plans[0]);
  EXPECT_TRUE(out.written.empty());
  EXPECT_EQ(out.failed.size(), 1u);

  // Nothing was copied, but the chunk must not silently leave the repair
  // queue: the commit undoes the target AND asks for a prompt retry.
  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);
  EXPECT_FALSE(rig.store->benefactor(target).HasChunk(key));

  // The retry discovers the truth — every replica is gone (lost chunk) —
  // so the requeue loop terminates rather than spinning.
  uint64_t lost = 0;
  EXPECT_TRUE(
      m.PlanRepairs(clock, std::vector<store::ChunkKey>{key}, &lost).empty());
  EXPECT_EQ(lost, 1u);
}

TEST(MaintenanceTest, FailedPrepareBatchLeavesNoRepairFence) {
  Rig rig(/*replication=*/2, kQuiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/batch", 1, Pattern(kChunk, 51), clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());

  // A batch that dies mid-way (second index beyond EOF) must close the
  // write it had already opened for chunk 0 ...
  const std::vector<uint32_t> indices = {0, 5};
  EXPECT_FALSE(m.PrepareWriteBatch(clock, id, indices).ok());

  // ... otherwise this repair could never commit (the leaked fence would
  // requeue it forever).
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();
  auto recreated = m.RepairReplication(clock);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 1u);
  ExpectFullyReplicated(rig, id, 1, 2);
}

// ---- concurrency (runs under TSan via the `concurrency` label) ----

TEST(MaintenanceConcurrencyTest, ConcurrentWritersConvergeAfterMidRunKill) {
  Rig rig(/*replication=*/2);
  constexpr int kThreads = 4;
  constexpr uint32_t kChunksPerFile = 6;
  constexpr int kRounds = 3;

  // One client per node, one file per thread, created up front.
  std::vector<store::StoreClient*> clients;
  std::vector<store::FileId> files;
  for (int t = 0; t < kThreads; ++t) {
    store::StoreClient& c = rig.store->ClientForNode(t);
    clients.push_back(&c);
    sim::VirtualClock clock(0);
    auto id = c.Create(clock, "/mt" + std::to_string(t));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(c.Fallocate(clock, *id, kChunksPerFile * kChunk).ok());
    files.push_back(*id);
  }

  // Writers hammer their files while a benefactor dies under them: every
  // degraded write feeds the repair queue as the worker races the writers
  // (stale-copy commits get requeued via the epoch check).
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::VirtualClock clock(0);
      Bitmap all(kChunk / clients[t]->config().page_bytes);
      all.SetAll();
      for (int round = 0; round < kRounds; ++round) {
        const auto data = Pattern(kChunksPerFile * kChunk,
                                  static_cast<uint64_t>(t * 100 + round));
        for (uint32_t i = 0; i < kChunksPerFile; ++i) {
          ASSERT_TRUE(clients[t]
                          ->WriteChunkPages(clock, files[t], i, all,
                                            {data.data() + i * kChunk, kChunk})
                          .ok());
        }
        if (t == 0 && round == 0) rig.store->benefactor(2).Kill();
      }
    });
  }
  for (auto& th : threads) th.join();

  // Writers quiesced: one drain converges everything (virtual deadline
  // generous enough for the detector even if no write hit the dead
  // benefactor's replicas).
  rig.ms().RunUntil(rig.ms().now_ns() + 50 * kMs);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  for (int t = 0; t < kThreads; ++t) {
    ExpectFullyReplicated(rig, files[t], kChunksPerFile, 2);
    // Each file reads back its final round exactly.
    const auto want = Pattern(kChunksPerFile * kChunk,
                              static_cast<uint64_t>(t * 100 + kRounds - 1));
    std::vector<uint8_t> buf(kChunk);
    sim::VirtualClock clock(100 * kMs);
    for (uint32_t i = 0; i < kChunksPerFile; ++i) {
      ASSERT_TRUE(clients[t]->ReadChunk(clock, files[t], i, buf).ok())
          << "file " << t << " chunk " << i;
      EXPECT_EQ(0, std::memcmp(buf.data(), want.data() + i * kChunk, kChunk))
          << "file " << t << " chunk " << i;
    }
  }
}

TEST(MaintenanceConcurrencyTest, HookDetachWaitsForInFlightSignals) {
  // Client threads may be inside ReportDegraded/MaintenanceTick while the
  // service is torn down; the detach must wait out any call already past
  // the hook-pointer load instead of destroying the service under it.
  // (Use-after-free would surface here under TSan/ASan.)
  net::ClusterConfig cc;
  cc.num_nodes = 2;
  net::Cluster cluster(cc);
  store::StoreConfig cfg;
  cfg.chunk_bytes = kChunk;
  store::Manager mgr(cluster, 0, cfg);
  store::ChunkKey key;
  key.origin_file = 1;
  key.index = 0;
  key.version = 0;

  std::atomic<bool> stop{false};
  std::thread signaller([&] {
    int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.ReportDegraded(key, ++t);
      mgr.MaintenanceTick(t);
    }
  });
  // Each round attaches a fresh service and detaches it in the
  // destructor while the signaller hammers the hooks.
  for (int i = 0; i < 100; ++i) {
    store::MaintenanceService svc(mgr);
  }
  stop.store(true, std::memory_order_relaxed);
  signaller.join();
}

}  // namespace
}  // namespace nvm
