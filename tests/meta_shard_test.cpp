// Tests for the sharded manager metadata plane (StoreConfig::meta_shards):
// the splitmix64 chunk-key partition, equality of every client-visible
// metadata result between one shard and many, the PR-4 repair-engine race
// invariants re-run with chunks spread over four shards (cross-shard
// fences, repair-target registries, and epochs), and a multi-threaded
// resolve/write/repair hammer that runs under TSan via the `concurrency`
// label to exercise the lock-free resolve snapshots and the ascending
// multi-shard locking discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;

// Quiet sweeps (pushed out of the horizon) so staged race sequences run
// undisturbed, and four metadata shards so every multi-chunk operation
// crosses shard boundaries.
constexpr auto kQuietSharded = [](store::StoreConfig& cfg) {
  cfg.heartbeat_period_ms = 1'000'000;
  cfg.scrub_period_ms = 1'000'000;
  cfg.meta_shards = 4;
};

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int replication,
               std::function<void(store::StoreConfig&)> tweak = kQuietSharded) {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    sc.store.maintenance = true;
    sc.store.heartbeat_misses = 3;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }
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

// ---- partition sanity ----

TEST(MetaShardTest, ConfigReachesManagerAndKeysSpreadAcrossShards) {
  Rig rig(/*replication=*/1);
  store::Manager& m = rig.store->manager();
  ASSERT_EQ(m.meta_shards(), 4u);

  // A modest working set must not collapse onto one shard: the splitmix64
  // partition of ChunkKey has no reason to correlate with (file, index)
  // striding.  64 chunks over 4 shards — demand every shard is hit.
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, "/spread");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, 64 * kChunk).ok());
  auto locs = m.GetReadLocations(clock, *id, 0, 64);
  ASSERT_TRUE(locs.ok());
  std::vector<int> per_shard(4, 0);
  for (const store::ReadLocation& loc : *locs) {
    ++per_shard[store::ChunkKeyHash{}(loc.key) % 4];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(per_shard[s], 0) << "shard " << s << " never hit";
  }
}

// ---- one shard vs many: client-visible metadata must be identical ----

TEST(MetaShardTest, ShardCountInvisibleToMetadataResults) {
  // The same operation sequence — creates, cross-shard prepare/complete
  // batches, overwrites (version bumps), stat, refcounts, checksums —
  // must produce byte-identical metadata at meta_shards=1 and 4.  Only
  // the service-time model may differ.
  auto run = [](size_t shards, auto&& probe) {
    Rig rig(/*replication=*/2, [shards](store::StoreConfig& cfg) {
      kQuietSharded(cfg);
      cfg.meta_shards = shards;
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    store::Manager& m = rig.store->manager();
    sim::VirtualClock clock(0);
    const store::FileId a =
        WriteStoreFile(c, "/a", 6, Pattern(6 * kChunk, 91), clock);
    const store::FileId b =
        WriteStoreFile(c, "/b", 4, Pattern(4 * kChunk, 92), clock);
    // Overwrite a window of /a: in-place version bumps through the
    // prepare/complete fences, spanning all four shards.
    const std::vector<uint32_t> window = {0, 2, 3, 5};
    auto wl = m.PrepareWriteBatch(clock, a, window);
    ASSERT_TRUE(wl.ok());
    m.CompleteWrites(clock, *wl);
    // Unlink /b and recreate a smaller file in its place.
    ASSERT_TRUE(m.Unlink(clock, b).ok());
    const store::FileId b2 =
        WriteStoreFile(c, "/b2", 2, Pattern(2 * kChunk, 93), clock);
    probe(rig, m, clock, a, b2);
  };

  struct Snapshot {
    std::vector<store::ChunkKey> keys;
    std::vector<std::vector<int>> replicas;
    std::vector<uint64_t> refcounts;
    std::vector<uint32_t> crcs;
    uint64_t a_size = 0, b2_size = 0;
  };
  auto capture = [](store::Manager& m, sim::VirtualClock& clock,
                    store::FileId a, store::FileId b2, Snapshot* s) {
    for (auto [id, chunks] : {std::pair{a, 6u}, std::pair{b2, 2u}}) {
      auto locs = m.GetReadLocations(clock, id, 0, chunks);
      ASSERT_TRUE(locs.ok());
      for (const store::ReadLocation& loc : *locs) {
        s->keys.push_back(loc.key);
        s->replicas.push_back(loc.benefactors);
        s->refcounts.push_back(m.ChunkRefcount(loc.key));
        uint32_t crc = 0;
        s->crcs.push_back(m.LookupChecksum(loc.key, &crc) ? crc : 0);
      }
    }
    auto sa = m.Stat(clock, a);
    auto sb = m.Stat(clock, b2);
    ASSERT_TRUE(sa.ok() && sb.ok());
    s->a_size = sa->size;
    s->b2_size = sb->size;
  };

  Snapshot one, four;
  run(1, [&](Rig& rig, store::Manager& m, sim::VirtualClock& clock,
             store::FileId a, store::FileId b2) {
    (void)rig;
    capture(m, clock, a, b2, &one);
  });
  run(4, [&](Rig& rig, store::Manager& m, sim::VirtualClock& clock,
             store::FileId a, store::FileId b2) {
    (void)rig;
    capture(m, clock, a, b2, &four);
  });
  ASSERT_EQ(one.keys.size(), four.keys.size());
  for (size_t i = 0; i < one.keys.size(); ++i) {
    EXPECT_EQ(one.keys[i], four.keys[i]) << "chunk " << i;
    EXPECT_EQ(one.replicas[i], four.replicas[i]) << "chunk " << i;
    EXPECT_EQ(one.refcounts[i], four.refcounts[i]) << "chunk " << i;
    EXPECT_EQ(one.crcs[i], four.crcs[i]) << "chunk " << i;
  }
  EXPECT_EQ(one.a_size, four.a_size);
  EXPECT_EQ(one.b2_size, four.b2_size);
}

// ---- PR-4 repair-engine races, re-run with the namespace sharded ----
//
// Same staged interleavings as maintenance_test.cpp, but with
// meta_shards=4 the fence, target registry, and epoch the engine must
// consult live on a different shard than most of the batch — a bookkeeping
// slip between shards would pass the single-shard versions and fail here.

TEST(MetaShardTest, WriteLandingDuringRepairCopyCannotCommitStaleBytes) {
  Rig rig(/*replication=*/2);
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

  auto wloc = m.PrepareWrite(clock, id, 0);
  ASSERT_TRUE(wloc.ok());

  auto plans = m.PlanRepairs(clock, std::vector<store::ChunkKey>{key});
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  const int target = plans[0].targets[0];
  auto out = m.ExecuteRepairPlan(clock, plans[0]);
  ASSERT_EQ(out.written.size(), 1u);

  const auto v2 = Pattern(kChunk, 22);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  sim::VirtualClock wc(clock.now());
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(survivor))
                  .WritePages(wc, key, all, v2)
                  .ok());
  m.CompleteWrite(clock, wloc->key);

  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);
  EXPECT_FALSE(
      rig.store->benefactor(static_cast<size_t>(target)).HasChunk(key));

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

TEST(MetaShardTest, OpenWriteFencesRepairCommit) {
  Rig rig(/*replication=*/2);
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

  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);

  m.CompleteWrite(clock, wloc->key);
  auto recreated = m.RepairReplication(clock);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 1u);
  ExpectFullyReplicated(rig, id, 1, 2);
}

TEST(MetaShardTest, ScrubSparesInFlightRepairTargets) {
  Rig rig(/*replication=*/2);
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

  // The scrub walks ALL shards; the in-flight target registered on the
  // key's shard must exempt it everywhere.
  auto scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  EXPECT_TRUE(rig.store->benefactor(target).HasChunk(key));

  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 1u);
  EXPECT_FALSE(requeue);
  ExpectFullyReplicated(rig, id, 1, 2);
  scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  std::vector<uint8_t> got(kChunk);
  sim::VirtualClock rc(clock.now());
  ASSERT_TRUE(rig.store->benefactor(target).ReadChunk(rc, key, got).ok());
  EXPECT_EQ(got, v1);
}

TEST(MetaShardTest, RacingRepairsNeverShareATarget) {
  Rig rig(/*replication=*/2);
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

TEST(MetaShardTest, LastSurvivorDeathBetweenPlanAndCopyRequeues) {
  Rig rig(/*replication=*/2);
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
  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[0])).Kill();
  auto out = m.ExecuteRepairPlan(clock, plans[0]);
  EXPECT_TRUE(out.written.empty());
  EXPECT_EQ(out.failed.size(), 1u);

  bool requeue = false;
  EXPECT_EQ(m.CommitRepair(clock, out, &requeue), 0u);
  EXPECT_TRUE(requeue);
  EXPECT_FALSE(rig.store->benefactor(target).HasChunk(key));

  uint64_t lost = 0;
  EXPECT_TRUE(
      m.PlanRepairs(clock, std::vector<store::ChunkKey>{key}, &lost).empty());
  EXPECT_EQ(lost, 1u);
}

TEST(MetaShardTest, FailedPrepareBatchLeavesNoRepairFence) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/batch", 1, Pattern(kChunk, 51), clock);
  auto loc0 = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc0.ok());

  const std::vector<uint32_t> indices = {0, 5};
  EXPECT_FALSE(m.PrepareWriteBatch(clock, id, indices).ok());

  rig.store->benefactor(static_cast<size_t>(loc0->benefactors[1])).Kill();
  auto recreated = m.RepairReplication(clock);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 1u);
  ExpectFullyReplicated(rig, id, 1, 2);
}

// ---- concurrency (runs under TSan via the `concurrency` label) ----

TEST(MetaShardConcurrencyTest, ParallelResolversAndWritersStayCoherent) {
  // Four resolver/writer threads per their own files plus one repair
  // driver hammering the same manager at meta_shards=4.  TSan guards the
  // lock-free snapshot loads against the publishing stores; the final
  // sweep demands the metadata survived intact.
  Rig rig(/*replication=*/2);
  store::Manager& m = rig.store->manager();
  constexpr int kThreads = 4;
  constexpr uint32_t kChunksPerFile = 8;
  constexpr int kRounds = 60;

  std::vector<store::FileId> files;
  {
    sim::VirtualClock clock(0);
    for (int t = 0; t < kThreads; ++t) {
      store::StoreClient& c = rig.store->ClientForNode(t);
      WriteStoreFile(c, "/mt" + std::to_string(t), kChunksPerFile,
                     Pattern(kChunksPerFile * kChunk, 100 + t), clock);
      auto id = m.LookupFile(clock, "/mt" + std::to_string(t));
      ASSERT_TRUE(id.ok());
      files.push_back(*id);
    }
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      sim::VirtualClock clock(0);
      Xoshiro256 rng(0x5eed0 + t);
      std::vector<uint32_t> window = {0, 3, 5, 7};
      for (int r = 0; r < kRounds; ++r) {
        if (rng.NextBelow(3) == 0) {
          auto wl = m.PrepareWriteBatch(clock, files[t], window);
          ASSERT_TRUE(wl.ok());
          m.CompleteWrites(clock, *wl);
        } else {
          // Resolve a random peer's file: readers cross writer shards.
          const store::FileId id = files[rng.NextBelow(kThreads)];
          auto locs = m.GetReadLocations(clock, id, 0, kChunksPerFile);
          ASSERT_TRUE(locs.ok());
          for (const store::ReadLocation& loc : *locs) {
            ASSERT_GE(loc.benefactors.size(), 1u);
          }
        }
      }
    });
  }
  // Concurrent repair driver: plans over whatever is degraded (usually
  // nothing — the point is it walks every shard while writers fence).
  workers.emplace_back([&] {
    sim::VirtualClock clock(0);
    for (int r = 0; r < kRounds / 4; ++r) {
      ASSERT_TRUE(m.RepairReplication(clock).ok());
    }
  });
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    ExpectFullyReplicated(rig, files[t], kChunksPerFile, 2);
    sim::VirtualClock clock(0);
    for (uint32_t i = 0; i < kChunksPerFile; ++i) {
      EXPECT_GE(m.ChunkRefcount(
                    m.GetReadLocation(clock, files[t], i)->key),
                1u);
    }
  }
  auto scrub = m.ScrubOnce(sim::CurrentClock());
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
}

TEST(MetaShardConcurrencyTest, FallocateRacingScrubKeepsReservationsExact) {
  // Regression: Fallocate must reserve space and publish the chunk as one
  // step under the chunk's shard mutex.  It used to reserve before taking
  // any shard lock, so a concurrent ScrubOnce (holding every shard mutex)
  // could observe the in-flight reservation without its chunk, call it
  // drift, and release it — leaving the benefactor permanently
  // under-counted and a later Unlink's release free to underflow.
  Rig rig(/*replication=*/2);
  store::Manager& m = rig.store->manager();
  constexpr int kThreads = 4;
  constexpr int kFilesPerThread = 12;
  constexpr uint32_t kChunksPerFile = 8;
  const auto name = [](int t, int f) {
    return "/ra" + std::to_string(t) + "_" + std::to_string(f);
  };

  std::atomic<bool> done{false};
  std::atomic<uint64_t> racing_fixes{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      sim::VirtualClock clock(0);
      store::StoreClient& c = rig.store->ClientForNode(t);
      for (int f = 0; f < kFilesPerThread; ++f) {
        auto id = c.Create(clock, name(t, f));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.Fallocate(clock, *id, kChunksPerFile * kChunk).ok());
      }
    });
  }
  std::thread scrubber([&] {
    sim::VirtualClock clock(0);
    while (!done.load(std::memory_order_relaxed)) {
      racing_fixes.fetch_add(m.ScrubOnce(clock).reservation_fixes,
                             std::memory_order_relaxed);
    }
  });
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_relaxed);
  scrubber.join();

  // No scrub may ever have seen drift: every reservation it could observe
  // was published with its chunk under the same shard-mutex hold.
  EXPECT_EQ(racing_fixes.load(), 0u);

  // Unlink everything: each member's reclaim gives back exactly the
  // reservation it took, and the store must come back empty.
  sim::VirtualClock clock(0);
  for (int t = 0; t < kThreads; ++t) {
    for (int f = 0; f < kFilesPerThread; ++f) {
      auto id = m.LookupFile(clock, name(t, f));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(m.Unlink(clock, *id).ok());
    }
  }
  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(static_cast<size_t>(b)).bytes_used(), 0u)
        << "benefactor " << b;
  }
  auto scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
}

}  // namespace
}  // namespace nvm
