// Randomised cross-layer invariant harness for the aggregate store.
//
// A seeded op sequence (create / write / read / sync / drop / unlink over
// several striped files, through a small fuselite mount that forces
// eviction and write-back) runs against a byte-exact shadow model.  After
// every operation the harness asserts that the layers never disagree:
// manager location maps vs benefactor stored-chunk sets, reservation
// accounting vs placement, chunk refcounts, and cache residency vs shard
// occupancy.  Reads must always return exactly the shadow bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"
#include "stress_env.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond
constexpr uint64_t kCacheChunks = 8;
constexpr int kBenefactors = 4;
constexpr size_t kMaxFiles = 4;
constexpr uint32_t kMaxFileChunks = 6;

struct Harness {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;
  std::unique_ptr<fuselite::MountPoint> mount;
  // Shadow model: the exact bytes every live file must read back.
  std::map<std::string, std::vector<uint8_t>> shadow;
  // While bit rot is armed, a stored replica may legitimately disagree
  // with the manager's authoritative checksum until a read or scrub finds
  // it; the checksum invariant is suspended until the rot is disarmed and
  // the scrub has converged.
  bool expect_clean_checksums = true;

  // One benefactor per node; erasure sequences pass a wider store so an
  // RS(4,2) stripe has six distinct failure domains plus repair spares.
  int nbens = kBenefactors;

  explicit Harness(int replication, bool maintenance = false,
                   std::function<void(store::StoreConfig&)> tweak = {},
                   int benefactors = kBenefactors) {
    nbens = benefactors;
    net::ClusterConfig cc;
    cc.num_nodes = nbens + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    if (maintenance) {
      sc.store.maintenance = true;
      sc.store.heartbeat_period_ms = 1;
      sc.store.heartbeat_misses = 3;
      sc.store.scrub_period_ms = 20;
    }
    if (tweak) tweak(sc.store);
    for (int b = 0; b < nbens; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    fuselite::FuseliteConfig fc;
    fc.cache_bytes = kCacheChunks * kChunk;  // far below the working set
    mount = std::make_unique<fuselite::MountPoint>(*store, /*node=*/0, fc);
    sim::CurrentClock().Reset();
  }

  // Drain the maintenance service past the failure-detection horizon so
  // mid-repair transients (stripped replica lists, in-flight copies) have
  // settled before an invariant sweep.  A converged store must satisfy
  // the same invariants as one that never failed.
  void QuiesceMaintenance() {
    store::MaintenanceService* ms = store->maintenance();
    if (ms == nullptr) return;
    ms->RunUntil(ms->now_ns() + 5 * kMs);
    ASSERT_TRUE(ms->QueueEmpty());
  }

  // Cold-restart the manager mid-sequence: tear down the mount (its
  // client stub dies with the manager), kill, recover from the WAL, and
  // remount.  With no crash armed the log is complete, so recovery must
  // be lossless — the sequence then continues against the fresh manager
  // under the same invariants.
  void RestartManager() {
    mount.reset();
    store->KillManager();
    const store::RecoveryReport report =
        store->RestartManager(sim::CurrentClock());
    EXPECT_EQ(report.chunks_lost, 0u);
    EXPECT_GT(report.records_replayed + report.files_recovered, 0u);
    fuselite::FuseliteConfig fc;
    fc.cache_bytes = kCacheChunks * kChunk;
    mount = std::make_unique<fuselite::MountPoint>(*store, /*node=*/0, fc);
  }

  // The invariant sweep: every view of "which chunks exist where" must
  // agree after every operation.
  void CheckInvariants(int replication) {
    auto& clock = sim::CurrentClock();

    // 1. Cache self-consistency: the residency counter, the per-shard
    //    occupancy, and the capacity bound always agree.
    auto& cache = mount->cache();
    const auto occ = cache.ShardOccupancy();
    size_t occupied = 0;
    for (size_t n : occ) occupied += n;
    ASSERT_EQ(occupied, cache.resident_chunks());
    ASSERT_LE(occupied, kCacheChunks);

    // Union of every live file's location map: chunk key -> replicas.
    // Erasure mode swaps the per-chunk shape: k+m positional fragments of
    // chunk_bytes/k each instead of `replication` full copies.
    const store::StoreConfig& cfg = store->manager().config();
    const bool ec = cfg.ec();
    const size_t want_members =
        ec ? static_cast<size_t>(cfg.ec_fragments())
           : static_cast<size_t>(replication);
    const uint64_t member_bytes = ec ? cfg.ec_frag_bytes() : kChunk;
    std::map<std::string, std::set<int>> placed;  // key string -> benefactors
    std::vector<uint64_t> expected_reserved(static_cast<size_t>(nbens), 0);
    for (const auto& [name, bytes] : shadow) {
      auto f = mount->Open(name);
      ASSERT_TRUE(f.ok());
      auto info = f->Stat();
      ASSERT_TRUE(info.ok());
      const auto want_chunks =
          static_cast<uint32_t>((bytes.size() + kChunk - 1) / kChunk);
      ASSERT_EQ(info->num_chunks, want_chunks) << name;

      auto locs = store->manager().GetReadLocations(clock, info->id, 0,
                                                    want_chunks);
      ASSERT_TRUE(locs.ok());
      ASSERT_EQ(locs->size(), want_chunks) << name;
      for (const store::ReadLocation& loc : *locs) {
        // 2. Placement sanity: exactly `replication` distinct, valid
        //    benefactors per chunk (erasure: exactly k+m, positional, no
        //    holes after quiesce — the sequences below only run hole-free
        //    combinations), and a live refcount.
        ASSERT_EQ(loc.ec, ec);
        ASSERT_EQ(loc.benefactors.size(), want_members);
        std::set<int> distinct(loc.benefactors.begin(), loc.benefactors.end());
        ASSERT_EQ(distinct.size(), loc.benefactors.size());
        for (int b : loc.benefactors) {
          ASSERT_GE(b, 0) << "hole in " << loc.key.ToString();
          ASSERT_LT(b, nbens);
          ++expected_reserved[static_cast<size_t>(b)];
        }
        ASSERT_GE(store->manager().ChunkRefcount(loc.key), 1u);
        // 5. Checksum agreement: whenever the manager holds an
        //    authoritative flush-time checksum for a chunk, every stored
        //    replica's bytes must hash to exactly that value.  (Sparse
        //    replicas — reserved but never flushed — store nothing; dead
        //    benefactors hold unreachable pre-death bytes that missed
        //    later degraded writes; both are exempt.)
        //    (Erasure stripes carry the authority per FRAGMENT, not per
        //    replica — the full-image checksum never matches any one
        //    stored fragment, so the scrub owns that agreement there.)
        uint32_t want_crc = 0;
        if (!ec && expect_clean_checksums &&
            store->manager().LookupChecksum(loc.key, &want_crc)) {
          for (int b : loc.benefactors) {
            uint32_t stored_crc = 0;
            if (store->benefactor(static_cast<size_t>(b)).alive() &&
                store->benefactor(static_cast<size_t>(b))
                    .StoredContentCrc(loc.key, &stored_crc)) {
              ASSERT_EQ(stored_crc, want_crc)
                  << "benefactor " << b << " stores divergent bytes for "
                  << loc.key.ToString();
            }
          }
        }
        auto& entry = placed[loc.key.ToString()];
        entry.insert(loc.benefactors.begin(), loc.benefactors.end());
      }
    }

    for (int b = 0; b < nbens; ++b) {
      store::Benefactor& ben = store->benefactor(static_cast<size_t>(b));
      // 3. Space accounting: reservations equal the members the manager
      //    has placed here — no leaks, no double counting.
      ASSERT_EQ(ben.bytes_used(),
                expected_reserved[static_cast<size_t>(b)] * member_bytes)
          << "benefactor " << b;
      // 4. No orphans: every chunk a benefactor stores is a chunk some
      //    live file's location map names on this very benefactor.
      //    (The reverse need not hold: reserved-but-never-flushed chunks
      //    are sparse and stored nowhere.)
      for (const store::ChunkKey& key : ben.StoredChunkKeys()) {
        auto it = placed.find(key.ToString());
        ASSERT_NE(it, placed.end())
            << "benefactor " << b << " stores orphan " << key.ToString();
        ASSERT_TRUE(it->second.contains(b))
            << "benefactor " << b << " stores " << key.ToString()
            << " but is not in its replica list";
      }
    }
  }

  std::string NameFor(uint64_t i) { return "/f" + std::to_string(i % 100); }
};

// Options beyond the op dice: inject a benefactor death partway through
// the sequence (kill_after_writes > 0: one benefactor dies after that many
// more chunk writes, so the sequence continues across degraded write-backs
// and replica failover).
struct SequenceOptions {
  uint64_t kill_after_writes = 0;
  // Run the background maintenance service: after every op the harness
  // quiesces it, so the invariants assert that background repair lands the
  // store back in a fully-replicated, drift-free state.
  bool maintenance = false;
  // Arm seeded recurring bit rot on benefactor 1: every `bitrot_period`-th
  // chunk write landing there flips one random stored bit afterwards.
  // Requires maintenance (quarantined replicas must be re-replicated for
  // the placement invariant to hold after quiesce).
  uint64_t bitrot_period = 0;
  uint64_t bitrot_seed = 0;
  // Kill and cold-restart the manager after this many ops (0 = never).
  // Requires the WAL (tweak wal = true): the restarted manager rebuilds
  // its whole metadata plane from the durable log + benefactor
  // inventories, and the sequence keeps running against it.
  uint64_t kill_manager_after_ops = 0;
  // Extra config knobs for the run (e.g. a scrub verify budget large
  // enough that one pass covers the whole working set).
  std::function<void(store::StoreConfig&)> tweak;
  // Store width: erasure sequences need k+m distinct failure domains plus
  // spares for repair targets.
  int benefactors = kBenefactors;
  // Runs after the op loop (before the empty-store teardown) — extra
  // store-level assertions, e.g. per-tenant QoS accounting.
  std::function<void(Harness&)> post_check;
};

void RunSequence(uint64_t seed, int replication, int ops,
                 const SequenceOptions& so = {}) {
  ops = StressIters(ops);  // nightly tier runs the same seeds 10x deeper
  Harness h(replication, so.maintenance, so.tweak, so.benefactors);
  if (so.kill_after_writes > 0) {
    h.store->benefactor(2).KillAfterWrites(so.kill_after_writes);
  }
  if (so.bitrot_period > 0) {
    h.store->benefactor(1).CorruptAfterWrites(so.bitrot_period,
                                              so.bitrot_seed);
    h.expect_clean_checksums = false;
  }
  Xoshiro256 rng(seed);
  uint64_t next_name = 0;

  auto pick_file = [&]() -> std::string {
    if (h.shadow.empty()) return {};
    auto it = h.shadow.begin();
    std::advance(it, static_cast<long>(rng.NextBelow(h.shadow.size())));
    return it->first;
  };

  for (int op = 0; op < ops; ++op) {
    if (so.kill_manager_after_ops > 0 &&
        op == static_cast<int>(so.kill_manager_after_ops)) {
      // Flush every file first: dirty cache pages are client-side state
      // and die with the mount, so the restart boundary is a sync point.
      for (const auto& [name, bytes] : h.shadow) {
        auto f = h.mount->Open(name);
        ASSERT_TRUE(f.ok()) << name;
        ASSERT_TRUE(f->Sync().ok()) << name;
      }
      ASSERT_NO_FATAL_FAILURE(h.RestartManager()) << "op " << op;
      ASSERT_NO_FATAL_FAILURE(h.CheckInvariants(replication)) << "op " << op;
    }
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 15 || h.shadow.empty()) {
      // Create (bounded number of live files).
      if (h.shadow.size() < kMaxFiles) {
        const std::string name = "/f" + std::to_string(next_name++);
        const uint64_t chunks = 1 + rng.NextBelow(kMaxFileChunks);
        auto f = h.mount->Create(name, chunks * kChunk);
        ASSERT_TRUE(f.ok()) << name;
        h.shadow[name] = std::vector<uint8_t>(chunks * kChunk, 0);
      }
    } else if (dice < 45) {
      // Write a random range (arbitrary alignment: exercises partial-page
      // read-modify-write and the batched fetch path underneath).
      const std::string name = pick_file();
      auto f = h.mount->Open(name);
      ASSERT_TRUE(f.ok());
      auto& bytes = h.shadow[name];
      const uint64_t off = rng.NextBelow(bytes.size());
      const uint64_t len = 1 + rng.NextBelow(
                                   std::min<uint64_t>(bytes.size() - off,
                                                      3 * kChunk));
      std::vector<uint8_t> buf(len);
      for (auto& v : buf) v = static_cast<uint8_t>(rng.Next());
      ASSERT_TRUE(f->Write(off, buf).ok());
      std::copy(buf.begin(), buf.end(),
                bytes.begin() + static_cast<int64_t>(off));
    } else if (dice < 75) {
      // Read a random range and demand exactly the shadow bytes.
      const std::string name = pick_file();
      auto f = h.mount->Open(name);
      ASSERT_TRUE(f.ok());
      auto& bytes = h.shadow[name];
      const uint64_t off = rng.NextBelow(bytes.size());
      const uint64_t len =
          1 + rng.NextBelow(std::min<uint64_t>(bytes.size() - off, 4 * kChunk));
      std::vector<uint8_t> got(len);
      ASSERT_TRUE(f->Read(off, got).ok());
      ASSERT_EQ(0, std::memcmp(got.data(),
                               bytes.data() + static_cast<int64_t>(off), len))
          << name << " off=" << off << " len=" << len << " op=" << op;
    } else if (dice < 85) {
      const std::string name = pick_file();
      auto f = h.mount->Open(name);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE(f->Sync().ok());
    } else if (dice < 93) {
      // Flush + discard all cached state of one file; the store copy must
      // carry the bytes from here on.
      const std::string name = pick_file();
      auto f = h.mount->Open(name);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE(h.mount->cache().Drop(sim::CurrentClock(), f->id()).ok());
    } else {
      // Free: unlink the file entirely.
      const std::string name = pick_file();
      ASSERT_TRUE(h.mount->Unlink(name).ok());
      h.shadow.erase(name);
    }
    ASSERT_NO_FATAL_FAILURE(h.QuiesceMaintenance()) << "op " << op;
    ASSERT_NO_FATAL_FAILURE(h.CheckInvariants(replication)) << "op " << op;
  }

  if (so.bitrot_period > 0) {
    // Disarm the rot, then let the checksum scrub sweep the whole store a
    // couple of times: every flip still hiding in a stored replica must be
    // found, quarantined, and healed, after which the FULL invariant set —
    // including checksum agreement on every replica — holds again.
    h.store->benefactor(1).CorruptAfterWrites(0, 0);
    store::MaintenanceService& ms = *h.store->maintenance();
    ms.RunUntil(ms.now_ns() + 60 * kMs);  // ≥ two 20 ms scrub periods
    ASSERT_TRUE(ms.QueueEmpty());
    h.expect_clean_checksums = true;
    ASSERT_NO_FATAL_FAILURE(h.CheckInvariants(replication));
    EXPECT_GT(h.store->benefactor(1).bitrot_flips(), 0u);  // rot really ran
    EXPECT_GT(h.store->maintenance()->stats().corrupt_chunks_detected, 0u);
    EXPECT_EQ(h.store->manager().lost_chunks(), 0u);
  }

  if (so.post_check) {
    ASSERT_NO_FATAL_FAILURE(so.post_check(h));
  }

  // Teardown: freeing everything must return the store to empty — no
  // leaked reservations, no orphaned chunks, no stale cache slots.
  while (!h.shadow.empty()) {
    ASSERT_TRUE(h.mount->Unlink(h.shadow.begin()->first).ok());
    h.shadow.erase(h.shadow.begin());
  }
  ASSERT_NO_FATAL_FAILURE(h.QuiesceMaintenance());
  ASSERT_NO_FATAL_FAILURE(h.CheckInvariants(replication));
  for (int b = 0; b < h.nbens; ++b) {
    EXPECT_EQ(h.store->benefactor(static_cast<size_t>(b)).num_chunks(), 0u);
    EXPECT_EQ(h.store->benefactor(static_cast<size_t>(b)).bytes_used(), 0u);
  }
  EXPECT_EQ(h.mount->cache().resident_chunks(), 0u);

  if (so.maintenance && so.kill_after_writes > 0) {
    // The background service — not any manual repair call — must have
    // detected the death and healed everything the victim held.
    const store::MaintenanceStats ms = h.store->maintenance()->stats();
    EXPECT_GT(ms.benefactors_declared_dead, 0u);
    EXPECT_EQ(ms.lost_chunks, 0u);
    // A manager restart replaces the service and zeroes its counters: the
    // restarted detector re-declares the still-dead benefactor, but the
    // healing usually happened before the crash, so only the no-restart
    // runs can insist the visible counter moved.
    if (so.kill_manager_after_ops == 0) {
      EXPECT_GT(ms.replicas_recreated, 0u);
    }
  }
}

TEST(StoreInvariantTest, RandomOpsKeepLayersConsistent) {
  RunSequence(/*seed=*/1, /*replication=*/1, /*ops=*/160);
}

TEST(StoreInvariantTest, RandomOpsKeepLayersConsistentSecondSeed) {
  RunSequence(/*seed=*/0xfeedbeef, /*replication=*/1, /*ops=*/160);
}

TEST(StoreInvariantTest, RandomOpsKeepLayersConsistentWithReplication) {
  RunSequence(/*seed=*/7, /*replication=*/2, /*ops=*/120);
}

TEST(StoreInvariantTest, ReplicatedSequenceSurvivesMidRunBenefactorDeath) {
  // A benefactor dies partway through the sequence, mid write-back run.
  // With replication 2 every later flush is a degraded success, reads fail
  // over to the surviving replica, and all cross-layer invariants — space
  // accounting, placement, orphans, shadow bytes — must keep holding
  // through and after the death.
  SequenceOptions so;
  so.kill_after_writes = 10;
  RunSequence(/*seed=*/11, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, ScrubHealsSeededBitRotToChecksumCleanState) {
  // One benefactor silently flips a stored bit every few writes that land
  // there.  Throughout the sequence every read must still return exactly
  // the shadow bytes (verifying reads catch the rot, fail over to the
  // clean replica, and quarantine the bad copy), and after the rot is
  // disarmed the checksum scrub must converge the store back to fully
  // replicated, checksum-clean state with zero lost chunks.
  SequenceOptions so;
  so.maintenance = true;
  so.bitrot_period = 6;
  so.bitrot_seed = 0x5eed;
  so.tweak = [](store::StoreConfig& s) { s.scrub_verify_bytes = 64_MiB; };
  RunSequence(/*seed=*/17, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, RandomOpsKeepLayersConsistentShardedMetadata) {
  // Same invariant sweep with the manager metadata plane split over four
  // shards: every cross-layer view (location maps, refcounts, reservation
  // accounting, checksums) must hold exactly as it does with one shard.
  SequenceOptions so;
  so.tweak = [](store::StoreConfig& s) { s.meta_shards = 4; };
  RunSequence(/*seed=*/1, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, ShardedMaintenanceConvergesKilledSequence) {
  // Mid-sequence benefactor death with background maintenance AND four
  // metadata shards: repair fences, target registries, and epochs span
  // shards while the service converges after every op.
  SequenceOptions so;
  so.kill_after_writes = 10;
  so.maintenance = true;
  so.tweak = [](store::StoreConfig& s) { s.meta_shards = 4; };
  RunSequence(/*seed=*/13, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, ColdManagerRestartMidSequenceIsLossless) {
  // The manager is killed and cold-restarted halfway through the
  // sequence (single metadata shard).  Recovery rebuilds the namespace,
  // placements, checksums and reservations from the WAL + benefactor
  // inventories, and every cross-layer invariant must keep holding for
  // the rest of the run — including the empty-store teardown.
  SequenceOptions so;
  so.kill_manager_after_ops = 60;
  so.tweak = [](store::StoreConfig& s) { s.wal = true; };
  RunSequence(/*seed=*/19, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, ColdManagerRestartMidSequenceShardedMetadata) {
  // Same mid-sequence cold restart with the metadata plane split over
  // four shards: the checkpoint/replay path must reassemble state across
  // shards exactly as it does with one.
  SequenceOptions so;
  so.kill_manager_after_ops = 60;
  so.tweak = [](store::StoreConfig& s) {
    s.wal = true;
    s.meta_shards = 4;
  };
  RunSequence(/*seed=*/23, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, RestartUnderMaintenanceLoadIsLossless) {
  // Restart under load: the background service (heartbeat sweeps, a real
  // benefactor death healed by repair, periodic scrubs) is live across a
  // mid-sequence manager kill + WAL recovery.  Every invariant — exact
  // replication, reservation accounting, shadow bytes — must keep
  // holding through the restart and to the empty-store teardown.
  SequenceOptions so;
  so.maintenance = true;
  so.kill_after_writes = 10;
  so.kill_manager_after_ops = 60;
  so.tweak = [](store::StoreConfig& s) { s.wal = true; };
  RunSequence(/*seed=*/29, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, RestartUnderMaintenanceLoadIsLosslessSecondSeed) {
  // Second seeded schedule, with the benefactor death landing later and
  // the metadata plane split over four shards.
  SequenceOptions so;
  so.maintenance = true;
  so.kill_after_writes = 25;
  so.kill_manager_after_ops = 40;
  so.tweak = [](store::StoreConfig& s) {
    s.wal = true;
    s.meta_shards = 4;
  };
  RunSequence(/*seed=*/0xabba, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, ManagerRestartMidRepairStormConverges) {
  // The manager dies in the MIDDLE of a repair storm over a declared
  // benefactor death, with every engine stage in flight at the crash
  // point: plans whose reserved targets will never see a copy, plans
  // whose copies landed but will never commit (orphaned bytes on the
  // targets), and plans already committed.  Heartbeat and scrub loops
  // are live when the plug is pulled.  Cold recovery plus the restarted
  // service must converge to a fully replicated, drift-free store: no
  // chunk double-repaired (exact replica sets), no reservation leaked or
  // double-counted (exact space accounting), no byte lost.
  Harness h(/*replication=*/2, /*maintenance=*/true,
            [](store::StoreConfig& s) {
              s.wal = true;
              s.meta_shards = 4;
              s.scrub_verify_bytes = 64_MiB;
            });
  Xoshiro256 rng(0x57012);
  for (int f = 0; f < 4; ++f) {
    const std::string name = "/storm" + std::to_string(f);
    auto file = h.mount->Create(name, 6 * kChunk);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> bytes(6 * kChunk);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(file->Write(0, bytes).ok());
    ASSERT_TRUE(file->Sync().ok());
    h.shadow[name] = std::move(bytes);
  }

  store::MaintenanceService* ms = h.store->maintenance();
  ms->RunUntil(ms->now_ns() + 5 * kMs);  // heartbeat + scrub loops live
  h.store->benefactor(2).Kill();
  h.store->manager().MarkDead(2);

  // Drive the repair engine to the mid-storm point by hand (the
  // background worker always drains its whole queue before yielding, so
  // a part-drained queue can only be frozen this way): a third of the
  // plans stay reserved-only, a third copy but never commit, a third
  // complete.
  sim::VirtualClock clock(sim::CurrentClock().now());
  auto keys = h.store->manager().CollectUnderReplicated();
  ASSERT_GE(keys.size(), 3u);
  uint64_t lost = 0;
  auto plans = h.store->manager().PlanRepairs(clock, keys, &lost);
  ASSERT_EQ(lost, 0u);
  ASSERT_EQ(plans.size(), keys.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (i % 3 == 0) continue;  // reserved, never executed
    auto outcome = h.store->manager().ExecuteRepairPlan(clock, plans[i]);
    if (i % 3 == 1) continue;  // copied, never committed
    h.store->manager().CommitRepair(clock, outcome, nullptr);
  }
  ASSERT_NO_FATAL_FAILURE(h.RestartManager());

  // The restarted service re-detects the still-dead benefactor, re-runs
  // the storm to completion, and its scrub reclaims whatever the aborted
  // plans left behind (orphaned target copies, reservation drift).
  store::MaintenanceService* ms2 = h.store->maintenance();
  const int64_t deadline = ms2->now_ns() + 2'000 * kMs;
  while (!(ms2->stats().benefactors_declared_dead > 0 && ms2->QueueEmpty() &&
           ms2->stats().scrub_passes > 2) &&
         ms2->now_ns() < deadline) {
    ms2->RunUntil(ms2->now_ns() + 20 * kMs);
  }
  ASSERT_GT(ms2->stats().benefactors_declared_dead, 0u);
  ASSERT_TRUE(ms2->QueueEmpty());
  ASSERT_NO_FATAL_FAILURE(h.CheckInvariants(/*replication=*/2));
  for (const auto& [name, bytes] : h.shadow) {
    auto file = h.mount->Open(name);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> got(bytes.size());
    ASSERT_TRUE(file->Read(0, got).ok());
    ASSERT_EQ(got, bytes) << name;
  }

  // Teardown to empty: every release must be backed by a still-standing
  // reservation, on survivors and the dead benefactor alike.
  while (!h.shadow.empty()) {
    ASSERT_TRUE(h.mount->Unlink(h.shadow.begin()->first).ok());
    h.shadow.erase(h.shadow.begin());
  }
  ms2->RunUntil(ms2->now_ns() + 50 * kMs);
  ASSERT_TRUE(ms2->QueueEmpty());
  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(h.store->benefactor(static_cast<size_t>(b)).bytes_used(), 0u)
        << "benefactor " << b;
  }
}

TEST(StoreInvariantTest, QosRestartUnderLoadKeepsInvariantsAndAccounting) {
  // Restart under load with the QoS scheduler arbitrating: the foreground
  // tenant and the maintenance tenant (healing a real mid-sequence
  // benefactor death) race through a manager kill + WAL recovery.  Every
  // cross-layer invariant must keep holding, and because the scheduler
  // lives with the devices — not the manager — per-tenant accounting must
  // survive the restart and show both tenants' traffic.
  SequenceOptions so;
  so.maintenance = true;
  so.kill_after_writes = 10;
  so.kill_manager_after_ops = 60;
  so.tweak = [](store::StoreConfig& s) {
    s.wal = true;
    s.qos = true;
    s.qos_tenants = {{store::kTenantForeground, 2.0, 0.6, 2}};
  };
  so.post_check = [](Harness& h) {
    const store::QosStats qs = h.store->qos().Snapshot();
    bool fg = false, maint = false;
    for (const auto& t : qs.tenants) {
      if (t.id == store::kTenantForeground) {
        fg = t.admitted > 0 && t.reads + t.writes > 0;
      }
      if (t.id == store::kTenantMaintenance) maint = t.admitted > 0;
    }
    EXPECT_TRUE(fg) << "foreground traffic unaccounted";
    EXPECT_TRUE(maint) << "maintenance repair traffic unaccounted";
  };
  RunSequence(/*seed=*/31, /*replication=*/2, /*ops=*/120, so);
}

TEST(StoreInvariantTest, QosRestartUnderLoadShardedMetadata) {
  // Second seeded schedule: QoS on over a four-shard metadata plane, with
  // the benefactor death landing later relative to the manager kill.
  SequenceOptions so;
  so.maintenance = true;
  so.kill_after_writes = 25;
  so.kill_manager_after_ops = 40;
  so.tweak = [](store::StoreConfig& s) {
    s.wal = true;
    s.meta_shards = 4;
    s.qos = true;
    s.qos_tenants = {{store::kTenantForeground, 2.0, 0.6, 2},
                     {store::kTenantMaintenance, 1.0, 0.25, 0}};
  };
  RunSequence(/*seed=*/0xabba, /*replication=*/2, /*ops=*/120, so);
}

// Shared knob set for the erasure sequences: RS(4,2) over eight
// single-benefactor nodes (six distinct failure domains for a stripe,
// two spares for repair targets).
SequenceOptions ErasureOptions() {
  SequenceOptions so;
  so.benefactors = 8;
  so.tweak = [](store::StoreConfig& s) {
    s.redundancy = store::RedundancyMode::kErasure;
    s.ec_k = 4;
    s.ec_m = 2;
  };
  return so;
}

TEST(StoreInvariantTest, RandomOpsKeepLayersConsistentErasure) {
  // The full randomized sequence with every chunk an RS(4,2) stripe: the
  // same cross-layer sweep, reshaped — exactly k+m distinct positional
  // fragments per chunk, fragment-sized reservation accounting, no
  // orphaned fragments, byte-exact reads through the mount (partial
  // writes exercise the read-merge-encode path underneath).
  RunSequence(/*seed=*/1, /*replication=*/1, /*ops=*/120, ErasureOptions());
}

TEST(StoreInvariantTest, ErasureSequenceSurvivesMidRunBenefactorDeath) {
  // A fragment holder dies mid-sequence.  Later full-stripe writes land
  // degraded (a hole at the dead position), reads reconstruct through
  // the parity fragments, and after every op the background repair must
  // have re-encoded the missing fragments onto the spare benefactors —
  // the sweep demands hole-free k+m stripes every time.
  SequenceOptions so = ErasureOptions();
  so.kill_after_writes = 10;
  so.maintenance = true;
  RunSequence(/*seed=*/11, /*replication=*/1, /*ops=*/100, so);
}

TEST(StoreInvariantTest, ColdManagerRestartMidSequenceErasure) {
  // Cold manager restart halfway through an erasure sequence: the WAL's
  // redundancy-mode records, per-fragment completion checksums and the
  // checkpoint's fragment maps must rebuild the stripe state exactly —
  // the sequence keeps running under the same hole-free invariants.
  SequenceOptions so = ErasureOptions();
  so.kill_manager_after_ops = 50;
  const auto ec_tweak = so.tweak;
  so.tweak = [ec_tweak](store::StoreConfig& s) {
    ec_tweak(s);
    s.wal = true;
  };
  RunSequence(/*seed=*/19, /*replication=*/1, /*ops=*/100, so);
}

TEST(StoreInvariantTest, MaintenanceConvergesKilledSequenceToHealedState) {
  // Same mid-sequence death, but with the background maintenance service
  // running.  After each op the harness waits for the service to converge
  // and then demands the FULL invariant set — including exactly-R
  // replication — i.e. background repair must land the store in a state
  // indistinguishable from one that never lost a benefactor.
  SequenceOptions so;
  so.kill_after_writes = 10;
  so.maintenance = true;
  RunSequence(/*seed=*/13, /*replication=*/2, /*ops=*/120, so);
}

}  // namespace
}  // namespace nvm
