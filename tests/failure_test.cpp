// Failure-injection and reconfiguration tests: benefactor crashes during
// live workloads (with and without replication), heartbeat-driven
// liveness, allocation rerouting around dead benefactors, and the
// decommission/drain path for hardware upgrades.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <span>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/cache.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/clock.hpp"
#include "store/erasure.hpp"
#include "workloads/matmul.hpp"
#include "workloads/testbed.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int replication, int benefactors = 4, bool maintenance = false,
               std::function<void(store::StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + 1);
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    if (maintenance) {
      sc.store.maintenance = true;
      sc.store.heartbeat_period_ms = 1;
      sc.store.heartbeat_misses = 3;
      sc.store.scrub_period_ms = 50;
    }
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
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

TEST(FailureTest, RegionSurvivesBenefactorDeathWithReplication) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 1);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  // Drop all cached state (both the mapped-in pages and the chunk
  // cache), kill one benefactor, read everything back from the store.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  rig.store->benefactor(1).Kill();
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

TEST(FailureTest, UnreplicatedReadsFailCleanlyAfterDeath) {
  Rig rig(/*replication=*/1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(8 * kChunk, 2)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  rig.store->benefactor(0).Kill();

  // Some chunks are on the dead benefactor: reads return UNAVAILABLE, not
  // garbage and not a crash.
  int failures = 0;
  std::vector<uint8_t> buf(kChunk);
  for (uint32_t c = 0; c < 8; ++c) {
    Status s = (*r)->Read(static_cast<uint64_t>(c) * kChunk, buf);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_EQ(failures, 2);  // 8 chunks striped over 4 benefactors
}

TEST(FailureTest, AllocationRoutesAroundDeadBenefactors) {
  Rig rig(1);
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(2).Kill();
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 3);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  EXPECT_EQ(rig.store->benefactor(0).num_chunks(), 0u);
  EXPECT_EQ(rig.store->benefactor(2).num_chunks(), 0u);
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(FailureTest, HeartbeatTracksChurn) {
  Rig rig(1);
  auto& m = rig.store->manager();
  auto& clock = sim::CurrentClock();
  EXPECT_EQ(m.CheckLiveness(clock), 4u);
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(3).Kill();
  EXPECT_EQ(m.CheckLiveness(clock), 2u);
  EXPECT_EQ(m.AliveBenefactors(), (std::vector<int>{1, 2}));
  rig.store->benefactor(0).Revive();
  EXPECT_EQ(m.CheckLiveness(clock), 3u);
  // Heartbeats cost modelled time (manager service + pings).
  const int64_t before = clock.now();
  m.CheckLiveness(clock);
  EXPECT_GT(clock.now(), before);
}

TEST(FailureTest, MidRunDeathFailsWorkloadCleanly) {
  // Kill a benefactor while a region is half-written; continued use must
  // produce clean UNAVAILABLE errors (no corruption, no crash).
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 4);
  ASSERT_TRUE((*r)->Write(0, {data.data(), 8 * kChunk}).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(2).Kill();

  int errors = 0;
  for (uint32_t c = 8; c < 16; ++c) {
    Status s = (*r)->Write(static_cast<uint64_t>(c) * kChunk,
                           {data.data() + c * kChunk, kChunk});
    if (!s.ok()) ++errors;
    s = (*r)->Sync();
    if (!s.ok()) ++errors;
  }
  EXPECT_GT(errors, 0);
  // Chunks on surviving benefactors still read back intact.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> buf(kChunk);
  int readable = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    if ((*r)->Read(static_cast<uint64_t>(c) * kChunk, buf).ok()) {
      EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                             data.begin() + c * kChunk));
      ++readable;
    }
  }
  EXPECT_GE(readable, 6);  // all chunks not striped onto the dead node
}

// ---- mid-run death on the batched read path ----

store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks,
                             const std::vector<uint8_t>& data) {
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(c.WriteChunkPages(clock, *id, i, all,
                                  {data.data() + i * kChunk, kChunk})
                    .ok());
  }
  return *id;
}

// The primary benefactor of at least two of the file's chunks — its run
// dies with one chunk already streamed and more still owed.
int PrimaryOfAtLeastTwo(store::Manager& m, store::FileId id,
                        uint32_t chunks) {
  auto locs = m.GetReadLocations(sim::CurrentClock(), id, 0, chunks);
  EXPECT_TRUE(locs.ok());
  std::vector<int> primaries(8, 0);
  for (const store::ReadLocation& loc : *locs) {
    EXPECT_FALSE(loc.benefactors.empty());
    ++primaries[static_cast<size_t>(loc.benefactors.front())];
  }
  for (size_t b = 0; b < primaries.size(); ++b) {
    if (primaries[b] >= 2) return static_cast<int>(b);
  }
  return -1;
}

TEST(FailureTest, BatchedRunFailsOverToReplicasWhenBenefactorDiesMidRun) {
  // A benefactor dies after streaming the first chunk of its run.  The
  // whole run must fail cleanly and the client must re-read every chunk of
  // the run from the surviving replicas — including the chunk it already
  // streamed — so the caller sees a fully successful batched read.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 21);
  const store::FileId id = WriteStoreFile(c, "/midrun2", kChunks, data);

  const int victim = PrimaryOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterReads(1);

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(kChunks,
                                         std::vector<uint8_t>(kChunk));
  std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(fetches[i].status.ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                             kChunk))
        << "chunk " << i;
  }
  // The failure was detected and reported to the manager.
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

TEST(FailureTest, MidRunDeathSurfacesNoPartialChunksWithoutReplicas) {
  // Same mid-run death, but with no replicas to fall back to: every chunk
  // of the failed run must report a clean UNAVAILABLE — including the one
  // the benefactor streamed before dying.  A partial run must never be
  // silently surfaced as data.
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 22);
  const store::FileId id = WriteStoreFile(c, "/midrun1", kChunks, data);

  auto locs = rig.store->manager().GetReadLocations(sim::CurrentClock(), id,
                                                    0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = PrimaryOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterReads(1);

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(kChunks,
                                         std::vector<uint8_t>(kChunk));
  std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());

  int failed = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    if ((*locs)[i].benefactors.front() == victim) {
      EXPECT_FALSE(fetches[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(fetches[i].status.code(), ErrorCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(fetches[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                               kChunk))
          << "chunk " << i;
    }
  }
  EXPECT_GE(failed, 2);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

// ---- mid-run death on the batched write path ----

// A benefactor that holds replicas of at least two of the file's chunks —
// its write run dies with one chunk already applied and more still owed.
int ReplicaHolderOfAtLeastTwo(store::Manager& m, store::FileId id,
                              uint32_t chunks) {
  auto locs = m.GetReadLocations(sim::CurrentClock(), id, 0, chunks);
  EXPECT_TRUE(locs.ok());
  std::vector<int> held(8, 0);
  for (const store::ReadLocation& loc : *locs) {
    for (int b : loc.benefactors) ++held[static_cast<size_t>(b)];
  }
  for (size_t b = 0; b < held.size(); ++b) {
    if (held[b] >= 2) return static_cast<int>(b);
  }
  return -1;
}

TEST(FailureTest, ReplicaDeathMidWriteRunDegradesWithoutDataLoss) {
  // A replica holder dies after applying the first chunk of its write run.
  // The whole run fails, the per-chunk fallback against the dead
  // benefactor fails too, and every chunk must still land on its
  // surviving replica: a degraded success, with the death reported and no
  // stale replica ever surfaced to readers.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto before = Pattern(kChunks * kChunk, 23);
  const store::FileId id = WriteStoreFile(c, "/wmidrun2", kChunks, before);

  const int victim =
      ReplicaHolderOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterWrites(1);

  const auto after = Pattern(kChunks * kChunk, 24);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty(kChunks,
                            Bitmap(kChunk / c.config().page_bytes));
  std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {after.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
  }
  EXPECT_GT(c.degraded_writes(), 0u);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());

  // Readers see only the new bytes: the partially-written dead replica is
  // never consulted, the surviving replicas carry the whole update.
  std::vector<uint8_t> buf(kChunk);
  sim::VirtualClock rclock(0);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(rclock, id, i, buf).ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(buf.data(), after.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

TEST(FailureTest, UnreplicatedWriteRunDeathFailsOnlyTheDeadChunks) {
  // No replicas: the chunks owed to the dead benefactor must fail with a
  // clean UNAVAILABLE (no partial run silently counted as flushed), while
  // chunks on surviving benefactors still succeed.
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto before = Pattern(kChunks * kChunk, 25);
  const store::FileId id = WriteStoreFile(c, "/wmidrun1", kChunks, before);

  auto locs = rig.store->manager().GetReadLocations(sim::CurrentClock(), id,
                                                    0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim =
      ReplicaHolderOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterWrites(1);

  const uint64_t flushed_before = c.bytes_flushed();
  const auto after = Pattern(kChunks * kChunk, 26);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty(kChunks,
                            Bitmap(kChunk / c.config().page_bytes));
  std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {after.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());

  uint32_t failed = 0;
  uint64_t flushed_chunks = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    if ((*locs)[i].benefactors.front() == victim) {
      EXPECT_FALSE(writes[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(writes[i].status.code(), ErrorCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
      ++flushed_chunks;
    }
  }
  EXPECT_GE(failed, 2u);
  // Flushed-byte accounting covers exactly the successful chunks — a
  // discarded run contributes nothing.
  EXPECT_EQ(c.bytes_flushed() - flushed_before, flushed_chunks * kChunk);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

// ---- decommission / drain ----

TEST(DecommissionTest, DrainMigratesDataAndRetiresBenefactor) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 5);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  const size_t victim_chunks = rig.store->benefactor(1).num_chunks();
  EXPECT_GT(victim_chunks, 0u);
  auto migrated =
      rig.store->manager().Decommission(sim::CurrentClock(), 1);
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(*migrated, victim_chunks);
  EXPECT_EQ(rig.store->benefactor(1).num_chunks(), 0u);
  EXPECT_FALSE(rig.store->benefactor(1).alive());

  // Every byte still readable after dropping caches.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(16 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

TEST(DecommissionTest, SharedCheckpointChunksMigrateOnce) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 6);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  CheckpointSpec spec;
  spec.nvm.push_back(*r);
  ASSERT_TRUE(runtime.SsdCheckpoint(spec, "/ckpt/drain").ok());

  // The variable's chunks are shared with the checkpoint; draining the
  // benefactor must keep both views intact.
  auto migrated =
      rig.store->manager().Decommission(sim::CurrentClock(), 0);
  ASSERT_TRUE(migrated.ok());

  auto fresh = runtime.SsdMalloc(8 * kChunk);
  RestoreSpec restore;
  restore.nvm.push_back(*fresh);
  ASSERT_TRUE(runtime.SsdRestart("/ckpt/drain", restore).ok());
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*fresh)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(DecommissionTest, SequentialDrainsConsolidateOntoSurvivors) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(12 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(12 * kChunk, 7);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  auto& m = rig.store->manager();
  ASSERT_TRUE(m.Decommission(sim::CurrentClock(), 0).ok());
  ASSERT_TRUE(m.Decommission(sim::CurrentClock(), 1).ok());
  // Two survivors hold everything.
  EXPECT_EQ(rig.store->benefactor(0).num_chunks() +
                rig.store->benefactor(1).num_chunks(),
            0u);
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(12 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);

  // Draining a dead benefactor is refused.
  EXPECT_EQ(m.Decommission(sim::CurrentClock(), 0).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(DecommissionTest, ChargesDataMovementTime) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(16 * kChunk, 8)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  auto& clock = sim::CurrentClock();
  const int64_t before = clock.now();
  ASSERT_TRUE(rig.store->manager().Decommission(clock, 0).ok());
  // 4 chunks moved: at least read+transfer+write per chunk.
  EXPECT_GT(clock.now() - before, 4 * 500'000);
}

TEST(DecommissionTest, WearWeightDrainsOntoFresherBenefactor) {
  // Drain destinations come from the placement engine: with the wear knob
  // on, a worn benefactor first in rotation order after the drained one
  // loses the migrated chunks to a fresher one; knob-off keeps rotation.
  for (const bool aware : {false, true}) {
    Rig rig(/*replication=*/1, /*benefactors=*/4, /*maintenance=*/false,
            [&](store::StoreConfig& s) {
              s.placement_wear_weight = aware ? 8.0 : 0.0;
            });
    NvmallocRuntime runtime(*rig.store, 0);
    auto r = runtime.SsdMalloc(16 * kChunk);
    ASSERT_TRUE(r.ok());
    const auto data = Pattern(16 * kChunk, 9);
    ASSERT_TRUE((*r)->Write(0, data).ok());
    ASSERT_TRUE((*r)->Sync().ok());

    // Age benefactor 2, the first candidate in rotation after benefactor 1.
    sim::SsdDevice& worn = rig.store->benefactor(2).ssd();
    sim::VirtualClock aging(0);
    while (worn.wear_fraction() < 0.5) {
      worn.ChargeWrite(aging, 0, sim::SsdDevice::kEraseBlockBytes);
    }
    const size_t held = rig.store->benefactor(2).num_chunks();
    const size_t moved = rig.store->benefactor(1).num_chunks();
    ASSERT_GT(moved, 0u);
    ASSERT_TRUE(
        rig.store->manager().Decommission(sim::CurrentClock(), 1).ok());
    EXPECT_EQ(rig.store->benefactor(2).num_chunks(),
              aware ? held : held + moved)
        << "aware=" << aware;

    (*r)->Invalidate();
    ASSERT_TRUE(runtime.mount()
                    .cache()
                    .Drop(sim::CurrentClock(), (*r)->file_id())
                    .ok());
    std::vector<uint8_t> got(16 * kChunk);
    ASSERT_TRUE((*r)->Read(0, got).ok());
    EXPECT_EQ(got, data);
  }
}

// ---- drains through the member mover ----

void Erasure(store::StoreConfig& s) {
  s.redundancy = store::RedundancyMode::kErasure;
  s.ec_k = 4;
  s.ec_m = 2;
}

// Every chunk of `id` reads back `want` byte-exact through the client on
// `client_node` — one that has cached none of the file's locations, so
// every read resolves the placement as it stands now.
void ExpectStoreBytes(Rig& rig, int client_node, store::FileId id,
                      uint32_t chunks, const std::vector<uint8_t>& want) {
  store::StoreClient& c = rig.store->ClientForNode(client_node);
  sim::VirtualClock clock(sim::CurrentClock().now());
  std::vector<uint8_t> got(kChunk);
  for (uint32_t i = 0; i < chunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(clock, id, i, got).ok()) << "chunk " << i;
    ASSERT_EQ(0, std::memcmp(got.data(), want.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

// The checksum member `pos` of an RS(4,2) stripe of `chunk` stores.
uint32_t FragmentCrc(std::span<const uint8_t> chunk, uint32_t pos) {
  const auto frags = store::ErasureCodec(4, 2).Encode(chunk);
  return Crc32c(frags[pos].data(), frags[pos].size());
}

// Flip a bit in chunk 0's first member, then drain its holder: the drain
// must not stop at the rot.  The member is copied off the other replica
// (r=2) or rebuilt from k other fragments (RS(4,2)); the benefactor
// retires, the destination stores and verifies the member's checksum, the
// bytes read back exact, and the rot counts as detected.
void DrainPastRottedFirstMember(bool ec) {
  Rig rig(/*replication=*/ec ? 1 : 2, /*benefactors=*/ec ? 8 : 4,
          /*maintenance=*/false,
          ec ? std::function<void(store::StoreConfig&)>(Erasure) : nullptr);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  constexpr uint32_t kChunks = 4;
  const auto data = Pattern(kChunks * kChunk, ec ? 71 : 70);
  const store::FileId id = WriteStoreFile(c, "/drain-rot", kChunks, data);

  sim::VirtualClock clock(0);
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  const int victim = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(victim))
                  .CorruptChunk(loc->key, 17, 0x04)
                  .ok());

  auto migrated = m.Decommission(sim::CurrentClock(), victim);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_GE(*migrated, 1u);
  store::Benefactor& gone = rig.store->benefactor(static_cast<size_t>(victim));
  EXPECT_FALSE(gone.alive());
  EXPECT_EQ(gone.num_chunks(), 0u);
  EXPECT_EQ(gone.bytes_used(), 0u);
  EXPECT_EQ(m.corrupt_detected(), 1u);

  // The destination took the drained member's position and stores the
  // checksum recorded for it: the chunk's image checksum for a replica,
  // the positional fragment checksum for a stripe member.
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->benefactors.size(), loc->benefactors.size());
  const int dst = after->benefactors[0];
  ASSERT_GE(dst, 0);
  EXPECT_NE(dst, victim);
  uint32_t want = 0;
  if (ec) {
    want = FragmentCrc({data.data(), kChunk}, 0);
  } else {
    ASSERT_TRUE(m.LookupChecksum(after->key, &want));
  }
  store::Benefactor& to = rig.store->benefactor(static_cast<size_t>(dst));
  bool has_crc = false;
  uint32_t stored = 0;
  ASSERT_TRUE(to.StoredChunkCrc(after->key, &has_crc, &stored));
  EXPECT_TRUE(has_crc);
  EXPECT_EQ(stored, want);
  bool sparse = true;
  EXPECT_TRUE(to.VerifyChunk(clock, after->key, want, &sparse).ok());
  EXPECT_FALSE(sparse);

  ExpectStoreBytes(rig, /*client_node=*/2, id, kChunks, data);
}

TEST(DecommissionTest, DrainCopiesPastARottedReplica) {
  DrainPastRottedFirstMember(/*ec=*/false);
}

TEST(DecommissionTest, DrainRebuildsPastARottedFragment) {
  DrainPastRottedFirstMember(/*ec=*/true);
}

TEST(DecommissionTest, DrainWithNoVerifiedSourceStopsCorrupt) {
  // Both replicas of chunk 0 rotted: nothing verifies, so the drain stops
  // with CORRUPT and the benefactor stays in service.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  const auto data = Pattern(2 * kChunk, 72);
  const store::FileId id = WriteStoreFile(c, "/drain-lost", 2, data);
  sim::VirtualClock clock(0);
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  for (int bid : loc->benefactors) {
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(bid))
                    .CorruptChunk(loc->key, 9, 0x10)
                    .ok());
  }
  const int victim = loc->benefactors[0];
  auto migrated = m.Decommission(sim::CurrentClock(), victim);
  EXPECT_EQ(migrated.status().code(), ErrorCode::kCorrupt);
  EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
  // Both rotted replicas were quarantined like a reader's reports: the
  // chunk surfaces as lost, and no reservation is left behind.
  EXPECT_EQ(m.corrupt_detected(), 2u);
  EXPECT_EQ(m.lost_chunks(), 1u);
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->benefactors.empty());
  uint64_t named = 0;
  auto locs = m.GetReadLocations(clock, id, 0, 2);
  ASSERT_TRUE(locs.ok());
  for (const store::ReadLocation& l : *locs) named += l.benefactors.size();
  uint64_t used = 0;
  for (size_t b = 0; b < rig.store->num_benefactors(); ++b) {
    used += rig.store->benefactor(b).bytes_used();
  }
  EXPECT_EQ(used, named * kChunk);
}

TEST(DecommissionTest, ErasureDrainKeepsStripesSpreadAndChecksummed) {
  // RS(4,2) over 8 benefactors, one per node: draining a holder moves its
  // fragments onto the spare domains without breaking the stripe rules.
  Rig rig(/*replication=*/1, /*benefactors=*/8, /*maintenance=*/false,
          Erasure);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 73);
  const store::FileId id = WriteStoreFile(c, "/drain-ec", kChunks, data);

  constexpr int kVictim = 3;
  const size_t held = rig.store->benefactor(kVictim).num_chunks();
  ASSERT_GT(held, 0u);
  auto migrated = m.Decommission(sim::CurrentClock(), kVictim);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_EQ(*migrated, held);
  EXPECT_FALSE(rig.store->benefactor(kVictim).alive());
  EXPECT_EQ(m.corrupt_detected(), 0u);

  const uint64_t frag_bytes = kChunk / 4;
  std::vector<uint64_t> named(8, 0);
  sim::VirtualClock clock(sim::CurrentClock().now());
  auto locs = m.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    const store::ReadLocation& loc = (*locs)[i];
    // Every stripe keeps k+m members, on distinct nodes, none the drained
    // one.
    ASSERT_EQ(loc.benefactors.size(), 6u) << "chunk " << i;
    std::set<int> nodes;
    for (uint32_t pos = 0; pos < loc.benefactors.size(); ++pos) {
      const int bid = loc.benefactors[pos];
      ASSERT_GE(bid, 0) << "chunk " << i << " has a hole";
      ASSERT_NE(bid, kVictim);
      store::Benefactor& b = rig.store->benefactor(static_cast<size_t>(bid));
      EXPECT_TRUE(nodes.insert(b.node_id()).second)
          << "chunk " << i << " co-locates fragments";
      ++named[static_cast<size_t>(bid)];
      // Each member stores its positional checksum.
      const uint32_t want =
          FragmentCrc({data.data() + i * kChunk, kChunk}, pos);
      bool sparse = true;
      EXPECT_TRUE(b.VerifyChunk(clock, loc.key, want, &sparse).ok())
          << "chunk " << i << " position " << pos;
      EXPECT_FALSE(sparse);
    }
  }
  // Each benefactor reserves one fragment per list naming it.
  for (size_t b = 0; b < named.size(); ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), named[b] * frag_bytes)
        << "benefactor " << b;
  }

  // A later double loss still reads back exact.
  const int a = (*locs)[0].benefactors[0];
  const int b = (*locs)[0].benefactors[5];
  rig.store->benefactor(static_cast<size_t>(a)).Kill();
  rig.store->benefactor(static_cast<size_t>(b)).Kill();
  ExpectStoreBytes(rig, /*client_node=*/2, id, kChunks, data);
}

// ---- replication repair ----

TEST(RepairTest, RestoresReplicationAfterLoss) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 11);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  rig.store->benefactor(2).Kill();
  uint64_t lost = 0;
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_GT(*recreated, 0u);
  EXPECT_EQ(lost, 0u);

  // After repair, even a SECOND failure cannot lose data.
  rig.store->benefactor(0).Kill();
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(RepairTest, CountsUnrecoverableChunks) {
  Rig rig(/*replication=*/1);  // no replicas: death means loss
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(8 * kChunk, 12)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(1).Kill();
  uint64_t lost = 0;
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 0u);
  EXPECT_EQ(lost, 2u);  // 8 chunks over 4 benefactors
}

TEST(RepairTest, SharedCheckpointChunksRepairedOnce) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(4 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(4 * kChunk, 13);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  CheckpointSpec spec;
  spec.nvm.push_back(*r);
  ASSERT_TRUE(runtime.SsdCheckpoint(spec, "/ckpt/repair").ok());

  rig.store->benefactor(0).Kill();
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), nullptr);
  ASSERT_TRUE(recreated.ok());
  // Chunks shared between the live file and the checkpoint were repaired
  // once each, not once per referencing file.
  EXPECT_LE(*recreated, 4u + 1u);  // variable chunks + ckpt header chunk

  auto fresh = runtime.SsdMalloc(4 * kChunk);
  RestoreSpec restore;
  restore.nvm.push_back(*fresh);
  ASSERT_TRUE(runtime.SsdRestart("/ckpt/repair", restore).ok());
  std::vector<uint8_t> got(4 * kChunk);
  ASSERT_TRUE((*fresh)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(RepairTest, MaintenanceSelfHealsMidWorkloadKillEndToEnd) {
  // The full story, with NO manual RepairReplication call anywhere: a
  // benefactor dies in the middle of a replicated workload, the degraded
  // writes report the affected chunks (and the heartbeat detector catches
  // the untouched ones), and the background service restores full
  // replication within a bounded virtual-time window — proven by killing a
  // SECOND benefactor afterwards and reading every byte back.
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::MaintenanceService& ms = *rig.store->maintenance();
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 31);

  // First half lands healthy; the victim dies; the second half completes
  // as degraded successes that feed the repair queue.
  ASSERT_TRUE((*r)->Write(0, {data.data(), 8 * kChunk}).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(1).Kill();
  ASSERT_TRUE((*r)->Write(8 * kChunk, {data.data() + 8 * kChunk,
                                       8 * kChunk})
                  .ok());
  ASSERT_TRUE((*r)->Sync().ok());

  // Bounded convergence in virtual time.  The window is generous: the
  // cache's write-back runs fork clocks that can report degraded chunks
  // tens of virtual ms ahead of the worker, and repair begins no earlier
  // than the latest report it batches.
  const int64_t deadline = ms.now_ns() + 100 * kMs;
  ms.RunUntil(deadline);
  const store::MaintenanceStats s = ms.stats();
  EXPECT_TRUE(ms.QueueEmpty());
  EXPECT_GT(s.replicas_recreated, 0u);
  EXPECT_EQ(s.lost_chunks, 0u);
  EXPECT_GE(s.converged_at_ns, 0);
  EXPECT_LE(s.converged_at_ns, deadline);

  // Every chunk is back at full replication on alive benefactors only.
  sim::VirtualClock vclock(0);
  auto locs = rig.store->manager().GetReadLocations(vclock, (*r)->file_id(),
                                                    0, 16);
  ASSERT_TRUE(locs.ok());
  for (const store::ReadLocation& loc : *locs) {
    EXPECT_EQ(loc.benefactors.size(), 2u);
    for (int b : loc.benefactors) {
      EXPECT_NE(b, 1);
      EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(b)).alive());
    }
  }

  // Replication held: a second death cannot lose data.
  rig.store->benefactor(0).Kill();
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(16 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

// ---- workload-level resilience ----

TEST(FailureTest, MatmulCompletesWithReplicationAfterMidBcastDeath) {
  workloads::TestbedOptions to =
      workloads::MatmulTestbedOptions(4, false);
  to.compute_nodes = 4;
  to.store.replication = 2;
  workloads::Testbed tb(to);

  // Kill one benefactor *before* the run: placement avoids it, and reads
  // during compute fall over to replicas where needed.
  tb.store().benefactor(2).Kill();

  workloads::MatmulOptions o;
  o.matrix_bytes = 512_KiB;
  o.procs_per_node = 2;
  o.nodes = 4;
  o.tile = 16;
  auto r = workloads::RunMatmul(tb, o);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.verified);
}

// ---- integrity: bit rot, verifying reads, checksum scrub ----

// Store-level helpers (the integrity tests drive the store client
// directly, bypassing the mount cache, so every read hits a benefactor).
store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks, const std::vector<uint8_t>& data,
                             sim::VirtualClock& clock) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(c.WriteChunkPages(clock, *id, i, all,
                                  {data.data() + i * kChunk, kChunk})
                    .ok());
  }
  return *id;
}

TEST(CorruptionTest, ReadFailsOverOnCorruptReplica) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 61);
  const store::FileId id = WriteStoreFile(c, "/rot", 1, data, clock);

  // Flip one bit on the primary replica — the one the client reads first.
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int rotten = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, /*byte_offset=*/17, /*xor_mask=*/0x04)
                  .ok());

  // The read must serve the exact original bytes via the other replica.
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(c.corrupt_failovers(), 1u);

  // The mismatch was reported: the rotten replica is quarantined (dropped
  // from the location map, its data deleted) and counted.
  EXPECT_EQ(m.corrupt_detected(), 1u);
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors.size(), 1u);
  EXPECT_NE(after->benefactors[0], rotten);
  EXPECT_FALSE(
      rig.store->benefactor(static_cast<size_t>(rotten)).HasChunk(loc->key));
}

TEST(CorruptionTest, PagesOnlyMissStillRefusesRottedReplica) {
  // A cache miss that ships only its page still has the holder verify the
  // whole replica: the rotted primary answers CORRUPT, is quarantined
  // once, and the page comes from the other replica.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 68);
  const store::FileId id = WriteStoreFile(c, "/rotpage", 1, data, clock);
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int rotten = loc->benefactors[0];
  store::Benefactor& bad = rig.store->benefactor(static_cast<size_t>(rotten));
  // The flipped byte lies in page 0; the miss asks for page 9.
  ASSERT_TRUE(bad.CorruptChunk(loc->key, /*byte_offset=*/17, 0x04).ok());

  fuselite::FuseliteConfig fc;
  fc.readahead = false;
  fuselite::ChunkCache cache(c, fc);
  const uint64_t page = c.config().page_bytes;
  const uint64_t fetched = c.bytes_fetched();
  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 9 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 9 * page, page));
  EXPECT_EQ(bad.read_requests(), 1u);
  EXPECT_EQ(c.corrupt_failovers(), 1u);
  EXPECT_EQ(m.corrupt_detected(), 1u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page);
  EXPECT_FALSE(bad.HasChunk(loc->key));
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->benefactors.size(), 1u);
  EXPECT_NE(after->benefactors[0], rotten);
}

TEST(CorruptionTest, RotAfterAVerifiedReadFailsTheNextReadOver) {
  // The primary hashes its replica once, on the first read, and trusts
  // that verdict until the bytes change.  A flip after that read must
  // still fail the next read over to the other replica, counted and
  // quarantined once — whether the reads ship the replica or one page.
  for (const auto ship : {store::StoreClient::Ship::kWholeUnits,
                          store::StoreClient::Ship::kPages}) {
    const bool pages = ship == store::StoreClient::Ship::kPages;
    SCOPED_TRACE(pages ? "pages" : "whole");
    Rig rig(/*replication=*/2);
    store::StoreClient& c = rig.store->ClientForNode(0);
    store::Manager& m = rig.store->manager();
    sim::VirtualClock clock(0);
    const auto data = Pattern(kChunk, 69);
    const store::FileId id = WriteStoreFile(c, "/reread", 1, data, clock);
    auto loc = m.GetReadLocation(clock, id, 0);
    ASSERT_TRUE(loc.ok());
    ASSERT_EQ(loc->benefactors.size(), 2u);
    const int primary = loc->benefactors[0];
    store::Benefactor& b = rig.store->benefactor(static_cast<size_t>(primary));
    const uint64_t page = c.config().page_bytes;
    const size_t first = pages ? 9 : 0;
    const size_t last = pages ? 9 : c.config().pages_per_chunk() - 1;
    const uint64_t from = first * page;
    const uint64_t len = (last - first + 1) * page;

    std::vector<uint8_t> got(kChunk);
    ASSERT_TRUE(c.ReadChunkPages(clock, id, 0, first, last, got, ship).ok());
    EXPECT_EQ(0, std::memcmp(got.data() + from, data.data() + from, len));
    EXPECT_EQ(b.read_requests(), 1u);  // the primary served it

    ASSERT_TRUE(b.CorruptChunk(loc->key, 9 * page + 5, 0x40).ok());
    std::fill(got.begin(), got.end(), 0);
    ASSERT_TRUE(c.ReadChunkPages(clock, id, 0, first, last, got, ship).ok());
    EXPECT_EQ(0, std::memcmp(got.data() + from, data.data() + from, len));
    EXPECT_EQ(b.read_requests(), 2u);
    EXPECT_EQ(c.corrupt_failovers(), 1u);
    EXPECT_EQ(m.corrupt_detected(), 1u);
    EXPECT_FALSE(b.HasChunk(loc->key));
    auto after = m.GetReadLocation(clock, id, 0);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->benefactors.size(), 1u);
    EXPECT_NE(after->benefactors[0], primary);
  }
}

TEST(CorruptionTest, RepairRebuildsFromVerifiedSurvivor) {
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 62);
  const store::FileId id = WriteStoreFile(c, "/heal", 1, data, clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(loc->benefactors[0]))
                  .CorruptChunk(loc->key, 4096, 0x80)
                  .ok());

  // The failover read reports the corruption; background repair rebuilds
  // the quarantined replica from the surviving, re-verified copy.
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 100 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  EXPECT_EQ(m.corrupt_detected(), 1u);
  EXPECT_EQ(m.corrupt_repaired(), 1u);

  // Back at full replication, and EVERY replica now serves the original
  // bytes when read directly off the benefactor.
  auto healed = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->benefactors.size(), 2u);
  for (int b : healed->benefactors) {
    sim::VirtualClock rc(clock.now());
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(b))
                    .ReadChunk(rc, healed->key, got)
                    .ok());
    EXPECT_EQ(got, data) << "replica on benefactor " << b;
  }
}

TEST(CorruptionTest, CorruptAllReplicasSurfacesAsLostNotWrongBytes) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/gone", 1, Pattern(kChunk, 63), clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  for (int b : loc->benefactors) {
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(b))
                    .CorruptChunk(loc->key, 99, 0x01)
                    .ok());
  }

  // Both replicas fail verification: the read errors (never serves rot),
  // and stripping the last replica records the chunk as lost.
  std::vector<uint8_t> got(kChunk);
  Status s = c.ReadChunk(clock, id, 0, got);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(c.corrupt_failovers(), 2u);
  EXPECT_EQ(m.corrupt_detected(), 2u);
  EXPECT_EQ(m.lost_chunks(), 1u);
}

TEST(CorruptionTest, ScrubFindsSilentRotEndToEnd) {
  // Nothing ever reads the rotted chunk: only the scrub's incremental
  // checksum verification can find it, quarantine it, and have repair
  // rebuild it — the full background detect-and-heal loop.
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(8 * kChunk, 64);
  const store::FileId id = WriteStoreFile(c, "/silent", 8, data, clock);

  auto loc = m.GetReadLocation(clock, id, 5);
  ASSERT_TRUE(loc.ok());
  const int rotten = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, 300, 0x20)
                  .ok());

  // Let the scrub cycle over the whole store (50 ms period in this rig).
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 2'000 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  const store::MaintenanceStats s = ms.stats();
  EXPECT_GE(s.scrub_chunks_verified, 8u);
  EXPECT_EQ(s.corrupt_chunks_detected, 1u);
  EXPECT_EQ(s.corrupt_chunks_repaired, 1u);
  EXPECT_EQ(m.lost_chunks(), 0u);

  // Healed: full replication, and a full read-back matches exactly.
  sim::VirtualClock rc(ms.now_ns());
  std::vector<uint8_t> got(kChunk);
  for (uint32_t i = 0; i < 8; ++i) {
    auto li = m.GetReadLocation(rc, id, i);
    ASSERT_TRUE(li.ok());
    EXPECT_EQ(li->benefactors.size(), 2u) << "chunk " << i;
    ASSERT_TRUE(c.ReadChunk(rc, id, i, got).ok());
    EXPECT_EQ(0, std::memcmp(got.data(), data.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
  EXPECT_EQ(c.corrupt_failovers(), 0u);  // nothing ever reached a reader
}

TEST(CorruptionTest, BlindPartialWriteSurvivesChecksumScrub) {
  // A page-granular writeback ships the full client image plus a dirty
  // bitmap, but the cache writes fully-covered pages blind — the clean
  // pages of the image may never have been faulted in.  The replicas
  // merge the dirty pages over their stored base, so the authoritative
  // checksum must cover the merged image, not the client's.  (Recording
  // the client-image CRC made the checksum scrub quarantine every such
  // chunk as corrupt — destroying the sole replica at replication=1.)
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 66);
  const store::FileId id = WriteStoreFile(c, "/blind", 1, data, clock);

  // Rewrite one page "blind": zeros everywhere else in the image, exactly
  // as a fresh cache slot that never faulted the rest of the chunk.
  const uint64_t page = c.config().page_bytes;
  Bitmap dirty(kChunk / page);
  dirty.Set(1);
  const auto patch = Pattern(page, 67);
  std::vector<uint8_t> image(kChunk, 0);
  std::memcpy(image.data() + page, patch.data(), page);
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, dirty, image).ok());

  // A full scrub cycle over the store must find nothing to quarantine.
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 2'000 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  EXPECT_EQ(ms.stats().corrupt_chunks_detected, 0u);
  EXPECT_EQ(m.lost_chunks(), 0u);

  // Both replicas still stand, and a verifying read returns the merge:
  // old bytes outside the dirty page, the patch inside.
  sim::VirtualClock rc(ms.now_ns());
  auto loc = m.GetReadLocation(rc, id, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->benefactors.size(), 2u);
  std::vector<uint8_t> expect = data;
  std::memcpy(expect.data() + page, patch.data(), page);
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(rc, id, 0, got).ok());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(c.corrupt_failovers(), 0u);
}

}  // namespace
}  // namespace nvm
