// Conformance tests for the benefactor-side multi-chunk write RPC
// (Benefactor::WriteChunkRun + the batched StoreClient::WriteChunks path):
// request-count amortisation (a K-chunk flush window to one benefactor is
// exactly ONE write request), byte-for-byte equality of batched vs
// chunk-at-a-time write-back (WriteChunkPages), virtual-time identity of a
// batch of one with the per-replica wire sequence a failed run falls back
// to (dense, partial-dirty and COW-clone cases), device-latency
// amortisation, parallel replica charging (a replicated flush costs
// max(replica times), not their sum), degraded writes when a replica dies,
// and a multi-process write storm over the streamed path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

namespace nvm::store {
namespace {

constexpr uint64_t kChunk = 64_KiB;

std::vector<uint8_t> Pattern(uint64_t bytes, uint64_t seed) {
  std::vector<uint8_t> v(bytes);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<AggregateStore> store;

  explicit Rig(int benefactors, int replication = 1, int client_nodes = 1,
               double nic_bw_mbps = 0.0,
               std::function<void(StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + client_nodes);
    if (nic_bw_mbps > 0.0) cc.network.nic_bw_mbps = nic_bw_mbps;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) {
      sc.benefactor_nodes.push_back(client_nodes + b);
    }
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = client_nodes;
    store = std::make_unique<AggregateStore>(*cluster, sc);
  }

  StoreClient& client(int node = 0) { return store->ClientForNode(node); }

  // Create a file of `chunks` chunks (sparse: no data written yet).
  FileId CreateFile(const std::string& name, uint32_t chunks) {
    sim::VirtualClock clock(0);
    StoreClient& c = client();
    auto id = c.Create(clock, name);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
    return *id;
  }
};

// Issue one batched write of chunks [0, n) carrying `data`, all pages
// dirty, and return the per-chunk outcomes.
std::vector<StoreClient::ChunkWrite> BatchWrite(
    StoreClient& c, sim::VirtualClock& clock, FileId id, uint32_t n,
    const std::vector<uint8_t>& data, std::vector<Bitmap>& dirty) {
  dirty.assign(n, Bitmap(kChunk / c.config().page_bytes));
  std::vector<StoreClient::ChunkWrite> writes(n);
  for (uint32_t i = 0; i < n; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {data.data() + i * kChunk, kChunk};
  }
  EXPECT_TRUE(c.WriteChunks(clock, id, writes).ok());
  return writes;
}

// Write chunks [0, n) with one WriteChunkPages call (a window of one)
// each, serially on `clock`, all pages dirty.
void ChunkAtATimeWrite(StoreClient& c, sim::VirtualClock& clock, FileId id,
                       uint32_t n, const std::vector<uint8_t>& data) {
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        c.WriteChunkPages(clock, id, i, all, {data.data() + i * kChunk, kChunk})
            .ok())
        << "chunk " << i;
  }
}

// The per-replica write wire sequence spelled out with the store's public
// component calls: flush-time checksum, one metadata round-trip,
// PrepareWrite, then per replica on a clock forked after the prepare — the
// clone instruction and clone (COW), dirty pages + header, device program,
// response — joined at the max, then CompleteWrite.  It is what a failed
// run's per-replica retry costs, so a run of one must charge exactly this.
void ReferenceWrite(Rig& rig, sim::VirtualClock& clock, FileId id,
                    uint32_t index, const Bitmap& dirty,
                    std::span<const uint8_t> image) {
  const StoreConfig& cfg = rig.client().config();
  net::Network& net = rig.cluster->network();
  Manager& m = rig.store->manager();
  const int node = rig.client().local_node();
  const uint32_t crc = Crc32c(image.data(), image.size());
  clock.Advance(cfg.checksum_ns(cfg.chunk_bytes));
  net.Transfer(clock, node, m.node_id(), cfg.meta_request_bytes);
  net.Transfer(clock, m.node_id(), node, cfg.meta_response_bytes);
  auto loc = m.PrepareWrite(clock, id, index);
  ASSERT_TRUE(loc.ok());
  const uint64_t dirty_bytes = dirty.PopCount() * cfg.page_bytes;
  const int64_t t0 = clock.now();
  int64_t done = t0;
  uint32_t stored = crc;
  for (int bid : loc->benefactors) {
    Benefactor& b = rig.store->benefactor(static_cast<size_t>(bid));
    sim::VirtualClock replica(t0);
    if (loc->needs_clone) {
      net.Transfer(replica, node, b.node_id(), cfg.meta_request_bytes);
      ASSERT_TRUE(b.CloneChunk(replica, loc->clone_from, loc->key).ok());
    }
    b.AdmitTransfer(replica, kTenantForeground, dirty_bytes, /*is_write=*/true,
                    dirty_bytes + cfg.meta_request_bytes);
    net.Transfer(replica, node, b.node_id(),
                 dirty_bytes + cfg.meta_request_bytes);
    ASSERT_TRUE(b.WritePages(replica, loc->key, dirty, image, &crc, &stored)
                    .ok());
    net.Transfer(replica, b.node_id(), node, cfg.meta_response_bytes);
    done = std::max(done, replica.now());
  }
  clock.AdvanceTo(done);
  m.CompleteWrite(clock, loc->key, &stored);
}

// Read chunks [0, n) back through the batched read path and compare.
void ExpectReadsBack(StoreClient& c, FileId id, uint32_t n,
                     const std::vector<uint8_t>& data) {
  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(n, std::vector<uint8_t>(kChunk));
  std::vector<StoreClient::ChunkFetch> fetches(n);
  for (uint32_t i = 0; i < n; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fetches[i].status.ok()) << "chunk " << i;
    EXPECT_EQ(0,
              std::memcmp(bufs[i].data(), data.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

TEST(BatchWriteTest, KChunkWindowIsOneBenefactorWriteRequest) {
  constexpr uint32_t kChunks = 8;
  Rig rig(/*benefactors=*/1);
  const FileId id = rig.CreateFile("/one", kChunks);
  const auto data = Pattern(kChunks * kChunk, 7);

  Benefactor& b = rig.store->benefactor(0);
  const uint64_t requests_before = b.write_requests();
  const uint64_t runs_before = rig.client().write_run_rpcs();

  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(rig.client(), clock, id, kChunks, data, dirty);
  for (const auto& w : writes) ASSERT_TRUE(w.status.ok());

  // The whole K-chunk window lives on one benefactor: exactly ONE write
  // request (one header + one queueing slot), not one per chunk.
  EXPECT_EQ(b.write_requests() - requests_before, 1u);
  EXPECT_EQ(rig.client().write_run_rpcs() - runs_before, 1u);
  ExpectReadsBack(rig.client(), id, kChunks, data);
}

TEST(BatchWriteTest, OneRunPerBenefactorAcrossStripes) {
  constexpr int kBenefactors = 4;
  constexpr uint32_t kChunks = 12;  // 3 chunks per benefactor, round-robin
  Rig rig(kBenefactors);
  const FileId id = rig.CreateFile("/spread", kChunks);
  const auto data = Pattern(kChunks * kChunk, 13);

  std::vector<uint64_t> before(kBenefactors);
  for (int b = 0; b < kBenefactors; ++b) {
    before[static_cast<size_t>(b)] =
        rig.store->benefactor(static_cast<size_t>(b)).write_requests();
  }

  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(rig.client(), clock, id, kChunks, data, dirty);
  for (const auto& w : writes) ASSERT_TRUE(w.status.ok());

  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(static_cast<size_t>(b)).write_requests() -
                  before[static_cast<size_t>(b)],
              1u)
        << "benefactor " << b;
  }
  EXPECT_EQ(rig.client().write_run_rpcs(),
            static_cast<uint64_t>(kBenefactors));
  ExpectReadsBack(rig.client(), id, kChunks, data);
}

TEST(BatchWriteTest, BatchedEqualsChunkAtATimeByteForByte) {
  constexpr uint32_t kChunks = 10;
  Rig batched(/*benefactors=*/3);
  Rig single(/*benefactors=*/3);
  const auto data = Pattern(kChunks * kChunk, 29);
  const FileId idb = batched.CreateFile("/bytes", kChunks);
  const FileId ids = single.CreateFile("/bytes", kChunks);

  sim::VirtualClock cb(0);
  sim::VirtualClock cs(0);
  std::vector<Bitmap> db;
  auto wb = BatchWrite(batched.client(), cb, idb, kChunks, data, db);
  for (uint32_t i = 0; i < kChunks; ++i) ASSERT_TRUE(wb[i].status.ok());
  ChunkAtATimeWrite(single.client(), cs, ids, kChunks, data);
  ExpectReadsBack(batched.client(), idb, kChunks, data);
  ExpectReadsBack(single.client(), ids, kChunks, data);
  // Identical data-plane traffic: the run RPC changes timing, not volume.
  EXPECT_EQ(batched.client().bytes_flushed(), single.client().bytes_flushed());
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(batched.store->benefactor(b).data_bytes_in(),
              single.store->benefactor(b).data_bytes_in());
  }
}

TEST(BatchWriteTest, BatchOfOneMatchesLegacyVirtualTime) {
  // Arithmetic identity: with one chunk per run, the streamed write path
  // must charge exactly the per-replica wire sequence — same completion
  // time, same network bytes, same device busy time.
  for (const bool partial : {false, true}) {
    Rig batched(/*benefactors=*/2);
    Rig reference(/*benefactors=*/2);
    const auto data = Pattern(kChunk, 31);
    const FileId idb = batched.CreateFile("/one", 1);
    const FileId idr = reference.CreateFile("/one", 1);
    const size_t pages = kChunk / batched.client().config().page_bytes;
    Bitmap dirty(pages);
    if (partial) {
      dirty.Set(0);
      dirty.Set(pages / 2);
      dirty.Set(pages - 1);
    } else {
      dirty.SetAll();
    }

    sim::VirtualClock tb(0);
    sim::VirtualClock tr(0);
    std::vector<StoreClient::ChunkWrite> wb(1);
    wb[0].index = 0;
    wb[0].dirty = &dirty;
    wb[0].image = {data.data(), kChunk};
    ASSERT_TRUE(batched.client().WriteChunks(tb, idb, wb).ok());
    ASSERT_TRUE(wb[0].status.ok());
    ReferenceWrite(reference, tr, idr, 0, dirty, {data.data(), kChunk});

    EXPECT_EQ(wb[0].ready_at, tr.now()) << "partial=" << partial;
    EXPECT_EQ(tb.now(), tr.now()) << "partial=" << partial;
    EXPECT_EQ(batched.cluster->network().remote_bytes(),
              reference.cluster->network().remote_bytes());
    EXPECT_EQ(batched.cluster->network().bytes_transferred(),
              reference.cluster->network().bytes_transferred());
    EXPECT_EQ(batched.store->benefactor(0).ssd().channel().busy_ns(),
              reference.store->benefactor(0).ssd().channel().busy_ns());
    EXPECT_EQ(batched.store->benefactor(0).write_requests(),
              reference.store->benefactor(0).write_requests());
  }
}

TEST(BatchWriteTest, BatchOfOneCloneMatchesLegacyVirtualTime) {
  // Same identity through the copy-on-write path: the chunk is shared
  // with a second file (a checkpoint link), so the write must clone first.
  // The run path ships the clone instruction as a standalone control
  // message; a run of one must still cost exactly the per-replica sequence.
  Rig batched(/*benefactors=*/2);
  Rig reference(/*benefactors=*/2);
  const auto data = Pattern(kChunk, 33);
  const auto update = Pattern(kChunk, 34);

  auto setup = [&](Rig& rig) -> FileId {
    sim::VirtualClock clock(0);
    StoreClient& c = rig.client();
    auto id = c.Create(clock, "/live");
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(clock, *id, kChunk).ok());
    Bitmap all(kChunk / c.config().page_bytes);
    all.SetAll();
    EXPECT_TRUE(
        c.WriteChunkPages(clock, *id, 0, all, {data.data(), kChunk}).ok());
    auto ckpt = c.Create(clock, "/ckpt");
    EXPECT_TRUE(ckpt.ok());
    EXPECT_TRUE(c.LinkFileChunks(clock, *ckpt, *id).ok());
    return *id;
  };
  const FileId idb = setup(batched);
  const FileId idr = setup(reference);

  Bitmap all(kChunk / batched.client().config().page_bytes);
  all.SetAll();
  sim::VirtualClock tb(0);
  sim::VirtualClock tr(0);
  std::vector<StoreClient::ChunkWrite> wb(1);
  wb[0].index = 0;
  wb[0].dirty = &all;
  wb[0].image = {update.data(), kChunk};
  ASSERT_TRUE(batched.client().WriteChunks(tb, idb, wb).ok());
  ASSERT_TRUE(wb[0].status.ok());
  ReferenceWrite(reference, tr, idr, 0, all, {update.data(), kChunk});

  EXPECT_EQ(wb[0].ready_at, tr.now());
  EXPECT_EQ(tb.now(), tr.now());
  EXPECT_EQ(batched.cluster->network().remote_bytes(),
            reference.cluster->network().remote_bytes());
  EXPECT_EQ(batched.cluster->network().bytes_transferred(),
            reference.cluster->network().bytes_transferred());
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(batched.store->benefactor(b).ssd().channel().busy_ns(),
              reference.store->benefactor(b).ssd().channel().busy_ns());
  }
  // The live file carries the update.
  ExpectReadsBack(batched.client(), idb, 1, update);
}

TEST(BatchWriteTest, RunAmortisesDeviceRequestLatency) {
  // A fast NIC makes the SSD the bottleneck, so the per-request latency
  // saved by the single queueing slot shows up in the end-to-end makespan.
  // The reference writes the same chunks with one WriteChunkPages call
  // each (a window of one: one request per chunk).
  constexpr uint32_t kChunks = 8;
  constexpr double kFastNic = 100'000.0;
  Rig batched(/*benefactors=*/1, /*replication=*/1, /*client_nodes=*/1,
              kFastNic);
  Rig single(/*benefactors=*/1, /*replication=*/1, /*client_nodes=*/1,
             kFastNic);
  const auto data = Pattern(kChunks * kChunk, 37);
  const FileId idb = batched.CreateFile("/amortise", kChunks);
  const FileId ids = single.CreateFile("/amortise", kChunks);

  sim::VirtualClock tb(0);
  sim::VirtualClock ts(0);
  std::vector<Bitmap> db;
  auto wb = BatchWrite(batched.client(), tb, idb, kChunks, data, db);
  for (uint32_t i = 0; i < kChunks; ++i) ASSERT_TRUE(wb[i].status.ok());
  ChunkAtATimeWrite(single.client(), ts, ids, kChunks, data);
  EXPECT_EQ(single.store->benefactor(0).write_requests(), kChunks);

  // One queueing slot per run: K chunks save exactly (K-1) per-request
  // write latencies of device busy time...
  const int64_t latency =
      batched.store->benefactor(0).ssd().profile().write_latency_ns;
  const int64_t busy_b = batched.store->benefactor(0).ssd().channel().busy_ns();
  const int64_t busy_s = single.store->benefactor(0).ssd().channel().busy_ns();
  EXPECT_EQ(busy_s - busy_b, (kChunks - 1) * latency);
  // ...and the single-benefactor window (SSD-bound under the fast NIC)
  // finishes at least that much earlier end to end.
  EXPECT_GE(ts.now() - tb.now(), (kChunks - 1) * latency);
}

TEST(BatchWriteTest, RunOfOneAdmitsLikeTheReplicaSequenceUnderQos) {
  // With QoS on and a higher-priority tenant backlogging the lane, a run
  // of one must be admitted before its payload books the wire — exactly
  // like the per-replica sequence — so both finish at the same time.
  auto qos = [](StoreConfig& s) {
    s.qos = true;
    s.qos_tenants = {{kTenantForeground, 1.0, 0.1, 1}, {2, 1.0, 0.9, 2}};
  };
  constexpr uint32_t kBackground = 8;
  const auto bg = Pattern(kBackground * kChunk, 47);
  const auto data = Pattern(kChunk, 48);
  // The same tenant-2 window lands first on both rigs.
  auto backlog = [&](Rig& rig) -> FileId {
    const FileId bg_id = rig.CreateFile("/bg", kBackground);
    const FileId id = rig.CreateFile("/one", 1);
    StoreClient& other = rig.client(1);
    other.SetTenant(2);
    sim::VirtualClock clock(0);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(other, clock, bg_id, kBackground, bg, dirty);
    for (const auto& w : writes) EXPECT_TRUE(w.status.ok());
    return id;
  };
  Rig batched(/*benefactors=*/1, /*replication=*/1, /*client_nodes=*/2,
              /*nic_bw_mbps=*/0.0, qos);
  Rig reference(/*benefactors=*/1, /*replication=*/1, /*client_nodes=*/2,
                /*nic_bw_mbps=*/0.0, qos);
  const FileId idb = backlog(batched);
  const FileId idr = backlog(reference);

  Bitmap all(kChunk / batched.client().config().page_bytes);
  all.SetAll();
  sim::VirtualClock tb(0);
  sim::VirtualClock tr(0);
  ASSERT_TRUE(
      batched.client().WriteChunkPages(tb, idb, 0, all, {data.data(), kChunk})
          .ok());
  ReferenceWrite(reference, tr, idr, 0, all, {data.data(), kChunk});
  EXPECT_EQ(tb.now(), tr.now());
  EXPECT_EQ(batched.store->benefactor(0).ssd().channel().busy_ns(),
            reference.store->benefactor(0).ssd().channel().busy_ns());

  // The foreground write really queued behind the backlog.
  uint64_t delayed = 0;
  for (const auto& t : batched.store->qos().Snapshot().tenants) {
    if (t.id == kTenantForeground) delayed = t.delayed;
  }
  EXPECT_GT(delayed, 0u);
  ExpectReadsBack(batched.client(), idb, 1, data);
}

TEST(BatchWriteTest, ReplicatedFlushJoinsAtMaxOfReplicaTimes) {
  // The serial-replica-charging fix: a replicated flush forks a clock per
  // replica and joins at the max, so under a fast NIC (devices dominate,
  // replicas program in parallel on distinct SSDs) replication 2 costs
  // about one replica's time — not the sum the old serial path charged.
  constexpr double kFastNic = 100'000.0;
  auto elapsed_with_replication = [&](int replication) -> int64_t {
    Rig rig(/*benefactors=*/4, replication, /*client_nodes=*/1, kFastNic);
    const FileId id = rig.CreateFile("/join", 1);
    const auto data = Pattern(kChunk, 41);
    sim::VirtualClock clock(0);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(rig.client(), clock, id, 1, data, dirty);
    EXPECT_TRUE(writes[0].status.ok());
    return clock.now();
  };
  const int64_t one = elapsed_with_replication(1);
  const int64_t two = elapsed_with_replication(2);
  EXPECT_GE(two, one);
  EXPECT_LT(two, one + one / 2) << "replicated flush must overlap replicas";
}

TEST(BatchWriteTest, DegradedWriteSucceedsOnSurvivingReplica) {
  // One of the two replica holders is dead at flush time: the write must
  // still succeed (degraded), report the death, keep the location cache
  // pointing at data a replica actually holds, and read back intact.
  constexpr uint32_t kChunks = 4;
  Rig rig(/*benefactors=*/4, /*replication=*/2);
  StoreClient& c = rig.client();
  const FileId id = rig.CreateFile("/degraded", kChunks);
  const auto data = Pattern(kChunks * kChunk, 43);
  {
    sim::VirtualClock clock(0);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(c, clock, id, kChunks, data, dirty);
    for (const auto& w : writes) ASSERT_TRUE(w.status.ok());
  }
  EXPECT_EQ(c.degraded_writes(), 0u);

  // Kill one replica holder of chunk 0, then rewrite everything.
  sim::VirtualClock lookup(0);
  auto locs = rig.store->manager().GetReadLocations(lookup, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = (*locs)[0].benefactors.front();
  rig.store->benefactor(static_cast<size_t>(victim)).Kill();

  const auto update = Pattern(kChunks * kChunk, 44);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(c, clock, id, kChunks, update, dirty);
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
  }
  EXPECT_GT(c.degraded_writes(), 0u);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
  // Every chunk reads back the update from the surviving replicas.
  ExpectReadsBack(c, id, kChunks, update);
}

TEST(BatchWriteTest, ConcurrentBatchedWritersSeeTheirOwnBytes) {
  // A write storm over the streamed path: several client nodes batch-write
  // their own striped files concurrently.  Exercises StreamTransfer and
  // the write-run grouping under real threads (TSan coverage via the
  // concurrency label); every writer must read back exactly its bytes.
  constexpr int kWriters = 3;
  constexpr uint32_t kChunks = 12;
  Rig rig(/*benefactors=*/4, /*replication=*/1, /*client_nodes=*/kWriters);
  std::vector<FileId> ids(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    sim::VirtualClock clock(0);
    StoreClient& c = rig.client(w);
    auto id = c.Create(clock, "/storm" + std::to_string(w));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(c.Fallocate(clock, *id, kChunks * kChunk).ok());
    ids[static_cast<size_t>(w)] = *id;
  }

  std::atomic<int> failures{0};
  auto placement = rig.cluster->BlockPlacement(1, kWriters);
  rig.cluster->RunProcesses(placement, [&](net::ProcessEnv& env) {
    StoreClient& c = rig.store->ClientForNode(env.node_id);
    const FileId id = ids[static_cast<size_t>(env.node_id)];
    const auto data =
        Pattern(kChunks * kChunk, 50 + static_cast<uint64_t>(env.node_id));
    std::vector<Bitmap> dirty(kChunks,
                              Bitmap(kChunk / c.config().page_bytes));
    std::vector<StoreClient::ChunkWrite> writes(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      dirty[i].SetAll();
      writes[i].index = i;
      writes[i].dirty = &dirty[i];
      writes[i].image = {data.data() + i * kChunk, kChunk};
    }
    if (!c.WriteChunks(*env.clock, id, writes).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (uint32_t i = 0; i < kChunks; ++i) {
      if (!writes[i].status.ok()) {
        failures.fetch_add(1);
        return;
      }
    }
    std::vector<std::vector<uint8_t>> bufs(kChunks,
                                           std::vector<uint8_t>(kChunk));
    std::vector<StoreClient::ChunkFetch> fetches(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      fetches[i].index = i;
      fetches[i].out = bufs[i];
    }
    if (!c.ReadChunks(*env.clock, id, fetches).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (uint32_t i = 0; i < kChunks; ++i) {
      if (!fetches[i].status.ok() ||
          std::memcmp(bufs[i].data(), data.data() + i * kChunk, kChunk) !=
              0) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace nvm::store
