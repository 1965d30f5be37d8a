// Conformance tests for the benefactor-side multi-chunk read RPC
// (Benefactor::ReadChunkRun + the batched StoreClient::ReadChunks path):
// request-count amortisation (a K-chunk run on one benefactor is exactly
// ONE request), byte-for-byte equality of batched reads with per-chunk
// ReadChunk calls, virtual-time identity of a batch of one with ReadChunk
// and with the same read spelled out from component calls, the charge of a
// corrupt read, device-latency amortisation, and a multi-process read
// storm over the streamed path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

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

  explicit Rig(int benefactors, int client_nodes = 1,
               double nic_bw_mbps = 0.0) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + client_nodes);
    if (nic_bw_mbps > 0.0) cc.network.nic_bw_mbps = nic_bw_mbps;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    for (int b = 0; b < benefactors; ++b) {
      sc.benefactor_nodes.push_back(client_nodes + b);
    }
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = client_nodes;
    store = std::make_unique<AggregateStore>(*cluster, sc);
  }

  StoreClient& client(int node = 0) { return store->ClientForNode(node); }

  // Create a file of `chunks` chunks and flush `data` into it through the
  // node-0 client (full-chunk dirty writes).
  FileId WriteFile(const std::string& name, uint32_t chunks,
                   const std::vector<uint8_t>& data) {
    sim::VirtualClock clock(0);
    StoreClient& c = client();
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
};

// Issue one batched read of chunks [0, n) and return the fetches.
std::vector<StoreClient::ChunkFetch> BatchRead(
    StoreClient& c, sim::VirtualClock& clock, FileId id, uint32_t n,
    std::vector<std::vector<uint8_t>>& bufs) {
  bufs.assign(n, std::vector<uint8_t>(kChunk));
  std::vector<StoreClient::ChunkFetch> fetches(n);
  for (uint32_t i = 0; i < n; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  EXPECT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  return fetches;
}

// Read chunks [0, n) with one ReadChunk call each, every call on its own
// clock starting at `start` (issued in parallel, like the chunks of a
// batch).  Returns each call's completion time.
std::vector<int64_t> ChunkAtATimeRead(StoreClient& c, int64_t start, FileId id,
                                      uint32_t n,
                                      std::vector<std::vector<uint8_t>>& bufs) {
  bufs.assign(n, std::vector<uint8_t>(kChunk));
  std::vector<int64_t> done(n);
  for (uint32_t i = 0; i < n; ++i) {
    sim::VirtualClock clock(start);
    EXPECT_TRUE(c.ReadChunk(clock, id, i, bufs[i]).ok()) << "chunk " << i;
    done[i] = clock.now();
  }
  return done;
}

// The single-chunk read wire sequence spelled out with the store's public
// component calls, independent of the benefactor's read body: unless the
// client already holds the location (`cached`: it wrote the chunk), a
// metadata round-trip and GetReadLocation; then the request message and
// at the primary either the "no such chunk" marker (a hole) or admission,
// the device read, the read-time checksum and the chunk itself.  Returns
// the completion time of a read issued at `start`.
int64_t ReferenceRead(Rig& rig, int64_t start, FileId id, uint32_t index,
                      bool cached) {
  const StoreConfig& cfg = rig.client().config();
  net::Network& net = rig.cluster->network();
  Manager& m = rig.store->manager();
  const int node = rig.client().local_node();
  // A cached location is resolved here far past the measured window, so
  // the lookup books nothing the read could queue behind.
  constexpr int64_t kOffWindowNs = 1'000'000'000'000;
  sim::VirtualClock lookup(cached ? kOffWindowNs : start);
  if (!cached) {
    net.Transfer(lookup, node, m.node_id(), cfg.meta_request_bytes);
    net.Transfer(lookup, m.node_id(), node, cfg.meta_response_bytes);
  }
  auto loc = m.GetReadLocation(lookup, id, index);
  if (!loc.ok()) {
    ADD_FAILURE() << loc.status().ToString();
    return -1;
  }
  sim::VirtualClock clock(cached ? start : lookup.now());
  Benefactor& b =
      rig.store->benefactor(static_cast<size_t>(loc->benefactors.front()));
  net.Transfer(clock, node, b.node_id(), cfg.meta_request_bytes);
  bool has_crc = false;
  uint32_t crc = 0;
  if (!b.StoredChunkCrc(loc->key, &has_crc, &crc)) {
    net.Transfer(clock, b.node_id(), node, cfg.meta_response_bytes);
    return clock.now();
  }
  b.AdmitTransfer(clock, kTenantForeground, cfg.chunk_bytes,
                  /*is_write=*/false, cfg.chunk_bytes);
  b.ssd().ChargeRead(clock, /*offset=*/0, cfg.chunk_bytes);
  if (has_crc) {
    clock.Advance(cfg.checksum_ns(cfg.chunk_bytes));
  }
  net.Transfer(clock, b.node_id(), node, cfg.chunk_bytes);
  return clock.now();
}

TEST(BatchRpcTest, KChunkRunIsOneBenefactorRequest) {
  constexpr uint32_t kChunks = 8;
  Rig rig(/*benefactors=*/1);
  const auto data = Pattern(kChunks * kChunk, 7);
  const FileId id = rig.WriteFile("/one", kChunks, data);

  Benefactor& b = rig.store->benefactor(0);
  const uint64_t requests_before = b.read_requests();
  const uint64_t runs_before = rig.client().run_rpcs();

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs;
  auto fetches = BatchRead(rig.client(), clock, id, kChunks, bufs);
  for (const auto& f : fetches) ASSERT_TRUE(f.status.ok());

  // The whole K-chunk batch lives on one benefactor: exactly ONE request
  // (one header + one queueing slot), not one per chunk.
  EXPECT_EQ(b.read_requests() - requests_before, 1u);
  EXPECT_EQ(rig.client().run_rpcs() - runs_before, 1u);
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                             kChunk))
        << "chunk " << i;
  }
}

TEST(BatchRpcTest, OneRunPerBenefactorAcrossStripes) {
  constexpr int kBenefactors = 4;
  constexpr uint32_t kChunks = 12;  // 3 chunks per benefactor, round-robin
  Rig rig(kBenefactors);
  const auto data = Pattern(kChunks * kChunk, 13);
  const FileId id = rig.WriteFile("/spread", kChunks, data);

  std::vector<uint64_t> before(kBenefactors);
  for (int b = 0; b < kBenefactors; ++b) {
    before[static_cast<size_t>(b)] =
        rig.store->benefactor(static_cast<size_t>(b)).read_requests();
  }

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs;
  auto fetches = BatchRead(rig.client(), clock, id, kChunks, bufs);
  for (const auto& f : fetches) ASSERT_TRUE(f.status.ok());

  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(static_cast<size_t>(b)).read_requests() -
                  before[static_cast<size_t>(b)],
              1u)
        << "benefactor " << b;
  }
  EXPECT_EQ(rig.client().run_rpcs(), static_cast<uint64_t>(kBenefactors));
}

TEST(BatchRpcTest, BatchedEqualsChunkAtATimeByteForByte) {
  constexpr uint32_t kChunks = 10;
  Rig batched(/*benefactors=*/3);
  Rig single(/*benefactors=*/3);
  const auto data = Pattern(kChunks * kChunk, 29);
  const FileId idb = batched.WriteFile("/bytes", kChunks, data);
  const FileId ids = single.WriteFile("/bytes", kChunks, data);

  sim::VirtualClock cb(0);
  std::vector<std::vector<uint8_t>> bb;
  std::vector<std::vector<uint8_t>> bs;
  auto fb = BatchRead(batched.client(), cb, idb, kChunks, bb);
  ChunkAtATimeRead(single.client(), 0, ids, kChunks, bs);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(fb[i].status.ok());
    EXPECT_EQ(bb[i], bs[i]) << "chunk " << i;
    EXPECT_EQ(0,
              std::memcmp(bb[i].data(), data.data() + i * kChunk, kChunk));
  }
  // Identical data-plane traffic: the run RPC changes timing, not volume.
  EXPECT_EQ(batched.client().bytes_fetched(), single.client().bytes_fetched());
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(batched.store->benefactor(b).data_bytes_out(),
              single.store->benefactor(b).data_bytes_out());
  }
}

TEST(BatchRpcTest, BatchOfOneMatchesLegacyVirtualTime) {
  // Arithmetic identity: with one chunk per run, the streamed path must
  // charge exactly what a ReadChunk call charges — same completion time,
  // same network bytes, same device busy time.
  for (const bool sparse : {false, true}) {
    Rig batched(/*benefactors=*/2);
    Rig single(/*benefactors=*/2);
    Rig reference(/*benefactors=*/2);
    const auto data = Pattern(kChunk, 31);
    FileId idb;
    FileId ids;
    FileId idr;
    if (sparse) {
      // Fallocate but never write: the chunk is a hole on the benefactor.
      // Each rig gets its own setup clock so their resource timelines are
      // identical before the measured read.
      sim::VirtualClock sb(0);
      sim::VirtualClock ss(0);
      sim::VirtualClock sr(0);
      auto cb = batched.client().Create(sb, "/one");
      auto cs = single.client().Create(ss, "/one");
      auto cr = reference.client().Create(sr, "/one");
      ASSERT_TRUE(cb.ok() && cs.ok() && cr.ok());
      ASSERT_TRUE(batched.client().Fallocate(sb, *cb, kChunk).ok());
      ASSERT_TRUE(single.client().Fallocate(ss, *cs, kChunk).ok());
      ASSERT_TRUE(reference.client().Fallocate(sr, *cr, kChunk).ok());
      idb = *cb;
      ids = *cs;
      idr = *cr;
    } else {
      idb = batched.WriteFile("/one", 1, data);
      ids = single.WriteFile("/one", 1, data);
      idr = reference.WriteFile("/one", 1, data);
    }

    sim::VirtualClock tb(0);
    std::vector<std::vector<uint8_t>> bb;
    std::vector<std::vector<uint8_t>> bs;
    auto fb = BatchRead(batched.client(), tb, idb, 1, bb);
    const auto done = ChunkAtATimeRead(single.client(), 0, ids, 1, bs);
    ASSERT_TRUE(fb[0].status.ok());
    EXPECT_EQ(bb[0], bs[0]) << "sparse=" << sparse;

    EXPECT_EQ(fb[0].ready_at, done[0]) << "sparse=" << sparse;
    EXPECT_EQ(batched.cluster->network().remote_bytes(),
              single.cluster->network().remote_bytes());
    EXPECT_EQ(batched.cluster->network().bytes_transferred(),
              single.cluster->network().bytes_transferred());
    EXPECT_EQ(batched.store->benefactor(0).ssd().channel().busy_ns(),
              single.store->benefactor(0).ssd().channel().busy_ns());
    EXPECT_EQ(batched.store->benefactor(0).read_requests(),
              single.store->benefactor(0).read_requests());

    // Both share the benefactor's read body, so the pin also holds them to
    // the sequence spelled out from component calls.
    EXPECT_EQ(done[0], ReferenceRead(reference, 0, idr, 0, !sparse))
        << "sparse=" << sparse;
    EXPECT_EQ(reference.cluster->network().bytes_transferred(),
              single.cluster->network().bytes_transferred());
    for (size_t b = 0; b < 2; ++b) {
      EXPECT_EQ(reference.store->benefactor(b).ssd().channel().busy_ns(),
                single.store->benefactor(b).ssd().channel().busy_ns())
          << "sparse=" << sparse << " benefactor " << b;
    }
  }
}

TEST(BatchRpcTest, CorruptReplicaChargesReadAndChecksumBeforeCorrupt) {
  // Rot is reported only once it is paid for: a verifying read that fails
  // its checksum has read the chunk off the device and run the checksum,
  // and the client's failover to the next replica continues on that
  // clock.  A run of one reports CORRUPT at the same instant.
  Rig rig(/*benefactors=*/1);
  const FileId id = rig.WriteFile("/rot", 1, Pattern(kChunk, 53));
  sim::VirtualClock lookup(0);
  auto loc = rig.store->manager().GetReadLocation(lookup, id, 0);
  ASSERT_TRUE(loc.ok());
  Benefactor& b = rig.store->benefactor(0);
  ASSERT_TRUE(b.CorruptChunk(loc->key, 5, 0x01).ok());
  const sim::DeviceProfile& p = b.ssd().profile();
  const int64_t expected =
      sim::TransferNs(kChunk, p.read_bw_mbps, p.read_latency_ns) +
      rig.client().config().checksum_ns(kChunk);

  // Both reads start long after the device went idle.
  constexpr int64_t kStart = 1'000'000'000;
  std::vector<uint8_t> out(kChunk);
  sim::VirtualClock single(kStart);
  EXPECT_EQ(b.ReadChunk(single, loc->key, out).code(), ErrorCode::kCorrupt);
  EXPECT_EQ(single.now() - kStart, expected);

  sim::VirtualClock run(2 * kStart);
  const Status s = b.ReadChunkRun(
      run, {&loc->key, 1},
      [](const ChunkRunItem&, std::span<const uint8_t>) { return OkStatus(); });
  EXPECT_EQ(s.code(), ErrorCode::kCorrupt);
  EXPECT_EQ(run.now() - 2 * kStart, expected);
}

TEST(BatchRpcTest, RunAmortisesDeviceRequestLatency) {
  // A fast NIC makes the SSD the bottleneck, so the per-request latency
  // saved by the single queueing slot shows up in the end-to-end makespan
  // (on the default NIC-bound profile it only shows in device busy time).
  // The reference issues one ReadChunk per chunk, all at the same start.
  constexpr uint32_t kChunks = 8;
  constexpr double kFastNic = 100'000.0;
  Rig batched(/*benefactors=*/1, /*client_nodes=*/1, kFastNic);
  Rig single(/*benefactors=*/1, /*client_nodes=*/1, kFastNic);
  const auto data = Pattern(kChunks * kChunk, 37);
  const FileId idb = batched.WriteFile("/amortise", kChunks, data);
  const FileId ids = single.WriteFile("/amortise", kChunks, data);

  const int64_t busy_b0 =
      batched.store->benefactor(0).ssd().channel().busy_ns();
  const int64_t busy_s0 = single.store->benefactor(0).ssd().channel().busy_ns();

  sim::VirtualClock tb(0);
  std::vector<std::vector<uint8_t>> bb;
  std::vector<std::vector<uint8_t>> bs;
  auto fb = BatchRead(batched.client(), tb, idb, kChunks, bb);
  const auto done = ChunkAtATimeRead(single.client(), 0, ids, kChunks, bs);
  int64_t done_b = 0;
  int64_t done_s = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(fb[i].status.ok());
    EXPECT_EQ(bb[i], bs[i]) << "chunk " << i;
    done_b = std::max(done_b, fb[i].ready_at);
    done_s = std::max(done_s, done[i]);
  }

  // One queueing slot per run: K chunks save exactly (K-1) per-request
  // read latencies of device busy time...
  const int64_t latency =
      batched.store->benefactor(0).ssd().profile().read_latency_ns;
  const int64_t busy_b =
      batched.store->benefactor(0).ssd().channel().busy_ns() - busy_b0;
  const int64_t busy_s =
      single.store->benefactor(0).ssd().channel().busy_ns() - busy_s0;
  EXPECT_EQ(busy_s - busy_b, (kChunks - 1) * latency);
  // ...and the single-benefactor batch (SSD-bound under the fast NIC)
  // finishes at least that much earlier end to end.
  EXPECT_GE(done_s - done_b, (kChunks - 1) * latency);
}

TEST(BatchRpcTest, ConcurrentBatchedReadersSeeSameBytes) {
  // A read storm over the streamed path: several client nodes batch-read
  // the same striped file concurrently.  Exercises StreamTransfer and the
  // run grouping under real threads (TSan coverage via the concurrency
  // label); every reader must see the exact file bytes.
  constexpr int kReaders = 3;
  constexpr uint32_t kChunks = 12;
  Rig rig(/*benefactors=*/4, /*client_nodes=*/kReaders);
  const auto data = Pattern(kChunks * kChunk, 41);
  const FileId id = rig.WriteFile("/storm", kChunks, data);

  std::atomic<int> failures{0};
  auto placement = rig.cluster->BlockPlacement(1, kReaders);
  rig.cluster->RunProcesses(placement, [&](net::ProcessEnv& env) {
    StoreClient& c = rig.store->ClientForNode(env.node_id);
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
