// Conformance tests for the benefactor-side multi-chunk read RPC
// (Benefactor::ReadChunkRun + the batched StoreClient::ReadChunks path):
// request-count amortisation (a K-chunk run on one benefactor is exactly
// ONE request), byte-for-byte equality of batched reads with per-chunk
// ReadChunk calls, virtual-time identity of a batch of one with ReadChunk
// and with the same read spelled out from component calls, the charge of a
// corrupt read, device-latency amortisation, a multi-process read storm
// over the streamed path, and the per-chunk read's replica failover past
// dead and rotted holders, pinned in virtual time against its component
// calls, the holder's once-per-mutation verification: re-reads charge
// what the first read charged, and every path that changes a blob's bytes
// behind its checksum is caught by the next check, and its shared blob
// buffers: a sink keeps the bytes it was handed, a clone and its source
// change apart, and a first partial write reads zeros around its pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
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

  explicit Rig(int benefactors, int client_nodes = 1,
               double nic_bw_mbps = 0.0, int replication = 1) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + client_nodes);
    if (nic_bw_mbps > 0.0) cc.network.nic_bw_mbps = nic_bw_mbps;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
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


// --- the per-chunk read's replica failover ---

// What a holder does with a per-chunk read request.
enum class Holder { kDead, kRotted, kServes };

// A rig whose one chunk has a replica on each of `fates.size()` benefactors,
// written by the node-0 client (which therefore holds the location), with
// each holder put into its fate in list order: killed, or a byte of its
// replica flipped.  Returns the chunk's location.
ReadLocation PrepareFailover(Rig& rig, FileId* id,
                             const std::vector<Holder>& fates) {
  *id = rig.WriteFile("/failover", 1, Pattern(kChunk, 61));
  sim::VirtualClock lookup(0);
  auto loc = rig.store->manager().GetReadLocation(lookup, *id, 0);
  EXPECT_TRUE(loc.ok());
  EXPECT_EQ(loc->benefactors.size(), fates.size());
  for (size_t i = 0; i < fates.size(); ++i) {
    Benefactor& b =
        rig.store->benefactor(static_cast<size_t>(loc->benefactors[i]));
    if (fates[i] == Holder::kDead) b.Kill();
    if (fates[i] == Holder::kRotted) {
      EXPECT_TRUE(b.CorruptChunk(loc->key, /*byte_offset=*/3, 0x10).ok());
    }
  }
  return *loc;
}

// The per-chunk read's failover spelled out from component calls.  The
// client tries the holders in list order, each after a request message: a
// dead holder refuses at once; a rotted one admits the read, reads the
// chunk off its device and runs the checksum before it answers CORRUPT;
// the first healthy one does the same and then ships `shipped` bytes back.
// The location is cached, so no lookup is charged.  Returns the completion
// time of a read issued at `start`.
int64_t ReferenceFailover(Rig& rig, int64_t start, const ReadLocation& loc,
                          const std::vector<Holder>& fates, uint64_t shipped) {
  const StoreConfig& cfg = rig.client().config();
  net::Network& net = rig.cluster->network();
  const int node = rig.client().local_node();
  sim::VirtualClock clock(start);
  for (size_t i = 0; i < fates.size(); ++i) {
    Benefactor& b =
        rig.store->benefactor(static_cast<size_t>(loc.benefactors[i]));
    net.Transfer(clock, node, b.node_id(), cfg.meta_request_bytes);
    if (fates[i] == Holder::kDead) continue;
    b.AdmitTransfer(clock, kTenantForeground, cfg.chunk_bytes,
                    /*is_write=*/false, cfg.chunk_bytes);
    b.ssd().ChargeRead(clock, /*offset=*/0, cfg.chunk_bytes);
    clock.Advance(cfg.checksum_ns(cfg.chunk_bytes));
    if (fates[i] == Holder::kRotted) continue;
    net.Transfer(clock, b.node_id(), node, shipped);
    return clock.now();
  }
  ADD_FAILURE() << "no holder serves the chunk";
  return -1;
}

// Read page 9 of the failover chunk, whose last holder serves, through the
// client and pin the read against the component-call reference on an
// identically prepared rig: the completion time, the bytes on the network
// and fetched, each holder's read requests (a dead holder counts none),
// the quarantines, and the location left behind (dead holders stay listed
// for repair, rotted ones are stripped).
void PinFailover(const std::vector<Holder>& fates, StoreClient::Ship ship) {
  const int r = static_cast<int>(fates.size());
  Rig rig(r, /*client_nodes=*/1, /*nic_bw_mbps=*/0.0, r);
  Rig reference(r, /*client_nodes=*/1, /*nic_bw_mbps=*/0.0, r);
  FileId id = kInvalidFileId;
  FileId ref_id = kInvalidFileId;
  const ReadLocation loc = PrepareFailover(rig, &id, fates);
  const ReadLocation ref_loc = PrepareFailover(reference, &ref_id, fates);
  ASSERT_EQ(loc.benefactors, ref_loc.benefactors);

  const StoreConfig& cfg = rig.client().config();
  const bool pages_only = ship == StoreClient::Ship::kPages;
  const uint64_t shipped = pages_only ? cfg.page_bytes : cfg.chunk_bytes;
  std::vector<uint64_t> requests;
  for (int bid : loc.benefactors) {
    requests.push_back(
        rig.store->benefactor(static_cast<size_t>(bid)).read_requests());
  }
  const uint64_t net_before = rig.cluster->network().bytes_transferred();
  const uint64_t ref_net_before =
      reference.cluster->network().bytes_transferred();
  const uint64_t fetched_before = rig.client().bytes_fetched();

  // Long after the write went idle on every device and NIC.
  constexpr int64_t kStart = 1'000'000'000;
  constexpr size_t kPage = 9;
  sim::VirtualClock clock(kStart);
  std::vector<uint8_t> out(kChunk);
  auto got = rig.client().ReadChunkPages(clock, id, 0, kPage, kPage, out, ship);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->first, pages_only ? kPage : 0u);
  EXPECT_EQ(got->last, pages_only ? kPage : cfg.pages_per_chunk() - 1);
  const std::vector<uint8_t> data = Pattern(kChunk, 61);
  const uint64_t from = got->first * cfg.page_bytes;
  const uint64_t to = (got->last + 1) * cfg.page_bytes;
  EXPECT_EQ(0, std::memcmp(out.data() + from, data.data() + from, to - from));

  EXPECT_EQ(clock.now(),
            ReferenceFailover(reference, kStart, ref_loc, fates, shipped));
  EXPECT_EQ(rig.cluster->network().bytes_transferred() - net_before,
            reference.cluster->network().bytes_transferred() - ref_net_before);
  EXPECT_EQ(rig.client().bytes_fetched() - fetched_before, shipped);

  size_t rotted = 0;
  std::vector<int> left;
  for (size_t i = 0; i < fates.size(); ++i) {
    const Benefactor& b =
        rig.store->benefactor(static_cast<size_t>(loc.benefactors[i]));
    const uint64_t want = fates[i] == Holder::kDead ? 0 : 1;
    EXPECT_EQ(b.read_requests() - requests[i], want) << "holder " << i;
    EXPECT_EQ(b.alive(), fates[i] != Holder::kDead) << "holder " << i;
    if (fates[i] == Holder::kRotted) {
      ++rotted;
      EXPECT_FALSE(b.HasChunk(loc.key)) << "holder " << i;
    } else {
      left.push_back(loc.benefactors[i]);
    }
  }
  EXPECT_EQ(rig.client().corrupt_failovers(), rotted);
  EXPECT_EQ(rig.store->manager().corrupt_detected(), rotted);
  sim::VirtualClock lookup(0);
  auto after = rig.store->manager().GetReadLocation(lookup, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors, left);
}

TEST(ReadFailoverTest, DeadPrimaryFallsOverToTheSecondReplica) {
  // One request to the dead holder, which refuses at once and is marked
  // dead; then the second replica's read, whole.
  PinFailover({Holder::kDead, Holder::kServes}, StoreClient::Ship::kWholeUnits);
}

TEST(ReadFailoverTest, RottedPrimaryIsPaidForAndQuarantinedOnce) {
  // The rotted primary's device read and checksum are charged before it
  // answers CORRUPT, it is quarantined once, and the other replica serves:
  // whole, or only the page a cache miss asked for.
  for (const StoreClient::Ship ship :
       {StoreClient::Ship::kWholeUnits, StoreClient::Ship::kPages}) {
    SCOPED_TRACE(ship == StoreClient::Ship::kPages ? "pages" : "whole");
    PinFailover({Holder::kRotted, Holder::kServes}, ship);
  }
}

TEST(ReadFailoverTest, ThirdReplicaServesPastDeadAndRottedHolders) {
  PinFailover({Holder::kDead, Holder::kRotted, Holder::kServes},
              StoreClient::Ship::kWholeUnits);
}

// ---- verify once per mutation ----

// The key of chunk `index` of `id` and the benefactor-0 rig's only holder.
ChunkKey KeyOf(Rig& rig, FileId id, uint32_t index) {
  sim::VirtualClock lookup(0);
  auto loc = rig.store->manager().GetReadLocation(lookup, id, index);
  EXPECT_TRUE(loc.ok());
  return loc.ok() ? loc->key : ChunkKey{};
}

TEST(VerifyOnceTest, RereadOfAVerifiedBlobTakesTheSameVirtualTime) {
  // The first read hashes the replica and leaves it verified; later reads
  // skip the host hash, but every one is still charged the device read and
  // the whole replica's checksum: a re-read issued after the last went
  // idle takes exactly as long, through each single-blob read and a run.
  Rig rig(/*benefactors=*/1);
  const auto data = Pattern(kChunk, 54);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/again", 1, data), 0);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  const sim::DeviceProfile& p = b.ssd().profile();
  const int64_t expected =
      sim::TransferNs(kChunk, p.read_bw_mbps, p.read_latency_ns) +
      cfg.checksum_ns(kChunk);
  const uint64_t page = cfg.page_bytes;

  constexpr int64_t kGap = 1'000'000'000;
  std::vector<uint8_t> whole(kChunk);
  std::vector<uint8_t> one(page);
  for (int i = 0; i < 5; ++i) {
    const int64_t start = (i + 1) * kGap;
    sim::VirtualClock clock(start);
    Status s;
    if (i < 2) {
      s = b.ReadChunk(clock, key, whole);
    } else if (i == 2) {
      s = b.ReadFragment(clock, key, whole);
    } else if (i == 3) {
      s = b.ReadRange(clock, key, 9 * page, one);
    } else {
      s = b.ReadChunkRun(
          clock, {&key, 1},
          [&](const ChunkRunItem&, std::span<const uint8_t> blob) -> Status {
            EXPECT_EQ(0, std::memcmp(blob.data(), data.data(), kChunk));
            return OkStatus();
          });
    }
    ASSERT_TRUE(s.ok()) << "read " << i << ": " << s.ToString();
    EXPECT_EQ(clock.now() - start, expected) << "read " << i;
  }
  EXPECT_EQ(whole, data);
  EXPECT_EQ(0, std::memcmp(one.data(), data.data() + 9 * page, page));
  EXPECT_EQ(b.read_requests(), 5u);
}

TEST(VerifyOnceTest, ReadRangeCopiesItsRangeAndChargesTheWholeBlob) {
  // ReadRange reads, charges and verifies the whole blob like ReadChunk,
  // but only its range leaves the holder; a hole zero-fills the range and
  // touches no device.
  Rig rig(/*benefactors=*/1);
  Rig reference(/*benefactors=*/1);
  const auto data = Pattern(kChunk, 58);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/range", 1, data), 0);
  const ChunkKey ref_key =
      KeyOf(reference, reference.WriteFile("/range", 1, data), 0);
  Benefactor& b = rig.store->benefactor(0);
  Benefactor& ref = reference.store->benefactor(0);
  const uint64_t page = rig.client().config().page_bytes;

  constexpr int64_t kStart = 1'000'000'000;
  std::vector<uint8_t> out(kChunk, 0xEE);
  const auto range = std::span<uint8_t>(out).subspan(5 * page, 3 * page);
  sim::VirtualClock clock(kStart);
  bool sparse = true;
  ASSERT_TRUE(b.ReadRange(clock, key, 5 * page, range, &sparse).ok());
  EXPECT_FALSE(sparse);
  std::vector<uint8_t> ref_out(kChunk);
  sim::VirtualClock ref_clock(kStart);
  ASSERT_TRUE(ref.ReadChunk(ref_clock, ref_key, ref_out).ok());
  EXPECT_EQ(clock.now(), ref_clock.now());
  EXPECT_EQ(b.data_bytes_out(), ref.data_bytes_out());
  EXPECT_EQ(b.ssd().channel().busy_ns(), ref.ssd().channel().busy_ns());
  for (uint64_t i = 0; i < kChunk; ++i) {
    const bool inside = i >= 5 * page && i < 8 * page;
    ASSERT_EQ(out[i], inside ? data[i] : 0xEE) << "byte " << i;
  }

  ChunkKey hole = key;
  hole.index = 99;  // reserved, never written on this benefactor
  ASSERT_TRUE(b.Reserve(hole, kChunk).ok());
  const int64_t busy = b.ssd().channel().busy_ns();
  sim::VirtualClock at_hole(2 * kStart);
  ASSERT_TRUE(b.ReadRange(at_hole, hole, 5 * page, range, &sparse).ok());
  EXPECT_TRUE(sparse);
  EXPECT_EQ(at_hole.now(), 2 * kStart);
  EXPECT_EQ(b.ssd().channel().busy_ns(), busy);
  EXPECT_TRUE(std::all_of(range.begin(), range.end(),
                          [](uint8_t v) { return v == 0; }));
}

TEST(VerifyOnceTest, WholeBlobReadsRefuseABufferOfAnotherSize) {
  // ReadFragment hands over a whole blob, so a buffer of another size is a
  // caller's error, never a prefix of the blob; ReadRange copies a range,
  // which must lie inside the blob.
  Rig rig(/*benefactors=*/1);
  const auto data = Pattern(kChunk, 62);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/size", 1, data), 0);
  Benefactor& b = rig.store->benefactor(0);
  sim::VirtualClock clock(0);
  std::vector<uint8_t> half(kChunk / 2);
  EXPECT_DEATH((void)b.ReadFragment(clock, key, half), "size mismatch");
  ASSERT_TRUE(b.ReadRange(clock, key, kChunk / 2, half).ok());
  EXPECT_EQ(0, std::memcmp(half.data(), data.data() + kChunk / 2,
                           half.size()));
  EXPECT_DEATH((void)b.ReadRange(clock, key, kChunk / 2 + 1, half),
               "range past end");
}

TEST(VerifyOnceTest, FlipAfterAPartialMergeRefusesTheNextMerge) {
  // A partial merge onto a verified base patches the checksum from the
  // changed pages while at most a quarter of the chunk is dirty, hashes
  // the merged image beyond that, and leaves the blob verified either
  // way.  A flip after it must clear that, so the next merge's base check
  // answers CORRUPT instead of laundering the rot into a fresh checksum.
  Rig rig(/*benefactors=*/1);
  auto image = Pattern(kChunk, 55);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/merge", 1, image), 0);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  const uint64_t page = cfg.page_bytes;
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);
  ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());  // verified

  // One page (patched), then half the chunk (hashed whole).
  for (const size_t pages : {size_t{1}, cfg.pages_per_chunk() / 2}) {
    SCOPED_TRACE(pages);
    Bitmap dirty(cfg.pages_per_chunk());
    for (size_t p = 0; p < pages; ++p) {
      const size_t at = (3 + 5 * p) % cfg.pages_per_chunk();
      const auto fresh = Pattern(page, 56 + p);
      std::memcpy(image.data() + at * page, fresh.data(), page);
      dirty.Set(at);
    }
    ASSERT_EQ(dirty.PopCount(), pages);
    uint32_t stored = 0;
    ASSERT_TRUE(
        b.WritePages(clock, key, dirty, image, nullptr, &stored).ok());
    EXPECT_EQ(stored, Crc32c(image.data(), image.size()));
    uint32_t content = 0;
    ASSERT_TRUE(b.StoredContentCrc(key, &content));
    EXPECT_EQ(content, stored);
  }

  ASSERT_TRUE(b.CorruptChunk(key, 7 * page + 1, 0x02).ok());
  Bitmap next(cfg.pages_per_chunk());
  next.Set(5);
  uint32_t stored = 0;
  const Status s = b.WritePages(clock, key, next, image, nullptr, &stored);
  EXPECT_EQ(s.code(), ErrorCode::kCorrupt);
  EXPECT_NE(s.message().find("pre-image"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(b.ReadChunk(clock, key, out).code(), ErrorCode::kCorrupt);
}

TEST(VerifyOnceTest, BitRotInjectorFlipOfAVerifiedBlobIsCaughtByTheNextRead) {
  // Two replicas, both verified by a read; a merge into the first leaves
  // it verified too.  The merge's program fires the bit-rot model,
  // which flips a bit of one of them: that one must read back CORRUPT.
  Rig rig(/*benefactors=*/1);
  auto image = Pattern(2 * kChunk, 57);
  const FileId id = rig.WriteFile("/bitrot", 2, image);
  const ChunkKey keys[] = {KeyOf(rig, id, 0), KeyOf(rig, id, 1)};
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);
  for (const ChunkKey& key : keys) {
    ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());
  }

  b.CorruptAfterWrites(1, /*seed=*/9);
  const auto first = std::span<uint8_t>(image).first(kChunk);
  first[0] ^= 0xFF;
  Bitmap dirty(cfg.pages_per_chunk());
  dirty.Set(0);
  ASSERT_TRUE(b.WritePages(clock, keys[0], dirty, first).ok());
  ASSERT_EQ(b.bitrot_flips(), 1u);
  b.CorruptAfterWrites(0, 0);

  int corrupt = 0;
  for (const ChunkKey& key : keys) {
    const Status s = b.ReadChunk(clock, key, out);
    if (s.code() == ErrorCode::kCorrupt) {
      ++corrupt;
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  EXPECT_EQ(corrupt, 1);
}

TEST(VerifyOnceTest, RawWriteWithAWrongChecksumReadsBackCorrupt) {
  // A whole-blob write stores the caller's checksum verbatim, unhashed, so
  // it leaves the blob unverified: a checksum that does not match the
  // bytes is caught by the first read — of a fragment, or of a replica
  // written with every page dirty.
  Rig rig(/*benefactors=*/1);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  const auto data = Pattern(kChunk, 59);
  const uint32_t wrong = Crc32c(data.data(), data.size()) ^ 1u;
  const ChunkKey fragment{/*origin_file=*/7, /*index=*/0, /*version=*/0};
  const ChunkKey replica{/*origin_file=*/7, /*index=*/1, /*version=*/0};
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);

  const auto frag = std::span<const uint8_t>(data).first(kChunk / 4);
  ASSERT_TRUE(b.WriteFragment(clock, fragment, frag, &wrong).ok());
  EXPECT_EQ(b.ReadFragment(clock, fragment, std::span(out).first(kChunk / 4))
                .code(),
            ErrorCode::kCorrupt);

  Bitmap all(cfg.pages_per_chunk());
  all.SetAll();
  uint32_t stored = 0;
  ASSERT_TRUE(b.WritePages(clock, replica, all, data, &wrong, &stored).ok());
  EXPECT_EQ(stored, wrong);
  EXPECT_EQ(b.ReadChunk(clock, replica, out).code(), ErrorCode::kCorrupt);
}

TEST(VerifyOnceTest, CloneOfARottedBlobReadsBackCorrupt) {
  // A copy-on-write clone copies the source's bytes and checksum but
  // starts unverified: rot in the source (here after a verified read)
  // propagates to the clone and is caught by the clone's first read.
  Rig rig(/*benefactors=*/1);
  const ChunkKey key =
      KeyOf(rig, rig.WriteFile("/cow", 1, Pattern(kChunk, 61)), 0);
  Benefactor& b = rig.store->benefactor(0);
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);
  ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());  // verified
  ASSERT_TRUE(b.CorruptChunk(key, 100, 0x08).ok());
  ChunkKey clone = key;
  ++clone.version;
  ASSERT_TRUE(b.CloneChunk(clock, key, clone).ok());
  EXPECT_EQ(b.ReadChunk(clock, clone, out).code(), ErrorCode::kCorrupt);
  EXPECT_EQ(b.ReadChunk(clock, key, out).code(), ErrorCode::kCorrupt);
}

TEST(VerifyOnceTest, ScrubAfterAVerifiedReadStillCatchesALaterFlip) {
  // A verified blob passes scrub exactly when its stored checksum is the
  // expected one, without a re-hash; a flip after the read clears that,
  // and the next scrub hashes the bytes and catches it.
  Rig rig(/*benefactors=*/1);
  const auto data = Pattern(kChunk, 60);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/scrub", 1, data), 0);
  Benefactor& b = rig.store->benefactor(0);
  const uint32_t crc = Crc32c(data.data(), data.size());
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);
  ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());  // verified

  EXPECT_TRUE(b.VerifyChunk(clock, key, crc).ok());
  EXPECT_EQ(b.VerifyChunk(clock, key, crc ^ 1u).code(), ErrorCode::kCorrupt);
  ASSERT_TRUE(b.CorruptChunk(key, 4096, 0x80).ok());
  EXPECT_EQ(b.VerifyChunk(clock, key, crc).code(), ErrorCode::kCorrupt);
  EXPECT_EQ(b.ReadChunk(clock, key, out).code(), ErrorCode::kCorrupt);
  EXPECT_EQ(b.verify_requests(), 3u);
}


TEST(SharedBlobTest, SinkThatRewritesItsKeyKeepsTheVerifiedBytes) {
  // A run hands its sink the stored buffer itself.  A sink that rewrites
  // the same key meanwhile, with one page or with every page, still holds
  // exactly the bytes that were verified; the write lands on a copy, which
  // the next read returns.
  Rig rig(/*benefactors=*/1);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  auto image = Pattern(kChunk, 63);
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/rewrite", 1, image), 0);
  sim::VirtualClock clock(0);
  for (const size_t pages : {size_t{1}, cfg.pages_per_chunk()}) {
    SCOPED_TRACE(pages);
    const auto old = image;
    const uint32_t old_crc = Crc32c(old.data(), old.size());
    const auto fresh = Pattern(kChunk, 64 + pages);
    Bitmap dirty(cfg.pages_per_chunk());
    for (size_t p = 0; p < pages; ++p) {
      const size_t at = (6 + p) % cfg.pages_per_chunk();
      std::memcpy(image.data() + at * cfg.page_bytes,
                  fresh.data() + at * cfg.page_bytes, cfg.page_bytes);
      dirty.Set(at);
    }
    const uint32_t crc = Crc32c(image.data(), image.size());
    int handed = 0;
    ASSERT_TRUE(
        b.ReadChunkRun(
             clock, {&key, 1},
             [&](const ChunkRunItem& item,
                 std::span<const uint8_t> blob) -> Status {
               ++handed;
               EXPECT_FALSE(item.sparse);
               sim::VirtualClock writer(0);
               uint32_t stored = 0;
               NVM_RETURN_IF_ERROR(
                   b.WritePages(writer, key, dirty, image, &crc, &stored));
               EXPECT_EQ(stored, crc);
               EXPECT_EQ(blob.size(), kChunk);
               EXPECT_EQ(Crc32c(blob.data(), blob.size()), old_crc);
               EXPECT_EQ(0, std::memcmp(blob.data(), old.data(), kChunk));
               return OkStatus();
             })
            .ok());
    EXPECT_EQ(handed, 1);
    std::vector<uint8_t> out(kChunk);
    ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());
    EXPECT_EQ(out, image);
  }
}

TEST(SharedBlobTest, RewritesDuringRunsNeverChangeAHandedBlob) {
  // Two reader threads run over a blob while the writer rewrites it whole,
  // alternating two images (TSan coverage via the concurrency label).
  // Every blob a sink is handed must hash to one of them: a rewrite lands
  // on a copy while any run still holds the buffer.
  Rig rig(/*benefactors=*/1);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  const std::vector<uint8_t> images[] = {Pattern(kChunk, 90),
                                         Pattern(kChunk, 91)};
  const uint32_t crcs[] = {Crc32c(images[0].data(), kChunk),
                           Crc32c(images[1].data(), kChunk)};
  const ChunkKey key = KeyOf(rig, rig.WriteFile("/storm", 1, images[0]), 0);
  std::atomic<bool> done{false};
  std::atomic<int> handed{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      sim::VirtualClock clock(0);
      while (!done.load()) {
        const Status s = b.ReadChunkRun(
            clock, {&key, 1},
            [&](const ChunkRunItem&, std::span<const uint8_t> blob) -> Status {
              const uint32_t crc = Crc32c(blob.data(), blob.size());
              if (crc != crcs[0] && crc != crcs[1]) wrong.fetch_add(1);
              handed.fetch_add(1);
              return OkStatus();
            });
        if (!s.ok()) wrong.fetch_add(1);
      }
    });
  }
  while (handed.load() == 0) std::this_thread::yield();
  Bitmap all(cfg.pages_per_chunk());
  all.SetAll();
  sim::VirtualClock clock(0);
  for (int i = 1; i <= 200; ++i) {
    EXPECT_TRUE(b.WritePages(clock, key, all, images[i % 2], &crcs[i % 2])
                    .ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  std::vector<uint8_t> out(kChunk);
  ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());
  EXPECT_EQ(out, images[0]);
}

TEST(SharedBlobTest, CloneAndSourceChangeApart) {
  // A clone shares its source's buffer until either side changes: rot
  // injected into the source leaves the clone exact, and a write to a
  // clone leaves its source exact.
  Rig rig(/*benefactors=*/1);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  const auto data = Pattern(2 * kChunk, 66);
  const FileId id = rig.WriteFile("/apart", 2, data);
  const std::vector<uint8_t> first(data.begin(), data.begin() + kChunk);
  const std::vector<uint8_t> second(data.begin() + kChunk, data.end());
  sim::VirtualClock clock(0);
  std::vector<uint8_t> out(kChunk);

  const ChunkKey rotted = KeyOf(rig, id, 0);
  ChunkKey rotted_clone = rotted;
  ++rotted_clone.version;
  ASSERT_TRUE(b.CloneChunk(clock, rotted, rotted_clone).ok());
  ASSERT_TRUE(b.CorruptChunk(rotted, 100, 0x08).ok());
  ASSERT_TRUE(b.ReadChunk(clock, rotted_clone, out).ok());
  EXPECT_EQ(out, first);
  EXPECT_EQ(b.ReadChunk(clock, rotted, out).code(), ErrorCode::kCorrupt);

  const ChunkKey source = KeyOf(rig, id, 1);
  ChunkKey clone = source;
  ++clone.version;
  ASSERT_TRUE(b.CloneChunk(clock, source, clone).ok());
  auto image = second;
  Bitmap dirty(cfg.pages_per_chunk());
  dirty.Set(4);
  std::fill_n(image.begin() + 4 * cfg.page_bytes, cfg.page_bytes, 0x3C);
  ASSERT_TRUE(b.WritePages(clock, clone, dirty, image).ok());
  ASSERT_TRUE(b.ReadChunk(clock, source, out).ok());
  EXPECT_EQ(out, second);
  uint32_t content = 0;
  ASSERT_TRUE(b.StoredContentCrc(source, &content));
  EXPECT_EQ(content, Crc32c(second.data(), second.size()));
  ASSERT_TRUE(b.ReadChunk(clock, clone, out).ok());
  EXPECT_EQ(out, image);
}

TEST(SharedBlobTest, PartialFirstWriteReadsZerosOutsideItsPages) {
  // A blob's first program fills only the pages it writes; the rest must
  // read back as the sparse zeros they were, and the stored checksum is
  // that image's.  Blobs stored and deleted first (between live ones, so
  // their memory is handed out again rather than returned) leave the
  // allocator non-zero bytes to hand back.
  Rig rig(/*benefactors=*/1);
  Benefactor& b = rig.store->benefactor(0);
  const StoreConfig& cfg = rig.client().config();
  sim::VirtualClock clock(0);
  Bitmap all(cfg.pages_per_chunk());
  all.SetAll();
  for (uint32_t i = 0; i < 8; ++i) {
    const ChunkKey key{/*origin_file=*/9, /*index=*/i, /*version=*/0};
    ASSERT_TRUE(b.WritePages(clock, key, all, Pattern(kChunk, 70 + i)).ok());
  }
  for (uint32_t i = 0; i < 8; i += 2) {
    ASSERT_TRUE(b.DeleteChunk({9, i, 0}).ok());
  }

  const auto image = Pattern(kChunk, 80);
  Bitmap dirty(cfg.pages_per_chunk());
  dirty.Set(2);
  dirty.Set(9);
  std::vector<uint8_t> want(kChunk, 0);
  dirty.ForEachSet([&](size_t p) {
    std::memcpy(want.data() + p * cfg.page_bytes,
                image.data() + p * cfg.page_bytes, cfg.page_bytes);
  });
  for (uint32_t i = 0; i < 4; ++i) {
    const ChunkKey key{/*origin_file=*/10, /*index=*/i, /*version=*/0};
    uint32_t stored = 0;
    ASSERT_TRUE(b.WritePages(clock, key, dirty, image, nullptr, &stored).ok());
    EXPECT_EQ(stored, Crc32c(want.data(), want.size())) << "blob " << i;
    std::vector<uint8_t> out(kChunk, 0xEE);
    ASSERT_TRUE(b.ReadChunk(clock, key, out).ok());
    EXPECT_EQ(out, want) << "blob " << i;
  }
}

}  // namespace
}  // namespace nvm::store
