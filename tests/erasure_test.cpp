// Erasure-coded redundancy: GF(2^8)/RS known-answer vectors, the
// encode -> drop-any-m -> reconstruct byte-exactness guarantee, the
// client degraded-read failover, background fragment repair from verified
// survivors, corrupt-fragment quarantine (rot surfaces as a repair, never
// as wrong bytes), windows and batches through the run RPCs (one request
// per benefactor, mid-run death and rot), page-range reads that fetch only
// the data fragments holding a cache miss's pages (with their dead- and
// rotted-holder fallbacks), a fragment clone charged as one fragment, a
// stripe write and read pinned to the same sequences spelled out from
// component calls, and the knob-off pin: a store with the erasure knobs
// present but the mode off stays byte- and virtual-time-identical to the
// replicated default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/cache.hpp"
#include "sim/clock.hpp"
#include "sim/device.hpp"
#include "store/erasure.hpp"
#include "store/store.hpp"

namespace nvm {
namespace {

using store::ErasureCodec;

constexpr uint64_t kChunk = 64_KiB;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

// ---- GF(2^8) known answers ----

TEST(Gf256Test, KnownAnswerVectors) {
  // alpha^8 reduces through the primitive polynomial 0x11D: 0x80 * 2 = 0x1D.
  EXPECT_EQ(store::gf256::Mul(0x80, 0x02), 0x1D);
  // Hand-checked products (carry-less multiply mod 0x11D).
  EXPECT_EQ(store::gf256::Mul(0x02, 0x02), 0x04);
  EXPECT_EQ(store::gf256::Mul(0x53, 0xCA), 0x8F);
  EXPECT_EQ(store::gf256::Mul(0x0E, 0x0E), 0x54);  // squaring is carry-less
  // Identity and absorbing elements.
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(store::gf256::Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(store::gf256::Mul(static_cast<uint8_t>(a), 0), 0);
  }
  // Exp/Log are inverse bijections and alpha^255 = 1.
  EXPECT_EQ(store::gf256::Exp(0), 1);
  EXPECT_EQ(store::gf256::Exp(255), 1);
  EXPECT_EQ(store::gf256::Log(2), 1u);
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(store::gf256::Exp(store::gf256::Log(static_cast<uint8_t>(a))),
              a);
  }
}

TEST(Gf256Test, MulDivInvIdentities) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Next());
    const uint8_t b = static_cast<uint8_t>(rng.Next() | 1);  // non-zero
    EXPECT_EQ(store::gf256::Div(store::gf256::Mul(a, b), b), a);
    EXPECT_EQ(store::gf256::Mul(b, store::gf256::Inv(b)), 1);
    // Commutativity and distributivity over XOR (field addition).
    const uint8_t c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(store::gf256::Mul(a, b), store::gf256::Mul(b, a));
    EXPECT_EQ(store::gf256::Mul(a, b ^ c),
              store::gf256::Mul(a, b) ^ store::gf256::Mul(a, c));
  }
}

TEST(Gf256Test, DispatchedMulAccMatchesPortableLoop) {
  // The kernel chosen from the CPU (AVX2: 32 bytes a step, then a scalar
  // tail) must equal the scalar row-table loop for every coefficient, at
  // lengths on both sides of the vector width, from unaligned source and
  // destination addresses; bytes past the source length stay untouched.
  Xoshiro256 rng(21);
  constexpr size_t kGuard = 8;
  for (size_t len : {0u, 1u, 31u, 32u, 33u, 16384u, 16389u}) {
    std::vector<uint8_t> src(len + 1);
    for (auto& b : src) b = static_cast<uint8_t>(rng.Next());
    std::vector<uint8_t> base(len + 3 + kGuard);
    for (auto& b : base) b = static_cast<uint8_t>(rng.Next());
    const std::span<const uint8_t> in(src.data() + 1, len);
    for (unsigned coeff = 0; coeff < 256; ++coeff) {
      auto got = base;
      auto want = base;
      store::gf256::MulAcc(static_cast<uint8_t>(coeff), in,
                           {got.data() + 3, len + kGuard});
      store::gf256::MulAccPortable(static_cast<uint8_t>(coeff), in,
                                   {want.data() + 3, len + kGuard});
      ASSERT_EQ(got, want) << "coeff " << coeff << " len " << len;
      for (size_t i = 0; i < 3; ++i) ASSERT_EQ(got[i], base[i]);
      for (size_t i = len + 3; i < got.size(); ++i) ASSERT_EQ(got[i], base[i]);
    }
  }
}

// ---- RS codec ----

std::vector<uint8_t> Pattern(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

TEST(ErasureCodecTest, ParityMatchesNaiveReference) {
  // Independent reference: parity row r is sum_c C[r][c] * data[c], with
  // the coefficients read back through ParityCoeff and the field ops used
  // one byte at a time.
  const uint32_t k = 4, m = 2;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 64, 11);
  const auto frags = codec.Encode(chunk);
  ASSERT_EQ(frags.size(), k + m);
  for (uint32_t r = 0; r < m; ++r) {
    for (size_t byte = 0; byte < 64; ++byte) {
      uint8_t want = 0;
      for (uint32_t c = 0; c < k; ++c) {
        want = static_cast<uint8_t>(
            want ^ store::gf256::Mul(codec.ParityCoeff(r, c),
                                     chunk[c * 64 + byte]));
      }
      ASSERT_EQ(frags[k + r][byte], want) << "row " << r << " byte " << byte;
    }
  }
  // Systematic: data fragments are contiguous slices of the chunk.
  for (uint32_t c = 0; c < k; ++c) {
    EXPECT_EQ(0, std::memcmp(frags[c].data(), chunk.data() + c * 64, 64));
  }
}

TEST(ErasureCodecTest, AnyTwoLossesReconstructByteExact) {
  // RS(4,2): all C(6,2) = 15 double-loss patterns must reconstruct the
  // chunk byte-exactly (the MDS property of the Cauchy construction).
  const uint32_t k = 4, m = 2;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 512, 12);
  const auto encoded = codec.Encode(chunk);
  std::vector<uint8_t> out(chunk.size());
  for (uint32_t a = 0; a < k + m; ++a) {
    for (uint32_t b = a + 1; b < k + m; ++b) {
      auto frags = encoded;
      frags[a].clear();
      frags[b].clear();
      ASSERT_TRUE(codec.Reconstruct(frags)) << a << "," << b;
      for (uint32_t f = 0; f < k + m; ++f) {
        ASSERT_EQ(frags[f], encoded[f]) << "loss " << a << "," << b
                                        << " fragment " << f;
      }
      ErasureCodec::Assemble(frags, k, out);
      ASSERT_EQ(0, std::memcmp(out.data(), chunk.data(), chunk.size()))
          << "loss " << a << "," << b;
    }
  }
  // m+1 losses are unrecoverable and must say so, not fabricate bytes.
  auto frags = encoded;
  frags[0].clear();
  frags[2].clear();
  frags[5].clear();
  EXPECT_FALSE(codec.Reconstruct(frags));
}

TEST(ErasureCodecTest, WideGeometryRoundTrips) {
  // A non-RAID shape exercises the general Cauchy solve.
  const uint32_t k = 10, m = 4;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 128, 13);
  auto frags = codec.Encode(chunk);
  // Drop m scattered fragments, parity and data mixed.
  frags[1].clear();
  frags[7].clear();
  frags[10].clear();
  frags[13].clear();
  ASSERT_TRUE(codec.Reconstruct(frags));
  std::vector<uint8_t> out(chunk.size());
  ErasureCodec::Assemble(frags, k, out);
  EXPECT_EQ(0, std::memcmp(out.data(), chunk.data(), chunk.size()));
}

TEST(ErasureCodecTest, FragmentSizeOffTheVectorWidth) {
  // 1037-byte fragments: every multiply-accumulate ends in a scalar tail.
  // Parity must match the byte-at-a-time reference and every double loss
  // must reconstruct.
  const uint32_t k = 4, m = 2;
  const size_t frag = 1037;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * frag, 14);
  const auto encoded = codec.Encode(chunk);
  for (uint32_t r = 0; r < m; ++r) {
    for (size_t byte = 0; byte < frag; ++byte) {
      uint8_t want = 0;
      for (uint32_t c = 0; c < k; ++c) {
        want = static_cast<uint8_t>(
            want ^ store::gf256::Mul(codec.ParityCoeff(r, c),
                                     chunk[c * frag + byte]));
      }
      ASSERT_EQ(encoded[k + r][byte], want) << "row " << r << " byte " << byte;
    }
  }
  for (uint32_t a = 0; a < k + m; ++a) {
    for (uint32_t b = a + 1; b < k + m; ++b) {
      auto frags = encoded;
      frags[a].clear();
      frags[b].clear();
      ASSERT_TRUE(codec.Reconstruct(frags)) << a << "," << b;
      ASSERT_EQ(frags, encoded) << "loss " << a << "," << b;
    }
  }
}

// ---- store rig ----

// RS(4,2) needs six distinct failure domains: one benefactor per node.
struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int benefactors,
               std::function<void(store::StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = benefactors + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 1;
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    sc.store.maintenance = true;
    sc.store.heartbeat_period_ms = 1;
    sc.store.heartbeat_misses = 3;
    sc.store.scrub_period_ms = 20;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }

  store::MaintenanceService& ms() { return *store->maintenance(); }
};

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
        c.WriteChunkPages(clock, *id, i, all,
                          {data.data() + i * kChunk, kChunk})
            .ok());
  }
  return *id;
}

void ExpectBytes(store::StoreClient& c, sim::VirtualClock& clock,
                 store::FileId id, uint32_t chunks,
                 const std::vector<uint8_t>& want) {
  std::vector<uint8_t> buf(kChunk);
  for (uint32_t i = 0; i < chunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(clock, id, i, buf).ok()) << "chunk " << i;
    ASSERT_EQ(0, std::memcmp(buf.data(), want.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

// Every chunk carries a full positional fragment map: k+m entries, no
// holes, all distinct, all on alive benefactors.
void ExpectFullStripes(Rig& rig, store::FileId id, uint32_t chunks) {
  sim::VirtualClock clock(0);
  const auto& cfg = rig.store->manager().config();
  auto locs = rig.store->manager().GetReadLocations(clock, id, 0, chunks);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < chunks; ++i) {
    const store::ReadLocation& loc = (*locs)[i];
    ASSERT_EQ(loc.benefactors.size(), cfg.ec_fragments()) << "chunk " << i;
    std::set<int> distinct;
    for (int b : loc.benefactors) {
      ASSERT_GE(b, 0) << "chunk " << i << " has a hole";
      EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(b)).alive())
          << "chunk " << i << " fragment on dead benefactor " << b;
      distinct.insert(b);
    }
    EXPECT_EQ(distinct.size(), loc.benefactors.size())
        << "chunk " << i << " co-locates fragments";
  }
}

// ---- degraded reads ----

TEST(ErasureStoreTest, WriteThenReadRoundTripsIntact) {
  Rig rig(6);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 21);
  const store::FileId id = WriteStoreFile(c, "/ec", kChunks, data, clock);
  ExpectFullStripes(rig, id, kChunks);
  ExpectBytes(c, clock, id, kChunks, data);
  // The intact fast path never reconstructs.
  EXPECT_EQ(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().ec_degraded_reads(), 0u);
  // Parity accounting: m/k of the data volume rode along as parity.
  EXPECT_EQ(rig.store->manager().ec_parity_bytes(),
            kChunks * kChunk * 2 / 4);
}

TEST(ErasureStoreTest, DegradedReadSurvivesAnyTwoFragmentLosses) {
  // Detector pushed out of the horizon: the reads themselves must fail
  // over, with no repair help.
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 6;
  const auto data = Pattern(kChunks * kChunk, 22);
  const store::FileId id = WriteStoreFile(c, "/deg", kChunks, data, clock);

  // m = 2 losses: every stripe spans all six benefactors, so every chunk
  // loses exactly two fragments — the worst tolerable case.
  rig.store->benefactor(1).Kill();
  rig.store->benefactor(4).Kill();
  ExpectBytes(c, clock, id, kChunks, data);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().ec_degraded_reads(), c.ec_degraded_reads());
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, PartialDirtyWriteMergesOverDegradedStripe) {
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 23);
  const store::FileId id = WriteStoreFile(c, "/rmw", 1, data, clock);

  // Kill one fragment holder, then flush a single dirty page: the
  // read-modify-write must reconstruct the old bytes, overlay the page,
  // and land a consistent new stripe on the survivors.
  rig.store->benefactor(2).Kill();
  auto want = data;
  std::fill(want.begin() + 4096, want.begin() + 8192, 0x5A);
  Bitmap one(kChunk / c.config().page_bytes);
  one.Set(1);
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, one, want).ok());
  ExpectBytes(c, clock, id, 1, want);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

// ---- fragment repair ----

TEST(ErasureStoreTest, FragmentRepairRestoresFullStripes) {
  Rig rig(7);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 24);
  const store::FileId id = WriteStoreFile(c, "/rep", kChunks, data, clock);

  // Kill a holder; the detector declares it and repair re-encodes every
  // missing fragment onto the spare failure domain.
  rig.ms().RunUntil(rig.ms().now_ns());
  rig.store->benefactor(3).Kill();
  rig.ms().RunUntil(rig.ms().now_ns() + 10 * kMs);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  EXPECT_GT(rig.store->manager().ec_fragments_repaired(), 0u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
  ExpectFullStripes(rig, id, kChunks);

  // The repaired stripes must survive a FURTHER double loss byte-exactly:
  // repaired parity is real parity, not a placeholder.
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(5).Kill();
  sim::VirtualClock rclock(clock.now());
  ExpectBytes(c, rclock, id, kChunks, data);
}

TEST(ErasureStoreTest, StripeBelowKIsLostNotFabricated) {
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 25);
  const store::FileId id = WriteStoreFile(c, "/lost", 1, data, clock);

  // m+1 = 3 losses: below k survivors, the read must fail — never
  // fabricate bytes.
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(2).Kill();
  rig.store->benefactor(4).Kill();
  std::vector<uint8_t> buf(kChunk);
  EXPECT_FALSE(c.ReadChunk(clock, id, 0, buf).ok());
}

TEST(ErasureStoreTest, RepairReplicationCountsStripeBelowKAsLost) {
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 26);
  const store::FileId id = WriteStoreFile(c, "/below-k", 1, data, clock);

  // m+1 = 3 holders die and no heartbeat declares them: the stripe's dead
  // holders are still listed, and only RepairReplication's own sweep can
  // find that fewer than k fragments survive.
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(2).Kill();
  rig.store->benefactor(4).Kill();
  store::Manager& m = rig.store->manager();
  uint64_t lost = 0;
  auto recreated = m.RepairReplication(clock, &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 0u);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(m.lost_chunks(), 1u);

  // Counted once: the stripped stripe is lost, not degraded, so a second
  // pass finds nothing to repair.
  EXPECT_TRUE(m.CollectUnderReplicated().empty());
  ASSERT_TRUE(m.RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(m.lost_chunks(), 1u);
  std::vector<uint8_t> buf(kChunk);
  EXPECT_FALSE(c.ReadChunk(clock, id, 0, buf).ok());
}

// ---- the shared redundancy rule ----

// ScrubOnce's requeue pass and CollectUnderReplicated read one health
// rule.  They must agree on a replicated store and on an erasure store at
// every step as holders die — including the step that leaves each stripe
// below k live fragments while its dead holders are still listed.
TEST(ErasureStoreTest, ScrubRequeueMatchesCollectAsHoldersDie) {
  for (const bool ec : {false, true}) {
    SCOPED_TRACE(ec ? "RS(4,2)" : "replication 2");
    Rig rig(6, [ec](store::StoreConfig& cfg) {
      cfg.heartbeat_period_ms = 1'000'000;
      cfg.scrub_period_ms = 1'000'000;
      if (!ec) {
        cfg.redundancy = store::RedundancyMode::kReplicate;
        cfg.replication = 2;
      }
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    constexpr uint32_t kChunks = 6;
    WriteStoreFile(c, "/rule", kChunks, Pattern(kChunks * kChunk, 27), clock);
    store::Manager& m = rig.store->manager();
    EXPECT_TRUE(m.CollectUnderReplicated().empty());
    EXPECT_TRUE(m.ScrubOnce(clock).under_replicated.empty());

    for (const int victim : {0, 2, 4}) {
      rig.store->benefactor(static_cast<size_t>(victim)).Kill();
      const std::vector<store::ChunkKey> collected = m.CollectUnderReplicated();
      EXPECT_FALSE(collected.empty()) << "after killing " << victim;
      EXPECT_TRUE(m.ScrubOnce(clock).under_replicated == collected)
          << "after killing " << victim;
    }
    if (ec) {
      // Every stripe spans all six benefactors and still lists its three
      // dead holders: degraded, not yet lost, so both callers hand every
      // stripe to repair (which strips the holders and counts the loss).
      EXPECT_EQ(m.CollectUnderReplicated().size(), kChunks);
    }
  }
}

// ---- corrupt fragments ----

TEST(ErasureStoreTest, CorruptFragmentQuarantinedNeverWrongBytes) {
  Rig rig(7, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 26);
  const store::FileId id = WriteStoreFile(c, "/rot", 1, data, clock);

  // Flip a bit in a DATA fragment (position 0) behind everyone's back.
  auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  const int bad = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(bad))
                  .CorruptChunk(loc->key, 17, 0x40)
                  .ok());

  // The verifying read catches the rot, quarantines the fragment, and
  // reconstructs the true bytes from the survivors.
  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));
  EXPECT_GT(c.corrupt_failovers(), 0u);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_GT(rig.store->manager().corrupt_detected(), 0u);

  // The quarantine queued a repair: draining it re-encodes the fragment
  // (onto a clean domain) and the stripe is whole again.
  rig.ms().RunUntil(rig.ms().now_ns() + 5 * kMs);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  EXPECT_GT(rig.store->manager().ec_fragments_repaired(), 0u);
  ExpectFullStripes(rig, id, 1);
  ExpectBytes(c, clock, id, 1, data);
}

// ---- erasure I/O through the run RPCs ----

store::FileId CreateFile(store::StoreClient& c, sim::VirtualClock& clock,
                         const std::string& name, uint32_t chunks) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  return *id;
}

// One WriteChunks window of `chunks` full-chunk writes; each must commit.
void WriteWindow(store::StoreClient& c, sim::VirtualClock& clock,
                 store::FileId id, uint32_t chunks,
                 const std::vector<uint8_t>& data) {
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  std::vector<store::StoreClient::ChunkWrite> writes(chunks);
  for (uint32_t i = 0; i < chunks; ++i) {
    writes[i].index = i;
    writes[i].dirty = &all;
    writes[i].image = {data.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(writes[i].status.ok())
        << "chunk " << i << ": " << writes[i].status.ToString();
  }
}

// One ReadChunks batch over the first `chunks` chunks; each must come back
// byte-exact.
void ExpectBatchBytes(store::StoreClient& c, sim::VirtualClock& clock,
                      store::FileId id, uint32_t chunks,
                      const std::vector<uint8_t>& want) {
  std::vector<uint8_t> buf(chunks * kChunk);
  std::vector<store::StoreClient::ChunkFetch> fetches(chunks);
  for (uint32_t i = 0; i < chunks; ++i) {
    fetches[i].index = i;
    fetches[i].out = {buf.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < chunks; ++i) {
    ASSERT_TRUE(fetches[i].status.ok())
        << "chunk " << i << ": " << fetches[i].status.ToString();
    ASSERT_EQ(0, std::memcmp(buf.data() + i * kChunk,
                             want.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

uint64_t ReadRequests(Rig& rig) {
  uint64_t n = 0;
  for (size_t b = 0; b < rig.store->num_benefactors(); ++b) {
    n += rig.store->benefactor(b).read_requests();
  }
  return n;
}

// Maintenance off: no repair refills a quarantined hole or strips a dead
// holder behind the test's back.
void Quiet(store::StoreConfig& cfg) { cfg.maintenance = false; }

TEST(ErasureStoreTest, WindowTakesOneRequestPerBenefactor) {
  // Eight full stripes on six benefactors: every stripe spans all six, so
  // the window's 48 fragments ride one write run per benefactor (48
  // requests one stripe at a time), and one batched read of the eight
  // stripes fetches their 32 data fragments in at most six read runs.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 31);
  const store::FileId id = CreateFile(c, clock, "/win", kChunks);
  WriteWindow(c, clock, id, kChunks, data);
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).write_requests(), 1u)
        << "benefactor " << b;
  }
  EXPECT_EQ(c.write_run_rpcs(), 6u);
  EXPECT_EQ(c.degraded_writes(), 0u);
  ExpectFullStripes(rig, id, kChunks);
  EXPECT_EQ(rig.store->manager().ec_parity_bytes(), kChunks * kChunk * 2 / 4);

  const uint64_t reads = ReadRequests(rig);
  ExpectBatchBytes(c, clock, id, kChunks, data);
  EXPECT_LE(ReadRequests(rig) - reads, 6u);
  EXPECT_EQ(c.ec_degraded_reads(), 0u);
}

TEST(ErasureStoreTest, WriteRunDeathCommitsEveryStripeDegraded) {
  // A fragment holder dies three programs into its write run: the run is
  // discarded, its fragments fall back per fragment and fail fast, and
  // every stripe still commits on its other k+m-1 fragments as a degraded
  // write — checksums recorded, bytes exact through parity.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 32);
  const store::FileId id = CreateFile(c, clock, "/wdie", kChunks);
  store::Benefactor& victim = rig.store->benefactor(0);
  victim.KillAfterWrites(3);
  WriteWindow(c, clock, id, kChunks, data);
  EXPECT_FALSE(victim.alive());
  // The run was its only request: the per-fragment retries failed fast.
  EXPECT_EQ(victim.write_requests(), 1u);
  EXPECT_EQ(c.degraded_writes(), kChunks);

  store::Manager& m = rig.store->manager();
  auto locs = m.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    uint32_t crc = 0;
    ASSERT_TRUE(m.LookupChecksum((*locs)[i].key, &crc)) << "chunk " << i;
    EXPECT_EQ(crc, Crc32c(data.data() + i * kChunk, kChunk)) << "chunk " << i;
  }
  ExpectBatchBytes(c, clock, id, kChunks, data);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(m.lost_chunks(), 0u);
}

TEST(ErasureStoreTest, ReadRunDeathFallsOverToParity) {
  // The benefactor holding the most data fragments dies two blobs into its
  // read run: the run is discarded and every stripe it touched is re-read
  // per chunk, reconstructing from parity.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 33);
  const store::FileId id = CreateFile(c, clock, "/rdie", kChunks);
  WriteWindow(c, clock, id, kChunks, data);

  auto locs = rig.store->manager().GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  std::vector<int> data_frags(6, 0);
  for (const store::ReadLocation& loc : *locs) {
    for (uint32_t pos = 0; pos < c.config().ec_k; ++pos) {
      ++data_frags[static_cast<size_t>(loc.benefactors[pos])];
    }
  }
  const auto most = std::max_element(data_frags.begin(), data_frags.end());
  ASSERT_GE(*most, 3) << "the victim's run must outlast its death";
  store::Benefactor& victim = rig.store->benefactor(
      static_cast<size_t>(most - data_frags.begin()));
  victim.KillAfterReads(2);
  ExpectBatchBytes(c, clock, id, kChunks, data);
  EXPECT_FALSE(victim.alive());
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, CorruptFragmentInReadRunIsQuarantined) {
  // A rotted data fragment inside a read run fails the run with CORRUPT;
  // the per-chunk fallback catches it again, quarantines it and
  // reconstructs the stripe from parity.  No wrong byte reaches the batch.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 34);
  const store::FileId id = CreateFile(c, clock, "/rrot", kChunks);
  WriteWindow(c, clock, id, kChunks, data);

  store::Manager& m = rig.store->manager();
  auto loc = m.GetReadLocation(clock, id, 3);
  ASSERT_TRUE(loc.ok());
  const int bad = loc->benefactors[1];
  store::Benefactor& holder = rig.store->benefactor(static_cast<size_t>(bad));
  ASSERT_TRUE(holder.CorruptChunk(loc->key, 17, 0x40).ok());

  ExpectBatchBytes(c, clock, id, kChunks, data);
  EXPECT_GT(c.corrupt_failovers(), 0u);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(m.corrupt_detected(), 1u);
  auto after = m.GetReadLocation(clock, id, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors[1], -1) << "the rotted fragment stays listed";
  EXPECT_FALSE(holder.HasChunk(loc->key));
  EXPECT_EQ(m.lost_chunks(), 0u);
}

// ---- partial reads ----

// A chunk cache over the client with read-ahead off, so every store read a
// test sees is the miss it drives.  RS(4,2) over 64 KiB chunks: four 16 KiB
// data fragments of four pages each.
fuselite::ChunkCache MissCache(store::StoreClient& c) {
  fuselite::FuseliteConfig fc;
  fc.readahead = false;
  return fuselite::ChunkCache(c, fc);
}

TEST(ErasureStoreTest, PageMissReadsOneFragment) {
  // A one-page miss reads the fragment that holds the page and nothing
  // else, and ships only the page.  The miss that continues its stream
  // fetches that fragment whole, so the rest of it lands valid.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 51);
  const store::FileId id = WriteStoreFile(c, "/page", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const uint64_t page = c.config().page_bytes;
  const uint64_t fb = c.config().ec_frag_bytes();

  const uint64_t reads = ReadRequests(rig);
  const uint64_t fetched = c.bytes_fetched();
  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 5 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 5 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 1u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page);

  ASSERT_TRUE(cache.Read(clock, id, 6 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 6 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page + fb);

  // Pages 4-7 came with it: reading them touches the store no more.
  std::vector<uint8_t> frag(fb);
  ASSERT_TRUE(cache.Read(clock, id, fb, frag).ok());
  EXPECT_EQ(0, std::memcmp(frag.data(), data.data() + fb, fb));
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 2u);
  EXPECT_EQ(cache.traffic().hit_chunks.load(), 1u);
  EXPECT_EQ(c.ec_degraded_reads(), 0u);
}

TEST(ErasureStoreTest, RandomPageMissShipsOnePageOfOneFragment) {
  // The holder reads and verifies its whole fragment; one request and one
  // page cross the wire, and only that page lands in the cache.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 57);
  const store::FileId id = WriteStoreFile(c, "/rpage", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const store::StoreConfig& cfg = c.config();
  const uint64_t page = cfg.page_bytes;
  const auto device_out = [&] {
    uint64_t n = 0;
    for (size_t b = 0; b < rig.store->num_benefactors(); ++b) {
      n += rig.store->benefactor(b).data_bytes_out();
    }
    return n;
  };

  const uint64_t reads = ReadRequests(rig);
  const uint64_t fetched = c.bytes_fetched();
  const uint64_t wire = rig.cluster->network().bytes_transferred();
  const uint64_t device = device_out();
  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 10 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 10 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 1u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page);
  EXPECT_EQ(rig.cluster->network().bytes_transferred() - wire,
            cfg.meta_request_bytes + page);
  EXPECT_EQ(device_out() - device, cfg.ec_frag_bytes());

  // Page 9 shares the fragment but did not land: a second one-page miss.
  ASSERT_TRUE(cache.Read(clock, id, 9 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 9 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(c.bytes_fetched() - fetched, 2 * page);
  EXPECT_EQ(c.ec_degraded_reads(), 0u);
}

TEST(ErasureStoreTest, MissesInTwoFragmentsCountTwoFetchesAndNoHit) {
  // The second miss finds the slot resident but fetches: one fetch, not
  // also a hit.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 58);
  const store::FileId id = WriteStoreFile(c, "/count", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const uint64_t page = c.config().page_bytes;
  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 1 * page, got).ok());
  ASSERT_TRUE(cache.Read(clock, id, 9 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 9 * page, page));
  EXPECT_EQ(cache.traffic().hit_chunks.load(), 0u);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 2u);
}

TEST(ErasureStoreTest, MissSpanningTwoFragmentsReadsThoseTwo) {
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 52);
  const store::FileId id = WriteStoreFile(c, "/span", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const uint64_t page = c.config().page_bytes;
  const uint64_t fb = c.config().ec_frag_bytes();

  // Pages 3 and 4 straddle fragments 0 and 1: one request to each, and
  // one page from each.
  const uint64_t reads = ReadRequests(rig);
  const uint64_t fetched = c.bytes_fetched();
  std::vector<uint8_t> got(2 * page);
  ASSERT_TRUE(cache.Read(clock, id, 3 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 3 * page, 2 * page));
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(c.bytes_fetched() - fetched, 2 * page);

  // A later miss in the same chunk reads the next fragment, and the cache
  // counts it as another fetch.
  std::vector<uint8_t> one(page);
  ASSERT_TRUE(cache.Read(clock, id, 9 * page, one).ok());
  EXPECT_EQ(0, std::memcmp(one.data(), data.data() + 9 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 3u);
  EXPECT_EQ(c.bytes_fetched() - fetched, 3 * page);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 2u);

  // The store call reports the pages that landed: every page of both
  // fragments when they ship whole, exactly the pages asked for when only
  // pages ship.
  std::vector<uint8_t> buf(kChunk);
  auto range = c.ReadChunkPages(clock, id, 0, 3, 4, buf);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 0u);
  EXPECT_EQ(range->last, 2 * fb / page - 1);
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), 2 * fb));
  EXPECT_EQ(c.bytes_fetched() - fetched, 3 * page + 2 * fb);
  std::vector<uint8_t> pages(kChunk);
  range = c.ReadChunkPages(clock, id, 0, 3, 4, pages,
                           store::StoreClient::Ship::kPages);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 3u);
  EXPECT_EQ(range->last, 4u);
  EXPECT_EQ(0, std::memcmp(pages.data() + 3 * page, data.data() + 3 * page,
                           2 * page));
  EXPECT_EQ(c.bytes_fetched() - fetched, 5 * page + 2 * fb);
  EXPECT_EQ(ReadRequests(rig) - reads, 7u);
}

TEST(ErasureStoreTest, DeadCoveringHolderFallsBackToAnyKDecode) {
  // The page's fragment holder died after the location was cached: the
  // first round's one fetch fails and the holder is reported once; a
  // second round pulls the other live positions until k are in hand, and
  // the decode lands the whole chunk, so no later miss touches the store.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 53);
  const store::FileId id = WriteStoreFile(c, "/dead", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const store::StoreConfig& cfg = c.config();
  const uint64_t page = cfg.page_bytes;
  const uint64_t fb = cfg.ec_frag_bytes();
  auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  rig.store->benefactor(static_cast<size_t>(loc->benefactors[1])).Kill();

  const uint64_t reads = ReadRequests(rig);
  const uint64_t wire = rig.cluster->network().bytes_transferred();
  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 5 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 5 * page, page));
  EXPECT_EQ(c.ec_degraded_reads(), 1u);
  EXPECT_EQ(ReadRequests(rig) - reads, cfg.ec_k);
  // One request reached the dead holder, k more the live ones, and k
  // fragments came back.
  EXPECT_EQ(rig.cluster->network().bytes_transferred() - wire,
            (cfg.ec_k + 1) * cfg.meta_request_bytes + cfg.ec_k * fb);

  std::vector<uint8_t> all(kChunk);
  ASSERT_TRUE(cache.Read(clock, id, 0, all).ok());
  EXPECT_EQ(all, data);
  EXPECT_EQ(ReadRequests(rig) - reads, cfg.ec_k);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 1u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, RottedCoveringFragmentIsQuarantinedAndDecoded) {
  // As above with the page's fragment rotted instead of its holder dead:
  // one quarantine, then the same any-k decode of the whole chunk.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 54);
  const store::FileId id = WriteStoreFile(c, "/prot", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const uint64_t page = c.config().page_bytes;
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  store::Benefactor& holder =
      rig.store->benefactor(static_cast<size_t>(loc->benefactors[1]));
  ASSERT_TRUE(holder.CorruptChunk(loc->key, 17, 0x40).ok());

  std::vector<uint8_t> got(page);
  ASSERT_TRUE(cache.Read(clock, id, 5 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 5 * page, page));
  EXPECT_EQ(c.corrupt_failovers(), 1u);
  EXPECT_EQ(m.corrupt_detected(), 1u);
  EXPECT_EQ(c.ec_degraded_reads(), 1u);
  EXPECT_FALSE(holder.HasChunk(loc->key));
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors[1], -1);

  const uint64_t reads = ReadRequests(rig);
  std::vector<uint8_t> all(kChunk);
  ASSERT_TRUE(cache.Read(clock, id, 0, all).ok());
  EXPECT_EQ(all, data);
  EXPECT_EQ(ReadRequests(rig), reads);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 1u);
  EXPECT_EQ(m.lost_chunks(), 0u);
}

TEST(ErasureStoreTest, PartialFillNeverOverwritesDirtyPages) {
  // Page 4 is dirty in the cache.  A miss on pages 4-5 asks the store only
  // for page 5, and only page 5 lands.  The miss that continues it
  // fetches the fragment (pages 4-7) whole, which lands around the dirty
  // page without touching it, and the flush writes the page over the old
  // chunk.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 55);
  const store::FileId id = WriteStoreFile(c, "/dirty", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const uint64_t page = c.config().page_bytes;
  const uint64_t fb = c.config().ec_frag_bytes();

  const uint64_t reads = ReadRequests(rig);
  const uint64_t fetched = c.bytes_fetched();
  const std::vector<uint8_t> mine(page, 0xA5);
  ASSERT_TRUE(cache.Write(clock, id, 4 * page, mine).ok());
  EXPECT_EQ(ReadRequests(rig), reads) << "a full-page write fetches nothing";
  std::vector<uint8_t> got(2 * page);
  ASSERT_TRUE(cache.Read(clock, id, 4 * page, got).ok());
  EXPECT_EQ(ReadRequests(rig) - reads, 1u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page);
  EXPECT_EQ(0, std::memcmp(got.data(), mine.data(), page));
  EXPECT_EQ(0, std::memcmp(got.data() + page, data.data() + 5 * page, page));

  std::vector<uint8_t> next(page);
  ASSERT_TRUE(cache.Read(clock, id, 6 * page, next).ok());
  EXPECT_EQ(0, std::memcmp(next.data(), data.data() + 6 * page, page));
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(c.bytes_fetched() - fetched, page + fb);
  std::vector<uint8_t> frag(fb);
  ASSERT_TRUE(cache.Read(clock, id, 4 * page, frag).ok());
  EXPECT_EQ(ReadRequests(rig) - reads, 2u);
  EXPECT_EQ(0, std::memcmp(frag.data(), mine.data(), page));
  EXPECT_EQ(0, std::memcmp(frag.data() + page, data.data() + 5 * page,
                           fb - page));

  ASSERT_TRUE(cache.Flush(clock, id).ok());
  auto want = data;
  std::copy(mine.begin(), mine.end(), want.begin() + 4 * page);
  ExpectBytes(c, clock, id, 1, want);
}

TEST(ErasureStoreTest, DeadSecondCoveringHolderTopsUpTheFirstBeforeDecode) {
  // Pages 3-4 straddle fragments 0 and 1, and fragment 1's holder died
  // after the location was cached.  Fragment 0 ships its page, the dead
  // holder's one request fails, a second round fetches k-1 more fragments
  // whole, and fragment 0's holder sends the rest of its fragment so the
  // decode has k whole fragments.
  Rig rig(6, Quiet);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 59);
  const store::FileId id = WriteStoreFile(c, "/topup", 1, data, clock);
  fuselite::ChunkCache cache = MissCache(c);
  const store::StoreConfig& cfg = c.config();
  const uint64_t page = cfg.page_bytes;
  const uint64_t fb = cfg.ec_frag_bytes();
  auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  rig.store->benefactor(static_cast<size_t>(loc->benefactors[1])).Kill();

  const uint64_t reads = ReadRequests(rig);
  const uint64_t fetched = c.bytes_fetched();
  const uint64_t wire = rig.cluster->network().bytes_transferred();
  std::vector<uint8_t> got(2 * page);
  ASSERT_TRUE(cache.Read(clock, id, 3 * page, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 3 * page, 2 * page));
  EXPECT_EQ(c.ec_degraded_reads(), 1u);
  EXPECT_EQ(ReadRequests(rig) - reads, cfg.ec_k);
  // Fragment 0 counts whole (a page, then the rest), plus k-1 fragments.
  EXPECT_EQ(c.bytes_fetched() - fetched, cfg.ec_k * fb);
  // Requests: two in the first round (one to the dead holder), k-1 in the
  // second, one for the rest of fragment 0.
  EXPECT_EQ(rig.cluster->network().bytes_transferred() - wire,
            (cfg.ec_k + 2) * cfg.meta_request_bytes + cfg.ec_k * fb);

  // The decode landed the whole chunk.
  std::vector<uint8_t> all(kChunk);
  ASSERT_TRUE(cache.Read(clock, id, 0, all).ok());
  EXPECT_EQ(all, data);
  EXPECT_EQ(ReadRequests(rig) - reads, cfg.ec_k);
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 1u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, CloneOfAFragmentChargesOneFragment) {
  // A copy-on-write clone moves the stored blob: one fragment read and one
  // fragment program on the device, not a chunk's worth of each.
  Rig rig(6, Quiet);
  store::Benefactor& b = rig.store->benefactor(0);
  const uint64_t fb = rig.store->manager().config().ec_frag_bytes();
  store::ChunkKey from;
  from.origin_file = 900;
  store::ChunkKey to = from;
  to.version = 1;
  const auto frag = Pattern(fb, 56);
  sim::VirtualClock clock(0);
  ASSERT_TRUE(b.WriteFragment(clock, from, frag).ok());

  const int64_t busy = b.ssd().channel().busy_ns();
  ASSERT_TRUE(b.CloneChunk(clock, from, to).ok());
  const sim::DeviceProfile& p = b.ssd().profile();
  EXPECT_EQ(b.ssd().channel().busy_ns() - busy,
            sim::TransferNs(fb, p.read_bw_mbps, p.read_latency_ns) +
                sim::TransferNs(fb, p.write_bw_mbps, p.write_latency_ns));
  std::vector<uint8_t> got(fb);
  ASSERT_TRUE(b.ReadFragment(clock, to, got).ok());
  EXPECT_EQ(got, frag);
}

// ---- repair fetch rounds ----

// One stripe written on eight benefactors, its position-5 holder killed
// and (optionally) data fragment 0 rotted, then repaired by hand on a
// clock far past the writes, so every device and NIC starts idle.
struct TimedRepair {
  store::FileId id = store::kInvalidFileId;
  int rotted = -1;
  int64_t ns = 0;  // ExecuteRepairPlan's virtual duration
  store::Manager::RepairOutcome out;
};

TimedRepair RepairAfterLoss(Rig& rig, const std::vector<uint8_t>& data,
                            bool rot) {
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  TimedRepair r;
  r.id = WriteStoreFile(c, "/rounds", 1, data, clock);
  auto loc = m.GetReadLocation(clock, r.id, 0);
  EXPECT_TRUE(loc.ok());
  rig.store->benefactor(static_cast<size_t>(loc->benefactors[5])).Kill();
  if (rot) {
    r.rotted = loc->benefactors[0];
    EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(r.rotted))
                    .CorruptChunk(loc->key, 17, 0x40)
                    .ok());
  }
  const std::vector<store::ChunkKey> keys = {loc->key};
  auto plans = m.PlanRepairs(clock, keys);
  EXPECT_EQ(plans.size(), 1u);
  sim::VirtualClock repair(clock.now() + 1'000 * kMs);
  const int64_t t0 = repair.now();
  r.out = m.ExecuteRepairPlan(repair, plans[0]);
  r.ns = repair.now() - t0;
  return r;
}

TEST(ErasureStoreTest, RepairFetchesPastARottedSourceInALaterRound) {
  // RS(4,2), 8 benefactors, 64 KiB chunks.  The rebuild fetches k
  // verified fragments in rounds: with data fragment 0 rotted, the first
  // round finds only three, and position 4 is fetched in a second round
  // that starts at the first one's join — never overlapping the read that
  // failed.  So the rotted repair takes at least one idle fragment read
  // longer than the clean one.
  const auto data = Pattern(kChunk, 41);
  Rig clean_rig(8, Quiet);
  Rig rot_rig(8, Quiet);
  const TimedRepair clean = RepairAfterLoss(clean_rig, data, /*rot=*/false);
  const TimedRepair rot = RepairAfterLoss(rot_rig, data, /*rot=*/true);
  ASSERT_EQ(clean.out.written.size(), 1u);
  ASSERT_EQ(rot.out.written.size(), 1u);
  EXPECT_TRUE(clean.out.corrupt_sources.empty());
  EXPECT_EQ(rot.out.corrupt_sources, std::vector<int>{rot.rotted});

  // One fragment read + verify on an idle device.
  store::Manager& m = clean_rig.store->manager();
  sim::VirtualClock probe(2'000 * kMs);
  auto loc = m.GetReadLocation(probe, clean.id, 0);
  ASSERT_TRUE(loc.ok());
  std::vector<uint8_t> frag(m.config().ec_frag_bytes());
  const int64_t p0 = probe.now();
  ASSERT_TRUE(clean_rig.store->benefactor(static_cast<size_t>(
                  loc->benefactors[1]))
                  .ReadFragment(probe, loc->key, frag)
                  .ok());
  const int64_t idle_read = probe.now() - p0;
  ASSERT_GT(idle_read, 0);
  EXPECT_GE(rot.ns - clean.ns, idle_read)
      << "clean " << clean.ns << " ns, rotted " << rot.ns << " ns";

  // The clean commit makes the stripe whole.
  sim::VirtualClock clock(3'000 * kMs);
  bool requeue = true;
  EXPECT_EQ(m.CommitRepair(clock, clean.out, &requeue), 1u);
  EXPECT_FALSE(requeue);
  ExpectFullStripes(clean_rig, clean.id, 1);

  // The rotted commit fills position 5 and quarantines the rotted source,
  // asking for another round; that round makes the stripe whole, and the
  // bytes read back exact.
  store::Manager& rm = rot_rig.store->manager();
  EXPECT_EQ(rm.CommitRepair(clock, rot.out, &requeue), 1u);
  EXPECT_TRUE(requeue);
  EXPECT_EQ(rm.corrupt_detected(), 1u);
  auto after = rm.GetReadLocation(clock, rot.id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors[0], -1);
  EXPECT_EQ(after->benefactors[5], rot.out.written[0]);
  ASSERT_TRUE(rm.RepairReplication(clock).ok());
  ExpectFullStripes(rot_rig, rot.id, 1);
  ExpectBytes(rot_rig.store->ClientForNode(0), clock, rot.id, 1, data);
}

// ---- virtual-time pin against component calls ----

// A full-stripe write spelled out with the store's public component
// calls, independent of the benefactor's program body: encode and
// checksums, a metadata round-trip and PrepareWrite, then per fragment on
// a clock forked after the prepare — admission, payload + header, the
// device program, the ack — joined at the max and committed.  Returns the
// fragment holders in position order.
std::vector<int> ReferenceStripeWrite(Rig& rig, sim::VirtualClock& clock,
                                      store::FileId id,
                                      std::span<const uint8_t> image) {
  store::StoreClient& c = rig.store->ClientForNode(0);
  const store::StoreConfig& cfg = c.config();
  net::Network& net = rig.cluster->network();
  store::Manager& m = rig.store->manager();
  const int node = c.local_node();
  const uint64_t fb = cfg.ec_frag_bytes();
  ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  const std::vector<std::vector<uint8_t>> frags = codec.Encode(image);
  clock.Advance(cfg.ec_encode_ns(cfg.chunk_bytes));
  const uint32_t crc = Crc32c(image.data(), image.size());
  std::vector<uint32_t> frag_crcs;
  for (const auto& f : frags) frag_crcs.push_back(Crc32c(f.data(), f.size()));
  clock.Advance(cfg.checksum_ns(cfg.chunk_bytes) +
                cfg.checksum_ns(frags.size() * fb));
  net.Transfer(clock, node, m.node_id(), cfg.meta_request_bytes);
  net.Transfer(clock, m.node_id(), node, cfg.meta_response_bytes);
  auto loc = m.PrepareWrite(clock, id, 0);
  if (!loc.ok()) {
    ADD_FAILURE() << loc.status().ToString();
    return {};
  }
  const int64_t t0 = clock.now();
  int64_t done = t0;
  for (int bid : loc->benefactors) {
    store::Benefactor& b = rig.store->benefactor(static_cast<size_t>(bid));
    sim::VirtualClock frag(t0);
    b.AdmitTransfer(frag, store::kTenantForeground, fb, /*is_write=*/true,
                    fb + cfg.meta_request_bytes);
    net.Transfer(frag, node, b.node_id(), fb + cfg.meta_request_bytes);
    b.ssd().ChargeWrite(frag, /*offset=*/0, fb);
    net.Transfer(frag, b.node_id(), node, cfg.meta_response_bytes);
    done = std::max(done, frag.now());
  }
  clock.AdvanceTo(done);
  m.CompleteWrite(clock, loc->key, &crc, frag_crcs);
  return loc->benefactors;
}

// The intact read of the same stripe from a warm location cache: per data
// fragment on a clock forked at the start — the request, admission, the
// device read and its checksum, the fragment itself — joined at the max.
void ReferenceStripeRead(Rig& rig, sim::VirtualClock& clock,
                         const std::vector<int>& holders) {
  store::StoreClient& c = rig.store->ClientForNode(0);
  const store::StoreConfig& cfg = c.config();
  net::Network& net = rig.cluster->network();
  const int node = c.local_node();
  const uint64_t fb = cfg.ec_frag_bytes();
  const int64_t t0 = clock.now();
  int64_t done = t0;
  for (uint32_t pos = 0; pos < cfg.ec_k; ++pos) {
    store::Benefactor& b =
        rig.store->benefactor(static_cast<size_t>(holders[pos]));
    sim::VirtualClock frag(t0);
    net.Transfer(frag, node, b.node_id(), cfg.meta_request_bytes);
    b.AdmitTransfer(frag, store::kTenantForeground, fb, /*is_write=*/false,
                    fb);
    b.ssd().ChargeRead(frag, /*offset=*/0, fb);
    frag.Advance(cfg.checksum_ns(fb));
    net.Transfer(frag, b.node_id(), node, fb);
    done = std::max(done, frag.now());
  }
  clock.AdvanceTo(done);
}

TEST(ErasureStoreTest, StripeWriteAndReadMatchComponentReference) {
  // One full-stripe write and one intact k-fragment read charge exactly
  // the sequences above: same completion times, wire bytes and device
  // busy time per benefactor.  Maintenance is off so no heartbeat traffic
  // rides along on either rig.
  auto quiet = [](store::StoreConfig& cfg) { cfg.maintenance = false; };
  Rig real(6, quiet);
  Rig ref(6, quiet);
  auto create = [](Rig& rig) {
    sim::VirtualClock setup(0);
    store::StoreClient& c = rig.store->ClientForNode(0);
    auto id = c.Create(setup, "/pin");
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(setup, *id, kChunk).ok());
    return *id;
  };
  const store::FileId id_real = create(real);
  const store::FileId id_ref = create(ref);
  const auto data = Pattern(kChunk, 27);
  store::StoreClient& c = real.store->ClientForNode(0);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();

  constexpr int64_t kStart = 1'000'000;
  sim::VirtualClock write_real(kStart);
  sim::VirtualClock write_ref(kStart);
  ASSERT_TRUE(c.WriteChunkPages(write_real, id_real, 0, all, data).ok());
  const std::vector<int> holders =
      ReferenceStripeWrite(ref, write_ref, id_ref, data);
  ASSERT_EQ(holders.size(), c.config().ec_fragments());
  EXPECT_EQ(write_real.now(), write_ref.now());

  std::vector<uint8_t> buf(kChunk);
  sim::VirtualClock read_real(write_real.now());
  sim::VirtualClock read_ref(write_ref.now());
  ASSERT_TRUE(c.ReadChunk(read_real, id_real, 0, buf).ok());
  ReferenceStripeRead(ref, read_ref, holders);
  EXPECT_EQ(read_real.now(), read_ref.now());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));
  EXPECT_EQ(c.ec_degraded_reads(), 0u);

  EXPECT_EQ(real.cluster->network().bytes_transferred(),
            ref.cluster->network().bytes_transferred());
  for (size_t b = 0; b < holders.size(); ++b) {
    EXPECT_EQ(real.store->benefactor(b).ssd().channel().busy_ns(),
              ref.store->benefactor(b).ssd().channel().busy_ns())
        << "benefactor " << b;
  }
}

// ---- knob-off identity pin ----

// With the redundancy mode off, the erasure knobs must be completely
// dormant: a run with ec_k/ec_m/ec_encode_bw_gbps set (but
// redundancy=replicate) is byte- and virtual-time-identical to the
// default store.  This is the "EC off changes nothing" contract that
// keeps every pre-erasure benchmark table valid.
TEST(ErasureStoreTest, ModeOffIsByteAndTimeIdenticalToDefault) {
  struct RunResult {
    int64_t final_time = 0;
    uint64_t fetched = 0;
    uint64_t flushed = 0;
    uint64_t meta_rtts = 0;
    uint32_t crc = 0;
  };
  auto run = [](bool set_dormant_knobs) {
    net::ClusterConfig cc;
    cc.num_nodes = 5;
    net::Cluster cluster(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 2;
    sc.store.maintenance = true;
    if (set_dormant_knobs) {
      sc.store.redundancy = store::RedundancyMode::kReplicate;  // mode OFF
      sc.store.ec_k = 5;
      sc.store.ec_m = 3;
      sc.store.ec_encode_bw_gbps = 0.25;
    }
    for (int b = 0; b < 4; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store::AggregateStore st(cluster, sc);
    sim::CurrentClock().Reset();
    store::StoreClient& c = st.ClientForNode(0);
    sim::VirtualClock clock(0);
    constexpr uint32_t kChunks = 6;
    const auto data = Pattern(kChunks * kChunk, 42);
    const store::FileId id = WriteStoreFile(c, "/pin", kChunks, data, clock);
    // Mixed traffic: full overwrite of one chunk, partial of another,
    // reads of everything.
    Bitmap one(kChunk / c.config().page_bytes);
    one.Set(3);
    EXPECT_TRUE(
        c.WriteChunkPages(clock, id, 2, one, {data.data() + 2 * kChunk, kChunk})
            .ok());
    std::vector<uint8_t> buf(kChunk);
    uint32_t crc = 0;
    for (uint32_t i = 0; i < kChunks; ++i) {
      EXPECT_TRUE(c.ReadChunk(clock, id, i, buf).ok());
      crc = Crc32c(buf.data(), buf.size()) ^ (crc << 1);
    }
    RunResult r;
    r.final_time = clock.now();
    r.fetched = c.bytes_fetched();
    r.flushed = c.bytes_flushed();
    r.meta_rtts = c.meta_round_trips();
    r.crc = crc;
    return r;
  };
  const RunResult base = run(false);
  const RunResult dormant = run(true);
  EXPECT_EQ(base.final_time, dormant.final_time);
  EXPECT_EQ(base.fetched, dormant.fetched);
  EXPECT_EQ(base.flushed, dormant.flushed);
  EXPECT_EQ(base.meta_rtts, dormant.meta_rtts);
  EXPECT_EQ(base.crc, dormant.crc);
}

}  // namespace
}  // namespace nvm
