// Micro-benchmarks (google-benchmark): real wall-clock cost of the
// simulation substrate's hot paths — these bound how fast the bench suite
// and any larger experiments can run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/cache.hpp"
#include "fuselite/mount.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/resource.hpp"
#include "store/erasure.hpp"
#include "store/placement.hpp"
#include "store/qos.hpp"
#include "store/store.hpp"

namespace {

using namespace nvm;

void BM_ResourceSchedule(benchmark::State& state) {
  sim::Resource r("dev");
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Schedule(t, 1000));
    t += 500;
  }
}
BENCHMARK(BM_ResourceSchedule);

// Resource::Schedule on a timeline aged to range(0) disjoint 1 us busy
// intervals separated by random 1-3 us gaps — the shape of the traced
// host.sim.resource.schedule_ns_age* probes.  Each call arrives at a
// random point of the aged range and is shorter than any original gap, so
// what it measures is the interval-map search.  The timeline is rebuilt
// (untimed) every range(1) calls, so the calls' own intervals never fill
// more than a few percent of the gaps.
void BM_ResourceScheduleFragmented(benchmark::State& state) {
  const auto age = static_cast<uint64_t>(state.range(0));
  const auto calls = static_cast<size_t>(state.range(1));
  Xoshiro256 rng(age);
  std::unique_ptr<sim::Resource> r;
  std::vector<std::pair<int64_t, int64_t>> reqs(calls);
  size_t next = calls;
  for (auto _ : state) {
    if (next == calls) {
      state.PauseTiming();
      r = std::make_unique<sim::Resource>("aged");
      for (uint64_t i = 0; i < age; ++i) {
        r->Schedule(static_cast<int64_t>(i * 3'000 + rng.NextBelow(1'000)),
                    1'000);
      }
      for (auto& q : reqs) {
        q = {static_cast<int64_t>(rng.NextBelow(age * 3'000)),
             100 + static_cast<int64_t>(rng.NextBelow(800))};
      }
      next = 0;
      state.ResumeTiming();
    }
    const auto& q = reqs[next++];
    benchmark::DoNotOptimize(r->Schedule(q.first, q.second));
  }
}
BENCHMARK(BM_ResourceScheduleFragmented)
    ->Args({1'000, 100})
    ->Args({100'000, 5'000});

void BM_XoshiroNext(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_XoshiroNext);

void BM_BitmapForEachSet(benchmark::State& state) {
  Bitmap bm(4096);
  for (size_t i = 0; i < 4096; i += 7) bm.Set(i);
  for (auto _ : state) {
    size_t sum = 0;
    bm.ForEachSet([&](size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapForEachSet);

std::vector<uint8_t> RandomBytes(size_t n) {
  Xoshiro256 rng(n);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

// CRC32C over one buffer of range(0) bytes: the kernel Crc32c chose from
// the CPU, and the portable slice-by-8 fallback.
void BM_Crc32c(benchmark::State& state,
               uint32_t (*crc32c)(const void*, size_t, uint32_t)) {
  const auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &Crc32c)->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Crc32c, portable, &detail::Crc32cPortable)->Arg(64 << 10);

// One combine across range(0) bytes: a fragment CRC folded into an image.
void BM_Crc32cCombine(benchmark::State& state) {
  const auto len = static_cast<uint64_t>(state.range(0));
  uint32_t crc = 0x12345678u;
  uint32_t part = 1;
  for (auto _ : state) {
    crc = Crc32cCombine(crc, part++, len);
    benchmark::DoNotOptimize(crc);
  }
}
BENCHMARK(BM_Crc32cCombine)->Arg(16 << 10);

// Crc32cPatch of the first 4 KiB page of a 64 KiB image: a partial
// merge's checksum update for one dirty page, beside the whole-image hash
// of BM_Crc32c/dispatched/65536 it replaces.  The first page has the
// longest page-aligned tail, so the shift costs the most here.
void BM_Crc32cPatch(benchmark::State& state) {
  constexpr size_t kPage = 4 << 10;
  constexpr uint64_t kTail = (64 << 10) - kPage;
  const auto old_page = RandomBytes(kPage);
  auto new_page = old_page;
  for (size_t i = 0; i < kPage; i += 64) new_page[i] ^= 0x5A;
  uint32_t crc = 0x12345678u;
  for (auto _ : state) {
    crc = Crc32cPatch(crc, old_page.data(), new_page.data(), kPage, kTail);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * kPage);
}
BENCHMARK(BM_Crc32cPatch);

// RS(4,2) encode of one range(0)-byte chunk into six fragments.
void BM_RsEncode(benchmark::State& state) {
  const store::ErasureCodec codec(4, 2);
  const auto chunk = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto frags = codec.Encode(chunk);
    benchmark::DoNotOptimize(frags.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsEncode)->Arg(64 << 10);

// RS(4,2) any-k decode with two data fragments lost: the matrix inverse
// and the rebuild of the two lost fragments from the four survivors.
void BM_RsReconstruct(benchmark::State& state) {
  const store::ErasureCodec codec(4, 2);
  auto frags = codec.Encode(RandomBytes(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    frags[0].clear();
    frags[1].clear();
    benchmark::DoNotOptimize(codec.Reconstruct(frags));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsReconstruct)->Arg(64 << 10);

// One repair-target placement over 64 benefactors with unequal loads:
// snapshot the candidates (Manager::BuildPlacementCandidates) and rank them
// least-loaded (RankPlacement).  range(0) = 0 runs the default knobs;
// 1 turns on suspicion avoidance (two benefactors suspected) and the wear
// bias, which reads each device's wear.
void BM_RankPlacement(benchmark::State& state) {
  constexpr int kBenefactors = 64;
  const bool knobs = state.range(0) != 0;
  net::ClusterConfig cc;
  cc.num_nodes = kBenefactors + 1;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  sc.store.placement_avoid_suspected = knobs;
  sc.store.placement_wear_weight = knobs ? 1.0 : 0.0;
  store::AggregateStore st(cluster, sc);
  std::vector<store::Benefactor*> bens;
  for (size_t b = 0; b < kBenefactors; ++b) {
    store::Benefactor& ben = st.benefactor(b);
    const store::ChunkKey phantom{/*origin_file=*/9998, 0, 0};
    NVM_CHECK(ben.Reserve(phantom, (b * 37 % kBenefactors) * 64_KiB).ok());
    bens.push_back(&ben);
  }
  std::vector<char> suspected(kBenefactors, 0);
  suspected[3] = suspected[17] = 1;
  const std::vector<char>* flags = knobs ? &suspected : nullptr;
  store::PlacementRequest req;
  req.order = store::PlacementRequest::Order::kLeastLoaded;
  req.avoid_suspected = knobs;
  req.exclude_suspected = knobs;
  req.wear_weight = sc.store.placement_wear_weight;
  for (auto _ : state) {
    const std::vector<store::PlacementCandidate> cands =
        st.manager().BuildPlacementCandidates(bens, flags);
    benchmark::DoNotOptimize(store::RankPlacement(cands, req));
  }
}
BENCHMARK(BM_RankPlacement)->Arg(0)->Arg(1);

// One member's reservation and reclaim on one benefactor, the bookkeeping
// every Fallocate, copy-on-write prepare and repair plan does per member:
// Reserve(key, 64 KiB), then DeleteChunk(key), over a rotating set of
// 1,024 keys beside 1,024 members held throughout.
void BM_ReserveMember(benchmark::State& state) {
  constexpr uint32_t kKeys = 1024;
  net::ClusterConfig cc;
  cc.num_nodes = 2;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes.push_back(1);
  sc.contribution_bytes = 1_GiB;
  sc.manager_node = 1;
  store::AggregateStore st(cluster, sc);
  store::Benefactor& ben = st.benefactor(0);
  for (uint32_t i = 0; i < kKeys; ++i) {
    NVM_CHECK(ben.Reserve({/*origin_file=*/1, i, 0}, 64_KiB).ok());
  }
  uint32_t next = 0;
  for (auto _ : state) {
    const store::ChunkKey key{/*origin_file=*/2, next++ % kKeys, 0};
    NVM_CHECK(ben.Reserve(key, 64_KiB).ok());
    benchmark::DoNotOptimize(ben.DeleteChunk(key));
  }
}
BENCHMARK(BM_ReserveMember);

// QosScheduler::AdmitChunk with four tenants backlogged on one SSD lane and
// one NIC lane: each tenant issues its next 64 KiB chunk at the start it
// was granted (at its completion when admitted free), and the tenant with
// the earliest clock goes next, so every admission is contended.
void BM_QosAdmitContended(benchmark::State& state) {
  store::StoreConfig cfg;
  cfg.qos = true;
  // {id, weight, guaranteed share, priority}
  cfg.qos_tenants.push_back({0, 1.0, 0.4, 2});
  cfg.qos_tenants.push_back({1, 1.0, 0.1, 0});
  cfg.qos_tenants.push_back({2, 2.0, 0.2, 1});
  cfg.qos_tenants.push_back({3, 1.0, 0.2, 1});
  store::QosScheduler qos(cfg, 230.0);
  constexpr int kSsdLane = 0;  // benefactor 0's SSD
  constexpr int kNicLane = 1;  // node 1's NIC
  constexpr int64_t kServiceNs = 250'000;
  constexpr uint64_t kWireBytes = 64 << 10;
  int64_t now[4] = {};
  for (auto _ : state) {
    const auto t = static_cast<size_t>(std::min_element(now, now + 4) - now);
    const auto tenant = static_cast<store::TenantId>(t);
    const int64_t start = qos.AdmitChunk(kSsdLane, kNicLane, tenant, kServiceNs,
                                         kWireBytes, now[t]);
    now[t] = start == now[t] ? start + kServiceNs : start;
    benchmark::DoNotOptimize(start);
  }
  uint64_t admitted = 0;
  uint64_t delayed = 0;
  for (const store::QosTenantStats& ts : qos.Snapshot().tenants) {
    admitted += ts.admitted;
    delayed += ts.delayed;
  }
  state.counters["delayed_frac"] =
      admitted == 0 ? 0.0 : static_cast<double>(delayed) / admitted;
}
BENCHMARK(BM_QosAdmitContended);

struct CacheFixtureState {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;
  std::unique_ptr<NvmallocRuntime> runtime;
  NvmRegion* region = nullptr;

  CacheFixtureState() {
    net::ClusterConfig cc;
    cc.num_nodes = 2;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.benefactor_nodes = {1};
    sc.contribution_bytes = 256_MiB;
    sc.manager_node = 1;
    sc.store.chunk_bytes = 64_KiB;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    runtime = std::make_unique<NvmallocRuntime>(*store, 0);
    auto r = runtime->SsdMalloc(8_MiB);
    NVM_CHECK(r.ok());
    region = *r;
  }
};

void BM_CacheHitRead(benchmark::State& state) {
  CacheFixtureState fx;
  std::vector<uint8_t> buf(4_KiB);
  NVM_CHECK(fx.runtime->mount().cache().Read(sim::CurrentClock(),
                                             fx.region->file_id(), 0, buf)
                .ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.runtime->mount().cache().Read(
        sim::CurrentClock(), fx.region->file_id(), 0, buf));
  }
}
BENCHMARK(BM_CacheHitRead);

// Repeated Benefactor::ReadChunk of one stored 64 KiB replica.  The first
// read hashes it; every later one is charged the device read and the
// checksum in virtual time, copies the replica out and skips the host hash,
// because the bytes have not changed since they were verified.
void BM_VerifiedRead(benchmark::State& state) {
  constexpr uint64_t kChunkBytes = 64_KiB;
  net::ClusterConfig cc;
  cc.num_nodes = 2;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1};
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = kChunkBytes;
  store::AggregateStore st(cluster, sc);
  store::StoreClient& client = st.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "/verified");
  NVM_CHECK(id.ok());
  NVM_CHECK(client.Fallocate(clock, *id, kChunkBytes).ok());
  Bitmap all(kChunkBytes / client.config().page_bytes);
  all.SetAll();
  NVM_CHECK(
      client.WriteChunkPages(clock, *id, 0, all, RandomBytes(kChunkBytes))
          .ok());
  auto loc = st.manager().GetReadLocation(clock, *id, 0);
  NVM_CHECK(loc.ok());
  store::Benefactor& holder = st.benefactor(0);
  std::vector<uint8_t> out(kChunkBytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(holder.ReadChunk(clock, loc->key, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kChunkBytes);
}
BENCHMARK(BM_VerifiedRead);

// One StoreClient::ReadChunks batch of 8 replicas that one benefactor
// holds (r=1, 64 KiB chunks): the location cache answers the lookup, and
// one read run verifies each replica (hashed once, then answered from the
// verdict) and lands it in its destination.  `per_chunk` is host time
// per chunk.
void BM_ReadRunChunks(benchmark::State& state) {
  constexpr uint32_t kChunks = 8;
  constexpr uint64_t kChunkBytes = 64_KiB;
  net::ClusterConfig cc;
  cc.num_nodes = 2;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1};
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = kChunkBytes;
  store::AggregateStore st(cluster, sc);
  store::StoreClient& client = st.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "/run");
  NVM_CHECK(id.ok());
  NVM_CHECK(client.Fallocate(clock, *id, kChunks * kChunkBytes).ok());
  Bitmap all(kChunkBytes / client.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < kChunks; ++i) {
    NVM_CHECK(
        client.WriteChunkPages(clock, *id, i, all, RandomBytes(kChunkBytes))
            .ok());
  }
  std::vector<std::vector<uint8_t>> bufs(kChunks,
                                         std::vector<uint8_t>(kChunkBytes));
  std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
  for (auto _ : state) {
    for (uint32_t i = 0; i < kChunks; ++i) {
      fetches[i].index = i;
      fetches[i].out = bufs[i];
    }
    benchmark::DoNotOptimize(client.ReadChunks(clock, *id, fetches));
    benchmark::ClobberMemory();
  }
  state.counters["per_chunk"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChunks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReadRunChunks);

// A random one-page miss through ChunkCache::Read on a replicated store
// (r=2, 64 KiB chunks).  A one-chunk cache and a different chunk on every
// iteration make each read a fresh miss; it ships only its page unless it
// continues a stream (lands where the previous read ended, or where a
// read that continued another ended), and the holder still reads and
// verifies the whole replica.  `bytes_per_read` is what crossed the wire
// per miss.
void BM_CacheMissPage(benchmark::State& state) {
  constexpr uint32_t kChunks = 64;
  constexpr uint64_t kChunkBytes = 64_KiB;
  net::ClusterConfig cc;
  cc.num_nodes = 3;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1, 2};
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = kChunkBytes;
  sc.store.replication = 2;
  store::AggregateStore st(cluster, sc);
  store::StoreClient& client = st.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "/miss");
  NVM_CHECK(id.ok());
  NVM_CHECK(client.Fallocate(clock, *id, kChunks * kChunkBytes).ok());
  const uint64_t page = client.config().page_bytes;
  const std::vector<uint8_t> image(kChunkBytes, 0x5A);
  Bitmap all(kChunkBytes / page);
  all.SetAll();
  for (uint32_t i = 0; i < kChunks; ++i) {
    NVM_CHECK(client.WriteChunkPages(clock, *id, i, all, image).ok());
  }
  fuselite::FuseliteConfig fc;
  fc.cache_bytes = kChunkBytes;  // one chunk: each miss evicts the last
  fc.readahead = false;
  fuselite::ChunkCache cache(client, fc);
  Xoshiro256 rng(7);
  std::vector<uint8_t> buf(page);
  uint32_t chunk = 0;
  const uint64_t fetched0 = client.bytes_fetched();
  for (auto _ : state) {
    chunk = static_cast<uint32_t>((chunk + 1 + rng.NextBelow(kChunks - 1)) %
                                  kChunks);
    const uint64_t off = chunk * kChunkBytes +
                         rng.NextBelow(kChunkBytes / page) * page;
    benchmark::DoNotOptimize(cache.Read(clock, *id, off, buf));
  }
  state.counters["bytes_per_read"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(client.bytes_fetched() - fetched0) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_CacheMissPage);

// `stream` in miniature through one 32-chunk cache: each iteration reads
// chunk k of B and of A page by page (two sequential streams, as a TRIAD
// op's read and write faults do) and blind-writes the pages of A's chunk
// k - 32 (a page pool's write-backs, which take cache slots).  The sweep
// wraps, so each pass starts fresh streams.  Counters, per chunk read:
// chunks the cache fetched or read ahead, and read-ahead chunks evicted
// unread (`prefetch_wasted`).
void BM_CacheStreamsUnderPressure(benchmark::State& state) {
  constexpr uint32_t kChunks = 128;
  constexpr uint32_t kLag = 32;
  constexpr uint64_t kChunkBytes = 64_KiB;
  net::ClusterConfig cc;
  cc.num_nodes = 3;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1, 2};
  sc.contribution_bytes = 64_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = kChunkBytes;
  store::AggregateStore st(cluster, sc);
  store::StoreClient& client = st.ClientForNode(0);
  sim::VirtualClock clock(0);
  const uint64_t page = client.config().page_bytes;
  const std::vector<uint8_t> image(kChunkBytes, 0x5A);
  Bitmap all(kChunkBytes / page);
  all.SetAll();
  const auto stored = [&](const char* name) {
    auto id = client.Create(clock, name);
    NVM_CHECK(id.ok());
    NVM_CHECK(client.Fallocate(clock, *id, kChunks * kChunkBytes).ok());
    for (uint32_t i = 0; i < kChunks; ++i) {
      NVM_CHECK(client.WriteChunkPages(clock, *id, i, all, image).ok());
    }
    return *id;
  };
  const store::FileId b = stored("/b");
  const store::FileId a = stored("/a");
  fuselite::FuseliteConfig fc;
  fc.cache_bytes = 32 * kChunkBytes;
  fuselite::ChunkCache cache(client, fc);
  std::vector<uint8_t> buf(page);
  uint64_t op = 0;
  for (auto _ : state) {
    const uint64_t k = op % kChunks;
    for (uint64_t off = 0; off < kChunkBytes; off += page) {
      NVM_CHECK(cache.Read(clock, b, k * kChunkBytes + off, buf).ok());
    }
    for (uint64_t off = 0; off < kChunkBytes; off += page) {
      NVM_CHECK(cache.Read(clock, a, k * kChunkBytes + off, buf).ok());
    }
    if (op >= kLag) {
      const uint64_t w = (op - kLag) % kChunks;
      for (uint64_t off = 0; off < kChunkBytes; off += page) {
        NVM_CHECK(cache.Write(clock, a, w * kChunkBytes + off, buf).ok());
      }
    }
    ++op;
  }
  const fuselite::CacheTraffic& t = cache.traffic();
  const double reads = 2.0 * static_cast<double>(op);
  state.counters["chunks_fetched_per_chunk_read"] =
      op == 0 ? 0.0
              : static_cast<double>(t.fetched_chunks + t.prefetched_chunks) /
                    reads;
  state.counters["prefetch_wasted"] =
      op == 0 ? 0.0 : static_cast<double>(t.prefetch_wasted) / reads;
}
BENCHMARK(BM_CacheStreamsUnderPressure);

void BM_RegionResidentPin(benchmark::State& state) {
  CacheFixtureState fx;
  (void)fx.region->Pin(0, 4_KiB, false);
  for (auto _ : state) {
    auto p = fx.region->Pin(0, 4_KiB, false);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_RegionResidentPin);

void BM_RegionColdFaultCycle(benchmark::State& state) {
  CacheFixtureState fx;
  uint64_t off = 0;
  std::vector<uint8_t> buf(4_KiB, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.region->Write(off, buf));
    off = (off + 4_KiB) % 8_MiB;
  }
}
BENCHMARK(BM_RegionColdFaultCycle);

}  // namespace

BENCHMARK_MAIN();
