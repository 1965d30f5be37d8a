// Micro-benchmarks (google-benchmark): real wall-clock cost of the
// simulation substrate's hot paths — these bound how fast the bench suite
// and any larger experiments can run.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/resource.hpp"
#include "store/erasure.hpp"

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
