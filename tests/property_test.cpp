// Property-based tests: random operation sequences checked against
// independent reference models, parameterised (TEST_P) across the
// configuration space — cache geometry, pool pressure, replication,
// random seeds.  These are the tests that catch granularity-boundary and
// eviction-interleaving bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "nvmalloc/runtime.hpp"
#include "nvmalloc/transparent.hpp"
#include "sim/clock.hpp"
#include "sim/resource.hpp"

namespace nvm {
namespace {

// Shared store scaffolding.
struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(uint64_t chunk_bytes, int replication = 1) {
    net::ClusterConfig cc;
    cc.num_nodes = 5;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = chunk_bytes;
    sc.store.replication = replication;
    sc.benefactor_nodes = {1, 2, 3, 4};
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }
};

// ---------- Cache vs flat reference ----------

// (chunk_bytes, cache_bytes, readahead, dirty_page_writeback, seed)
using CacheParam = std::tuple<uint64_t, uint64_t, bool, bool, uint64_t>;

class CachePropertyTest : public ::testing::TestWithParam<CacheParam> {};

TEST_P(CachePropertyTest, RandomOpsMatchReferenceBuffer) {
  const auto [chunk, cache_bytes, readahead, page_wb, seed] = GetParam();
  Rig rig(chunk);
  fuselite::FuseliteConfig cfg;
  cfg.cache_bytes = cache_bytes;
  cfg.readahead = readahead;
  cfg.dirty_page_writeback = page_wb;
  fuselite::MountPoint mount(*rig.store, 0, cfg);

  constexpr uint64_t kFileBytes = 24 * 4_KiB * 11;  // deliberately odd
  auto f = mount.Create("/prop", kFileBytes);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> reference(kFileBytes, 0);

  Xoshiro256 rng(seed);
  std::vector<uint8_t> buf;
  for (int op = 0; op < 400; ++op) {
    const uint64_t offset = rng.NextBelow(kFileBytes);
    const uint64_t len =
        1 + rng.NextBelow(std::min<uint64_t>(kFileBytes - offset, 3 * chunk));
    switch (rng.NextBelow(5)) {
      case 0:
      case 1: {  // write
        buf.resize(len);
        for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE(f->Write(offset, buf).ok());
        std::copy(buf.begin(), buf.end(), reference.begin() + offset);
        break;
      }
      case 2:
      case 3: {  // read + compare
        buf.assign(len, 0xCC);
        ASSERT_TRUE(f->Read(offset, buf).ok());
        ASSERT_TRUE(std::equal(buf.begin(), buf.end(),
                               reference.begin() + offset))
            << "read mismatch at op " << op << " offset " << offset;
        break;
      }
      case 4: {  // flush or drop — neither may lose data
        if (rng.NextBelow(2) == 0) {
          ASSERT_TRUE(f->Sync().ok());
        } else {
          ASSERT_TRUE(mount.cache().Drop(sim::CurrentClock(), f->id()).ok());
        }
        break;
      }
    }
  }
  // Final full-file comparison after a flush.
  ASSERT_TRUE(f->Sync().ok());
  std::vector<uint8_t> all(kFileBytes);
  ASSERT_TRUE(f->Read(0, all).ok());
  EXPECT_EQ(all, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachePropertyTest,
    ::testing::Values(
        CacheParam{16_KiB, 32_KiB, true, true, 1},
        CacheParam{16_KiB, 32_KiB, false, false, 2},
        CacheParam{64_KiB, 128_KiB, true, true, 3},
        CacheParam{64_KiB, 128_KiB, true, false, 4},
        CacheParam{64_KiB, 1_MiB, false, true, 5},
        CacheParam{32_KiB, 64_KiB, true, true, 6},
        CacheParam{32_KiB, 2_MiB, true, true, 7},
        CacheParam{128_KiB, 256_KiB, false, true, 8},
        CacheParam{16_KiB, 16_KiB, true, true, 9},    // single-slot cache
        CacheParam{64_KiB, 4_MiB, true, true, 10},    // everything fits
        CacheParam{128_KiB, 128_KiB, true, false, 11}));

// ---------- Region pager vs flat reference ----------

// (pool_pages, cache_bytes, seed)
using RegionParam = std::tuple<uint64_t, uint64_t, uint64_t>;

class RegionPropertyTest : public ::testing::TestWithParam<RegionParam> {};

TEST_P(RegionPropertyTest, RandomOpsMatchReferenceBuffer) {
  const auto [pool_pages, cache_bytes, seed] = GetParam();
  Rig rig(64_KiB);
  NvmallocConfig cfg;
  cfg.page_pool_bytes = pool_pages * 4_KiB;
  cfg.fuse.cache_bytes = cache_bytes;
  NvmallocRuntime runtime(*rig.store, 0, cfg);

  constexpr uint64_t kBytes = 300'000;  // not page- or chunk-aligned
  auto r = runtime.SsdMalloc(kBytes);
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> reference(kBytes, 0);

  Xoshiro256 rng(seed);
  std::vector<uint8_t> buf;
  for (int op = 0; op < 300; ++op) {
    const uint64_t offset = rng.NextBelow(kBytes);
    const uint64_t len =
        1 + rng.NextBelow(std::min<uint64_t>(kBytes - offset, 20'000));
    switch (rng.NextBelow(5)) {
      case 0:
      case 1: {
        buf.resize(len);
        for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE((*r)->Write(offset, buf).ok());
        std::copy(buf.begin(), buf.end(), reference.begin() + offset);
        break;
      }
      case 2: {  // pinned read
        auto span = (*r)->Pin(offset, len, false);
        ASSERT_TRUE(span.ok());
        ASSERT_TRUE(std::equal(span->data(), span->data() + len,
                               reference.begin() + offset));
        break;
      }
      case 3: {
        buf.assign(len, 0xEE);
        ASSERT_TRUE((*r)->Read(offset, buf).ok());
        ASSERT_TRUE(std::equal(buf.begin(), buf.end(),
                               reference.begin() + offset));
        break;
      }
      case 4: {
        ASSERT_TRUE((*r)->Sync().ok());
        break;
      }
    }
  }
  ASSERT_TRUE((*r)->Sync().ok());
  std::vector<uint8_t> all(kBytes);
  ASSERT_TRUE((*r)->Read(0, all).ok());
  EXPECT_EQ(all, reference);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

INSTANTIATE_TEST_SUITE_P(
    PoolPressure, RegionPropertyTest,
    ::testing::Values(RegionParam{8, 128_KiB, 11},   // brutal thrash
                      RegionParam{16, 128_KiB, 12},
                      RegionParam{32, 256_KiB, 13},
                      RegionParam{128, 1_MiB, 14},
                      RegionParam{4096, 4_MiB, 15},  // everything resident
                      RegionParam{8, 2_MiB, 16},
                      RegionParam{16, 64_KiB, 17},
                      RegionParam{1, 64_KiB, 18},      // one-page pool
                      RegionParam{64, 64_KiB, 19}));

// ---------- Resource timeline properties ----------

class ResourcePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourcePropertyTest, ReservationsNeverOverlapAndConserveService) {
  sim::Resource r("prop");
  Xoshiro256 rng(GetParam());
  std::vector<std::pair<int64_t, int64_t>> intervals;  // [start, end)
  int64_t total_service = 0;
  for (int i = 0; i < 500; ++i) {
    const auto earliest = static_cast<int64_t>(rng.NextBelow(1'000'000));
    const auto duration = static_cast<int64_t>(1 + rng.NextBelow(5'000));
    const int64_t start = r.Schedule(earliest, duration);
    ASSERT_GE(start, earliest);
    intervals.emplace_back(start, start + duration);
    total_service += duration;
  }
  EXPECT_EQ(r.busy_ns(), total_service);
  // Pairwise non-overlap (the resource serves one request at a time).
  std::sort(intervals.begin(), intervals.end());
  for (size_t i = 1; i < intervals.size(); ++i) {
    ASSERT_LE(intervals[i - 1].second, intervals[i].first)
        << "overlapping reservations at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourcePropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25));

// ---------- Manager / store invariants under random namespace ops ----------

class StorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorePropertyTest, ReservationsTrackLiveChunksExactly) {
  Rig rig(64_KiB);
  auto& manager = rig.store->manager();
  auto& client = rig.store->ClientForNode(0);
  auto& clock = sim::CurrentClock();

  Xoshiro256 rng(GetParam());
  std::map<std::string, store::FileId> live;
  std::map<store::FileId, std::vector<uint8_t>> contents;  // file images
  uint64_t next_name = 0;

  auto total_reserved = [&] {
    uint64_t sum = 0;
    for (size_t b = 0; b < rig.store->num_benefactors(); ++b) {
      sum += rig.store->benefactor(b).bytes_used();
    }
    return sum;
  };
  auto expected_chunks = [&] {
    uint64_t chunks = 0;
    for (const auto& [name, id] : live) {
      auto info = client.Stat(clock, id);
      chunks += info->num_chunks;
    }
    return chunks;
  };

  for (int op = 0; op < 200; ++op) {
    switch (rng.NextBelow(4)) {
      case 0: {  // create + fallocate
        const std::string name = "/p" + std::to_string(next_name++);
        auto id = client.Create(clock, name);
        ASSERT_TRUE(id.ok());
        const uint64_t size = (1 + rng.NextBelow(6)) * 64_KiB;
        ASSERT_TRUE(client.Fallocate(clock, *id, size).ok());
        live[name] = *id;
        contents[*id] = std::vector<uint8_t>(size, 0);
        break;
      }
      case 1: {  // write a chunk of a random live file
        if (live.empty()) break;
        auto it = std::next(live.begin(),
                            static_cast<long>(rng.NextBelow(live.size())));
        auto& image = contents[it->second];
        const auto index =
            static_cast<uint32_t>(rng.NextBelow(image.size() / 64_KiB));
        std::vector<uint8_t> chunk_img(64_KiB);
        for (auto& b : chunk_img) b = static_cast<uint8_t>(rng.Next());
        Bitmap all(64_KiB / 4_KiB);
        all.SetAll();
        ASSERT_TRUE(
            client.WriteChunkPages(clock, it->second, index, all, chunk_img)
                .ok());
        std::copy(chunk_img.begin(), chunk_img.end(),
                  image.begin() + index * 64_KiB);
        break;
      }
      case 2: {  // read a chunk back and compare
        if (live.empty()) break;
        auto it = std::next(live.begin(),
                            static_cast<long>(rng.NextBelow(live.size())));
        const auto& image = contents[it->second];
        const auto index =
            static_cast<uint32_t>(rng.NextBelow(image.size() / 64_KiB));
        std::vector<uint8_t> got(64_KiB);
        ASSERT_TRUE(client.ReadChunk(clock, it->second, index, got).ok());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               image.begin() + index * 64_KiB));
        break;
      }
      case 3: {  // unlink
        if (live.empty()) break;
        auto it = std::next(live.begin(),
                            static_cast<long>(rng.NextBelow(live.size())));
        ASSERT_TRUE(client.Unlink(clock, it->second).ok());
        contents.erase(it->second);
        live.erase(it);
        break;
      }
    }
    // Invariant: benefactor space accounting equals the live chunk count.
    ASSERT_EQ(total_reserved(), expected_chunks() * 64_KiB);
  }
  EXPECT_EQ(manager.num_files(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePropertyTest,
                         ::testing::Values(31, 32, 33));

// ---------- Checkpoint chains: every snapshot restorable ----------

class CheckpointChainTest : public ::testing::TestWithParam<double> {};

TEST_P(CheckpointChainTest, EverySnapshotRestoresItsExactState) {
  const double dirty_fraction = GetParam();
  Rig rig(64_KiB);
  NvmallocRuntime runtime(*rig.store, 0);

  constexpr uint64_t kBytes = 16 * 64_KiB;
  auto r = runtime.SsdMalloc(kBytes);
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> shadow(kBytes);
  Xoshiro256 rng(777);
  for (auto& b : shadow) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE((*r)->Write(0, shadow).ok());

  constexpr int kSteps = 4;
  std::vector<std::vector<uint8_t>> snapshots;
  for (int t = 0; t < kSteps; ++t) {
    if (t > 0) {
      const auto pages = kBytes / 4_KiB;
      const auto dirty = static_cast<uint64_t>(
          static_cast<double>(pages) * dirty_fraction);
      for (uint64_t d = 0; d < std::max<uint64_t>(1, dirty); ++d) {
        const uint64_t page = rng.NextBelow(pages);
        std::vector<uint8_t> pd(4_KiB);
        for (auto& b : pd) b = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE((*r)->Write(page * 4_KiB, pd).ok());
        std::copy(pd.begin(), pd.end(), shadow.begin() + page * 4_KiB);
      }
    }
    CheckpointSpec spec;
    spec.nvm.push_back(*r);
    ASSERT_TRUE(
        runtime.SsdCheckpoint(spec, "/chain/t" + std::to_string(t)).ok());
    snapshots.push_back(shadow);
  }

  // Every checkpoint — not just the newest — must restore bit-exactly.
  for (int t = 0; t < kSteps; ++t) {
    auto fresh = runtime.SsdMalloc(kBytes);
    ASSERT_TRUE(fresh.ok());
    RestoreSpec restore;
    restore.nvm.push_back(*fresh);
    ASSERT_TRUE(
        runtime.SsdRestart("/chain/t" + std::to_string(t), restore).ok());
    std::vector<uint8_t> got(kBytes);
    ASSERT_TRUE((*fresh)->Read(0, got).ok());
    EXPECT_EQ(got, snapshots[static_cast<size_t>(t)])
        << "checkpoint t" << t << " corrupted by later activity";
    ASSERT_TRUE(runtime.SsdFree(*fresh).ok());
  }
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

INSTANTIATE_TEST_SUITE_P(DirtyFractions, CheckpointChainTest,
                         ::testing::Values(0.02, 0.1, 0.5, 1.0));

// ---------- Transparent map vs reference under random pointers ----------

class TransparentPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(TransparentPropertyTest, RandomPointerOpsMatchReference) {
  const auto [max_resident, seed] = GetParam();
  Rig rig(64_KiB);
  NvmallocRuntime runtime(*rig.store, 0);
  TransparentMap::Options opts;
  opts.max_resident_pages = max_resident;
  constexpr uint64_t kBytes = 48 * 4_KiB;
  auto map = TransparentMap::Create(runtime, kBytes, opts);
  ASSERT_TRUE(map.ok());
  auto* bytes = static_cast<uint8_t*>((*map)->data());
  std::vector<uint8_t> reference(kBytes, 0);

  Xoshiro256 rng(seed);
  for (int op = 0; op < 5000; ++op) {
    const uint64_t i = rng.NextBelow(kBytes);
    if (rng.NextBelow(2) == 0) {
      const auto v = static_cast<uint8_t>(rng.Next());
      bytes[i] = v;
      reference[i] = v;
    } else {
      ASSERT_EQ(bytes[i], reference[i]) << "at offset " << i;
    }
  }
  ASSERT_TRUE((*map)->Sync().ok());
  for (uint64_t i = 0; i < kBytes; i += 13) {
    ASSERT_EQ(bytes[i], reference[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pressure, TransparentPropertyTest,
    ::testing::Values(std::tuple<size_t, uint64_t>{2, 41},
                      std::tuple<size_t, uint64_t>{8, 42},
                      std::tuple<size_t, uint64_t>{64, 43}));

// ---------- Persistence across runtimes ----------

TEST(PersistencePropertyTest, SurvivesFreeAndReattachesAnywhere) {
  Rig rig(64_KiB);
  NvmallocRuntime producer(*rig.store, 0);
  auto r = producer.SsdMalloc(
      2 * 64_KiB, {.persistent = true, .persist_name = "handoff"});
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> data(2 * 64_KiB);
  Xoshiro256 rng(5);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE(producer.SsdFree(*r).ok());

  // Re-attach from another node's runtime.
  NvmallocRuntime consumer(*rig.store, 3);
  auto got = consumer.OpenPersistent("handoff");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->size_bytes(), 2 * 64_KiB);
  std::vector<uint8_t> read_back(2 * 64_KiB);
  ASSERT_TRUE((*got)->Read(0, read_back).ok());
  EXPECT_EQ(read_back, data);
  ASSERT_TRUE(consumer.SsdFree(*got).ok());

  // Still present until dropped.
  ASSERT_TRUE(consumer.OpenPersistent("handoff").ok());
  ASSERT_TRUE(consumer.DropPersistent("handoff").ok());
  EXPECT_EQ(consumer.OpenPersistent("handoff").status().code(),
            ErrorCode::kNotFound);
}

TEST(PersistencePropertyTest, NonPersistentVariablesVanishOnFree) {
  Rig rig(64_KiB);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(64_KiB);
  ASSERT_TRUE(r.ok());
  const uint64_t files_before = rig.store->manager().num_files();
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
  EXPECT_EQ(rig.store->manager().num_files(), files_before - 1);
}

}  // namespace
}  // namespace nvm
