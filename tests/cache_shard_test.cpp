// Tests for the sharded chunk cache, batched miss fetches, and the
// adaptive read-ahead ramp: shard distribution sanity, metadata
// round-trip coalescing on cold sequential scans, window ramp/reset,
// and a multi-threaded stress run whose final file contents must match
// the single-threaded expectation byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "sim/clock.hpp"

namespace nvm::fuselite {
namespace {

constexpr uint64_t kChunk = 64_KiB;

class CacheShardTest : public ::testing::Test {
 protected:
  CacheShardTest() { Rebuild({}); }

  void Rebuild(FuseliteConfig config) {
    net::ClusterConfig cc;
    cc.num_nodes = 4;
    cluster_ = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.benefactor_nodes = {1, 2};
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store_ = std::make_unique<store::AggregateStore>(*cluster_, sc);
    mount_ = std::make_unique<MountPoint>(*store_, /*node=*/0, config);
    sim::CurrentClock().Reset();
  }

  std::vector<uint8_t> Pattern(uint64_t bytes, uint64_t seed) {
    std::vector<uint8_t> v(bytes);
    Xoshiro256 rng(seed);
    for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
    return v;
  }

  // A file of `data` that lives only in the store: the cache holds none
  // of it and tracks no stream over it.
  FileHandle StoredFile(const std::string& name,
                        const std::vector<uint8_t>& data) {
    auto f = mount_->Create(name, data.size());
    NVM_CHECK(f.ok());
    NVM_CHECK(f->Write(0, data).ok());
    NVM_CHECK(f->Sync().ok());
    NVM_CHECK(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
    return *f;
  }

  // A TRIAD sweep in miniature over chunks [from, to): read chunk k of
  // `b` and of `a`, each one sequential stream, while a blind page writer
  // rewrites `a` `lag` chunks behind the reader, as a page pool's
  // write-backs do; those writes take cache slots that the read-ahead
  // must share.  Returns whether every call succeeded and every byte read
  // was right.
  bool SweepUnderPressure(FileHandle& b, const std::vector<uint8_t>& b_data,
                          FileHandle& a, const std::vector<uint8_t>& a_data,
                          uint64_t from, uint64_t to, uint64_t lag) {
    const auto page = Pattern(4_KiB, 77);
    std::vector<uint8_t> got(kChunk);
    for (uint64_t k = from; k < to; ++k) {
      const uint64_t off = k * kChunk;
      if (!b.Read(off, got).ok() ||
          std::memcmp(got.data(), b_data.data() + off, kChunk) != 0 ||
          !a.Read(off, got).ok() ||
          std::memcmp(got.data(), a_data.data() + off, kChunk) != 0) {
        return false;
      }
      if (k < lag) continue;
      for (uint64_t p = 0; p < kChunk; p += page.size()) {
        if (!a.Write((k - lag) * kChunk + p, page).ok()) return false;
      }
    }
    return true;
  }

  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<store::AggregateStore> store_;
  std::unique_ptr<MountPoint> mount_;
};

TEST_F(CacheShardTest, ContiguousChunksSpreadAcrossShards) {
  FuseliteConfig config;
  config.readahead = false;  // keep residency exactly what we touch
  Rebuild(config);
  ASSERT_EQ(mount_->cache().num_shards(), 16u);

  constexpr uint64_t kChunks = 64;
  auto f = mount_->Create("/spread", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 11);
  ASSERT_TRUE(f->Write(0, data).ok());

  const auto occ = mount_->cache().ShardOccupancy();
  ASSERT_EQ(occ.size(), mount_->cache().num_shards());
  size_t total = 0;
  size_t non_empty = 0;
  size_t max_shard = 0;
  for (size_t n : occ) {
    total += n;
    if (n > 0) ++non_empty;
    max_shard = std::max(max_shard, n);
  }
  EXPECT_EQ(total, mount_->cache().resident_chunks());
  EXPECT_EQ(total, kChunks);
  // A contiguous chunk run must not pile up in a few shards: the hash
  // should leave no shard with more than half the slots and use a good
  // fraction of the shards.
  EXPECT_LE(max_shard, total / 2);
  EXPECT_GE(non_empty, 8u);
}

TEST_F(CacheShardTest, ColdSequentialScanCoalescesMetadataLookups) {
  constexpr uint64_t kChunks = 32;
  auto f = mount_->Create("/cold", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 23);
  ASSERT_TRUE(f->Write(0, data).ok());
  ASSERT_TRUE(f->Sync().ok());

  // Read through a different node's mount: cold cache AND a cold
  // client-side location cache, so every chunk needs manager metadata.
  MountPoint other(*store_, /*node=*/3);
  auto g = other.Open("/cold");
  ASSERT_TRUE(g.ok());
  const uint64_t rtts_before = other.client().meta_round_trips();
  std::vector<uint8_t> got(data.size());
  ASSERT_TRUE(g->Read(0, got).ok());
  EXPECT_EQ(got, data);
  const uint64_t rtts = other.client().meta_round_trips() - rtts_before;

  // One lookup per chunk would cost kChunks round trips; batching must
  // coalesce the scan at least 4x (the single foreground run needs just
  // one GetReadLocations call).
  EXPECT_GE(rtts, 1u);
  EXPECT_LE(rtts * 4, kChunks);

  const auto& t = other.cache().traffic();
  EXPECT_GT(t.fetch_batches.load(), 0u);
  EXPECT_GE(t.batched_chunks.load(), kChunks / 2);
  EXPECT_EQ(t.fetched_chunks.load() + t.prefetched_chunks.load(), kChunks);
}

TEST_F(CacheShardTest, ReadaheadWindowRampsThenResetsOnNewStream) {
  constexpr uint64_t kChunks = 24;
  auto f = mount_->Create("/ramp", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 31);
  ASSERT_TRUE(f->Write(0, data).ok());

  ASSERT_TRUE(f->Sync().ok());
  // Drop discards both the cached chunks and the write-time stream
  // state, so the scan below starts cold.
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(f->Read(0, buf).ok());
  EXPECT_LE(mount_->cache().readahead_window(f->id()), 2u);
  for (uint64_t i = 1; i < kChunks; ++i) {
    ASSERT_TRUE(f->Read(i * kChunk, buf).ok());
  }
  // A long sequential scan ramps the window up to the configured cap,
  // and an ample cache keeps every chunk it read ahead.
  EXPECT_EQ(mount_->cache().readahead_window(f->id()),
            FuseliteConfig{}.readahead_max_chunks);
  EXPECT_GT(mount_->cache().traffic().prefetched_chunks.load(), 0u);
  EXPECT_EQ(mount_->cache().traffic().prefetch_wasted.load(), 0u);

  // Rewinding starts a fresh stream: the ramp begins again at 1.
  ASSERT_TRUE(f->Read(0, buf).ok());
  EXPECT_EQ(mount_->cache().readahead_window(f->id()), 1u);
}

TEST_F(CacheShardTest, StreamsUnderPressureReadAheadOnlyWhatTheCacheKeeps) {
  // Two streams whose windows at the cap (8 chunks each) do not fit a
  // 16-chunk cache beside the writer's slots.  The ramp overshoots once;
  // the prefetches that pressure evicts unread shrink their streams'
  // windows, and from then on read-ahead still does the work, at most
  // one more prefetch per stream is lost, and nothing else is fetched
  // twice.
  FuseliteConfig config;
  config.cache_bytes = 16 * kChunk;
  Rebuild(config);
  constexpr uint64_t kChunks = 96;
  constexpr uint64_t kWarm = 32;
  constexpr uint64_t kLag = 16;
  const auto b_data = Pattern(kChunks * kChunk, 41);
  const auto a_data = Pattern(kChunks * kChunk, 42);
  FileHandle b = StoredFile("/b", b_data);
  FileHandle a = StoredFile("/a", a_data);
  mount_->cache().ResetTraffic();

  ASSERT_TRUE(SweepUnderPressure(b, b_data, a, a_data, 0, kWarm, kLag));
  const CacheTraffic warm = mount_->cache().traffic();
  EXPECT_GT(warm.prefetch_wasted.load(), 0u) << "the ramp overshoots";
  ASSERT_TRUE(
      SweepUnderPressure(b, b_data, a, a_data, kWarm, kChunks, kLag));
  const CacheTraffic& t = mount_->cache().traffic();
  const uint64_t consumed = 2 * (kChunks - kWarm);
  const uint64_t streams = 2;
  const uint64_t fetched = t.fetched_chunks.load() - warm.fetched_chunks +
                           t.prefetched_chunks.load() -
                           warm.prefetched_chunks;
  EXPECT_LE(t.prefetch_wasted.load() - warm.prefetch_wasted, streams);
  EXPECT_LE(fetched, consumed + streams);
  EXPECT_GT(t.prefetched_chunks.load() - warm.prefetched_chunks,
            consumed / 2);
}

TEST_F(CacheShardTest, StreamsUnderPressureFromTwoThreadsReadExact) {
  // The same sweep from two threads through one cache: evictions that
  // shrink one stream's window race the other thread's stream updates.
  FuseliteConfig config;
  config.cache_bytes = 32 * kChunk;
  Rebuild(config);
  constexpr int kRanks = 2;
  constexpr uint64_t kChunks = 64;
  std::vector<std::vector<uint8_t>> data;
  std::vector<FileHandle> files;
  for (int i = 0; i < 2 * kRanks; ++i) {
    data.push_back(Pattern(kChunks * kChunk, 50 + static_cast<uint64_t>(i)));
    files.push_back(StoredFile("/s" + std::to_string(i), data.back()));
  }
  mount_->cache().ResetTraffic();

  std::atomic<int> failures{0};
  auto placement = cluster_->BlockPlacement(kRanks, 1);
  cluster_->RunProcesses(placement, [&](net::ProcessEnv& env) {
    const size_t i = 2 * static_cast<size_t>(env.rank);
    if (!SweepUnderPressure(files[i], data[i], files[i + 1], data[i + 1], 0,
                            kChunks, 16)) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(mount_->cache().traffic().prefetched_chunks.load(), 0u);
}

TEST_F(CacheShardTest, ConcurrentDisjointWritersMatchSingleThreadedResult) {
  // A cache far smaller than the working set, hammered by ranks that own
  // disjoint chunk ranges of one file.  The sharded cache must preserve
  // exactly the bytes a single-threaded run would produce.
  FuseliteConfig config;
  config.cache_bytes = 8 * kChunk;
  Rebuild(config);

  constexpr int kRanks = 4;
  constexpr uint64_t kChunksPerRank = 4;
  constexpr uint64_t kTotal = kRanks * kChunksPerRank * kChunk;
  auto f = mount_->Create("/mt", kTotal);
  ASSERT_TRUE(f.ok());

  std::atomic<int> failures{0};
  auto placement = cluster_->BlockPlacement(kRanks, 1);
  cluster_->RunProcesses(placement, [&](net::ProcessEnv& env) {
    auto mine = mount_->Open("/mt");
    if (!mine.ok()) {
      failures.fetch_add(1);
      return;
    }
    const uint64_t base =
        static_cast<uint64_t>(env.rank) * kChunksPerRank * kChunk;
    const auto slice = Pattern(kChunksPerRank * kChunk,
                               1000 + static_cast<uint64_t>(env.rank));
    // Several passes of page-grained writes followed by read-back keep
    // all ranks contending for cache slots at once.
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t off = 0; off < slice.size(); off += 4_KiB) {
        if (!mine->Write(base + off, {slice.data() + off, 4_KiB}).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      std::vector<uint8_t> got(slice.size());
      if (!mine->Read(base, got).ok() || got != slice) {
        failures.fetch_add(1);
        return;
      }
    }
    if (!mine->Sync().ok()) failures.fetch_add(1);
  });
  ASSERT_EQ(failures.load(), 0);

  // The single-threaded expectation: each rank's slice, in rank order.
  std::vector<uint8_t> expected(kTotal);
  for (int r = 0; r < kRanks; ++r) {
    const auto slice =
        Pattern(kChunksPerRank * kChunk, 1000 + static_cast<uint64_t>(r));
    std::copy(slice.begin(), slice.end(),
              expected.begin() +
                  static_cast<int64_t>(r * kChunksPerRank * kChunk));
  }
  std::vector<uint8_t> got(kTotal);
  ASSERT_TRUE(f->Read(0, got).ok());
  EXPECT_EQ(got, expected);

  // And the store itself (not just the cache) must agree.
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
  MountPoint other(*store_, /*node=*/3);
  auto g = other.Open("/mt");
  ASSERT_TRUE(g.ok());
  std::vector<uint8_t> remote(kTotal);
  ASSERT_TRUE(g->Read(0, remote).ok());
  EXPECT_EQ(remote, expected);
}

}  // namespace
}  // namespace nvm::fuselite
