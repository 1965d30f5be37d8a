// Unit tests for the fuselite layer: mount/file semantics, the chunk
// cache (hits, misses, LRU eviction, dirty-page write-back, read-ahead
// overlap), and traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "sim/clock.hpp"

namespace nvm::fuselite {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr uint64_t kPage = 4_KiB;

class FuseliteTest : public ::testing::Test {
 protected:
  FuseliteTest() { Rebuild({}); }

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

  // Read-plane requests the benefactors served so far.
  uint64_t ReadRequests() const {
    uint64_t n = 0;
    for (size_t b = 0; b < store_->num_benefactors(); ++b) {
      n += store_->benefactor(b).read_requests();
    }
    return n;
  }

  // A file holding `data` that lives only in the store: the cache holds
  // none of it, tracks no stream over it and has counted nothing yet.
  FileHandle StoredFile(const std::string& name,
                        const std::vector<uint8_t>& data) {
    auto f = mount_->Create(name, data.size());
    NVM_CHECK(f.ok());
    NVM_CHECK(f->Write(0, data).ok());
    NVM_CHECK(f->Sync().ok());
    NVM_CHECK(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
    mount_->cache().ResetTraffic();
    return *f;
  }

  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<store::AggregateStore> store_;
  std::unique_ptr<MountPoint> mount_;
};

TEST_F(FuseliteTest, CreateOpenUnlink) {
  auto f = mount_->Create("/a", 1_MiB);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->valid());
  auto info = f->Stat();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 1_MiB);

  auto g = mount_->Open("/a");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->id(), f->id());

  ASSERT_TRUE(mount_->Unlink("/a").ok());
  EXPECT_EQ(mount_->Open("/a").status().code(), ErrorCode::kNotFound);
}

TEST_F(FuseliteTest, OpenOrCreateBothPaths) {
  auto a = mount_->OpenOrCreate("/x");
  ASSERT_TRUE(a.ok());
  auto b = mount_->OpenOrCreate("/x");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->id(), b->id());
}

TEST_F(FuseliteTest, WriteReadRoundTripAcrossChunks) {
  auto f = mount_->Create("/rw");
  ASSERT_TRUE(f.ok());
  // 3.5 chunks, misaligned start.
  const auto data = Pattern(3 * kChunk + kChunk / 2, 17);
  ASSERT_TRUE(f->Write(1234, data).ok());
  std::vector<uint8_t> got(data.size());
  ASSERT_TRUE(f->Read(1234, got).ok());
  EXPECT_EQ(got, data);
}

TEST_F(FuseliteTest, WriteExtendsFileImplicitly) {
  auto f = mount_->Create("/extend");
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kPage, 3);
  ASSERT_TRUE(f->Write(5 * kChunk, data).ok());
  auto info = f->Stat();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->size, 5 * kChunk + kPage);
  // The hole reads as zeros.
  std::vector<uint8_t> hole(kPage, 0xEE);
  ASSERT_TRUE(f->Read(0, hole).ok());
  for (uint8_t b : hole) ASSERT_EQ(b, 0);
}

TEST_F(FuseliteTest, DataSurvivesCacheDropAndRemoteReopen) {
  auto f = mount_->Create("/durable");
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(2 * kChunk, 5);
  ASSERT_TRUE(f->Write(0, data).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());

  // Read through a different node's mount: must come from the store.
  MountPoint other(*store_, /*node=*/3);
  auto g = other.Open("/durable");
  ASSERT_TRUE(g.ok());
  std::vector<uint8_t> got(data.size());
  ASSERT_TRUE(g->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST_F(FuseliteTest, RepeatedReadsHitCache) {
  // The cold read of page 0 ships that page alone; the read of page 1
  // continues its stream and fetches the whole replica, so the other 49
  // reads of the chunk are hits.
  const auto data = Pattern(kChunk, 9);
  FileHandle f = StoredFile("/hot", data);
  const uint64_t reads = ReadRequests();
  const uint64_t fetched = mount_->client().bytes_fetched();
  std::vector<uint8_t> buf(kPage);
  ASSERT_TRUE(f.Read(0, buf).ok());
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, kPage);
  for (int i = 0; i < 50; ++i) {
    const uint64_t off = (i % 16) * kPage;
    ASSERT_TRUE(f.Read(off, buf).ok());
    ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + off, kPage)) << i;
  }
  const auto& t = mount_->cache().traffic();
  EXPECT_EQ(t.fetched_chunks, 2u);  // page 0, then the whole chunk
  EXPECT_EQ(t.hit_chunks, 49u);
  EXPECT_EQ(ReadRequests() - reads, 2u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, kPage + kChunk);
}

TEST_F(FuseliteTest, RandomPageMissShipsOnePage) {
  // A miss that continues no stream: one request, the replica read and
  // verified whole at the benefactor, one page on the wire, byte-exact.
  FuseliteConfig cfg;
  cfg.readahead = false;
  Rebuild(cfg);
  const auto data = Pattern(4 * kChunk, 14);
  FileHandle f = StoredFile("/random", data);
  const uint64_t reads = ReadRequests();
  const uint64_t fetched = mount_->client().bytes_fetched();
  const uint64_t wire = cluster_->network().bytes_transferred();
  uint64_t device = 0;
  for (size_t b = 0; b < store_->num_benefactors(); ++b) {
    device += store_->benefactor(b).data_bytes_out();
  }
  const uint64_t off = 2 * kChunk + 9 * kPage;
  std::vector<uint8_t> got(kPage);
  ASSERT_TRUE(f.Read(off, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + off, kPage));
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, kPage);
  const store::StoreConfig& sc = mount_->client().config();
  EXPECT_EQ(cluster_->network().bytes_transferred() - wire,
            sc.meta_request_bytes + kPage);
  uint64_t device_after = 0;
  for (size_t b = 0; b < store_->num_benefactors(); ++b) {
    device_after += store_->benefactor(b).data_bytes_out();
  }
  EXPECT_EQ(device_after - device, kChunk);

  // Only that page landed: its neighbour misses again.
  ASSERT_TRUE(f.Read(off - kPage, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + off - kPage, kPage));
  EXPECT_EQ(ReadRequests() - reads, 2u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, 2 * kPage);
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks.load(), 2u);
}

TEST_F(FuseliteTest, StreamMissFetchesWholeReplica) {
  // A miss whose offset continues one of the file's streams fetches the
  // whole replica, as the stream will read the rest of the chunk.
  FuseliteConfig cfg;
  cfg.readahead = false;
  Rebuild(cfg);
  const auto data = Pattern(2 * kChunk, 15);
  FileHandle f = StoredFile("/stream", data);
  std::vector<uint8_t> got(kPage);
  ASSERT_TRUE(f.Read(kChunk - kPage, got).ok());  // chunk 0's last page
  const uint64_t reads = ReadRequests();
  const uint64_t fetched = mount_->client().bytes_fetched();
  ASSERT_TRUE(f.Read(kChunk, got).ok());  // continues into chunk 1
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + kChunk, kPage));
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, kChunk);

  // The whole chunk landed: reading all of it touches the store no more.
  std::vector<uint8_t> all(kChunk);
  ASSERT_TRUE(f.Read(kChunk, all).ok());
  EXPECT_EQ(0, std::memcmp(all.data(), data.data() + kChunk, kChunk));
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks.load(), 2u);
}

TEST_F(FuseliteTest, MissAfterBlindWriteCountsOnceAsAFetch) {
  // A full-page write creates the slot without a fetch; the later miss on
  // another page of that chunk is one fetch, not also a hit.
  const auto data = Pattern(kChunk, 16);
  FileHandle f = StoredFile("/blind", data);
  const auto mine = Pattern(kPage, 17);
  ASSERT_TRUE(f.Write(3 * kPage, mine).ok());
  std::vector<uint8_t> got(kPage);
  ASSERT_TRUE(f.Read(7 * kPage, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), data.data() + 7 * kPage, kPage));
  const auto& t = mount_->cache().traffic();
  EXPECT_EQ(t.hit_chunks.load(), 0u);
  EXPECT_EQ(t.fetched_chunks.load(), 1u);
  // Reading the written page again is a hit.
  ASSERT_TRUE(f.Read(3 * kPage, got).ok());
  EXPECT_EQ(got, mine);
  EXPECT_EQ(t.hit_chunks.load(), 1u);
  EXPECT_EQ(t.fetched_chunks.load(), 1u);
}

TEST_F(FuseliteTest, LruEvictsUnderPressureAndFlushesDirtyPages) {
  FuseliteConfig cfg;
  cfg.cache_bytes = 4 * kChunk;  // tiny cache
  cfg.readahead = false;
  Rebuild(cfg);
  auto f = mount_->Create("/pressure", 16 * kChunk);
  ASSERT_TRUE(f.ok());

  // Dirty one page in each of 16 chunks: must evict 12+ and flush them.
  const auto page = Pattern(kPage, 7);
  for (int c = 0; c < 16; ++c) {
    ASSERT_TRUE(f->Write(static_cast<uint64_t>(c) * kChunk, page).ok());
  }
  const auto& t = mount_->cache().traffic();
  EXPECT_GE(t.evictions, 12u);
  EXPECT_EQ(mount_->cache().resident_chunks(), 4u);
  ASSERT_TRUE(f->Sync().ok());
  // Only dirty pages travelled: 16 pages, not 16 chunks.
  EXPECT_EQ(mount_->client().bytes_flushed(), 16 * kPage);

  // Everything still reads back correctly.
  std::vector<uint8_t> got(kPage);
  for (int c = 0; c < 16; ++c) {
    ASSERT_TRUE(f->Read(static_cast<uint64_t>(c) * kChunk, got).ok());
    EXPECT_EQ(got, page);
  }
}

TEST_F(FuseliteTest, WholeChunkWritebackWhenOptimizationOff) {
  FuseliteConfig cfg;
  cfg.dirty_page_writeback = false;
  Rebuild(cfg);
  auto f = mount_->Create("/wholechunk", kChunk);
  ASSERT_TRUE(f.ok());
  const auto page = Pattern(kPage, 9);
  ASSERT_TRUE(f->Write(0, page).ok());
  ASSERT_TRUE(f->Sync().ok());
  // One dirty page, but the whole chunk travels.
  EXPECT_EQ(mount_->client().bytes_flushed(), kChunk);
}

TEST_F(FuseliteTest, FullChunkOverwriteSkipsFetch) {
  const auto stored = Pattern(2 * kChunk, 10);
  FileHandle f = StoredFile("/overwrite", stored);
  const uint64_t reads = ReadRequests();
  const uint64_t fetched = mount_->client().bytes_fetched();
  const auto chunk_img = Pattern(kChunk, 11);
  ASSERT_TRUE(f.Write(0, chunk_img).ok());
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks, 0u);
  EXPECT_EQ(ReadRequests(), reads);
  // A partial write to a cold chunk must fetch (read-modify-write): its
  // partial head and tail pages, 0 and 1, in one pages-only store call.
  const auto page = Pattern(kPage, 12);
  ASSERT_TRUE(f.Write(kChunk + 512, page).ok());
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks, 1u);
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, 2 * kPage);

  // Pages 0-1 now hold the old bytes around the write (a hit); page 3
  // never landed, so reading it is a second one-page fetch.
  std::vector<uint8_t> want(stored.begin() + kChunk, stored.end());
  std::copy(page.begin(), page.end(), want.begin() + 512);
  std::vector<uint8_t> got(2 * kPage);
  ASSERT_TRUE(f.Read(kChunk, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), 2 * kPage));
  EXPECT_EQ(ReadRequests() - reads, 1u);
  EXPECT_EQ(mount_->cache().traffic().hit_chunks, 1u);
  std::vector<uint8_t> fourth(kPage);
  ASSERT_TRUE(f.Read(kChunk + 3 * kPage, fourth).ok());
  EXPECT_EQ(0, std::memcmp(fourth.data(), want.data() + 3 * kPage, kPage));
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks, 2u);
  EXPECT_EQ(ReadRequests() - reads, 2u);
  EXPECT_EQ(mount_->client().bytes_fetched() - fetched, 3 * kPage);
}

TEST_F(FuseliteTest, SequentialReadTriggersReadahead) {
  auto f = mount_->Create("/seq", 8 * kChunk);
  ASSERT_TRUE(f.ok());
  // Materialise the file so prefetches really fetch data.
  const auto img = Pattern(8 * kChunk, 13);
  ASSERT_TRUE(f->Write(0, img).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());

  std::vector<uint8_t> buf(kPage);
  for (uint64_t off = 0; off + kPage <= 8 * kChunk; off += kPage) {
    ASSERT_TRUE(f->Read(off, buf).ok());
  }
  const auto& t = mount_->cache().traffic();
  EXPECT_GT(t.prefetched_chunks, 4u);
}

TEST_F(FuseliteTest, ReadaheadOverlapsWithConsumerCompute) {
  // Read-ahead hides chunk-fetch latency behind the consumer's compute:
  // a reader that does per-page work must finish markedly sooner with
  // read-ahead on.  (A pure I/O-bound reader gains almost nothing — there
  // is nothing to overlap with — which the paper's STREAM results echo.)
  auto time_full_read = [&](bool readahead) {
    FuseliteConfig cfg;
    cfg.readahead = readahead;
    Rebuild(cfg);
    auto f = mount_->Create("/ra", 32 * kChunk);
    NVM_CHECK(f.ok());
    const auto img = Pattern(32 * kChunk, 21);
    NVM_CHECK(f->Write(0, img).ok());
    NVM_CHECK(f->Sync().ok());
    NVM_CHECK(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
    // Measure as a delta: resources keep their timelines, so the clock
    // must keep moving forward.
    const int64_t t0 = sim::CurrentClock().now();
    std::vector<uint8_t> buf(kPage);
    for (uint64_t off = 0; off + kPage <= 32 * kChunk; off += kPage) {
      NVM_CHECK(f->Read(off, buf).ok());
      sim::CurrentClock().Advance(20'000);  // 20 us of work per page
    }
    return sim::CurrentClock().now() - t0;
  };
  const int64_t with_ra = time_full_read(true);
  const int64_t without_ra = time_full_read(false);
  // Expect a large fraction of the fetch time to be hidden.
  EXPECT_LT(static_cast<double>(with_ra),
            0.8 * static_cast<double>(without_ra));
}

TEST_F(FuseliteTest, RandomReadsDoNotPrefetch) {
  auto f = mount_->Create("/rand", 8 * kChunk);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> buf(kPage);
  Xoshiro256 rng(31);
  for (int i = 0; i < 64; ++i) {
    const uint64_t off = (rng.NextBelow(8 * kChunk / kPage)) * kPage;
    ASSERT_TRUE(f->Read(off, buf).ok());
  }
  EXPECT_EQ(mount_->cache().traffic().prefetched_chunks, 0u);
}

TEST_F(FuseliteTest, TrafficCountersTrackAppBytes) {
  auto f = mount_->Create("/count", kChunk);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> buf(100);
  ASSERT_TRUE(f->Write(0, buf).ok());
  ASSERT_TRUE(f->Read(0, buf).ok());
  const auto& t = mount_->cache().traffic();
  EXPECT_EQ(t.app_bytes_written, 100u);
  EXPECT_EQ(t.app_bytes_read, 100u);
  mount_->cache().ResetTraffic();
  EXPECT_EQ(mount_->cache().traffic().app_bytes_written, 0u);
}

TEST_F(FuseliteTest, DropDiscardsCleanStateButFlushesDirty) {
  auto f = mount_->Create("/drop", kChunk);
  ASSERT_TRUE(f.ok());
  const auto page = Pattern(kPage, 15);
  ASSERT_TRUE(f->Write(0, page).ok());
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
  EXPECT_EQ(mount_->cache().resident_chunks(), 0u);
  // The dirty page reached the store before the drop.
  std::vector<uint8_t> got(kPage);
  ASSERT_TRUE(f->Read(0, got).ok());
  EXPECT_EQ(got, page);
}

TEST_F(FuseliteTest, SharedMountCoalescesAccessAcrossFiles) {
  // Two handles to the same file share cached chunks (the shared-mmap
  // mechanism): the second reader must not refetch.
  auto f = mount_->Create("/shared", kChunk);
  ASSERT_TRUE(f.ok());
  const auto img = Pattern(kChunk, 23);
  ASSERT_TRUE(f->Write(0, img).ok());
  auto g = mount_->Open("/shared");
  ASSERT_TRUE(g.ok());
  const uint64_t fetched = mount_->cache().traffic().fetched_chunks;
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(g->Read(0, got).ok());
  EXPECT_EQ(mount_->cache().traffic().fetched_chunks, fetched);
  EXPECT_EQ(got, img);
}

}  // namespace
}  // namespace nvm::fuselite
