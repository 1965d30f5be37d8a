// Unit tests for the aggregate NVM store: namespace, fallocate striping,
// chunk read/write, copy-on-write versioning, checkpoint linking,
// replication, space accounting, and benefactor failure injection.
#include <gtest/gtest.h>

#include "net/cluster.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

namespace nvm::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() { Rebuild(1); }

  void Rebuild(int replication, uint64_t contribution = 4_MiB) {
    net::ClusterConfig cc;
    cc.num_nodes = 6;
    cluster_ = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = 64_KiB;
    sc.store.page_bytes = 4_KiB;
    sc.store.replication = replication;
    sc.benefactor_nodes = {2, 3, 4, 5};
    sc.contribution_bytes = contribution;
    sc.manager_node = 2;
    store_ = std::make_unique<AggregateStore>(*cluster_, sc);
    client_ = &store_->ClientForNode(0);
    sim::CurrentClock().Reset();
  }

  Manager& manager() { return store_->manager(); }
  sim::VirtualClock& clock() { return sim::CurrentClock(); }
  uint64_t chunk_bytes() const { return 64_KiB; }

  std::vector<uint8_t> Pattern(uint64_t bytes, uint8_t seed) {
    std::vector<uint8_t> v(bytes);
    for (uint64_t i = 0; i < bytes; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }

  Bitmap AllPages() {
    Bitmap b(chunk_bytes() / 4_KiB);
    b.SetAll();
    return b;
  }

  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<AggregateStore> store_;
  StoreClient* client_ = nullptr;
};

TEST_F(StoreTest, CreateLookupStatUnlink) {
  auto id = client_->Create(clock(), "/f1");
  ASSERT_TRUE(id.ok());
  EXPECT_NE(*id, kInvalidFileId);

  auto dup = client_->Create(clock(), "/f1");
  EXPECT_EQ(dup.status().code(), ErrorCode::kAlreadyExists);

  auto found = client_->Open(clock(), "/f1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *id);

  auto info = client_->Stat(clock(), *id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 0u);
  EXPECT_EQ(info->name, "/f1");

  EXPECT_TRUE(client_->Unlink(clock(), *id).ok());
  EXPECT_EQ(client_->Open(clock(), "/f1").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client_->Unlink(clock(), *id).code(), ErrorCode::kNotFound);
}

TEST_F(StoreTest, FallocateStripesRoundRobin) {
  auto id = client_->Create(clock(), "/striped");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 8 * chunk_bytes()).ok());

  auto info = client_->Stat(clock(), *id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_chunks, 8u);
  EXPECT_EQ(info->size, 8 * chunk_bytes());

  // 8 chunks over 4 benefactors: 2 each.
  for (size_t b = 0; b < store_->num_benefactors(); ++b) {
    EXPECT_EQ(store_->benefactor(b).bytes_used(), 2 * chunk_bytes());
  }
}

TEST_F(StoreTest, FallocateIsIdempotentAndGrows) {
  auto id = client_->Create(clock(), "/grow");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  auto info = client_->Stat(clock(), *id);
  EXPECT_EQ(info->num_chunks, 1u);
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 3 * chunk_bytes()).ok());
  info = client_->Stat(clock(), *id);
  EXPECT_EQ(info->num_chunks, 3u);
  // Shrinking is a no-op (posix_fallocate never truncates).
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  EXPECT_EQ(client_->Stat(clock(), *id)->num_chunks, 3u);
}

TEST_F(StoreTest, WriteThenReadRoundTrip) {
  auto id = client_->Create(clock(), "/data");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 2 * chunk_bytes()).ok());

  auto img0 = Pattern(chunk_bytes(), 1);
  auto img1 = Pattern(chunk_bytes(), 99);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 0, AllPages(), img0).ok());
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 1, AllPages(), img1).ok());

  std::vector<uint8_t> got(chunk_bytes());
  ASSERT_TRUE(client_->ReadChunk(clock(), *id, 0, got).ok());
  EXPECT_EQ(got, img0);
  ASSERT_TRUE(client_->ReadChunk(clock(), *id, 1, got).ok());
  EXPECT_EQ(got, img1);
}

TEST_F(StoreTest, SparseChunksReadAsZeros) {
  auto id = client_->Create(clock(), "/sparse");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  std::vector<uint8_t> got(chunk_bytes(), 0xFF);
  ASSERT_TRUE(client_->ReadChunk(clock(), *id, 0, got).ok());
  for (uint8_t b : got) ASSERT_EQ(b, 0);
  // No device traffic for the sparse read.
  EXPECT_EQ(cluster_->TotalSsdBytesRead(), 0u);
}

TEST_F(StoreTest, PartialPageWriteKeepsOtherPages) {
  auto id = client_->Create(clock(), "/partial");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());

  auto full = Pattern(chunk_bytes(), 5);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 0, AllPages(), full).ok());

  // Rewrite only page 3.
  auto img = full;
  for (uint64_t i = 3 * 4_KiB; i < 4 * 4_KiB; ++i) img[i] = 0xAB;
  Bitmap dirty(chunk_bytes() / 4_KiB);
  dirty.Set(3);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 0, dirty, img).ok());

  std::vector<uint8_t> got(chunk_bytes());
  ASSERT_TRUE(client_->ReadChunk(clock(), *id, 0, got).ok());
  EXPECT_EQ(got, img);
}

TEST_F(StoreTest, DirtyPageWriteChargesOnlyDirtyBytes) {
  auto id = client_->Create(clock(), "/dirty");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  Bitmap dirty(chunk_bytes() / 4_KiB);
  dirty.Set(0);
  dirty.Set(7);
  auto img = Pattern(chunk_bytes(), 9);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 0, dirty, img).ok());
  EXPECT_EQ(cluster_->TotalSsdBytesWritten(), 2 * 4_KiB);
  EXPECT_EQ(client_->bytes_flushed(), 2 * 4_KiB);
}

TEST_F(StoreTest, ReadBeyondEofFails) {
  auto id = client_->Create(clock(), "/eof");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  std::vector<uint8_t> got(chunk_bytes());
  EXPECT_EQ(client_->ReadChunk(clock(), *id, 5, got).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(StoreTest, LinkSharesChunksAndBumpsRefcounts) {
  auto src = client_->Create(clock(), "/var");
  auto dst = client_->Create(clock(), "/ckpt");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  ASSERT_TRUE(client_->Fallocate(clock(), *src, 2 * chunk_bytes()).ok());
  auto img = Pattern(chunk_bytes(), 42);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *src, 0, AllPages(), img).ok());

  const uint64_t used_before = store_->benefactor(0).bytes_used() +
                               store_->benefactor(1).bytes_used() +
                               store_->benefactor(2).bytes_used() +
                               store_->benefactor(3).bytes_used();
  auto off = client_->LinkFileChunks(clock(), *dst, *src);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 0u);  // dst was empty

  // No extra space consumed: chunks are shared.
  const uint64_t used_after = store_->benefactor(0).bytes_used() +
                              store_->benefactor(1).bytes_used() +
                              store_->benefactor(2).bytes_used() +
                              store_->benefactor(3).bytes_used();
  EXPECT_EQ(used_before, used_after);

  // The checkpoint file reads the same data.
  std::vector<uint8_t> got(chunk_bytes());
  ASSERT_TRUE(client_->ReadChunk(clock(), *dst, 0, got).ok());
  EXPECT_EQ(got, img);

  // Refcount is 2; deleting the source must keep the data alive.
  ASSERT_TRUE(client_->Unlink(clock(), *src).ok());
  ASSERT_TRUE(client_->ReadChunk(clock(), *dst, 0, got).ok());
  EXPECT_EQ(got, img);
}

TEST_F(StoreTest, LinkOffsetIsChunkAligned) {
  auto src = client_->Create(clock(), "/var");
  auto dst = client_->Create(clock(), "/ckpt");
  ASSERT_TRUE(client_->Fallocate(clock(), *src, chunk_bytes()).ok());
  // dst has 1.5 chunks of data -> 2 chunks allocated.
  ASSERT_TRUE(
      client_->Fallocate(clock(), *dst, chunk_bytes() + chunk_bytes() / 2)
          .ok());
  auto off = client_->LinkFileChunks(clock(), *dst, *src);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 2 * chunk_bytes());
  EXPECT_EQ(client_->Stat(clock(), *dst)->size, 3 * chunk_bytes());
}

TEST_F(StoreTest, CopyOnWritePreservesLinkedCheckpoint) {
  auto src = client_->Create(clock(), "/var");
  auto dst = client_->Create(clock(), "/ckpt");
  ASSERT_TRUE(client_->Fallocate(clock(), *src, chunk_bytes()).ok());
  auto v1 = Pattern(chunk_bytes(), 1);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *src, 0, AllPages(), v1).ok());
  ASSERT_TRUE(client_->LinkFileChunks(clock(), *dst, *src).ok());

  // Overwrite the live variable: must trigger COW, not corrupt the ckpt.
  auto v2 = Pattern(chunk_bytes(), 2);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *src, 0, AllPages(), v2).ok());

  std::vector<uint8_t> got(chunk_bytes());
  ASSERT_TRUE(client_->ReadChunk(clock(), *dst, 0, got).ok());
  EXPECT_EQ(got, v1);  // checkpoint unchanged
  ASSERT_TRUE(client_->ReadChunk(clock(), *src, 0, got).ok());
  EXPECT_EQ(got, v2);  // live variable updated
}

TEST_F(StoreTest, CowOnlyOnSharedChunks) {
  auto src = client_->Create(clock(), "/var");
  ASSERT_TRUE(client_->Fallocate(clock(), *src, chunk_bytes()).ok());
  auto v1 = Pattern(chunk_bytes(), 1);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *src, 0, AllPages(), v1).ok());

  // Unshared chunk: writes go in place (version stays 0).
  auto loc = manager().PrepareWrite(clock(), *src, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_FALSE(loc->needs_clone);
  EXPECT_EQ(loc->key.version, 0u);
  // Every prepare pairs with a complete.
  manager().CompleteWrite(clock(), loc->key);
}

TEST_F(StoreTest, RepeatedCheckpointsShareUntouchedChunks) {
  auto src = client_->Create(clock(), "/var");
  ASSERT_TRUE(client_->Fallocate(clock(), *src, 4 * chunk_bytes()).ok());
  for (uint32_t i = 0; i < 4; ++i) {
    auto img = Pattern(chunk_bytes(), static_cast<uint8_t>(i));
    ASSERT_TRUE(
        client_->WriteChunkPages(clock(), *src, i, AllPages(), img).ok());
  }
  auto ck1 = client_->Create(clock(), "/ck1");
  ASSERT_TRUE(client_->LinkFileChunks(clock(), *ck1, *src).ok());

  // Modify one chunk only, checkpoint again.
  auto img = Pattern(chunk_bytes(), 200);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *src, 2, AllPages(), img).ok());
  auto ck2 = client_->Create(clock(), "/ck2");
  ASSERT_TRUE(client_->LinkFileChunks(clock(), *ck2, *src).ok());

  // Chunks 0,1,3 are shared three ways; chunk 2 exists in two versions.
  EXPECT_EQ(manager().ChunkRefcount({*src, 0, 0}), 3u);
  EXPECT_EQ(manager().ChunkRefcount({*src, 2, 0}), 1u);  // only ck1
  EXPECT_EQ(manager().ChunkRefcount({*src, 2, 1}), 2u);  // live + ck2
}

TEST_F(StoreTest, OutOfSpaceReported) {
  Rebuild(1, /*contribution=*/2 * 64_KiB);  // 4 benefactors x 2 chunks
  auto id = client_->Create(clock(), "/big");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(client_->Fallocate(clock(), *id, 8 * chunk_bytes()).ok());
  auto id2 = client_->Create(clock(), "/more");
  EXPECT_EQ(client_->Fallocate(clock(), *id2, chunk_bytes()).code(),
            ErrorCode::kOutOfSpace);
  // Unlinking frees space for reuse.
  ASSERT_TRUE(client_->Unlink(clock(), *id).ok());
  EXPECT_TRUE(client_->Fallocate(clock(), *id2, chunk_bytes()).ok());
}

TEST_F(StoreTest, DeadBenefactorFailsReadsWithoutReplication) {
  auto id = client_->Create(clock(), "/victim");
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 4 * chunk_bytes()).ok());
  auto img = Pattern(chunk_bytes(), 3);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        client_->WriteChunkPages(clock(), *id, i, AllPages(), img).ok());
  }
  store_->benefactor(1).Kill();
  int failures = 0;
  std::vector<uint8_t> got(chunk_bytes());
  for (uint32_t i = 0; i < 4; ++i) {
    if (!client_->ReadChunk(clock(), *id, i, got).ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);  // exactly the chunk on the dead benefactor
  EXPECT_EQ(manager().AliveBenefactors().size(), 3u);
}

TEST_F(StoreTest, ReplicationSurvivesBenefactorDeath) {
  Rebuild(/*replication=*/2);
  auto id = client_->Create(clock(), "/replicated");
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 4 * chunk_bytes()).ok());
  for (uint32_t i = 0; i < 4; ++i) {
    auto img = Pattern(chunk_bytes(), static_cast<uint8_t>(i * 7));
    ASSERT_TRUE(
        client_->WriteChunkPages(clock(), *id, i, AllPages(), img).ok());
  }
  store_->benefactor(0).Kill();
  std::vector<uint8_t> got(chunk_bytes());
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client_->ReadChunk(clock(), *id, i, got).ok());
    EXPECT_EQ(got, Pattern(chunk_bytes(), static_cast<uint8_t>(i * 7)));
  }
}

TEST_F(StoreTest, HeartbeatDetectsDeath) {
  EXPECT_EQ(manager().CheckLiveness(clock()), 4u);
  store_->benefactor(2).Kill();
  EXPECT_EQ(manager().CheckLiveness(clock()), 3u);
  store_->benefactor(2).Revive();
  EXPECT_EQ(manager().CheckLiveness(clock()), 4u);
}

TEST_F(StoreTest, FallocateSkipsDeadBenefactors) {
  store_->benefactor(0).Kill();
  auto id = client_->Create(clock(), "/skip");
  ASSERT_TRUE(client_->Fallocate(clock(), *id, 4 * chunk_bytes()).ok());
  EXPECT_EQ(store_->benefactor(0).bytes_used(), 0u);
}

TEST_F(StoreTest, MetadataOpsChargeTime) {
  const int64_t t0 = clock().now();
  auto id = client_->Create(clock(), "/timed");
  ASSERT_TRUE(id.ok());
  EXPECT_GT(clock().now(), t0);
}

TEST_F(StoreTest, RemoteChunkFetchChargesNetworkAndSsd) {
  auto id = client_->Create(clock(), "/remote");
  ASSERT_TRUE(client_->Fallocate(clock(), *id, chunk_bytes()).ok());
  auto img = Pattern(chunk_bytes(), 8);
  ASSERT_TRUE(client_->WriteChunkPages(clock(), *id, 0, AllPages(), img).ok());
  const int64_t before = clock().now();
  std::vector<uint8_t> got(chunk_bytes());
  ASSERT_TRUE(client_->ReadChunk(clock(), *id, 0, got).ok());
  const int64_t elapsed = clock().now() - before;
  // At least the SSD read (64 KiB at 250 MB/s = 262 us + 75 us latency)
  // plus the network hop.
  EXPECT_GT(elapsed, 300'000);
  EXPECT_GT(cluster_->network().remote_bytes(), chunk_bytes());
}

}  // namespace
}  // namespace nvm::store
