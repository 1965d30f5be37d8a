// Crash-consistency suite for the manager metadata WAL + checkpoint +
// cold-start recovery path (store/wal.cpp, store/recovery.cpp).
//
// Three layers of coverage:
//  * WAL unit tests: record round-trips, torn tails, corrupt-record
//    rejection, segment rotation, checkpoint-supersedes-log, torn
//    checkpoints falling back to the previous slot, and the seeded
//    CrashAfterAppends schedule being deterministic.
//  * A crash-point matrix: the store is crashed at every named point
//    (mid completion batch, mid repair commit, mid checkpoint, mid
//    scrub, mid quarantine publish, mid COW prepare) and must recover —
//    via KillManager/RestartManager — to a store that passes the full
//    cross-layer invariant sweep and serves only old-or-new bytes,
//    never wrong ones.
//  * A seeded randomized kill schedule: ops run until the WAL freezes
//    at a random append, the manager is killed and restarted, the one
//    in-flight op is probed (old state, new state, or lost — nothing
//    else is acceptable), and every other file must come back exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/erasure.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;

using store::CrashPoint;
using store::WalRecord;
using store::WalRecordType;
using store::WalStore;

store::StoreConfig WalConfig() {
  store::StoreConfig cfg;
  cfg.wal = true;
  cfg.wal_segment_bytes = 4_KiB;
  return cfg;
}

store::ChunkKey Key(uint64_t file, uint32_t index, uint32_t version) {
  store::ChunkKey k;
  k.origin_file = file;
  k.index = index;
  k.version = version;
  return k;
}

// ---------------------------------------------------------------------------
// WAL unit tests
// ---------------------------------------------------------------------------

TEST(WalUnit, EveryRecordTypeRoundTrips) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);

  WalRecord create;
  create.type = WalRecordType::kCreateFile;
  create.file_id = 7;
  create.name = "/round/trip";

  WalRecord extend;
  extend.type = WalRecordType::kExtend;
  extend.file_id = 7;
  extend.size = 2 * kChunk;
  extend.placements = {{0, Key(7, 0, 0), {0, 1}}, {1, Key(7, 1, 0), {2, 3}}};

  WalRecord cow;
  cow.type = WalRecordType::kCowSwap;
  cow.file_id = 7;
  cow.slot = 1;
  cow.old_key = Key(7, 1, 0);
  cow.key = Key(7, 1, 1);
  cow.replicas = {2, 3};

  WalRecord complete;
  complete.type = WalRecordType::kComplete;
  complete.completions = {{Key(7, 0, 0), true, 0xdeadbeef,
                           {0xa1u, 0xb2u, 0xc3u}},  // erasure per-fragment crcs
                          {Key(7, 1, 1), false, 0, {}}};

  WalRecord replicas;
  replicas.type = WalRecordType::kReplicas;
  replicas.key = Key(7, 0, 0);
  replicas.replicas = {1};

  WalRecord lost;
  lost.type = WalRecordType::kReplicas;
  lost.key = Key(7, 1, 1);
  lost.replicas = {};

  WalRecord unlink;
  unlink.type = WalRecordType::kUnlink;
  unlink.file_id = 7;

  WalRecord link;
  link.type = WalRecordType::kLink;
  link.file_id = 9;
  link.src_file = 7;

  for (const WalRecord* r : {&create, &extend, &cow, &complete, &replicas,
                             &lost, &unlink, &link}) {
    wal.Append(clock, *r);
  }
  EXPECT_EQ(wal.last_seq(), 8u);
  EXPECT_GT(clock.now(), 0);  // durability has a virtual-time cost

  auto replay = wal.ReadForRecovery(clock);
  EXPECT_FALSE(replay.used_checkpoint);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 8u);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].seq, i + 1);
  }

  const WalRecord& c = replay.records[0];
  EXPECT_EQ(c.type, WalRecordType::kCreateFile);
  EXPECT_EQ(c.file_id, 7u);
  EXPECT_EQ(c.name, "/round/trip");

  const WalRecord& e = replay.records[1];
  EXPECT_EQ(e.type, WalRecordType::kExtend);
  EXPECT_EQ(e.size, 2 * kChunk);
  ASSERT_EQ(e.placements.size(), 2u);
  EXPECT_EQ(e.placements[0].slot, 0u);
  EXPECT_EQ(e.placements[0].key, Key(7, 0, 0));
  EXPECT_EQ(e.placements[0].replicas, (std::vector<int>{0, 1}));
  EXPECT_EQ(e.placements[1].key, Key(7, 1, 0));
  EXPECT_EQ(e.placements[1].replicas, (std::vector<int>{2, 3}));

  const WalRecord& w = replay.records[2];
  EXPECT_EQ(w.type, WalRecordType::kCowSwap);
  EXPECT_EQ(w.slot, 1u);
  EXPECT_EQ(w.old_key, Key(7, 1, 0));
  EXPECT_EQ(w.key, Key(7, 1, 1));
  EXPECT_EQ(w.replicas, (std::vector<int>{2, 3}));

  const WalRecord& k = replay.records[3];
  EXPECT_EQ(k.type, WalRecordType::kComplete);
  ASSERT_EQ(k.completions.size(), 2u);
  EXPECT_EQ(k.completions[0].key, Key(7, 0, 0));
  EXPECT_TRUE(k.completions[0].has_crc);
  EXPECT_EQ(k.completions[0].crc, 0xdeadbeefu);
  EXPECT_EQ(k.completions[0].frag_crcs,
            (std::vector<uint32_t>{0xa1u, 0xb2u, 0xc3u}));
  EXPECT_EQ(k.completions[1].key, Key(7, 1, 1));
  EXPECT_FALSE(k.completions[1].has_crc);
  EXPECT_TRUE(k.completions[1].frag_crcs.empty());

  EXPECT_EQ(replay.records[4].replicas, (std::vector<int>{1}));
  EXPECT_TRUE(replay.records[5].replicas.empty());  // lost publish survives
  EXPECT_EQ(replay.records[6].type, WalRecordType::kUnlink);
  EXPECT_EQ(replay.records[6].file_id, 7u);
  EXPECT_EQ(replay.records[7].type, WalRecordType::kLink);
  EXPECT_EQ(replay.records[7].file_id, 9u);
  EXPECT_EQ(replay.records[7].src_file, 7u);
}

WalRecord UnlinkRecord(uint64_t file_id) {
  WalRecord r;
  r.type = WalRecordType::kUnlink;
  r.file_id = file_id;
  return r;
}

TEST(WalUnit, TornTailCutsOnlyTheLastRecord) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 3; ++i) wal.Append(clock, UnlinkRecord(i));

  wal.TruncateTailBytes(5);  // tear into the third record's frame
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].file_id, 1u);
  EXPECT_EQ(replay.records[1].file_id, 2u);

  // Reopen truncates the torn tail and continues the sequence after the
  // durable prefix; the log is clean again.
  wal.Reopen();
  wal.Append(clock, UnlinkRecord(44));
  auto again = wal.ReadForRecovery(clock);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].file_id, 44u);
  EXPECT_GT(again.records[2].seq, again.records[1].seq);
}

TEST(WalUnit, CorruptRecordRejectsItselfAndEverythingAfter) {
  // Each kUnlink frame is 8 header + 17 payload = 25 bytes.  A flip 10
  // bytes from the end lands inside record 3; 30 bytes back lands inside
  // record 2 and must also discard the (intact) record 3 behind it — a
  // reader can never trust bytes past a CRC failure.
  for (const auto& [back, survivors] :
       std::vector<std::pair<uint64_t, size_t>>{{10, 2}, {30, 1}}) {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    for (uint64_t i = 1; i <= 3; ++i) wal.Append(clock, UnlinkRecord(i));
    wal.CorruptLogByte(back, 0x40);
    auto replay = wal.ReadForRecovery(clock);
    EXPECT_TRUE(replay.torn_tail) << "back=" << back;
    ASSERT_EQ(replay.records.size(), survivors) << "back=" << back;
    for (size_t i = 0; i < survivors; ++i) {
      EXPECT_EQ(replay.records[i].file_id, i + 1);
    }
  }
}

TEST(WalUnit, RecordsSpanSegmentsInOrder) {
  WalStore wal(WalConfig());  // 4 KiB segments
  sim::VirtualClock clock(0);
  constexpr uint64_t kRecords = 400;  // ~25 B each: ~10 KiB, >= 3 segments
  for (uint64_t i = 1; i <= kRecords; ++i) wal.Append(clock, UnlinkRecord(i));
  EXPECT_GE(wal.num_segments(), 3u);

  auto replay = wal.ReadForRecovery(clock);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replay.records[i].seq, i + 1);
    EXPECT_EQ(replay.records[i].file_id, i + 1);
  }
}

TEST(WalUnit, CheckpointSupersedesCoveredSegments) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 200; ++i) wal.Append(clock, UnlinkRecord(i));
  EXPECT_GE(wal.num_segments(), 2u);

  wal.WriteCheckpoint(clock, "manager state at seq 200", wal.last_seq());
  EXPECT_EQ(wal.checkpoints_written(), 1u);
  EXPECT_EQ(wal.num_segments(), 0u);  // every segment was covered

  for (uint64_t i = 201; i <= 203; ++i) wal.Append(clock, UnlinkRecord(i));
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.used_checkpoint);
  EXPECT_EQ(replay.checkpoint, "manager state at seq 200");
  EXPECT_EQ(replay.covered_seq, 200u);
  ASSERT_EQ(replay.records.size(), 3u);  // only the post-checkpoint suffix
  EXPECT_EQ(replay.records[0].seq, 201u);
}

TEST(WalUnit, TornCheckpointFallsBackToPreviousSlot) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 4; ++i) wal.Append(clock, UnlinkRecord(i));
  wal.WriteCheckpoint(clock, "good checkpoint", 4);
  for (uint64_t i = 5; i <= 7; ++i) wal.Append(clock, UnlinkRecord(i));

  wal.CrashAtPoint(CrashPoint::kMidCheckpoint);
  wal.WriteCheckpoint(clock, "newer checkpoint that tears", 7);
  EXPECT_TRUE(wal.crashed());
  EXPECT_EQ(wal.checkpoints_written(), 1u);  // the torn one never counts

  wal.Reopen();
  EXPECT_FALSE(wal.crashed());
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.used_checkpoint);
  EXPECT_EQ(replay.checkpoint, "good checkpoint");  // fell back
  EXPECT_EQ(replay.covered_seq, 4u);
  ASSERT_EQ(replay.records.size(), 3u);  // 5..7 were NOT superseded
  EXPECT_EQ(replay.records[0].seq, 5u);
}

TEST(WalUnit, CrashAfterAppendsIsSeededAndDeterministic) {
  // seed == 0: the freeze lands exactly on the n-th append, which itself
  // tears mid-record.
  {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    wal.CrashAfterAppends(5, 0);
    for (uint64_t i = 1; i <= 4; ++i) wal.Append(clock, UnlinkRecord(i));
    EXPECT_FALSE(wal.crashed());
    wal.Append(clock, UnlinkRecord(5));
    EXPECT_TRUE(wal.crashed());
    auto replay = wal.ReadForRecovery(clock);
    EXPECT_TRUE(replay.torn_tail);  // the triggering append is the tear
    EXPECT_EQ(replay.records.size(), 4u);

    // Post-freeze appends are silent no-ops: the RAM/durable divergence.
    wal.Append(clock, UnlinkRecord(6));
    wal.Append(clock, UnlinkRecord(7));
    EXPECT_EQ(wal.dropped_appends(), 2u);
  }

  // seed != 0 draws the trigger uniformly from [1, n] — the same seed
  // must reproduce the same schedule on a fresh store.
  auto trigger_at = [](uint64_t seed) {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    wal.CrashAfterAppends(16, seed);
    uint64_t count = 0;
    while (!wal.crashed()) {
      wal.Append(clock, UnlinkRecord(++count));
      EXPECT_LE(count, 16u);
    }
    return count;
  };
  const uint64_t first = trigger_at(0x5eed);
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 16u);
  EXPECT_EQ(first, trigger_at(0x5eed));
}

// ---------------------------------------------------------------------------
// Store-level harness
// ---------------------------------------------------------------------------

struct Rig {
  net::Cluster cluster;
  store::AggregateStore store;

  explicit Rig(std::function<void(store::StoreConfig&)> tweak = {})
      : cluster(MakeCluster()), store(cluster, MakeStore(std::move(tweak))) {}

  static net::ClusterConfig MakeCluster() {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    return cc;
  }
  static store::AggregateStoreConfig MakeStore(
      std::function<void(store::StoreConfig&)> tweak) {
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 2;
    sc.store.wal = true;
    sc.store.wal_segment_bytes = 4_KiB;
    for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    if (tweak) tweak(sc.store);
    return sc;
  }

  // Always re-fetched: the stub dies with the manager on KillManager.
  store::StoreClient& client() { return store.ClientForNode(0); }
};

std::vector<uint8_t> Pattern(uint64_t tag) {
  std::vector<uint8_t> v(kChunk);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(tag * 131 + i * 7 + (i >> 8));
  }
  return v;
}

Status WriteChunk(store::StoreClient& c, sim::VirtualClock& clock,
                  store::FileId id, uint32_t index,
                  const std::vector<uint8_t>& bytes) {
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  return c.WriteChunkPages(clock, id, index, all, bytes);
}

// The bytes every live file must serve, keyed by name.  An empty chunk
// image marks a chunk the store has surfaced as lost.
struct ShadowFile {
  store::FileId id = store::kInvalidFileId;
  std::vector<std::vector<uint8_t>> chunks;
};
using Shadow = std::map<std::string, ShadowFile>;

template <typename AnyRig>
void ExpectBytes(AnyRig& rig, sim::VirtualClock& clock, const Shadow& shadow) {
  store::StoreClient& c = rig.client();
  std::vector<uint8_t> buf(kChunk);
  for (const auto& [name, f] : shadow) {
    for (uint32_t i = 0; i < f.chunks.size(); ++i) {
      if (f.chunks[i].empty()) {
        ASSERT_FALSE(c.ReadChunk(clock, f.id, i, buf).ok())
            << name << " chunk " << i << " is lost but serves bytes";
        continue;
      }
      ASSERT_TRUE(c.ReadChunk(clock, f.id, i, buf).ok())
          << name << " chunk " << i;
      ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
          << name << " chunk " << i;
    }
  }
}

// The cross-layer invariant sweep from store_invariant_test, restated at
// manager/benefactor level (no mount): namespace agreement, placement
// sanity, checksum agreement on every alive stored replica, reservation
// accounting (one member's bytes — a chunk or a fragment — per listed
// member), and no orphans.  `expect_full` demands full-width lists (off
// while a just-recovered store is still legitimately degraded); a lost
// chunk must carry the empty list.  Shared handles (checkpoint links) are
// deduped by key so reservation accounting counts each physical chunk
// once.
template <typename AnyRig>
void CheckInvariants(AnyRig& rig, const Shadow& shadow, bool expect_full) {
  sim::VirtualClock clock(0);
  store::Manager& m = rig.store.manager();
  const store::StoreConfig& cfg = m.config();
  const bool ec = cfg.ec();
  const size_t width =
      ec ? cfg.ec_fragments() : static_cast<size_t>(cfg.replication);
  const uint64_t member_bytes = ec ? cfg.ec_frag_bytes() : cfg.chunk_bytes;
  const int benefactors = static_cast<int>(rig.store.num_benefactors());

  std::map<std::string, std::vector<int>> placed;  // key -> member list
  for (const auto& [name, f] : shadow) {
    auto id = m.LookupFile(clock, name);
    ASSERT_TRUE(id.ok()) << name;
    ASSERT_EQ(*id, f.id) << name;
    auto info = m.Stat(clock, f.id);
    ASSERT_TRUE(info.ok()) << name;
    ASSERT_EQ(info->num_chunks, f.chunks.size()) << name;

    auto locs = m.GetReadLocations(clock, f.id, 0,
                                   static_cast<uint32_t>(f.chunks.size()));
    ASSERT_TRUE(locs.ok()) << name;
    ASSERT_EQ(locs->size(), f.chunks.size()) << name;
    for (size_t i = 0; i < locs->size(); ++i) {
      const store::ReadLocation& loc = (*locs)[i];
      ASSERT_GE(m.ChunkRefcount(loc.key), 1u);
      if (f.chunks[i].empty()) {
        ASSERT_TRUE(loc.benefactors.empty())
            << loc.key.ToString() << " is lost in another shape";
      } else {
        ASSERT_FALSE(loc.benefactors.empty()) << loc.key.ToString();
      }
      if (expect_full && !f.chunks[i].empty()) {
        ASSERT_EQ(loc.benefactors.size(), width);
      }
      std::set<int> distinct;
      for (int b : loc.benefactors) {
        if (b < 0) {
          ASSERT_TRUE(ec && !expect_full) << "hole in " << loc.key.ToString();
          continue;
        }
        ASSERT_LT(b, benefactors);
        ASSERT_TRUE(distinct.insert(b).second) << loc.key.ToString();
      }
      uint32_t want = 0;
      // A stripe member stores its fragment, whose checksum is not the
      // chunk's; only a replica's stored bytes must match the image's.
      if (!ec && m.LookupChecksum(loc.key, &want)) {
        for (int b : loc.benefactors) {
          store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
          uint32_t got = 0;
          if (ben.alive() && ben.StoredContentCrc(loc.key, &got)) {
            ASSERT_EQ(got, want)
                << "divergent bytes for " << loc.key.ToString() << " on " << b;
          }
        }
      }
      auto [it, inserted] = placed.emplace(loc.key.ToString(), loc.benefactors);
      if (!inserted) {
        ASSERT_EQ(it->second, loc.benefactors);
      }
    }
  }

  std::vector<uint64_t> reserved(static_cast<size_t>(benefactors), 0);
  std::map<std::string, std::set<int>> where;
  for (const auto& [key, list] : placed) {
    for (int b : list) {
      if (b < 0) continue;
      ++reserved[static_cast<size_t>(b)];
      where[key].insert(b);
    }
  }
  for (int b = 0; b < benefactors; ++b) {
    store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
    if (!ben.alive()) continue;
    ASSERT_EQ(ben.bytes_used(), reserved[static_cast<size_t>(b)] * member_bytes)
        << "benefactor " << b;
    for (const store::ChunkKey& key : ben.StoredChunkKeys()) {
      auto it = where.find(key.ToString());
      ASSERT_NE(it, where.end())
          << "benefactor " << b << " stores orphan " << key.ToString();
      ASSERT_TRUE(it->second.contains(b))
          << "benefactor " << b << " stores " << key.ToString()
          << " but is not in its replica list";
    }
  }
}

store::FileId MakeFile(Rig& rig, sim::VirtualClock& clock,
                       const std::string& name, uint32_t chunks) {
  store::StoreClient& c = rig.client();
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok()) << name;
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok()) << name;
  return *id;
}

// ---------------------------------------------------------------------------
// Crash-point matrix
// ---------------------------------------------------------------------------

// The window size of the completion the crash lands in: a batch of four,
// and a one-chunk window, which completes through the same batch call.
class CrashMatrixWindow : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CrashMatrixWindow, MidCompletionBatchAdoptsChecksumsFromReplicas) {
  // The crash freezes the WAL at CompleteWrites entry: the v2 chunk data
  // already landed on every replica, but the batched completion record
  // (the authoritative checksums) died with the crash.  Recovery must
  // notice that all data holders agree on the same write-time checksum
  // and adopt it — the new bytes win; they are never served unverified.
  Rig rig;
  sim::VirtualClock clock(0);
  const uint32_t kChunks = GetParam();
  const store::FileId id = MakeFile(rig, clock, "/f0", kChunks);

  std::vector<std::vector<uint8_t>> v1, v2;
  for (uint32_t i = 0; i < kChunks; ++i) {
    v1.push_back(Pattern(10 + i));
    v2.push_back(Pattern(20 + i));
  }
  {
    store::StoreClient& c = rig.client();
    std::vector<Bitmap> dirty(kChunks, Bitmap(kChunk / c.config().page_bytes));
    std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      dirty[i].SetAll();
      writes[i].index = i;
      writes[i].dirty = &dirty[i];
      writes[i].image = {v1[i].data(), kChunk};
    }
    // One window per generation; a single chunk goes through the
    // per-chunk write path.
    const auto write_all = [&](const std::vector<std::vector<uint8_t>>& v) {
      if (kChunks == 1) return WriteChunk(c, clock, id, 0, v[0]);
      for (uint32_t i = 0; i < kChunks; ++i) {
        writes[i].image = {v[i].data(), kChunk};
      }
      return c.WriteChunks(clock, id, writes);
    };
    ASSERT_TRUE(write_all(v1).ok());

    rig.store.wal()->CrashAtPoint(CrashPoint::kMidBatch);
    ASSERT_TRUE(write_all(v2).ok());  // RAM says success
  }
  ASSERT_TRUE(rig.store.wal()->crashed());
  EXPECT_GT(rig.store.wal()->dropped_appends(), 0u);

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_FALSE(report.torn_tail);  // freeze hit between records, not mid-frame
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.crc_adopted, static_cast<uint64_t>(kChunks));
  EXPECT_EQ(report.files_recovered, 1u);

  Shadow shadow;
  shadow["/f0"] = {id, v2};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrashMatrixWindow, ::testing::Values(4u, 1u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return std::to_string(info.param);
                         });

TEST(CrashMatrix, MidRepairCommitLeavesRepairRedoable) {
  // A benefactor dies; the repair driver strips it (durably, in
  // PlanRepairs) and copies data to fresh targets, but the WAL freezes at
  // the first CommitRepair — no target publish survives.  Recovery must
  // sweep the never-published target copies as orphans, keep serving from
  // the survivor, and leave the chunk under-replicated so a re-run of the
  // repair driver heals it.
  Rig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 2;
  const store::FileId id = MakeFile(rig, clock, "/r0", kChunks);
  std::vector<std::vector<uint8_t>> data;
  for (uint32_t i = 0; i < kChunks; ++i) {
    data.push_back(Pattern(40 + i));
    ASSERT_TRUE(WriteChunk(rig.client(), clock, id, i, data.back()).ok());
  }

  store::Manager& m = rig.store.manager();
  auto locs = m.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = (*locs)[0].benefactors[0];
  rig.store.benefactor(static_cast<size_t>(victim)).Kill();
  m.MarkDead(victim);

  rig.store.wal()->CrashAtPoint(CrashPoint::kMidRepairCommit);
  uint64_t lost = 0;
  ASSERT_TRUE(m.RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, 0u);
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_GE(report.orphans_deleted, 1u);  // the unpublished target copies

  Shadow shadow;
  shadow["/r0"] = {id, data};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));  // survivor serves

  // The repair is redoable on the fresh manager: back to full replication.
  uint64_t lost2 = 0;
  ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost2).ok());
  EXPECT_EQ(lost2, 0u);
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidCheckpointFallsBackToPreviousCheckpointPlusReplay) {
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/c0", 2);
  const auto v1a = Pattern(50), v1b = Pattern(51), v2a = Pattern(52);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v1a).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 1, v1b).ok());

  rig.store.manager().Checkpoint(clock);  // a full checkpoint lands
  EXPECT_EQ(rig.store.wal()->checkpoints_written(), 1u);

  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v2a).ok());
  rig.store.wal()->CrashAtPoint(CrashPoint::kMidCheckpoint);
  rig.store.manager().Checkpoint(clock);  // tears halfway through the blob
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.used_checkpoint);     // the torn slot was rejected
  EXPECT_GT(report.records_replayed, 0u);  // the v2 write replays on top
  EXPECT_EQ(report.chunks_lost, 0u);

  Shadow shadow;
  shadow["/c0"] = {id, {v2a, v1b}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidScrubCrashRecoversConsistently) {
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId keep = MakeFile(rig, clock, "/s0", 2);
  const store::FileId gone = MakeFile(rig, clock, "/s1", 1);
  const auto a = Pattern(60), b = Pattern(61), g = Pattern(62);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, keep, 0, a).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, keep, 1, b).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, gone, 0, g).ok());
  ASSERT_TRUE(rig.client().Unlink(clock, gone).ok());

  rig.store.wal()->CrashAtPoint(CrashPoint::kMidScrub);
  rig.store.manager().ScrubOnce(clock);  // freezes between its two passes
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.files_recovered, 1u);  // the unlink was durable

  Shadow shadow;
  shadow["/s0"] = {keep, {a, b}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, PreparedButUnwrittenCowRollsBack) {
  // A COW prepare whose fresh version never received any data (the
  // manager died between handing out the write location and the client's
  // transfer): the durable slot names version v+1 with no checksum and no
  // replica storing anything.  Recovery must roll the slot back to the
  // shared previous version — readers keep the old bytes; nothing is
  // lost.
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/w0", 1);
  const auto old_bytes = Pattern(70);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, old_bytes).ok());

  // Share the chunk with a checkpoint link so the next prepare COWs.
  store::StoreClient& c = rig.client();
  auto ckpt = c.Create(clock, "/w0.ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(c.LinkFileChunks(clock, *ckpt, id).ok());

  auto loc = rig.store.manager().PrepareWrite(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_GT(loc->key.version, 0u);  // it really was a COW prepare

  rig.store.KillManager();  // dies before any data or completion
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.cow_rolled_back, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);

  Shadow shadow;
  shadow["/w0"] = {id, {old_bytes}};
  shadow["/w0.ckpt"] = {*ckpt, {old_bytes}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

// ---------------------------------------------------------------------------
// Erasure stripes: commit-at-completion crash semantics
// ---------------------------------------------------------------------------

// RS(4,2) crash rig: six benefactors on six nodes, WAL on.
struct EcRig {
  net::Cluster cluster;
  store::AggregateStore store;

  EcRig() : cluster(MakeCluster()), store(cluster, MakeStore()) {}

  static net::ClusterConfig MakeCluster() {
    net::ClusterConfig cc;
    cc.num_nodes = 7;
    return cc;
  }
  static store::AggregateStoreConfig MakeStore() {
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 1;
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    sc.store.wal = true;
    sc.store.wal_segment_bytes = 4_KiB;
    for (int b = 0; b < 6; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    return sc;
  }

  store::StoreClient& client() { return store.ClientForNode(0); }
};

TEST(CrashMatrix, EcStripeTornBetweenEncodeAndCommitRollsBack) {
  // The manager dies between the fragment encode (all six fragments of
  // the fresh COW version already landed on the benefactors) and the
  // stripe's completion record.  An uncommitted stripe could straddle
  // write generations, so recovery must roll the slot back to the
  // previous committed version — the chunk reads its old bytes, never a
  // splice — and the torn generation's fragments die as orphans.
  EcRig rig;
  sim::VirtualClock clock(0);
  auto idr = rig.client().Create(clock, "/ec0");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kChunk).ok());
  const store::FileId id = *idr;
  const auto old_bytes = Pattern(90);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, old_bytes).ok());

  // Share the stripe with a checkpoint link so the next write COWs.
  auto ckpt = rig.client().Create(clock, "/ec0.ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(rig.client().LinkFileChunks(clock, *ckpt, id).ok());

  auto loc = rig.store.manager().PrepareWrite(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_GT(loc->key.version, 0u);  // it really was a COW prepare
  ASSERT_EQ(loc->benefactors.size(), 6u);

  // Encode and land every fragment of the new generation by hand; the
  // completion record never happens.
  const auto new_bytes = Pattern(91);
  store::ErasureCodec codec(4, 2);
  const auto frags = codec.Encode(new_bytes);
  for (size_t pos = 0; pos < frags.size(); ++pos) {
    const int bid = loc->benefactors[pos];
    const uint32_t crc = Crc32c(frags[pos].data(), frags[pos].size());
    ASSERT_TRUE(rig.store.benefactor(static_cast<size_t>(bid))
                    .WriteFragment(clock, loc->key, frags[pos], &crc)
                    .ok());
  }

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.cow_rolled_back, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);
  // The rolled-back generation's six fragments die in recovery's own
  // orphan sweep.
  EXPECT_EQ(report.orphans_deleted, 6u);

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), old_bytes.data(), kChunk));
  ASSERT_TRUE(rig.client().ReadChunk(clock, *ckpt, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), old_bytes.data(), kChunk));

  // The accounting settled at exactly one stripe — one fragment's
  // reservation per benefactor — with nothing left for a scrub to fix.
  auto scrub = rig.store.manager().ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  const uint64_t frag = rig.store.manager().config().ec_frag_bytes();
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.store.benefactor(b).bytes_used(), frag)
        << "benefactor " << b;
  }
}

TEST(CrashMatrix, EcFirstWriteTornBeforeCommitReadsZeros) {
  // A fallocated stripe's first write lands every fragment, but the
  // manager dies before its completion record.  Recovery reclaims what
  // landed (an uncommitted stripe is never assembled) and its inventory
  // sweep reserves the listed members again, so the stripe reads as the
  // zeros the uncompleted write left behind — sparse, not stale — with one
  // fragment reserved per benefactor.
  EcRig rig;
  sim::VirtualClock clock(0);
  auto id = rig.client().Create(clock, "/ec_first");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *id, kChunk).ok());
  auto loc = rig.store.manager().PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->key.version, 0u);
  const auto frags = store::ErasureCodec(4, 2).Encode(Pattern(92));
  for (size_t pos = 0; pos < frags.size(); ++pos) {
    const uint32_t crc = Crc32c(frags[pos].data(), frags[pos].size());
    ASSERT_TRUE(rig.store.benefactor(static_cast<size_t>(loc->benefactors[pos]))
                    .WriteFragment(clock, loc->key, frags[pos], &crc)
                    .ok());
  }

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  std::vector<uint8_t> buf(kChunk, 0xEE);
  ASSERT_TRUE(rig.client().ReadChunk(clock, *id, 0, buf).ok());
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](uint8_t v) { return v == 0; }));
  const uint64_t frag = rig.store.manager().config().ec_frag_bytes();
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_FALSE(rig.store.benefactor(b).HasChunk(loc->key)) << b;
    EXPECT_EQ(rig.store.benefactor(b).bytes_used(), frag) << b;
  }
  auto scrub = rig.store.manager().ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
}

TEST(CrashMatrix, EcRewriteCompletedOnBenefactorsAdoptsFragmentChecksums) {
  // The in-place analog of MidCompletionBatchAdoptsChecksumsFromReplicas:
  // a full-stripe rewrite replaced all six fragments on the benefactors,
  // then the completion record (the authoritative per-fragment checksums)
  // died with the crash.  Every stored fragment carries a write-time
  // checksum and none matches the durable stripe — the new generation is
  // complete, and recovery adopts it rather than destroying it.  The
  // adopted full-image authority must equal the checksum of the bytes the
  // client wrote (it is combined from the data fragments' checksums).
  EcRig rig;
  sim::VirtualClock clock(0);
  auto idr = rig.client().Create(clock, "/ec1");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kChunk).ok());
  const store::FileId id = *idr;
  const auto v1 = Pattern(92);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v1).ok());

  rig.store.wal()->CrashAfterAppends(1, 0);  // tear the next completion
  const auto v2 = Pattern(93);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v2).ok());
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.crc_adopted, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.replicas_dropped, 0u);

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), v2.data(), kChunk));

  auto loc = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  uint32_t auth = 0;
  ASSERT_TRUE(rig.store.manager().LookupChecksum(loc->key, &auth));
  EXPECT_EQ(auth, Crc32c(v2.data(), v2.size()));
}

// One WriteChunks window writing `chunks` whole, chunk i at index i; every
// chunk must commit.
Status WriteWindow(store::StoreClient& c, sim::VirtualClock& clock,
                   store::FileId id,
                   const std::vector<std::vector<uint8_t>>& chunks) {
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  std::vector<store::StoreClient::ChunkWrite> writes(chunks.size());
  for (uint32_t i = 0; i < chunks.size(); ++i) {
    writes[i].index = i;
    writes[i].dirty = &all;
    writes[i].image = {chunks[i].data(), kChunk};
  }
  Status s = c.WriteChunks(clock, id, writes);
  for (const auto& w : writes) {
    if (s.ok()) s = w.status;
  }
  return s;
}

TEST(CrashMatrix, EcWindowCompletionCarriesFragmentChecksums) {
  // A multi-stripe window commits with ONE completion record that carries
  // every stripe's fragment checksums next to its full-image checksum.  The
  // manager then dies with its next record torn.  Recovery replays the
  // window's record: the positional checksums are authoritative again with
  // nothing adopted from the benefactors, and a verify scrub still pins a
  // rotted fragment to its position.
  EcRig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kStripes = 4;
  auto idr = rig.client().Create(clock, "/ec2");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kStripes * kChunk).ok());
  const store::FileId id = *idr;
  std::vector<std::vector<uint8_t>> v1, v2;
  for (uint32_t i = 0; i < kStripes; ++i) {
    v1.push_back(Pattern(100 + i));
    v2.push_back(Pattern(110 + i));
  }
  ASSERT_TRUE(WriteWindow(rig.client(), clock, id, v1).ok());
  const uint64_t before = rig.store.wal()->appends();
  ASSERT_TRUE(WriteWindow(rig.client(), clock, id, v2).ok());
  EXPECT_EQ(rig.store.wal()->appends(), before + 1)
      << "one completion record closes the window";

  rig.store.wal()->CrashAfterAppends(1, 0);  // tear the next record
  (void)rig.client().Create(clock, "/ec2.next");
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.crc_adopted, 0u);
  EXPECT_EQ(report.replicas_dropped, 0u);

  Shadow shadow;
  shadow["/ec2"] = {id, v2};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));

  store::Manager& m = rig.store.manager();
  auto locs = m.GetReadLocations(clock, id, 0, kStripes);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < kStripes; ++i) {
    const store::ReadLocation& loc = (*locs)[i];
    uint32_t auth = 0;
    ASSERT_TRUE(m.LookupChecksum(loc.key, &auth)) << "stripe " << i;
    EXPECT_EQ(auth, Crc32c(v2[i].data(), kChunk)) << "stripe " << i;
    // Rot one fragment per stripe, at a different position each time.
    const int holder = loc.benefactors[i % loc.benefactors.size()];
    ASSERT_TRUE(rig.store.benefactor(static_cast<size_t>(holder))
                    .CorruptChunk(loc.key, 5, 0x01)
                    .ok());
  }
  const auto scrub = m.VerifyScrub(clock, 64_MiB);
  EXPECT_EQ(scrub.corrupt_found, kStripes);
}

// ---------------------------------------------------------------------------
// The lost shape: a chunk below `need` is an empty list, live and restarted
// ---------------------------------------------------------------------------

// Kill `victims`, let RepairReplication strip them, and check that the
// live manager's loss count equals a restarted manager's recount — one
// shape, counted once — with the survivors' reservations and data gone
// both before and after the restart.  `shadow` names the lost chunks with
// empty images.
template <typename AnyRig>
void ExpectLossSurvivesRestart(AnyRig& rig, sim::VirtualClock& clock,
                               const std::vector<int>& victims,
                               const Shadow& shadow, uint64_t want_lost) {
  for (int v : victims) {
    rig.store.benefactor(static_cast<size_t>(v)).Kill();
  }
  uint64_t lost = 0;
  ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, want_lost);
  const uint64_t live_lost = rig.store.manager().lost_chunks();
  EXPECT_EQ(live_lost, want_lost);
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/false));

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, live_lost);
  EXPECT_EQ(rig.store.manager().lost_chunks(), live_lost);
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/false));
}

TEST(LostShape, StripeWithThreeOfSixHoldersDeadMatchesAcrossRestart) {
  // RS(4,2) over six benefactors: every stripe spans all six, so three
  // dead holders leave each with three fragments — below k.
  EcRig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kStripes = 2;
  auto idr = rig.client().Create(clock, "/gone");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kStripes * kChunk).ok());
  ASSERT_TRUE(
      WriteWindow(rig.client(), clock, *idr, {Pattern(120), Pattern(121)})
          .ok());
  Shadow shadow;
  shadow["/gone"] = {*idr, {{}, {}}};
  ExpectLossSurvivesRestart(rig, clock, {0, 2, 4}, shadow, kStripes);
}

TEST(LostShape, ReplicaWithBothHoldersDeadMatchesAcrossRestart) {
  // Replication 2: both holders of chunk 0 die; the chunks sharing one
  // holder with it are re-replicated onto the survivors.
  Rig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 4;
  const store::FileId id = MakeFile(rig, clock, "/gone", kChunks);
  std::vector<std::vector<uint8_t>> data;
  for (uint32_t i = 0; i < kChunks; ++i) data.push_back(Pattern(130 + i));
  ASSERT_TRUE(WriteWindow(rig.client(), clock, id, data).ok());
  auto locs = rig.store.manager().GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const std::vector<int> victims = (*locs)[0].benefactors;
  ASSERT_EQ(victims.size(), 2u);
  Shadow shadow;
  shadow["/gone"] = {id, data};
  uint64_t want_lost = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    std::vector<int> holders = (*locs)[i].benefactors;
    std::sort(holders.begin(), holders.end());
    std::vector<int> dead = victims;
    std::sort(dead.begin(), dead.end());
    if (holders == dead) {
      shadow["/gone"].chunks[i].clear();
      ++want_lost;
    }
  }
  ExpectLossSurvivesRestart(rig, clock, victims, shadow, want_lost);
}

TEST(LostShape, QuarantineBelowKTakesTheEmptyList) {
  // Two dead holders leave a stripe with exactly k fragments; quarantining
  // one more crosses below k.  The quarantine reclaims the survivors and
  // publishes the empty list, which a restart counts once.
  EcRig rig;
  sim::VirtualClock clock(0);
  auto idr = rig.client().Create(clock, "/rot");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kChunk).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, *idr, 0, Pattern(140)).ok());
  rig.store.benefactor(0).Kill();
  rig.store.benefactor(2).Kill();
  store::Manager& m = rig.store.manager();
  uint64_t lost = 0;
  ASSERT_TRUE(m.RepairReplication(clock, &lost).ok());  // strips, no target
  ASSERT_EQ(lost, 0u);
  auto loc = m.GetReadLocation(clock, *idr, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 6u);
  m.ReportCorrupt(clock, loc->key, loc->benefactors[1]);
  EXPECT_EQ(m.lost_chunks(), 1u);

  // The client's cached location predates the quarantine, so the reads
  // below go through the restarted manager's fresh client stubs.
  Shadow shadow;
  shadow["/rot"] = {*idr, {{}}};
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/false));
  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/false));
}

// ---------------------------------------------------------------------------
// Quarantine ordering regression (log-before-publish)
// ---------------------------------------------------------------------------

TEST(Regression, QuarantineCrashNeverResurrectsTheCorruptReplica) {
  // A read detects a corrupt replica and quarantines it.  The WAL is
  // armed to freeze on the very next append — the quarantine's own
  // publish record, which tears mid-frame.  Because the quarantine logs
  // BEFORE it deletes the replica's data, the recovered store may at
  // worst still name the (now empty) benefactor as sparse — it can never
  // serve the corrupt bytes, and the good replica always survives.
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/q0", 1);

  auto loc = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int bad = loc->benefactors[0];  // reads try the list in order
  const int good = loc->benefactors[1];

  // Arm write-time bit rot on the first-tried replica only.
  rig.store.benefactor(static_cast<size_t>(bad)).CorruptAfterWrites(1, 0x0b5e);
  const auto data = Pattern(80);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, data).ok());
  rig.store.benefactor(static_cast<size_t>(bad)).CorruptAfterWrites(0, 0);
  ASSERT_GT(rig.store.benefactor(static_cast<size_t>(bad)).bitrot_flips(), 0u);

  rig.store.wal()->CrashAfterAppends(1, 0);  // tear the quarantine publish
  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));  // failover won
  EXPECT_EQ(rig.client().corrupt_failovers(), 1u);
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.chunks_lost, 0u);

  // The good replica must be in the recovered list; the quarantined one
  // (whose data the pre-crash manager already deleted) must not serve.
  auto after = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->benefactors.empty());
  EXPECT_TRUE(std::find(after->benefactors.begin(), after->benefactors.end(),
                        good) != after->benefactors.end());
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));

  // Heal back to full replication, then the whole sweep must pass.
  uint64_t lost = 0;
  ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, 0u);
  Shadow shadow;
  shadow["/q0"] = {id, {data}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(Regression, CompletionLogsOnlyDurableChecksumTransitions) {
  // Completions that change nothing durable (no checksum before or
  // after) must not append; setting and erasing the authoritative
  // checksum must, and the erase must survive a crash.
  Rig rig;
  sim::VirtualClock clock(0);
  store::Manager& m = rig.store.manager();
  auto id = m.CreateFile(clock, "/n0");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(m.Fallocate(clock, *id, kChunk).ok());
  auto loc = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc.ok());

  WalStore* wal = rig.store.wal();
  const uint64_t base = wal->appends();
  m.CompleteWrite(clock, loc->key, nullptr);  // never had a crc: no-op
  EXPECT_EQ(wal->appends(), base);

  uint32_t crc = 0x1234abcd;
  auto loc2 = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc2.ok());
  m.CompleteWrite(clock, loc2->key, &crc);  // crc set: logged
  EXPECT_EQ(wal->appends(), base + 1);

  auto loc3 = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc3.ok());
  m.CompleteWrite(clock, loc3->key, nullptr);  // crc ERASED: logged
  EXPECT_EQ(wal->appends(), base + 2);

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  uint32_t got = 0;
  EXPECT_FALSE(rig.store.manager().LookupChecksum(loc3->key, &got))
      << "the checksum erase must be durable";
}

TEST(Regression, RestartReclaimsOrphansAndFixesReservationDriftLikeScrub) {
  // The restart twin of the scrubber's drift test: the same stray stored
  // chunk and the same three chunk slots of phantom reservation, healed by
  // recovery's inventory sweep, which counts fixes in chunk slots as the
  // scrubber does.
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/d0", 4);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(WriteChunk(rig.client(), clock, id, i, Pattern(90 + i)).ok());
  }

  store::Benefactor& b = rig.store.benefactor(0);
  const uint64_t used_before = b.bytes_used();
  const store::ChunkKey bogus = Key(9999, 0, 0);
  Bitmap all(kChunk / rig.client().config().page_bytes);
  all.SetAll();
  std::vector<uint8_t> junk(kChunk, 0xab);
  sim::VirtualClock dc(0);
  ASSERT_TRUE(b.WritePages(dc, bogus, all, junk).ok());
  ASSERT_TRUE(b.Reserve(Key(9998, 0, 0), 3 * kChunk).ok());
  ASSERT_TRUE(b.HasChunk(bogus));

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.orphans_deleted, 1u);
  EXPECT_EQ(report.reservation_fixes, 3u);
  EXPECT_FALSE(b.HasChunk(bogus));
  EXPECT_EQ(b.bytes_used(), used_before);

  // Nothing is left for the scrubber.
  const store::Manager::ScrubResult scrub =
      rig.store.manager().ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
}

TEST(Regression, ErasureFileFirstFallocateAppendsOnlyItsExtend) {
  // The redundancy code belongs to the store, not the file: an
  // erasure-coded file's first Fallocate journals its placements, nothing
  // else.
  EcRig rig;
  sim::VirtualClock clock(0);
  auto id = rig.client().Create(clock, "/ec-extend");
  ASSERT_TRUE(id.ok());
  WalStore* wal = rig.store.wal();
  const uint64_t base = wal->appends();
  ASSERT_TRUE(rig.client().Fallocate(clock, *id, kChunk).ok());
  EXPECT_EQ(wal->appends(), base + 1);
  auto replay = wal->ReadForRecovery(clock);
  ASSERT_FALSE(replay.records.empty());
  EXPECT_EQ(replay.records.back().type, WalRecordType::kExtend);
}

// ---------------------------------------------------------------------------
// Seeded randomized kill schedule
// ---------------------------------------------------------------------------

struct InFlight {
  enum Kind { kNone, kCreate, kWrite, kLink, kUnlink } kind = kNone;
  std::string name;     // target file (kLink: the new checkpoint file)
  std::string src;      // kLink: the linked source file
  uint32_t chunks = 0;  // kCreate/kLink: expected chunk count
  uint32_t chunk = 0;   // kWrite: chunk index
  std::vector<uint8_t> old_bytes, new_bytes;  // kWrite
};

// Probe the one op that was in flight when the WAL froze and fold the
// observed outcome back into the shadow.  Acceptable outcomes are the old
// state, the new state, or (for write/unlink targets) lost chunks that
// refuse to read — anything else is a correctness failure.
void ProbeInFlight(Rig& rig, sim::VirtualClock& clock, Shadow& shadow,
                   const InFlight& op) {
  store::Manager& m = rig.store.manager();
  store::StoreClient& c = rig.client();
  std::vector<uint8_t> buf(kChunk);
  switch (op.kind) {
    case InFlight::kNone:
      break;
    case InFlight::kCreate: {
      auto id = m.LookupFile(clock, op.name);
      if (!id.ok()) break;  // the create never became durable
      auto info = m.Stat(clock, *id);
      ASSERT_TRUE(info.ok());
      if (info->num_chunks != op.chunks) {
        // Torn between create and extend: an empty file is the only other
        // durable state.  Drop it to keep the shadow simple.
        ASSERT_EQ(info->num_chunks, 0u) << op.name;
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
        break;
      }
      ShadowFile f;
      f.id = *id;
      for (uint32_t i = 0; i < op.chunks; ++i) {
        auto st = c.ReadChunk(clock, *id, i, buf);
        if (!st.ok()) {  // a lost never-written chunk: drop the file
          ASSERT_TRUE(c.Unlink(clock, *id).ok());
          return;
        }
        ASSERT_TRUE(std::all_of(buf.begin(), buf.end(),
                                [](uint8_t v) { return v == 0; }))
            << op.name << " chunk " << i << " has bytes before any write";
        f.chunks.emplace_back(buf);  // sparse chunks read zeros
      }
      shadow[op.name] = std::move(f);
      break;
    }
    case InFlight::kLink: {
      auto id = m.LookupFile(clock, op.name);
      if (!id.ok()) break;  // create or link never became durable
      auto info = m.Stat(clock, *id);
      ASSERT_TRUE(info.ok());
      if (info->num_chunks == op.chunks) {
        // The link was durable: it serves the source's committed bytes.
        ASSERT_TRUE(shadow.contains(op.src));
        shadow[op.name] = {*id, shadow[op.src].chunks};
      } else {
        ASSERT_EQ(info->num_chunks, 0u) << op.name;
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
      }
      break;
    }
    case InFlight::kWrite: {
      auto it = shadow.find(op.name);
      ASSERT_NE(it, shadow.end());
      auto st = c.ReadChunk(clock, it->second.id, op.chunk, buf);
      if (!st.ok()) {
        // The in-flight chunk came back with no recoverable replica:
        // surfaced as lost, never as wrong bytes.  Drop the file.
        ASSERT_TRUE(c.Unlink(clock, it->second.id).ok());
        shadow.erase(it);
        break;
      }
      const bool is_old =
          std::memcmp(buf.data(), op.old_bytes.data(), kChunk) == 0;
      const bool is_new =
          std::memcmp(buf.data(), op.new_bytes.data(), kChunk) == 0;
      ASSERT_TRUE(is_old || is_new)
          << op.name << " chunk " << op.chunk
          << " recovered to bytes that are neither the old nor new write";
      it->second.chunks[op.chunk] = is_new ? op.new_bytes : op.old_bytes;
      break;
    }
    case InFlight::kUnlink: {
      auto id = m.LookupFile(clock, op.name);
      if (id.ok()) {
        // Torn unlink: the file survives durably but the pre-crash manager
        // already freed its data — chunks either read the committed bytes
        // or are lost.  Either way, finish the unlink.
        const auto& f = shadow.find(op.name)->second;
        for (uint32_t i = 0; i < f.chunks.size(); ++i) {
          auto st = c.ReadChunk(clock, *id, i, buf);
          if (st.ok()) {
            ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
                << op.name << " chunk " << i;
          }
        }
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
      }
      shadow.erase(op.name);
      break;
    }
  }
}

void RunKillSchedule(uint64_t seed) {
  Rig rig([](store::StoreConfig& s) { s.meta_shards = 2; });
  sim::VirtualClock clock(0);
  Xoshiro256 rng(seed);
  Shadow shadow;
  uint64_t next_name = 0;
  uint64_t crashes = 0;
  constexpr int kOps = 120;
  constexpr size_t kMaxFiles = 4;
  constexpr uint32_t kMaxChunks = 3;

  auto arm = [&] {
    rig.store.wal()->CrashAfterAppends(6 + rng.NextBelow(25), rng.Next());
  };
  auto pick = [&]() -> std::string {
    auto it = shadow.begin();
    std::advance(it, static_cast<long>(rng.NextBelow(shadow.size())));
    return it->first;
  };

  arm();
  for (int op = 0; op < kOps; ++op) {
    InFlight fl;
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 20 || shadow.empty()) {
      if (shadow.size() < kMaxFiles) {
        fl.kind = InFlight::kCreate;
        fl.name = "/k" + std::to_string(next_name++);
        fl.chunks = 1 + static_cast<uint32_t>(rng.NextBelow(kMaxChunks));
        store::StoreClient& c = rig.client();
        auto id = c.Create(clock, fl.name);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.Fallocate(clock, *id, fl.chunks * kChunk).ok());
        if (!rig.store.wal()->crashed()) {
          ShadowFile f;
          f.id = *id;
          f.chunks.assign(fl.chunks, std::vector<uint8_t>(kChunk, 0));
          shadow[fl.name] = std::move(f);
        }
      }
    } else if (dice < 60) {
      fl.kind = InFlight::kWrite;
      fl.name = pick();
      ShadowFile& f = shadow[fl.name];
      fl.chunk = static_cast<uint32_t>(rng.NextBelow(f.chunks.size()));
      fl.old_bytes = f.chunks[fl.chunk];
      fl.new_bytes = Pattern(rng.Next());
      ASSERT_TRUE(
          WriteChunk(rig.client(), clock, f.id, fl.chunk, fl.new_bytes).ok());
      if (!rig.store.wal()->crashed()) f.chunks[fl.chunk] = fl.new_bytes;
    } else if (dice < 70) {
      // Checkpoint-link a file: shares every chunk handle, so later
      // writes to the source COW and crashes can land mid-swap.
      if (shadow.size() < kMaxFiles) {
        fl.kind = InFlight::kLink;
        fl.src = pick();
        fl.name = fl.src + ".l" + std::to_string(next_name++);
        fl.chunks = static_cast<uint32_t>(shadow[fl.src].chunks.size());
        store::StoreClient& c = rig.client();
        auto id = c.Create(clock, fl.name);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.LinkFileChunks(clock, *id, shadow[fl.src].id).ok());
        if (!rig.store.wal()->crashed()) {
          shadow[fl.name] = {*id, shadow[fl.src].chunks};
        }
      }
    } else if (dice < 85) {
      const std::string name = pick();
      ShadowFile& f = shadow[name];
      const uint32_t i = static_cast<uint32_t>(rng.NextBelow(f.chunks.size()));
      std::vector<uint8_t> buf(kChunk);
      ASSERT_TRUE(rig.client().ReadChunk(clock, f.id, i, buf).ok());
      ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
          << name << " chunk " << i << " at op " << op;
    } else {
      fl.kind = InFlight::kUnlink;
      fl.name = pick();
      ASSERT_TRUE(rig.client().Unlink(clock, shadow[fl.name].id).ok());
      if (!rig.store.wal()->crashed()) shadow.erase(fl.name);
    }

    if (op % 25 == 24 && !rig.store.wal()->crashed()) {
      rig.store.manager().Checkpoint(clock);
    }

    if (rig.store.wal()->crashed()) {
      ++crashes;
      // The shadow still reflects the last op completed BEFORE the freeze
      // (the crashing op's shadow update was skipped above); `fl` is the
      // single uncertain op.
      rig.store.KillManager();
      rig.store.RestartManager(clock);
      ASSERT_NO_FATAL_FAILURE(ProbeInFlight(rig, clock, shadow, fl))
          << "seed " << seed << " op " << op;
      // Every OTHER file must come back exactly; divergent replicas the
      // reconciliation dropped leave some chunks under-replicated, so
      // heal first, then demand the FULL invariant set.
      uint64_t lost = 0;
      ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost).ok());
      EXPECT_EQ(lost, 0u) << "seed " << seed << " op " << op;
      ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow))
          << "seed " << seed << " op " << op;
      ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, true))
          << "seed " << seed << " op " << op;
      arm();
    } else if (op % 10 == 9) {
      ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow)) << "op " << op;
      ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, true))
          << "op " << op;
    }
  }

  EXPECT_GE(crashes, 2u) << "seed " << seed
                         << ": the kill schedule never actually fired";

  // Teardown: the store must drain to empty through the fresh manager.
  rig.store.wal()->CrashAfterAppends(0, 0);  // disarm
  while (!shadow.empty()) {
    ASSERT_TRUE(rig.client().Unlink(clock, shadow.begin()->second.id).ok());
    shadow.erase(shadow.begin());
  }
  for (int b = 0; b < kBenefactors; ++b) {
    store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
    EXPECT_EQ(ben.num_chunks(), 0u) << b;
    EXPECT_EQ(ben.bytes_used(), 0u) << b;
  }
}

TEST(CrashSchedule, SeededRandomKillsRecoverEveryTime) {
  RunKillSchedule(0x5eed0001);
}
TEST(CrashSchedule, SeededRandomKillsRecoverEveryTimeSecondSeed) {
  RunKillSchedule(0xfeedbee5);
}
TEST(CrashSchedule, SeededRandomKillsRecoverEveryTimeThirdSeed) {
  RunKillSchedule(42);
}

// ---------------------------------------------------------------------------
// wal=off identity
// ---------------------------------------------------------------------------

struct IdentityRun {
  int64_t final_ns = 0;
  uint64_t appends = 0;
  std::map<std::string, std::vector<std::vector<uint8_t>>> bytes;
};

IdentityRun RunIdentitySequence(bool wal_on) {
  IdentityRun out;
  Rig rig([wal_on](store::StoreConfig& s) { s.wal = wal_on; });
  EXPECT_EQ(rig.store.wal() != nullptr, wal_on);
  sim::VirtualClock clock(0);
  store::StoreClient& c = rig.client();
  Xoshiro256 rng(0x1de27171);

  std::map<std::string, store::FileId> ids;
  std::map<std::string, std::vector<std::vector<uint8_t>>> files;
  for (int f = 0; f < 3; ++f) {
    const std::string name = "/id" + std::to_string(f);
    auto id = c.Create(clock, name);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(clock, *id, 2 * kChunk).ok());
    ids[name] = *id;
    files[name] = {Pattern(rng.Next()), Pattern(rng.Next())};
    for (uint32_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(WriteChunk(c, clock, *id, i, files[name][i]).ok());
    }
  }
  // A link + COW overwrite + an unlink, so the sequence touches every
  // record-producing path.
  auto link = c.Create(clock, "/id0.ckpt");
  EXPECT_TRUE(link.ok());
  EXPECT_TRUE(c.LinkFileChunks(clock, *link, ids["/id0"]).ok());
  ids["/id0.ckpt"] = *link;
  files["/id0.ckpt"] = files["/id0"];
  files["/id0"][0] = Pattern(rng.Next());
  EXPECT_TRUE(WriteChunk(c, clock, ids["/id0"], 0, files["/id0"][0]).ok());
  EXPECT_TRUE(c.Unlink(clock, ids["/id2"]).ok());
  ids.erase("/id2");
  files.erase("/id2");

  std::vector<uint8_t> buf(kChunk);
  for (const auto& [name, chunks] : files) {
    auto& got = out.bytes[name];
    for (uint32_t i = 0; i < chunks.size(); ++i) {
      EXPECT_TRUE(c.ReadChunk(clock, ids[name], i, buf).ok());
      got.emplace_back(buf);
    }
  }
  out.final_ns = clock.now();
  out.appends = wal_on ? rig.store.wal()->appends() : 0;
  return out;
}

TEST(WalOffIdentity, WalOffMatchesWalOnBytesAndCostsStrictlyLess) {
  const IdentityRun off = RunIdentitySequence(false);
  const IdentityRun off2 = RunIdentitySequence(false);
  const IdentityRun on = RunIdentitySequence(true);

  // wal=off is deterministic and bit-identical to itself...
  EXPECT_EQ(off.final_ns, off2.final_ns);
  EXPECT_EQ(off.bytes, off2.bytes);
  // ...and the WAL changes durability cost, never content.
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_GT(on.appends, 0u);
  EXPECT_GT(on.final_ns, off.final_ns)
      << "metadata durability must have a nonzero virtual-time cost";
}

}  // namespace
}  // namespace nvm
