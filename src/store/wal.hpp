// Write-ahead log + checkpoint store for the manager metadata plane.
//
// The WalStore is the manager's *durable* half: it is owned by the
// AggregateStore, outside the Manager object, so it survives a manager
// crash (AggregateStore::KillManager / RestartManager) exactly like an
// on-SSD metadata partition would.  The manager appends one framed record
// ahead of every durable metadata mutation — log-before-publish — and
// periodically serialises the whole metadata plane into a checkpoint that
// supersedes the log prefix it covers (store/recovery.cpp).
//
// Record framing (little-endian):
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//   payload = u64 seq | u8 type | type-specific body
//
// A reader stops at the first truncated or CRC-failing record (the torn
// tail): everything before it is the durable prefix, everything at or
// after it died with the crash.  Records append to fixed-size segments
// (`wal_segment_bytes`); a checkpoint covering sequence S deletes every
// segment whose records all have seq <= S (checkpoint-supersedes-log).
// Checkpoints alternate between two slots and are themselves CRC-framed,
// so a crash mid-checkpoint tears only the slot being written and
// recovery falls back to the previous checkpoint plus a longer replay.
//
// Every append, checkpoint write and recovery read charges a manager-
// local sim::SsdDevice (profile per the `wal_device` knob), so metadata
// durability has a virtual-time cost that shows up in benchmark results.
//
// Crash injection freezes the durable image mid-write — the torn tail is
// real bytes, not a flag.  The in-memory manager keeps running after the
// freeze, exactly like a machine whose log device died under it, until
// the test harness notices `crashed()` and kills/restarts the manager.
// Appends after the freeze are silent no-ops (they never reach the
// device), which is what makes the post-crash divergence between RAM and
// durable state real and testable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/device.hpp"
#include "store/types.hpp"

namespace nvm::store {

// --- little-endian wire helpers, shared with the checkpoint encoder ---
namespace wire {

inline void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}
inline void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}
inline void PutString(std::string& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}
inline void PutKey(std::string& out, const ChunkKey& k) {
  PutU64(out, k.origin_file);
  PutU32(out, k.index);
  PutU32(out, k.version);
}
inline void PutReplicas(std::string& out, const std::vector<int>& r) {
  PutU32(out, static_cast<uint32_t>(r.size()));
  for (int b : r) PutU32(out, static_cast<uint32_t>(b));
}

// Bounds-checked sequential reader.  Every getter degrades to zero values
// once `ok` drops; callers check `ok` at the end (record payloads are CRC
// guarded, so a failing read means a bug, not torn media).
struct Reader {
  const char* p = nullptr;
  size_t n = 0;
  bool ok = true;

  Reader(const char* data, size_t size) : p(data), n(size) {}

  uint8_t U8() {
    if (n < 1) {
      ok = false;
      return 0;
    }
    uint8_t v = static_cast<uint8_t>(*p);
    ++p;
    --n;
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }
  std::string Str() {
    const uint32_t len = U32();
    if (!ok || n < len) {
      ok = false;
      return {};
    }
    std::string s(p, len);
    p += len;
    n -= len;
    return s;
  }
  ChunkKey Key() {
    ChunkKey k;
    k.origin_file = U64();
    k.index = U32();
    k.version = U32();
    return k;
  }
  std::vector<int> Replicas() {
    const uint32_t count = U32();
    if (!ok || count > n) {  // each entry is >= 1 byte: cheap sanity bound
      ok = false;
      return {};
    }
    std::vector<int> r;
    r.reserve(count);
    for (uint32_t i = 0; i < count && ok; ++i) {
      r.push_back(static_cast<int>(U32()));
    }
    return r;
  }
};

}  // namespace wire

// One durable metadata mutation.  The record set mirrors the manager's
// publish points; everything NOT logged (reservations, repair fences and
// epochs, in-flight repair targets, verify cursors) is either volatile by
// design or rebuilt from benefactor inventories during recovery.  The
// redundancy code is not logged either: it is the store's, and a
// restarted manager rebuilds it from the same StoreConfig.
enum class WalRecordType : uint8_t {
  kCreateFile = 1,  // file_id, name
  kExtend = 2,      // fallocate: new size + the chunk placements it made
  kCowSwap = 3,     // COW prepare: slot moves old_key -> key (replicas)
  kComplete = 4,    // write completions: authoritative checksum updates
  kReplicas = 5,    // replica-list publish: repair commit / quarantine /
                    // dead-strip / decommission / lost (empty list)
  kUnlink = 6,      // file_id
  kLink = 7,        // checkpoint linking: file_id (dst) takes src_file's refs
};

struct WalPlacement {
  uint32_t slot = 0;  // chunk index within the file
  ChunkKey key;
  std::vector<int> replicas;
};

struct WalCompletion {
  ChunkKey key;
  bool has_crc = false;  // false: the completion ERASED the authoritative crc
  uint32_t crc = 0;
  // Erasure-coded chunks: per-fragment CRC32Cs (k+m entries, positional);
  // empty for replicated chunks.  Repair and scrub verify individual
  // fragments against these, so they are journaled with the completion.
  std::vector<uint32_t> frag_crcs;
};

struct WalRecord {
  uint64_t seq = 0;  // assigned by WalStore::Append
  WalRecordType type = WalRecordType::kCreateFile;
  FileId file_id = kInvalidFileId;
  FileId src_file = kInvalidFileId;       // kLink: source file
  std::string name;                       // kCreateFile
  uint64_t size = 0;                      // kExtend: logical size after
  uint32_t slot = 0;                      // kCowSwap: file slot index
  ChunkKey key;                           // kCowSwap (fresh) / kReplicas
  ChunkKey old_key;                       // kCowSwap: replaced version
  std::vector<int> replicas;              // kCowSwap / kReplicas
  std::vector<WalPlacement> placements;   // kExtend
  std::vector<WalCompletion> completions; // kComplete
};

// Named crash points of the crash-schedule harness: the manager calls
// TriggerPoint at each of these; an armed WalStore freezes its durable
// image there (see CrashAtPoint).
enum class CrashPoint : uint8_t {
  kNone = 0,
  kMidBatch,         // CompleteWrites entry (every completion, one-chunk
                     // windows too), before its record lands
  kMidCheckpoint,    // halfway through the checkpoint blob (torn slot)
  kMidRepairCommit,  // CommitRepair entry, before its publish record
  kMidScrub,         // ScrubOnce, before its inventory sweep
};

class WalStore {
 public:
  explicit WalStore(const StoreConfig& config);

  // --- append path (manager side; called under metadata mutexes) ---

  // Assign the next sequence number, frame and append the record, and
  // charge the log-device write to `clock`.  After a crash trigger fired
  // the append is a silent no-op: the durable image is frozen while the
  // in-memory manager keeps going.  The WAL mutex is the INNERMOST lock
  // of the metadata plane — Append is called with shard/file/ns mutexes
  // held and never takes any of them.
  void Append(sim::VirtualClock& clock, WalRecord rec);

  // Sequence number of the last record handed out (0 before the first).
  uint64_t last_seq() const;

  // --- checkpoint ---

  // Install `blob` (already serialised manager state covering every
  // record with seq <= covered_seq) into the inactive checkpoint slot,
  // charge the device write, then drop every WAL segment the checkpoint
  // supersedes.  Armed kMidCheckpoint tears the blob halfway and freezes;
  // the previously installed checkpoint stays intact.
  void WriteCheckpoint(sim::VirtualClock& clock, std::string blob,
                       uint64_t covered_seq);

  // --- recovery read path ---

  struct Replay {
    std::string checkpoint;     // newest valid checkpoint blob (may be empty)
    bool used_checkpoint = false;
    uint64_t covered_seq = 0;   // seq the checkpoint covers (0 = none)
    std::vector<WalRecord> records;  // decoded records with seq > covered_seq
    bool torn_tail = false;     // replay stopped at a truncated/bad record
  };
  // Read both checkpoint slots and every live segment off the device
  // (charging `clock`), pick the newest valid checkpoint, and decode the
  // records after it up to the torn tail.
  Replay ReadForRecovery(sim::VirtualClock& clock);

  // Reopen after a manager restart: clear crash state, truncate the torn
  // tail (recovery already decided it is not part of the durable prefix)
  // and position the next sequence number after the last durable record.
  void Reopen();

  // --- crash-schedule fault injection ---

  // Freeze the durable image after `n` more appends.  seed != 0 draws the
  // trigger uniformly from [1, n] (deterministic splitmix64, mirroring
  // Benefactor::CorruptAfterWrites); seed == 0 uses exactly n.  The
  // triggering append itself tears mid-record.  0 disarms.
  void CrashAfterAppends(uint64_t n, uint64_t seed);
  // Freeze at the next named crash point instead.
  void CrashAtPoint(CrashPoint point);
  // Manager-side hook at each named point; freezes if `point` is armed.
  void TriggerPoint(CrashPoint point);
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // --- introspection / test hooks ---

  size_t num_segments() const;
  uint64_t wal_bytes() const;  // bytes across live segments
  uint64_t appends() const { return appends_.value(); }
  // Appends silently dropped after the freeze (the RAM/durable divergence).
  uint64_t dropped_appends() const { return dropped_.value(); }
  uint64_t checkpoints_written() const { return checkpoints_.value(); }
  // Whether the most recent Reopen() physically cut a torn log tail.
  // Reopen truncates before Recover reads, so without this memory the
  // recovery report could never surface that a suffix was discarded.
  bool last_reopen_truncated() const;
  sim::SsdDevice& device() { return *device_; }

  // Tear the log end: drop the last `n` stored bytes (models a torn
  // final sector).
  void TruncateTailBytes(uint64_t n);
  // Flip one stored byte `back` bytes from the log end (models media
  // corruption inside a record).
  void CorruptLogByte(uint64_t back, uint8_t xor_mask);

 private:
  struct Segment {
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    std::string bytes;
  };
  struct CheckpointSlot {
    bool present = false;
    uint64_t covered_seq = 0;
    uint32_t crc = 0;       // crc32c of the full intended blob
    uint64_t len = 0;       // full intended blob length
    std::string bytes;      // possibly shorter than len after a torn write
  };

  static const sim::DeviceProfile& ProfileFor(const std::string& name);
  bool SlotValid(const CheckpointSlot& s) const;
  // Append framed bytes to the open segment, rotating first if full
  // (mu_ held).
  void AppendBytesLocked(const std::string& framed, uint64_t seq);
  void FreezeLocked();

  const StoreConfig config_;
  std::unique_ptr<sim::SsdDevice> device_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  CheckpointSlot slots_[2];
  int next_slot_ = 0;       // slot the next checkpoint overwrites
  uint64_t next_seq_ = 1;
  uint64_t append_offset_ = 0;  // log-structured device address cursor

  // Crash-schedule state (mu_ held).
  uint64_t crash_countdown_ = 0;  // appends until the freeze; 0 = disarmed
  CrashPoint crash_point_ = CrashPoint::kNone;
  std::atomic<bool> crashed_{false};
  bool last_reopen_truncated_ = false;  // see last_reopen_truncated()

  Counter appends_;
  Counter dropped_;
  Counter checkpoints_;
};

}  // namespace nvm::store
