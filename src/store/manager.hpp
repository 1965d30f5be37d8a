// Manager process of the aggregate NVM store.
//
// The manager owns all metadata: the benefactor registry (with liveness),
// per-file chunk maps, striping, space accounting, chunk refcounts (for
// checkpoint linking), and copy-on-write version management, all under
// the store's one redundancy code (code(), built from the config).  Data never
// flows through the manager — clients look up locations here and then talk
// to benefactors directly, exactly as in the paper.
//
// Concurrency model (the metadata plane is sharded; see DESIGN.md
// "metadata sharding & lock-free resolves"):
//
//   * The chunk namespace is partitioned into config.meta_shards
//     independent shards by splitmix64 hash of ChunkKey.  Each MetaShard
//     owns its slice of the chunk table (location lists, refcounts, repair
//     epochs, checksums), the in-flight-writer fences, the reserved repair
//     targets and the verify-scrub cursor, all behind its own mutex.
//   * Every chunk has ONE authoritative home — a ChunkHandle shared by all
//     referencing file slots — and its replica list is an atomically-
//     swapped immutable snapshot: stores happen only under the owning
//     shard's mutex (publish-on-commit), loads are lock-free.  The read-
//     resolve fast path (GetReadLocations) therefore takes NO shard lock.
//   * Cross-shard lock sets (CompleteWrites over a flush window, the COW
//     old/new pair of a prepare, the scrubber's stop-the-world pass) are
//     always acquired in ascending shard-index order — the same deadlock-
//     free discipline as ChunkCache::FlushFileWindow.
//   * Lock hierarchy (acquire strictly left to right; ns_mu_ is never held
//     across a file or shard acquisition):
//       file mu  ->  shard mu (ascending)  ->  reg_mu_ / benefactor
//     ns_mu_ guards only the name map and file table and is released
//     before any other lock is taken (CreateFile additionally takes
//     reg_mu_ shared inside it, which nothing else nests the other way).
//
// Every operation charges a modelled metadata service time to the caller's
// virtual clock via a per-shard sim::Resource lane (file-addressed ops use
// the file's lane, key-addressed ops the key's shard lane), so manager
// contention shows up in benchmark results — and stops being a single
// serial timeline once meta_shards > 1.  With meta_shards == 1 every op
// lands on lane 0 and the manager behaves exactly like the pre-shard,
// single-mutex implementation.  Network cost for reaching the manager is
// charged by StoreClient, not here.
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "net/cluster.hpp"
#include "sim/resource.hpp"
#include "store/benefactor.hpp"
#include "store/placement.hpp"
#include "store/recovery.hpp"
#include "store/types.hpp"
#include "store/wal.hpp"

namespace nvm::store {

class MaintenanceService;

// Location info for reading one chunk.  In a replicated store
// `benefactors` lists replicas primary-first; in an erasure-coded store it
// is the POSITIONAL fragment map — length k+m, entry i holds fragment i's
// benefactor id, -1 for a missing fragment.
struct ReadLocation {
  ChunkKey key;
  std::vector<int> benefactors;  // replicas, primary first (EC: positional)
};

// One item of a batched read or write: a member of one location list — a
// replica, or the fragment at one stripe position.  A benefactor stores a
// member under the chunk's key.
struct RunMember {
  size_t loc = 0;       // index into the grouped location span
  uint32_t member = 0;  // position in that location's benefactor list
};

// One benefactor's slice of a batch: the members it holds — the unit of
// one Benefactor::ReadChunkRun or WriteChunkRun RPC.
struct BenefactorRun {
  int benefactor = -1;
  std::vector<RunMember> items;  // input order
};

// Location info for writing one chunk.  If `needs_clone` is set the chunk
// is shared with a checkpoint: the client must ask the (first) benefactor
// to CloneChunk(clone_from -> key) before writing.
struct WriteLocation {
  ChunkKey key;
  std::vector<int> benefactors;  // EC: positional fragment map, -1 missing
  bool needs_clone = false;
  ChunkKey clone_from;
  // Erasure stripe: the positional fragment checksums of the encoded
  // stripe, filled in by the writer before the completion records them
  // next to the full-image checksum.  Empty otherwise.
  std::vector<uint32_t> frag_crcs;
};

class Manager {
 public:
  // `wal` (optional, owned by the AggregateStore so it survives a manager
  // crash): when non-null every durable metadata mutation appends a
  // record there BEFORE publishing in memory, and Checkpoint()/Recover()
  // become functional.  Null keeps the manager byte- and virtual-time-
  // identical to the WAL-less implementation.
  Manager(net::Cluster& cluster, int manager_node, StoreConfig config,
          WalStore* wal = nullptr);

  const StoreConfig& config() const { return config_; }
  int node_id() const { return manager_node_; }

  // How a chunk's location list protects it: the one redundancy rule (see
  // the repair engine below) that every health, placement, planning and
  // read decision reads.  The store has one code, built from the config:
  // a replicated chunk is the code whose members are whole chunks,
  // `replication` of them, kept compact, any one suffices; an RS(k,m)
  // stripe has k+m fixed positions of one fragment each, on distinct
  // nodes; a lost member leaves -1 and any k suffice.
  struct Redundancy {
    size_t width = 0;           // members of a healthy chunk
    size_t need = 0;            // members a read needs
    uint64_t member_bytes = 0;  // bytes one member stores and reserves
    bool positional = false;    // a dropped member leaves a hole (-1)
    bool spread = false;        // members on distinct nodes
    uint32_t zero_crc = 0;      // checksum of one all-zero member

    static size_t Listed(std::span<const int> list) {
      return static_cast<size_t>(std::count_if(
          list.begin(), list.end(), [](int bid) { return bid >= 0; }));
    }
    bool Lost(std::span<const int> list) const { return Listed(list) < need; }
    bool Healed(std::span<const int> list) const {
      return Listed(list) >= width;
    }
    bool Degraded(std::span<const int> list,
                  const std::vector<Benefactor*>& bens) const {
      size_t listed = 0;
      size_t live = 0;
      for (int bid : list) {
        if (bid < 0) continue;
        ++listed;
        if (bens[static_cast<size_t>(bid)]->alive()) ++live;
      }
      return listed < width || live < list.size();
    }
    // A drop that took `list` below `need` (`before` was not) lost the
    // chunk: its survivors can neither serve nor rebuild it, so they join
    // `dropped` and `list` takes the one lost shape, the empty list that
    // a replicated loss has.  Returns whether this drop crossed.
    bool LoseBelowNeed(std::span<const int> before, std::vector<int>& list,
                       std::vector<int>& dropped) const {
      if (!Lost(list) || Lost(before)) return false;
      for (int bid : list) {
        if (bid >= 0) dropped.push_back(bid);
      }
      list.clear();
      return true;
    }
    // Drop every listed member `gone(bid, index)` selects: a positional
    // code leaves a hole in place, a compact one closes the gap.  Returns
    // the dropped ids in list order.
    template <typename Gone>
    std::vector<int> Drop(std::vector<int>& list, Gone gone) const {
      std::vector<int> dropped;
      size_t out = 0;
      for (size_t i = 0; i < list.size(); ++i) {
        const int bid = list[i];
        if (bid >= 0 && gone(bid, i)) {
          dropped.push_back(bid);
          if (positional) list[out++] = -1;
        } else {
          list[out++] = bid;
        }
      }
      list.resize(out);
      return dropped;
    }
    // The one reserve walk: take `ranked` in order, skip a benefactor
    // whose node already hosts a member when the code spreads
    // (`used_nodes`, which every pick extends), reserve member `key` there
    // (refused where a member of `key` is already held) and stop at `n`
    // picks.
    std::vector<int> Reserve(const std::vector<Benefactor*>& bens,
                             const ChunkKey& key,
                             const std::vector<int>& ranked, size_t n,
                             std::vector<int>& used_nodes) const;
    // The slice of the chunk member `member` holds, as one member_bytes
    // span of its image: a replica holds slice 0 of 1, stripe position
    // p < k holds slice p, and parity holds none (-1).
    int Slice(size_t member) const {
      return !positional ? 0 : member < need ? static_cast<int>(member) : -1;
    }
  };
  const Redundancy& code() const { return code_; }
  size_t meta_shards() const { return meta_shards_; }
  WalStore* wal() { return wal_; }

  // --- grouping helpers (no locks; they read only the redundancy code) ---
  //
  // Both operate on already-resolved location spans, so grouping a batch
  // for the run RPCs never re-enters any manager lock.  A run item is a
  // member of a location list (see the redundancy rule below): a replica
  // or one stripe fragment.  Runs are ordered by first appearance and
  // keep input order (location, then position) within each run, so the
  // result is deterministic for a given input.

  // Group the members a read needs: the first `need` listed members of
  // each location — the primary replica, or the first k listed fragments
  // of a stripe (data positions first, parity filling holes).  A location
  // with fewer than `need` listed members (unresolved, EOF, or lost) is
  // skipped — callers handle those through the per-chunk path.
  std::vector<BenefactorRun> GroupByPrimaryBenefactor(
      std::span<const ReadLocation> locs) const;

  // Group every listed member of each write location: writes must reach
  // every replica or fragment, reads only `need` of them.
  std::vector<BenefactorRun> GroupByBenefactor(
      std::span<const WriteLocation> locs) const;

  // --- benefactor registry ---

  // Takes shared ownership is not needed: benefactors outlive the manager
  // in AggregateStore (see store.hpp); raw pointers keep wiring simple.
  int RegisterBenefactor(Benefactor* benefactor);
  Benefactor* benefactor(int id);
  size_t num_benefactors() const;
  std::vector<int> AliveBenefactors() const;
  // Client-observed failure report.
  void MarkDead(int id);
  // Heartbeat sweep: polls every registered benefactor.  The pings fork a
  // clock per benefactor and join at the max, so the round-trips overlap
  // in flight (the manager CPU still serialises the sends through the
  // per-lane service resources) instead of queueing N full RTTs
  // end-to-end.  Returns the number found alive; `alive_out`, when given,
  // receives one flag per benefactor id.
  size_t CheckLiveness(sim::VirtualClock& clock,
                       std::vector<char>* alive_out = nullptr);
  // Snapshot per-benefactor placement state for the engine.  `suspected`
  // may be null (no suspicion signal); wear fractions are read only when
  // placement_wear_weight > 0.  Called with the chunk's shard mutex held,
  // like the capacity reads it replaces.
  std::vector<PlacementCandidate> BuildPlacementCandidates(
      const std::vector<Benefactor*>& bens,
      const std::vector<char>* suspected) const;

  // --- incremental repair engine (store/repair.cpp) ---
  //
  // Replicated chunks and erasure stripes follow one redundancy rule.  A
  // chunk's location list has `width` members (replication copies, or k+m
  // fragments) and any `need` of them suffice (1, or k).  A member is
  // listed when its id is >= 0 and live when its holder is also alive.
  // The chunk is lost below `need` listed members and healed at `width`;
  // it is degraded when fewer than `width` are listed or any entry is a
  // hole (-1) or a dead holder.
  //
  // A repair is split into three steps so chunk data never moves while any
  // shard mutex is held:
  //   PlanRepairs        (shard mu)  snapshot survivors, reclaim dead
  //                                  replicas, reserve targets
  //   ExecuteRepairPlan  (none)      move the missing members: copy a
  //                                  verified holder of the same bytes, or
  //                                  rebuild from `need` verified members
  //   CommitRepair       (shard mu)  re-validate, publish the new replica
  //                                  list — or undo if the chunk changed
  // RepairReplication below and the background MaintenanceService are both
  // thin drivers over these steps; Decommission moves each drained member
  // through the same mover.

  // One chunk's repair: the survivors after the dead members were
  // stripped, and width - live reserved targets.  A drain's plan (see
  // Decommission) keeps the leaving holder listed and has one target, at
  // that holder's position.
  struct RepairPlan {
    ChunkKey key;
    // The location list: replicas primary first, or an erasure stripe's
    // POSITIONAL fragment map (length k+m, -1 = missing).
    std::vector<int> survivors;
    std::vector<int> targets;    // reserved destinations
    // The list position `targets[i]` fills — a stripe's hole, past the end
    // of a replica list, or a drained holder's — and, when the chunk has
    // checksums recorded, the one it must store there (empty otherwise).
    // Snapshot at plan time: a source is trusted only if its own read
    // verification passed.
    std::vector<uint32_t> target_positions;
    std::vector<uint32_t> target_crcs;
    uint64_t epoch = 0;          // repair epoch of `key` at plan time
    bool incomplete = false;     // alive capacity too low to fully heal
  };
  struct RepairOutcome {
    RepairPlan plan;
    std::vector<int> written;  // targets now holding the data
    std::vector<int> failed;   // targets that died mid-copy
    // Survivors whose bytes failed checksum verification during the copy:
    // CommitRepair quarantines them (strips the replica, requeues).
    std::vector<int> corrupt_sources;
  };

  // Every distinct chunk key that is degraded but not lost under the rule
  // above — ScrubOnce's requeue pass and RepairReplication.  Shards are
  // visited one at a time; the result is sorted by key so it does not
  // depend on the shard count or hash iteration order.
  std::vector<ChunkKey> CollectUnderReplicated() const;
  // Every distinct chunk key with a replica on benefactor `id` (sorted).
  std::vector<ChunkKey> ChunksWithReplicasOn(int id) const;
  // Build repair plans for `keys`, each under its shard's mutex: strip
  // dead members from the metadata immediately (readers stop trying
  // them), reclaim them, and reserve width - live targets on the
  // least-loaded alive benefactors that hold no member of the key
  // (capacity-aware placement).  A chunk the strip leaves below `need` is
  // counted in *lost (once, when the strip crosses the threshold), its
  // surviving members are reclaimed too, and it takes the lost shape —
  // the empty list — with no plan; stale keys (freed or already healthy)
  // are skipped.  `clock` pays the WAL appends (dead-strip publishes are
  // logged).
  std::vector<RepairPlan> PlanRepairs(sim::VirtualClock& clock,
                                      std::span<const ChunkKey> keys,
                                      uint64_t* lost = nullptr);
  // The member mover, one rule for both codes, charging `clock`.  If a
  // live holder of the very bytes the targets need verifies — any replica
  // in list order, after the holder a drain replaces — the targets copy
  // from it.  Otherwise `need` verified members are fetched to the
  // manager in rounds (a round forks need - good fetches; a failure seen
  // at its join pulls the next member into the following round), decoded
  // and the missing members re-encoded.  Then every target forks from
  // that point and admits, ships and writes its whole member with its
  // checksum; the targets join at the max.  Called WITHOUT any shard lock
  // by the repair drivers — this is the slow part.
  RepairOutcome ExecuteRepairPlan(sim::VirtualClock& clock,
                                  const RepairPlan& plan);
  // Publish the outcome under the key's shard mutex.  If the chunk was
  // rewritten or freed while the copy ran (its repair epoch moved, its
  // replica list changed, or a prepared write is still in flight — the
  // copy may miss bytes that land on a survivor only), the copied bytes
  // are stale: every target is undone and *requeue set so the caller can
  // retry.  *requeue is also set when fewer targets were published than
  // planned (no readable survivor, or a target died mid-copy) so the
  // chunk does not silently leave the repair queue while degraded.
  // Returns replicas recreated.
  uint64_t CommitRepair(sim::VirtualClock& clock,
                        const RepairOutcome& outcome,
                        bool* requeue = nullptr);

  // Repair replication after failures: for every chunk that lost replicas
  // to dead benefactors, re-copy the data from a surviving replica onto
  // healthy benefactors until the configured replication factor is met
  // again.  Synchronous, unthrottled driver over the engine above.
  // Returns the number of replicas recreated; chunks with no surviving
  // replica are counted in *lost (and in lost_chunks()).
  StatusOr<uint64_t> RepairReplication(sim::VirtualClock& clock,
                                       uint64_t* lost = nullptr);

  // One scrub pass (store/scrub.cpp) reconciling metadata against
  // benefactor state: the inventory sweep, with EVERY shard mutex held
  // (ascending — a stop-the-world metadata pass, no data transfers),
  // reclaims members no list names any more (orphans of failed repairs or
  // unlinks against dead benefactors, leaked reservations) and re-reserves
  // listed members whose reservation is gone; then, with the locks
  // dropped, CollectUnderReplicated reports degraded chunks for
  // re-queueing.  Holding all shards makes the comparison race-free:
  // reservations only move under some shard mutex.  In-flight repair
  // targets (planned, not yet committed) are exempt — a concurrent
  // repair's copy legitimately stores data the lists do not name yet.
  struct ScrubResult {
    uint64_t orphans_deleted = 0;
    uint64_t reservation_fixes = 0;  // chunk-slots corrected
    std::vector<ChunkKey> under_replicated;
  };
  ScrubResult ScrubOnce(sim::VirtualClock& clock);

  // --- checksum verification scrub (store/scrub.cpp) ---
  //
  // Incremental sweep verifying stored chunk contents against the
  // manager's authoritative checksums, at most `max_bytes` of chunk data
  // per call; a per-shard cursor (shards visited in index order, sorted
  // keys within each shard) makes successive calls cover the whole store.
  // Three phases so no chunk data moves while any shard mutex is held:
  // snapshot a candidate batch (one shard mutex at a time), VerifyChunk
  // each replica benefactor-locally (no locks — only the verdict crosses
  // the network), then quarantine confirmed mismatches (shard mutex,
  // re-validating that no write or repair raced the verification).
  struct VerifyResult {
    uint64_t chunks_checked = 0;   // distinct keys visited
    uint64_t bytes_checked = 0;    // chunk bytes read + checksummed
    uint64_t corrupt_found = 0;    // replicas quarantined
    uint64_t skipped = 0;          // mismatches dropped: raced a write/repair
    bool wrapped = false;          // cursor passed the end of the keyspace
    // Quarantined keys that still have a verified survivor — hand these to
    // the repair queue for re-replication.
    std::vector<ChunkKey> quarantined;
  };
  VerifyResult VerifyScrub(sim::VirtualClock& clock, uint64_t max_bytes);

  // A reader saw a checksum mismatch on (key, bid): quarantine that
  // replica (strip it from the list, drop its data and space) and, when a
  // survivor remains, queue a repair.  Never called with a shard mutex
  // held.  `clock` pays the quarantine's WAL append.
  void ReportCorrupt(sim::VirtualClock& clock, const ChunkKey& key, int bid);

  // Corrupt replicas detected (read path + scrub, cumulative) and corrupt
  // chunks healed back to full replication by the repair engine.
  uint64_t corrupt_detected() const { return corrupt_detected_.value(); }
  uint64_t corrupt_repaired() const { return corrupt_repaired_.value(); }
  // Test hook: the authoritative checksum recorded for `key`, if any.
  bool LookupChecksum(const ChunkKey& key, uint32_t* crc) const;

  // Chunks that fell below `need` listed members (cumulative): every
  // replica gone, or fewer than k fragments of a stripe — below that no
  // reconstruction exists.
  uint64_t lost_chunks() const { return lost_chunks_.value(); }

  // --- erasure-coding accounting ---
  // Reads served by k-of-(k+m) reconstruction instead of the plain data
  // fragments (client-reported), fragments rebuilt by the repair engine,
  // and parity bytes written by clients (the redundancy overhead the
  // space/bandwidth reports attribute to EC).
  uint64_t ec_degraded_reads() const { return ec_degraded_reads_.value(); }
  uint64_t ec_fragments_repaired() const {
    return ec_fragments_repaired_.value();
  }
  uint64_t ec_parity_bytes() const { return ec_parity_bytes_.value(); }
  void NoteEcDegradedRead() { ec_degraded_reads_.Add(1); }
  void NoteEcParityBytes(uint64_t bytes) { ec_parity_bytes_.Add(bytes); }

  // --- background maintenance hooks ---
  // AggregateStore attaches its MaintenanceService here; the manager
  // forwards client-side signals to it.  Detached (nullptr), both signal
  // hooks are no-ops and the store behaves exactly as before.
  void AttachMaintenance(MaintenanceService* service);
  // A client saw a replica write fail (degraded write): hand the chunk to
  // the background repair queue.  Never called with a shard mutex held.
  void ReportDegraded(const ChunkKey& key, int64_t now_ns);
  // Cheap pacing hook invoked on client metadata round-trips: lets the
  // maintenance worker's schedule catch up to foreground virtual time.
  void MaintenanceTick(int64_t now_ns);

  // Decommission (store/repair.cpp) a benefactor for maintenance/upgrade
  // (the paper's "aggregation ... allows for ... easy system hardware
  // upgrades or re-configuration"): migrate every member it holds to the
  // surviving benefactors through the member mover (a drained member that
  // fails verification is copied from another replica or rebuilt from
  // `need` others, and its rot counts as detected), rewrite the placement
  // metadata, then retire it.  Holds every shard mutex for the duration
  // (rare, operator-driven).  Returns the number of chunks migrated; with
  // no verified source left for a member it stops with CORRUPT and the
  // benefactor stays in service.
  StatusOr<uint64_t> Decommission(sim::VirtualClock& clock, int id);

  // --- namespace ---

  StatusOr<FileId> CreateFile(sim::VirtualClock& clock,
                              const std::string& name);
  StatusOr<FileId> LookupFile(sim::VirtualClock& clock,
                              const std::string& name);
  StatusOr<FileInfo> Stat(sim::VirtualClock& clock, FileId id);
  Status Unlink(sim::VirtualClock& clock, FileId id);

  // Extend the file to at least `size` bytes, allocating chunk placements
  // per the configured stripe policy over alive benefactors
  // (posix_fallocate semantics: reservation only, no data transfer).
  // `client_node` is the allocating client's node, used by the
  // locality-aware policy (-1: unknown).
  Status Fallocate(sim::VirtualClock& clock, FileId id, uint64_t size,
                   int client_node = -1);

  // --- data-plane lookups ---
  //
  // Every request is a batch: a window of chunks costs one metadata
  // service op.  GetReadLocation, PrepareWrite and CompleteWrite are the
  // batch calls over a window of one and charge exactly what those do.

  // Locations of `count` consecutive chunks starting at `first`, clamped
  // at EOF.  The read-resolve fast path: file table shared locks plus one
  // atomic replica-snapshot load per chunk — no shard mutex.  Charges ONE
  // metadata service op for the whole batch — the control-plane saving
  // behind the client's coalesced miss and read-ahead paths.
  StatusOr<std::vector<ReadLocation>> GetReadLocations(
      sim::VirtualClock& clock, FileId id, uint32_t first, uint32_t count);
  StatusOr<ReadLocation> GetReadLocation(sim::VirtualClock& clock, FileId id,
                                         uint32_t chunk_index);
  // Resolve a whole flush window (any set of chunk indices of one file) in
  // ONE metadata service op, performing each chunk's copy-on-write
  // decision: a chunk shared with a checkpoint gets a fresh version.
  // Result order matches `indices`.  On error no write is left open; on
  // success every returned location MUST be completed (CompleteWrites)
  // once its member transfers finish (success or failure) — the open
  // prepare fences the repair engine off the chunk.
  StatusOr<std::vector<WriteLocation>> PrepareWriteBatch(
      sim::VirtualClock& clock, FileId id, std::span<const uint32_t> indices);
  StatusOr<WriteLocation> PrepareWrite(sim::VirtualClock& clock, FileId id,
                                       uint32_t chunk_index);
  // The writes prepared for `locs` have finished moving data (or given
  // up): each drops its in-flight-writer fence and moves its repair
  // epoch, so a repair copy taken while the write was in flight can never
  // commit.  The involved shard set is locked once, in ascending index
  // order, and the whole window completes in that one lock pass.  `crcs`
  // (parallel to locs; may be empty) carries the flush-time checksums; one
  // becomes the chunk's authoritative checksum only where `ok` (parallel;
  // may be empty = all ok) says the write committed, and a chunk completed
  // without one has any stale checksum erased.  An erasure stripe's
  // fragment checksums ride on its location (`WriteLocation::frag_crcs`)
  // and are recorded with it.  One batched WAL record carries the window's
  // checksum transitions (set OR erase), charged to `clock` and appended
  // before any in-memory mutation.  The crash point kMidBatch fires on
  // entry.
  void CompleteWrites(sim::VirtualClock& clock,
                      std::span<const WriteLocation> locs,
                      std::span<const uint32_t> crcs = {},
                      std::span<const char> ok = {});
  // One location's completion: `crc` may be null, and an erasure stripe
  // passes its positional fragment checksums (k+m entries).
  void CompleteWrite(sim::VirtualClock& clock, const ChunkKey& key,
                     const uint32_t* crc = nullptr,
                     std::span<const uint32_t> frag_crcs = {});

  // --- checkpoint support ---

  // Append all of `src`'s chunk refs to `dst` (incrementing refcounts) —
  // the zero-copy linking of an NVM variable into a checkpoint file.
  // Returns the chunk-aligned logical offset in `dst` where `src`'s data
  // now begins.
  StatusOr<uint64_t> LinkFileChunks(sim::VirtualClock& clock, FileId dst,
                                    FileId src);

  // Refcount of a chunk (test/diagnostic hook).
  uint32_t ChunkRefcount(const ChunkKey& key) const;

  uint64_t num_files() const;

  // --- crash consistency (store/recovery.cpp) ---

  // Serialise the whole metadata plane into the WAL's checkpoint store.
  // Takes ns_mu_ shared, every file mutex shared (FileId order) and every
  // shard mutex (ascending) for the serialisation instant: every WAL
  // append happens under one of those locks, so each record is either
  // fully reflected in the blob (seq <= covered) or entirely after it —
  // replay needs no idempotency.  No-op without a WAL.
  void Checkpoint(sim::VirtualClock& clock);

  // Cold-start recovery on a FRESH manager (no files, no chunks, no
  // client traffic yet): load the newest valid checkpoint, replay the WAL
  // records after it, then reconcile the result against the live
  // benefactor inventories — per-replica write-time {has_crc, crc}
  // metadata decides conflicts, so a chunk either comes back with bytes
  // that verify or is surfaced as lost (empty location list), never with
  // wrong bytes — and finish with the scrubber's inventory sweep (orphans
  // and reservations).  Charges the log reads and the sweep's
  // per-benefactor round-trips to `clock`.  No-op without a WAL.
  RecoveryReport Recover(sim::VirtualClock& clock);

 private:
  // One chunk's single metadata home, shared (via shared_ptr) by every
  // file slot that references it — checkpoint links reference the same
  // handle, so publishing a replica list is one store here, not a scan
  // over every referencing file.  `key` is immutable: a COW creates a
  // fresh handle for the bumped version and swaps the file slot.
  //
  // `replicas` is the atomically-swapped immutable snapshot read by the
  // lock-free resolve path: STORES happen only under the owning shard's
  // mutex (PublishReplicasLocked), LOADS take no lock.  Every other field
  // is guarded by the owning shard's mutex.  The in-flight-writer fences
  // and reserved repair targets deliberately live in per-shard side maps,
  // NOT here: both must survive the chunk's last unref (a CompleteWrite
  // races an unlink; a planned repair target must stay scrub-exempt until
  // its commit), while epoch/checksum/corruption state dies with the
  // chunk.
  struct ChunkHandle {
    explicit ChunkHandle(const ChunkKey& k) : key(k) {
      // Never-null invariant: resolvers load without any lock, so even a
      // handle between construction and its first publish must carry a
      // (then empty) snapshot.
      replicas.store(std::make_shared<const std::vector<int>>(),
                     std::memory_order_relaxed);
    }
    const ChunkKey key;
    std::atomic<std::shared_ptr<const std::vector<int>>> replicas;
    uint32_t refcount = 0;       // referencing file slots
    uint64_t repair_epoch = 0;   // bumped on write prepare AND completion
    bool has_crc = false;        // authoritative checksum recorded?
    uint32_t crc = 0;
    // Erasure-coded store: the replica snapshot is the positional fragment
    // map (length k+m, -1 = missing) and `frag_crcs` (when has_crc) holds
    // the per-fragment authoritative checksums, parallel to it.
    std::vector<uint32_t> frag_crcs;
    bool corrupt_pending = false;  // quarantined replica awaiting heal
    // Correlated-loss memory: benefactors whose replica of THIS chunk was
    // quarantined as corrupt or diverged during recovery.  The placement
    // engine (placement_avoid_suspected) refuses them as repair targets —
    // re-replicating onto the device that just lost the bytes would
    // re-correlate the failure.  Cleared when a completed write refreshes
    // the chunk's contents; volatile (not WAL-logged): after a restart
    // the conservative empty set only widens the target pool.
    std::vector<int> tainted;
  };

  // One slice of the chunk namespace: every key with shard_of(key) ==
  // this shard's index.  All members are guarded by `mu`.
  struct MetaShard {
    mutable std::mutex mu;
    std::unordered_map<ChunkKey, std::shared_ptr<ChunkHandle>, ChunkKeyHash>
        chunks;
    // Chunks with a prepared-but-uncompleted write.  While an entry exists
    // CommitRepair refuses to publish (requeues): the in-flight write
    // could still land bytes on a survivor that the copied targets would
    // miss.  Side map (not a handle field): the fence must survive an
    // unlink so the paired CompleteWrite still finds it.
    std::unordered_map<ChunkKey, uint32_t, ChunkKeyHash> inflight_writers;
    // Reserved targets of repair plans between PlanRepairs and
    // CommitRepair.  The scrubber must not reap these as orphans: their
    // chunk data exists on the benefactor before the replica list names
    // it.  Racing drivers may plan one key twice, but never onto one
    // target: the benefactor refuses a second reservation of the key, so
    // each target belongs to exactly one plan and its undo is that plan's
    // DeleteChunk.  The entry can outlive the chunk handle (unlink racing a
    // commit).
    std::unordered_map<ChunkKey, std::vector<int>, ChunkKeyHash>
        repair_targets;
    // Resume point of the incremental verification sweep within this
    // shard (nullopt: restart from the shard's lowest key).
    std::optional<ChunkKey> verify_cursor;
  };

  struct FileMeta {
    // Guards size/chunks/stripe_cursor.  The resolve fast path holds it
    // shared; slot swaps (COW prepare) and extension hold it exclusive.
    // LinkFileChunks locks two files in FileId order.
    mutable std::shared_mutex mu;
    std::string name;  // immutable after create
    uint64_t size = 0;
    std::vector<std::shared_ptr<ChunkHandle>> chunks;
    // Next benefactor (registry index) for striping continuation.
    size_t stripe_cursor = 0;
  };

  size_t shard_of(const ChunkKey& key) const {
    return static_cast<size_t>(ChunkKeyHash{}(key)) % meta_shards_;
  }
  // Service lane of file- and name-addressed metadata ops.
  size_t FileLane(FileId id) const {
    return static_cast<size_t>(Mix64(id)) % meta_shards_;
  }
  size_t NameLane(const std::string& name) const {
    return static_cast<size_t>(Mix64(std::hash<std::string>{}(name))) %
           meta_shards_;
  }
  void ChargeOp(sim::VirtualClock& clock, size_t lane) {
    services_[lane]->Acquire(clock, config_.manager_op_ns);
  }
  // File table lookup; takes (and releases) ns_mu_ shared.
  std::shared_ptr<FileMeta> FindFile(FileId id) const;
  // Registry snapshot / bounds-checked lookup (reg_mu_ shared).
  std::vector<Benefactor*> SnapshotBenefactors() const;
  Benefactor* BenefactorAt(int id) const;
  // Publish a fresh immutable replica snapshot (owning shard mu held).
  static void PublishReplicasLocked(ChunkHandle& h, std::vector<int> replicas);
  // Drop one reference; frees the chunk on its benefactors at zero
  // (owning shard mu held).
  void UnrefChunkLocked(MetaShard& shard, ChunkHandle& h);
  // COW-resolve one slot of `meta` (file mu held exclusive; takes the
  // old/new shard mutexes in ascending order itself).  Rolls back partial
  // space reservations if a replica runs out of space mid-COW.  A COW
  // swap logs a kCowSwap record (under the file + shard locks) before the
  // slot moves; the in-place branch logs nothing — the chunk's identity
  // and placement are unchanged.  `suspected` (may be null) is the
  // caller's SuspectedBenefactors() snapshot, taken before any lock: with
  // placement_avoid_suspected on, a COW drops dead or suspected inherited
  // holders (keeping at least one) instead of failing the whole prepare
  // on a dead holder's reservation.
  StatusOr<WriteLocation> PrepareWriteSlot(
      sim::VirtualClock& clock, FileId id, FileMeta& meta,
      uint32_t chunk_index, const std::vector<char>* suspected = nullptr);
  // Per-benefactor suspicion flags from the heartbeat detector, via the
  // maintenance hook (hook_mu_ shared; empty when detached).  Callers
  // snapshot ONCE per operation before taking any file or shard lock and
  // only when placement_avoid_suspected is on — the knob-off store never
  // touches hook_mu_ here.
  std::vector<char> SuspectedBenefactors() const;
  // Build the store's code from `config` (checking the erasure geometry),
  // zero-image checksum included — once, at construction.
  static Redundancy MakeCode(const StoreConfig& config);
  // The checksum member `i` of `h`'s `n`-member list must store, or null
  // when none is recorded: a whole-chunk member stores the chunk's image
  // checksum, a stripe member its own positional fragment checksum.
  const uint32_t* MemberCrc(const ChunkHandle& h, size_t i, size_t n) const {
    if (!h.has_crc) return nullptr;
    if (!code_.positional) return &h.crc;
    return h.frag_crcs.size() == n ? &h.frag_crcs[i] : nullptr;
  }
  // Mark every listed member of `list` ineligible in `cands`, and return
  // the nodes a spreading code keeps new members off: every member's but
  // that of `leaving`, the member being moved.
  std::vector<int> ExcludeMembers(std::span<const int> list,
                                  std::vector<PlacementCandidate>& cands,
                                  int leaving = -1) const;
  // Shard-mutex-held core of CompleteWrites, for one location.
  void CompleteWriteLocked(MetaShard& shard, const ChunkKey& key,
                           const uint32_t* crc = nullptr,
                           std::span<const uint32_t> frag_crcs = {});
  // Quarantine the corrupt replica (key, bid): count it, remember the
  // device in the chunk's correlated-loss memory, strip it
  // (StripMembersLocked) and bump the repair epoch.  Returns false when
  // bid is no longer in the chunk's list (already quarantined or
  // replaced) — nothing new to learn.  Shard mu held.
  bool QuarantineReplicaLocked(sim::VirtualClock& clock, MetaShard& shard,
                               const ChunkKey& key, int bid);
  // The one member strip (store/repair.cpp), shared by quarantine and the
  // repair planner's dead-member strip; shard mu held.  Redundancy::Drop
  // drops every listed member of `h` that `gone(bid, index)` selects; a
  // drop that crosses below `need` takes the lost shape and reclaims the
  // survivors too.  Then the strip logs the stripped list BEFORE touching
  // any data, releases and deletes the dropped members, counts the loss
  // (lost_chunks(), and *lost when non-null) and publishes.  A strip that
  // drops nothing logs and publishes nothing.  Returns the stripped list.
  template <typename Gone>
  std::vector<int> StripMembersLocked(sim::VirtualClock& clock,
                                      ChunkHandle& h, Gone gone,
                                      uint64_t* lost);
  // The inventory sweep (store/scrub.cpp) behind ScrubOnce and Recover,
  // with every shard mutex held (or on a fresh manager mid-Recover, which
  // no other thread sees).  One metadata round-trip per benefactor fetches
  // its member inventory, and two per-key rules settle an alive one: a
  // member (blob or reservation) that no list names and no in-flight
  // repair target covers is an orphan, reclaimed by one DeleteChunk; a
  // listed member with no reservation is re-reserved.  The lists are
  // walked once, and again per benefactor only when one of its listed
  // members lacks its reservation.  Returns the orphan blobs deleted and
  // the reservation fixes in chunk slots (rounded up per benefactor);
  // `under_replicated` stays empty.
  ScrubResult SweepInventoriesLocked(sim::VirtualClock& clock);
  // Append `rec` to the WAL (charging `clock`) — no-op without a WAL.
  // Call sites hold the mutex that orders the mutation being logged
  // (ns_mu_, a file mu, or the owning shard mu); the WAL's own mutex is
  // innermost.
  void LogAppend(sim::VirtualClock& clock, WalRecord rec) {
    if (wal_ != nullptr) wal_->Append(clock, std::move(rec));
  }

  // --- recovery internals (store/recovery.cpp) ---

  // Serialise every file table and chunk handle into a checkpoint blob.
  // Caller holds ns_mu_ shared + every file mu shared + every shard mu.
  std::string EncodeCheckpointLocked() const;
  // Rebuild namespace/file/chunk state from a checkpoint blob (fresh
  // manager, no locks needed).  Returns false on a malformed blob (which
  // the slot CRC makes a code bug, not torn media).
  bool DecodeCheckpoint(const std::string& blob);
  // Apply one replayed WAL record (fresh manager, no locks needed).
  void ApplyWalRecord(const WalRecord& rec);
  // Post-replay reconciliation against the live benefactor inventories.
  void ReconcileWithBenefactors(sim::VirtualClock& clock,
                                RecoveryReport* report);

  net::Cluster& cluster_;
  const int manager_node_;
  const StoreConfig config_;
  const Redundancy code_;
  const size_t meta_shards_;
  // Durable half of the metadata plane; owned by the AggregateStore (it
  // must survive KillManager).  Null = crash consistency off.
  WalStore* const wal_;
  // Per-shard metadata service lanes: the modelled manager CPU stops being
  // one serial timeline once meta_shards > 1.  Lane assignment must be
  // deterministic (file hash / key shard) so virtual-time results are
  // reproducible; with meta_shards == 1 everything lands on lane 0,
  // identical to the historic single `service_` resource.
  std::vector<std::unique_ptr<sim::Resource>> services_;

  // Benefactor registry: append-only after wiring.  Shared for the hot
  // reads (liveness, capacity), exclusive only for registration.
  mutable std::shared_mutex reg_mu_;
  std::vector<Benefactor*> benefactors_;

  // Namespace: never held across any other lock (see header comment).
  mutable std::shared_mutex ns_mu_;
  std::unordered_map<std::string, FileId> names_;
  std::unordered_map<FileId, std::shared_ptr<FileMeta>> files_;
  FileId next_file_id_ = 1;
  size_t stripe_cursor_ = 0;

  // The sharded chunk namespace.
  std::vector<MetaShard> shards_;

  // Serialises verification sweeps and guards the inter-shard cursor
  // position (which shard the next VerifyScrub call resumes at).
  mutable std::mutex verify_mu_;
  size_t verify_shard_ = 0;

  Counter lost_chunks_;
  Counter corrupt_detected_;
  Counter corrupt_repaired_;
  Counter ec_degraded_reads_;
  Counter ec_fragments_repaired_;
  Counter ec_parity_bytes_;
  // Guards the maintenance hook pointer: signal forwarding holds it
  // shared, attach/detach exclusive — so ~MaintenanceService's detach
  // waits out any client thread already inside a hook call.
  mutable std::shared_mutex hook_mu_;
  MaintenanceService* maintenance_ = nullptr;
};

}  // namespace nvm::store
