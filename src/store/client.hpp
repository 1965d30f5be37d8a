// Client-side stub for the aggregate NVM store.
//
// One StoreClient lives on each compute node (inside the fuselite mount).
// Control-plane calls go to the manager (charging the metadata round-trip
// on the modelled network); data-plane transfers go directly to the owning
// benefactor — the paper's two-step "ask the manager, then fetch from the
// benefactor" protocol.  Failed benefactors are reported back to the
// manager and reads fall over to surviving replicas.
#pragma once

#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/bitmap.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "store/manager.hpp"

namespace nvm::store {

class QosScheduler;

class StoreClient {
 public:
  // `qos` (may be null) is the store-wide scheduler: the client stamps its
  // TenantId on every benefactor request and records per-tenant read/write
  // latencies against it.
  StoreClient(net::Cluster& cluster, Manager& manager, int local_node,
              QosScheduler* qos = nullptr);

  int local_node() const { return local_node_; }
  const StoreConfig& config() const { return manager_.config(); }

  // The tenant this client's traffic is accounted (and admission-
  // scheduled) as.  Defaults to kTenantForeground; one client serves one
  // tenant at a time (a mount is a tenant's view of the store).
  void SetTenant(TenantId tenant) { tenant_ = tenant; }
  TenantId tenant() const { return tenant_; }

  // All operations charge modelled time to the explicit `clock` — callers
  // that issue background transfers (read-ahead) pass a detached clock so
  // the foreground process does not pay for the prefetch.

  // --- control plane ---
  StatusOr<FileId> Create(sim::VirtualClock& clock, const std::string& name);
  StatusOr<FileId> Open(sim::VirtualClock& clock, const std::string& name);
  StatusOr<FileInfo> Stat(sim::VirtualClock& clock, FileId id);
  Status Fallocate(sim::VirtualClock& clock, FileId id, uint64_t size);
  Status Unlink(sim::VirtualClock& clock, FileId id);
  StatusOr<uint64_t> LinkFileChunks(sim::VirtualClock& clock, FileId dst,
                                    FileId src);

  // --- data plane ---

  // Fetch a full chunk into `out` (sized chunk_bytes).
  Status ReadChunk(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                   std::span<uint8_t> out);

  // One element of a batched read.
  struct ChunkFetch {
    uint32_t index = 0;
    std::span<uint8_t> out;  // destination, sized chunk_bytes
    Status status;           // per-chunk outcome
    int64_t ready_at = 0;    // virtual completion time of the transfer
  };

  // Batched fetch of several chunks of one file.  The locations of the
  // whole index span are resolved with at most one metadata round-trip
  // (LookupReadMany).  The resolved chunks are grouped by primary
  // benefactor and each group is fetched with ONE streamed
  // Benefactor::ReadChunkRun — one request header and one device queueing
  // slot per benefactor, chunks riding back-to-back on the wire
  // (net::StreamTransfer).  Each run uses its own detached clock branched
  // at the post-lookup time, so runs against distinct benefactors overlap.
  // A run that fails (benefactor death mid-stream) is discarded whole and
  // every chunk of it is re-read through the per-chunk replica-failover
  // path (ReadChunk's).  A run of one is charged exactly like ReadChunk.
  // Erasure stripes have no primary holder: each chunk takes the stripe
  // read on its own detached clock.  `clock` itself advances only past the
  // metadata lookup; callers consume the per-chunk `ready_at` completion
  // times.  Returns non-OK only if the batched lookup fails outright;
  // per-chunk failures (EOF, dead replicas) land in fetches[i].status.
  Status ReadChunks(sim::VirtualClock& clock, FileId id,
                    std::span<ChunkFetch> fetches);

  // Resolve read locations for `count` consecutive chunks starting at
  // `first` with at most one metadata round-trip (none when all are
  // already location-cached).  The resolved range is clamped at EOF.
  Status LookupReadMany(sim::VirtualClock& clock, FileId id, uint32_t first,
                        uint32_t count);

  // Flush the dirty pages of a cached chunk image back to the store: a
  // WriteChunks window of one.  Performs the manager's copy-on-write
  // protocol when the chunk is shared with a checkpoint.  Replicas are
  // written on clocks forked at the post-prepare time and the caller joins
  // at the max, so a replicated write costs max(replica times), not their
  // sum.  A write that reached at least one replica is a (possibly
  // degraded) success; only total failure returns an error, and the
  // location cache is updated only after a replica holds the data.
  Status WriteChunkPages(sim::VirtualClock& clock, FileId id,
                         uint32_t chunk_index, const Bitmap& dirty_pages,
                         std::span<const uint8_t> chunk_image);

  // One element of a batched write-back.
  struct ChunkWrite {
    uint32_t index = 0;
    const Bitmap* dirty = nullptr;       // pages to flush (may be all-set)
    std::span<const uint8_t> image;      // full chunk image, sized chunk_bytes
    Status status;                       // per-chunk outcome
    int64_t ready_at = 0;                // virtual completion time
  };

  // Batched write-back of several dirty chunks of one file — the write-side
  // mirror of ReadChunks.  The whole window is COW-resolved in ONE metadata
  // round-trip (Manager::PrepareWriteBatch), grouped by benefactor (every
  // replica holder gets the chunk) and flushed with ONE streamed
  // Benefactor::WriteChunkRun per benefactor — one request header and one
  // device queueing slot per run, dirty pages riding back-to-back on the
  // wire.  Runs use clocks forked at the post-prepare time so runs against
  // distinct benefactors — and replicas of the same chunk — overlap; the
  // caller joins at the max.  A run that fails (benefactor death
  // mid-stream) is discarded whole and every item is retried per chunk
  // against that benefactor (WriteReplica); a chunk that reached ≥1
  // replica is a (degraded) success.  In an erasure-mode store every chunk
  // is a full-stripe write (WriteStripe), serially on `clock`.  Returns
  // non-OK only if the batched prepare fails outright; per-chunk outcomes
  // land in writes[i].status.
  Status WriteChunks(sim::VirtualClock& clock, FileId id,
                     std::span<ChunkWrite> writes);

  // Data-plane traffic observed by this client (the "to SSD" column of the
  // paper's traffic tables).
  uint64_t bytes_fetched() const { return bytes_fetched_.value(); }
  uint64_t bytes_flushed() const { return bytes_flushed_.value(); }
  // Metadata round-trips this client issued to the manager (control-plane
  // cost; the batched read path exists to keep this flat).
  uint64_t meta_round_trips() const { return meta_rtts_.value(); }
  // Benefactor read-run RPCs issued (per-chunk fallbacks not counted).
  uint64_t run_rpcs() const { return run_rpcs_.value(); }
  // Benefactor write-run RPCs issued (per-chunk fallbacks not counted).
  uint64_t write_run_rpcs() const { return write_run_rpcs_.value(); }
  // Writes that succeeded on ≥1 but not all replicas (failed benefactors
  // were MarkDead'd; re-replication is the manager's repair job).
  uint64_t degraded_writes() const { return degraded_writes_.value(); }
  // Reads that hit a checksum-mismatch (CORRUPT) reply and fell over to
  // another replica; the bad copy was reported for quarantine + repair.
  uint64_t corrupt_failovers() const { return corrupt_failovers_.value(); }
  // Erasure-coded reads that could not be served from the k data fragments
  // alone and reconstructed the chunk from a k-subset including parity.
  uint64_t ec_degraded_reads() const { return ec_degraded_reads_.value(); }
  void ResetCounters();

 private:
  struct LocKey {
    FileId file;
    uint32_t index;
    bool operator==(const LocKey&) const = default;
  };
  struct LocKeyHash {
    size_t operator()(const LocKey& k) const {
      return static_cast<size_t>(HashPair64(k.file, k.index));
    }
  };

  // Charge the metadata round-trip to the manager node.
  void ChargeMetaRoundTrip(sim::VirtualClock& clock);
  // Un-instrumented bodies of the public data-plane calls.  The public
  // wrappers record per-tenant end-to-end latency; internal re-entries
  // (run fallbacks, the EC read-modify-write) call these directly so a
  // single logical operation is recorded exactly once.  ReadChunkInner is
  // also the per-chunk read path: single misses, stripes and run-failure
  // fallbacks.
  Status ReadChunkInner(sim::VirtualClock& clock, FileId id,
                        uint32_t chunk_index, std::span<uint8_t> out);
  Status ReadChunksInner(sim::VirtualClock& clock, FileId id,
                         std::span<ChunkFetch> fetches);
  Status WriteChunksInner(sim::VirtualClock& clock, FileId id,
                          std::span<ChunkWrite> writes);
  // Chunk locations are immutable until a COW bumps the version, so the
  // client caches read locations after the first manager lookup (the
  // paper's FUSE client keeps the same mapping state).  A failed read
  // falls back to a fresh lookup.
  StatusOr<ReadLocation> LookupRead(sim::VirtualClock& clock, FileId id,
                                    uint32_t chunk_index, bool refresh);
  void InvalidateLocation(FileId id, uint32_t chunk_index);
  // One streamed ReadChunkRun against run.benefactor, filling the fetches
  // named by run.items.  All-or-nothing: on failure the caller must
  // re-read every item of the run per chunk (partially streamed chunks
  // are superseded) — no fetched-bytes traffic is committed for a failed
  // run.
  Status ReadRun(sim::VirtualClock& clock, const BenefactorRun& run,
                 std::span<const ReadLocation> locs,
                 std::span<ChunkFetch> fetches);
  // The per-replica write wire sequence (clone instruction, dirty pages +
  // header, device program, response) against one benefactor on the given
  // clock — the fallback when a write run fails.  Does not touch counters
  // or the location cache.
  // `crc` is the flush-time CRC32C of the full chunk image (nullptr when
  // integrity is off); `stored_crc` (when non-null) returns the CRC the
  // replica actually stored — the merged-image value on a partial write —
  // which is what CompleteWrite must record as authoritative.
  Status WriteReplica(sim::VirtualClock& clock, const WriteLocation& loc,
                      int bid, const Bitmap& dirty_pages,
                      std::span<const uint8_t> chunk_image,
                      const uint32_t* crc, uint32_t* stored_crc = nullptr);
  // One streamed WriteChunkRun against run.benefactor covering the items
  // named by run.items (indices into locs/active).  All-or-nothing: on
  // failure the caller retries every item per chunk — nothing a failed
  // run streamed counts.  `crcs` (parallel to locs/active) carries the
  // flush-time checksums; empty when integrity is off.  `stored_crcs`
  // (parallel to locs/active; empty when integrity is off) receives, for
  // each item the run covers, the CRC this replica actually stored.
  Status WriteRun(sim::VirtualClock& clock, const BenefactorRun& run,
                  std::span<const WriteLocation> locs,
                  std::span<const ChunkWrite> writes,
                  std::span<const size_t> active,
                  std::span<const uint32_t> crcs,
                  std::span<uint32_t> stored_crcs);
  // One read attempt against a resolved erasure stripe: the k data
  // fragments are fetched in parallel (clocks forked at the issue time,
  // caller joins at the max); any failure or hole falls over to parity
  // fragments and reconstructs — a degraded read.  Fails only when fewer
  // than k fragments of the stripe are readable.
  Status ReadStripe(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                    const ReadLocation& loc, std::span<uint8_t> out);
  // The erasure-coded write path: always full-stripe.  A partial-dirty
  // flush first reads the chunk's current bytes (degraded-capable) and
  // overlays the dirty pages — the classic EC read-modify-write penalty —
  // then encodes k+m fragments and writes each on a forked clock.  A
  // stripe that reached at least k fragments is a (possibly degraded)
  // success; below k the write failed and the completion records no
  // checksum (recovery rolls the uncommitted stripe back).
  Status WriteStripe(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                     const Bitmap& dirty_pages,
                     std::span<const uint8_t> chunk_image);

  net::Cluster& cluster_;
  Manager& manager_;
  const int local_node_;
  QosScheduler* qos_ = nullptr;
  TenantId tenant_ = kTenantForeground;
  Counter bytes_fetched_;
  Counter bytes_flushed_;
  Counter meta_rtts_;
  Counter run_rpcs_;
  Counter write_run_rpcs_;
  Counter degraded_writes_;
  Counter corrupt_failovers_;
  Counter ec_degraded_reads_;
  std::mutex loc_mutex_;
  std::unordered_map<LocKey, ReadLocation, LocKeyHash> loc_cache_;
};

}  // namespace nvm::store
