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
#include <vector>

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
  // (LookupReadMany).  The members each chunk needs — its primary replica,
  // or the k fragments a stripe reads (data positions first, parity
  // filling holes) — are grouped by benefactor (GroupByPrimaryBenefactor)
  // and each group is fetched with ONE streamed Benefactor::ReadChunkRun —
  // one request header and one device queueing slot per benefactor, blobs
  // riding back-to-back on the wire (net::StreamTransfer).  Each run uses
  // its own detached clock branched at the post-lookup time, so runs
  // against distinct benefactors overlap; a chunk is ready when its last
  // member arrived (plus the decode when a stripe read parity).  A run
  // that fails (benefactor death or rot mid-stream) is discarded whole and
  // every chunk it touched is re-read through the per-chunk path
  // (ReadChunk's replica failover, or ReadStripe's parity failover); the
  // later runs skip those chunks' other members.  A run of one is charged
  // exactly like ReadChunk.  `clock` itself advances only past the
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
  // protocol when the chunk is shared with a checkpoint.  Members are
  // written on clocks forked at the post-prepare time and the caller joins
  // at the max, so a replicated write costs max(replica times), not their
  // sum.  A write that reached `need` members (a replica, or k fragments)
  // is a (possibly degraded) success; anything less returns an error, and
  // the location cache is updated only after the write committed.
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
  // round-trip (Manager::PrepareWriteBatch), every listed member is grouped
  // by benefactor (GroupByBenefactor: each replica holder gets the chunk's
  // dirty pages, each fragment holder its whole fragment) and flushed with
  // ONE streamed Benefactor::WriteChunkRun per benefactor — one request
  // header and one device queueing slot per run, payloads riding back-to-
  // back on the wire — and the window closes with ONE completion
  // (Manager::CompleteWrites).  Runs use clocks forked at the post-prepare
  // time so runs against distinct benefactors — and the members of one
  // chunk — overlap; the caller joins at the max.  In an erasure-mode store
  // the window first reads the bases of its partial-dirty chunks as one
  // ReadChunks batch (the read-modify-write), then encodes and checksums
  // every stripe; a stripe commits at the completion, after its fragments
  // landed.  A run that fails (benefactor death mid-stream) is discarded
  // whole and every item is retried per member against that benefactor
  // (WriteMember).  A chunk that reached `need` members — any replica, or
  // k fragments — is a (possibly degraded) success.  A window of one takes
  // the per-chunk manager calls (PrepareWrite, CompleteWrite), which charge
  // exactly what the batch calls of one do.  Returns non-OK only if the
  // prepare fails outright; per-chunk outcomes land in writes[i].status.
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
  // (run fallbacks, the erasure read-modify-write) call these directly so
  // a single logical operation is recorded exactly once.  ReadChunkInner
  // is also the per-chunk read path: single misses and run-failure
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
  // One streamed ReadChunkRun of `keys` against `benefactor`: blob i lands
  // in outs[i] (sized as the stored blob — a chunk or a fragment) and
  // arrives at ready_at[i].  All-or-nothing: on failure the caller must
  // re-read every chunk the run touched per chunk (partially streamed
  // blobs are superseded) — no fetched-bytes traffic is committed for a
  // failed run.
  Status ReadRun(sim::VirtualClock& clock, int benefactor,
                 std::span<const ChunkKey> keys,
                 std::span<const std::span<uint8_t>> outs,
                 std::span<int64_t> ready_at);
  // The per-member write wire sequence (clone instruction, payload +
  // header, device program, response) of one write-run item against one
  // benefactor on the given clock — the fallback when a write run fails.
  // A replica's dirty pages go through WritePages (which fills
  // item.stored_crc), a fragment through WriteFragment.  Does not touch
  // counters or the location cache.
  Status WriteMember(sim::VirtualClock& clock, int bid,
                     const ChunkWriteItem& item);
  // One streamed WriteChunkRun of `items` against `benefactor`.
  // All-or-nothing: on failure the caller retries every item per member —
  // nothing a failed run streamed counts.
  Status WriteRun(sim::VirtualClock& clock, int benefactor,
                  std::span<const ChunkWriteItem> items);
  // One read attempt against a resolved erasure stripe: the k data
  // fragments are fetched in parallel (clocks forked at the issue time,
  // caller joins at the max); any failure or hole falls over to parity
  // fragments and reconstructs — a degraded read.  Fails only when fewer
  // than k fragments of the stripe are readable.
  Status ReadStripe(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                    const ReadLocation& loc, std::span<uint8_t> out);
  // A degraded read's client-side decode: rebuild the stripe from the k
  // fragments present in `frags` (positional, empty = not read) into
  // `out`.  Returns the modelled decode time, charged as one chunk through
  // the encode engine.
  int64_t DecodeStripe(std::vector<std::vector<uint8_t>>& frags,
                       std::span<uint8_t> out);
  // The erasure window's full-stripe discipline: fragments are rewritten
  // whole, so the partial-dirty chunks of `active` first read their
  // current bytes as one ReadChunks batch (degraded-capable) and overlay
  // the dirty pages — the classic erasure read-modify-write penalty, paid
  // on the writer's clock.  Every stripe is then encoded into k+m
  // fragments and checksummed whole (`crcs`) and per fragment
  // (`frag_crcs`).  A chunk whose base read failed takes that
  // status and leaves `active`.  Returns the fragments, [item][position],
  // parallel to the remaining `active`.
  std::vector<std::vector<std::vector<uint8_t>>> EncodeStripes(
      sim::VirtualClock& clock, FileId id, std::span<ChunkWrite> writes,
      std::vector<size_t>& active, std::vector<uint32_t>& crcs,
      std::vector<std::vector<uint32_t>>& frag_crcs);

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
