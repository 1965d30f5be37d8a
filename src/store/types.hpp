// Shared vocabulary types for the aggregate NVM store.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace nvm::store {

using FileId = uint64_t;
constexpr FileId kInvalidFileId = 0;

// Identity of one immutable chunk version.  Copy-on-write bumps `version`;
// checkpoint linking shares (file, index, version) triples across files via
// refcounting in the manager.
struct ChunkKey {
  FileId origin_file = kInvalidFileId;  // file that first created the chunk
  uint32_t index = 0;                   // chunk index within the origin file
  uint32_t version = 0;

  // Member order: sorting by key makes results accumulated across shards
  // independent of the shard count and of hash-map iteration order.
  auto operator<=>(const ChunkKey&) const = default;
  std::string ToString() const {
    return "chunk(" + std::to_string(origin_file) + "," +
           std::to_string(index) + ",v" + std::to_string(version) + ")";
  }
};

struct ChunkKeyHash {
  size_t operator()(const ChunkKey& k) const {
    return static_cast<size_t>(HashTriple64(k.origin_file, k.index, k.version));
  }
};

// Reply header for one chunk inside a multi-chunk read run
// (Benefactor::ReadChunkRun).  `ready_at` is the virtual time the chunk
// left the device — the earliest instant its wire transfer can start.
struct ChunkRunItem {
  ChunkKey key;
  bool sparse = false;   // reserved-but-never-written: reads as zeros
  int64_t ready_at = 0;  // device completion time on the run's clock
};

// Receives the chunks of a run in request order.  `data` is the full chunk
// image, or empty when the item is sparse (the reply then carries only the
// "no such chunk" marker).  A non-OK return aborts the rest of the run.
using ChunkRunSink =
    std::function<Status(const ChunkRunItem&, std::span<const uint8_t>)>;

// One item of a multi-chunk write run (Benefactor::WriteChunkRun).
// `data` is the full chunk image and `dirty` selects the pages to program;
// with `dirty` null, `data` is a whole blob programmed in full (an erasure
// fragment).  When `needs_clone` is set the benefactor must copy
// `clone_from` into `key` before applying the dirty pages (COW of a shared
// version).
struct ChunkWriteItem {
  ChunkKey key;
  const Bitmap* dirty = nullptr;
  std::span<const uint8_t> data;
  bool needs_clone = false;
  ChunkKey clone_from;
  // Client-computed CRC32C of the full image; the benefactor stores it
  // with the blob.  When the dirty set covers only part of the chunk the
  // benefactor derives the merged image's checksum itself and this field
  // is not read (the client leaves it unhashed).
  uint32_t crc = 0;
  // Out (rides the run's ack): the CRC the benefactor actually stored.
  // For a partial-dirty merge this covers the MERGED image, which can
  // legitimately differ from `crc` when the client's clean pages were
  // never faulted in — the merged value is the only one the manager may
  // record as authoritative.
  uint32_t* stored_crc = nullptr;

  // Bytes the item ships and programs: its dirty pages, or the whole blob.
  uint64_t PayloadBytes(uint64_t page_bytes) const {
    return dirty == nullptr ? data.size() : dirty->PopCount() * page_bytes;
  }
};

// Wire-message kinds inside a write run.  kControl carries run/clone
// bookkeeping (charged like a metadata request); kPayload carries dirty
// page data — the first payload of a run also carries the run's request
// header, which is what makes a run of one byte-identical to the legacy
// single-chunk write message.
enum class RunMsg : uint8_t { kControl, kPayload };

// Sends one client→benefactor message of a write run and returns its
// arrival time on the benefactor.  `earliest_ns` is the send floor (the
// NIC pipelines messages in order from there).
using ChunkRunSend = std::function<int64_t(RunMsg, int64_t, uint64_t)>;

// Identity of one bandwidth principal sharing the store.  Every data-plane
// request carries a TenantId; the QoS scheduler (store/qos.hpp) arbitrates
// SSD and NIC admission between tenants.  Maintenance traffic (repair,
// scrub, decommission data movement) is just another tenant.
using TenantId = uint32_t;
constexpr TenantId kTenantForeground = 0;   // default for untagged clients
constexpr TenantId kTenantMaintenance = 1;  // repair/scrub/decommission

// Per-tenant QoS policy (StoreConfig::qos_tenants).  Tenants not listed
// get {weight 1, bw_share 0, priority 1}.
struct QosTenant {
  TenantId id = kTenantForeground;
  // Relative share of otherwise-idle bandwidth among same-priority tenants
  // competing at the same instant (work-conserving redistribution).
  double weight = 1.0;
  // Guaranteed fraction of each resource's bandwidth, refilled into the
  // tenant's token bucket; 0 means the tenant runs purely on idle
  // bandwidth (it is still starvation-proof via the scheduler's floor).
  double bw_share = 0.0;
  // Higher priority tenants split idle bandwidth first; lower tiers fall
  // back to their guaranteed share while a higher tier is waiting.
  int priority = 1;
};

// Chunk placement policy (paper §III-A: "we need to optimize the NVM
// store by taking into account the locality of the NVM, data access
// patterns, etc.").
enum class StripePolicy : uint8_t {
  kRoundRobin,        // the paper's striping: spread for parallel bandwidth
  kLocalityAware,     // prefer a benefactor on the allocating client's node
  kCapacityBalanced,  // always the emptiest alive benefactor
};

// How the store's chunks are protected against benefactor loss.  One mode
// serves the whole store for its life: the manager builds its one code
// from StoreConfig::redundancy, and a restarted manager rebuilds it from
// the same config.
enum class RedundancyMode : uint8_t {
  kReplicate = 0,  // `replication` full copies per chunk
  kErasure = 1,    // RS(ec_k, ec_m) fragments, chunk_bytes/ec_k each
};

struct StoreConfig {
  uint64_t chunk_bytes = 256_KiB;  // paper default stripe unit
  uint64_t page_bytes = 4_KiB;     // OS page / flash page
  int replication = 1;             // replicas per chunk (1 = paper setup)
  StripePolicy stripe_policy = StripePolicy::kRoundRobin;
  // Modelled control-plane costs.
  int64_t manager_op_ns = 3'000;       // metadata service time per op
  uint64_t meta_request_bytes = 64;    // modelled RPC request size
  uint64_t meta_response_bytes = 128;  // modelled RPC response size
  // Metadata shards of the manager.  The chunk namespace is partitioned by
  // splitmix64 hash of ChunkKey into this many independent shards, each
  // owning its slice of the location/checksum maps, write fences, repair
  // epochs and repair queue behind its own mutex — and each with its own
  // modelled metadata service lane, so clients working on different files
  // stop serialising on one manager timeline.  1 (the default) keeps the
  // manager fully serialised and is behaviorally identical to the
  // pre-shard store; raise it (16 is a good production setting) for
  // many-client metadata scaling (bench_meta_ops sweeps 1/4/16).
  size_t meta_shards = 1;

  // --- background maintenance service (store/maintenance.hpp) ---
  // Master switch: when on, the AggregateStore runs a manager-side service
  // on its own virtual-time worker thread with three loops — a heartbeat
  // failure detector, an incremental repair queue fed by client degraded-
  // write reports, and a slow metadata scrubber.  Off (default) keeps the
  // store exactly as before: degraded chunks stay under-replicated until
  // Manager::RepairReplication is invoked manually.
  bool maintenance = false;
  // Failure detector: sweep period and the number of consecutive missed
  // heartbeats before a benefactor is *declared* dead (suspicion
  // threshold; a transient stall shorter than misses*period never
  // triggers repair).
  int64_t heartbeat_period_ms = 50;
  int heartbeat_misses = 3;
  // Fraction of the maintenance worker's virtual time the repair loop may
  // keep devices busy (duty cycle).  After each repair batch the worker
  // idles busy*(1-f)/f ns, leaving timeline gaps foreground traffic
  // backfills — repair cannot starve reads/writes.  1.0 = no throttle.
  double repair_bw_fraction = 0.5;
  // Scrubber: period of the slow scan reconciling manager chunk maps
  // against benefactor stored-chunk sets and reservation accounting.
  int64_t scrub_period_ms = 500;

  // --- end-to-end chunk integrity (common/checksum.hpp) ---
  // Checksums are always on: writers compute a CRC32C per chunk (and per
  // stripe fragment), benefactors store it and verify it before serving
  // the bytes — a mismatch fails the read with CORRUPT and the reader
  // fails over, quarantining the bad copy for repair.  The scrubber also
  // verifies stored contents against the manager's authoritative
  // checksums, `scrub_verify_bytes` per pass (a round-robin cursor covers
  // the whole store incrementally), so silent bit rot no reader has
  // touched is found too; 0 skips that sweep.
  uint64_t scrub_verify_bytes = 8_MiB;
  // Modelled CPU throughput of the software CRC32C, in GB/s: every
  // checksummed byte charges 1/bw ns to the computing side's clock, so
  // integrity is never free in virtual-time results.
  double checksum_bw_gbps = 4.0;

  // --- crash-consistent manager metadata (store/wal.hpp, recovery.hpp) ---
  // Master switch: when on, the AggregateStore owns a write-ahead log +
  // checkpoint store on a manager-local SSD and the manager appends one
  // durable record ahead of every metadata mutation (log-before-publish).
  // A killed manager then restarts via Manager::Recover: checkpoint +
  // WAL replay, reconciled against the live benefactor inventories.  Off
  // (default) keeps the store byte- and virtual-time-identical to the
  // WAL-less implementation — nothing is logged, charged, or recoverable.
  bool wal = false;
  // Period of the maintenance-loop checkpoint that supersedes the log
  // prefix it covers (0 disables periodic checkpoints; manual
  // Manager::Checkpoint still works).  Requires wal and maintenance.
  int64_t checkpoint_period_ms = 1000;
  // WAL segment size: records append to fixed-size segments so superseded
  // history is dropped segment-at-a-time.
  uint64_t wal_segment_bytes = 64_KiB;
  // Device profile of the manager-local log/checkpoint SSD:
  // "x25e" | "fusionio" | "ocz" | "dram" (Table I profiles).
  std::string wal_device = "x25e";
  bool wal_device_wear_leveling = true;

  // --- placement engine (store/placement.hpp) ---
  // Every placement decision (Fallocate striping, COW write targets,
  // repair re-replication) flows through one shared engine that filters
  // and ranks candidate benefactors.  These knobs feed it reliability and
  // endurance signals; with BOTH at their defaults the engine reproduces
  // the capacity-only placement exactly — byte- and virtual-time-
  // identical to the pre-engine store (no suspicion snapshot is taken, no
  // wear fraction is read).
  //
  // placement_avoid_suspected: consult the maintenance service's
  // heartbeat detector.  Benefactors with >= 1 consecutive missed
  // heartbeat (suspected but not yet declared dead) rank LAST for
  // striping and COW targets (soft avoidance — they are still used when
  // nothing else has space) and are fully ineligible as repair targets
  // (hard exclusion — re-protection must not bet on a flapping node).
  // The same knob turns on correlated-loss exclusion: a benefactor whose
  // replica of a chunk was quarantined as corrupt, or that produced a
  // divergent replica during recovery, is not an eligible repair target
  // for that chunk until a completed write refreshes its bytes.
  bool placement_avoid_suspected = false;
  // placement_wear_weight: bias placement away from benefactors whose
  // SSD has consumed more of its rated erase endurance.  Candidates are
  // ranked by floor(wear_fraction * weight * 16) — 0 disables the bias
  // entirely; larger weights split the wear spectrum into finer bands
  // that override capacity/rotation order sooner.
  double placement_wear_weight = 0.0;

  // --- erasure-coded redundancy (store/erasure.hpp) ---
  // The store's redundancy mode, for every chunk.  kErasure stripes
  // every chunk into ec_k data + ec_m parity fragments of
  // chunk_bytes/ec_k bytes each (RS over GF(2^8)), placed on k+m distinct
  // benefactors (hard failure-domain spreading).  Any k surviving
  // fragments reconstruct the chunk byte-exactly: reads degrade through
  // parity instead of failing, and repair re-encodes lost fragments from
  // k verified survivors.  Space and write-bandwidth overhead is
  // (k+m)/k× (1.5× at the 4+2 default) versus replication's `replication`×.
  // With ec_m = 0 (default) or redundancy = kReplicate the erasure paths
  // are dormant and the store is byte- and virtual-time-identical to the
  // replication-only implementation.
  RedundancyMode redundancy = RedundancyMode::kReplicate;
  uint32_t ec_k = 4;  // data fragments per stripe
  uint32_t ec_m = 0;  // parity fragments per stripe (0 = EC off)
  // Modelled CPU throughput of the RS encode/decode matrix arithmetic, in
  // GB/s: every encoded or reconstructed byte charges 1/bw ns to the
  // computing side's clock.
  double ec_encode_bw_gbps = 2.0;

  // --- multi-tenant QoS (store/qos.hpp) ---
  // Master switch: when on, every chunk-sized SSD/NIC charge passes
  // through a per-benefactor-lane token-bucket + weighted-priority
  // scheduler before it may book device time.  Contended tenants are
  // admission-delayed to their configured share; the delay leaves
  // virtual-time gaps on the devices that waiting tenants backfill, so
  // the scheduler is work-conserving (an uncontended tenant is admitted
  // immediately and pays nothing).  Off (default) admits everything
  // immediately — byte- and virtual-time-identical to the QoS-less
  // store.  Per-tenant latency histograms are recorded either way.
  bool qos = false;
  // Per-tenant {weight, bw_share, priority}; unlisted tenants default to
  // {1.0, 0.0, 1}.  When no entry names kTenantMaintenance, maintenance
  // traffic inherits repair_bw_fraction as its bw_share at priority 0.
  // That is not the duty cycle (which qos=on skips): a lone maintenance
  // tenant is admitted free, so repair booked before the foreground
  // arrives runs unpaced.
  std::vector<QosTenant> qos_tenants;
  // Token-bucket burst ceiling: a tenant may accumulate at most this many
  // milliseconds of unused device time before further refill is capped.
  int64_t qos_burst_ms = 2;
  // Contention window: a lane counts a tenant as actively competing if it
  // touched the lane within this many milliseconds of virtual time.
  int64_t qos_window_ms = 8;

  // True when the store's chunks are erasure-coded.
  bool ec() const { return redundancy == RedundancyMode::kErasure && ec_m > 0; }
  uint32_t ec_fragments() const { return ec_k + ec_m; }
  uint64_t ec_frag_bytes() const { return chunk_bytes / ec_k; }
  int64_t ec_encode_ns(uint64_t bytes) const {
    // 1 GB/s == 1 byte/ns, so bytes / GBps is already ns.
    return static_cast<int64_t>(static_cast<double>(bytes) /
                                ec_encode_bw_gbps);
  }

  // True when any placement-engine signal beyond capacity is active.
  bool placement_aware() const {
    return placement_avoid_suspected || placement_wear_weight > 0.0;
  }

  int64_t checksum_ns(uint64_t bytes) const {
    // 1 GB/s == 1 byte/ns, so bytes / GBps is already ns.
    return static_cast<int64_t>(static_cast<double>(bytes) /
                                checksum_bw_gbps);
  }

  uint64_t pages_per_chunk() const { return chunk_bytes / page_bytes; }
};

struct FileInfo {
  FileId id = kInvalidFileId;
  std::string name;
  uint64_t size = 0;            // logical size (posix_fallocate extent)
  uint64_t num_chunks = 0;
};

}  // namespace nvm::store
