// Benefactor process: contributes a node-local SSD partition to the
// aggregate store and serves chunk-granularity data-plane requests.
//
// Chunks are stored as individual buffers keyed by ChunkKey (the paper
// stores them as individual files on the benefactor's SSD).  A blob's
// buffer is refcounted and shared: a copy-on-write clone shares its
// source's, and a read run hands its sink the stored bytes themselves.
// Whatever changes a blob's bytes first copies them if anyone else holds
// the buffer.  Every data access charges the node's modelled SSD; space
// accounting enforces the contributed capacity; Kill()/Revive() support
// failure-injection tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "net/cluster.hpp"
#include "store/types.hpp"

namespace nvm::store {

class QosScheduler;

class Benefactor {
 public:
  Benefactor(int id, net::Node& node, uint64_t contributed_bytes,
             const StoreConfig& config);

  int id() const { return id_; }
  int node_id() const { return node_.id(); }
  uint64_t contributed_bytes() const { return contributed_bytes_; }
  uint64_t bytes_used() const;
  uint64_t bytes_free() const;
  size_t num_chunks() const;

  // --- control plane (invoked via the manager) ---

  // Reserve space for one location-list member (posix_fallocate path): a
  // replica reserves chunk_bytes, an erasure fragment chunk_bytes/ec_k
  // (the member bytes of the manager's redundancy code).  No device
  // traffic: reservation only.
  Status ReserveBytes(uint64_t bytes);
  void ReleaseBytes(uint64_t bytes);

  // Attach the store-wide QoS scheduler.  Every data-plane request below
  // carries a TenantId; before booking device or wire time the benefactor
  // asks the scheduler for an admission floor on its SSD lane and its
  // node's NIC lane (a no-op when `qos` is off or no scheduler is
  // attached).
  void AttachQos(QosScheduler* qos) { qos_ = qos; }

  // --- data plane (invoked by StoreClient after a location lookup) ---
  //
  // A stored blob is a replicated chunk (chunk_bytes) or one erasure
  // fragment (ec_frag_bytes).  Two bodies serve every data request, both
  // generic over the blob's size: ReadChunkRun reads, and WriteChunkRun's
  // per-item program step writes.  ReadRange, ReadChunk, ReadFragment,
  // WritePages and WriteFragment are requests of one blob over those
  // bodies, charged exactly like a lone request because
  // SsdDevice::ChargeRun*(first_in_run = true) is Charge*.  ReadFragment
  // and WriteFragment take a whole blob of either size, so the manager's
  // member mover (repair and drain) moves replicas and fragments alike
  // through them.  ReadRange is ReadFragment copying out only a range;
  // the other four per-blob names survive only because the repository
  // benchmark's traced build wraps them; fold them into the run calls when
  // the benchmark next changes.
  //
  // Every read verifies the whole blob against its checksum and is charged
  // for it in virtual time, but the host hashes a blob at most once per
  // change of its bytes: a blob that passed a check and has not changed
  // since answers from that verdict.

  // Multi-chunk streamed read — the run RPC.  One call is ONE request at
  // this benefactor (one header, one device queueing slot): each stored
  // blob is charged to the device on `clock` (reads of a run serialise on
  // the SSD channel), but only the first pays the per-request read
  // latency.  Blobs are handed to `sink` in request order, stamped with
  // their device completion time; sparse (reserved-but-never-written)
  // blobs skip the device and carry no data.  The span a sink gets is the
  // stored buffer itself, exactly the bytes that were verified, and stays
  // valid until the sink returns even if the blob is rewritten, cloned or
  // deleted meanwhile (the sink may call back into this benefactor; the
  // run holds no lock while the sink runs).  A blob stored with a
  // checksum is re-checksummed before it is handed over (CPU charged at
  // checksum_bw_gbps, pipelined with the device stream); a mismatch fails
  // the run with CORRUPT once that verification is charged.
  // If the benefactor dies mid-run the whole run fails with UNAVAILABLE —
  // the caller must discard any blobs already streamed (no partial runs
  // are surfaced).
  Status ReadChunkRun(sim::VirtualClock& clock, std::span<const ChunkKey> keys,
                      const ChunkRunSink& sink,
                      TenantId tenant = kTenantForeground);

  // Read the full chunk into `out` (out.size() == chunk_bytes).  A chunk
  // that was reserved but never written reads as zeros without touching
  // the device (the backing file is sparse); `*sparse` reports this so the
  // client can skip the wire transfer (an ENOENT-for-the-chunk-file, as in
  // the paper's store).  A checksum mismatch fails with CORRUPT and the
  // bytes in `out` must not be used.
  Status ReadChunk(sim::VirtualClock& clock, const ChunkKey& key,
                   std::span<uint8_t> out, bool* sparse = nullptr,
                   TenantId tenant = kTenantForeground);

  // Read the whole stored blob into `out` (out.size() is the blob's size:
  // ec_frag_bytes for a fragment, chunk_bytes for a replica), like
  // ReadChunk: rot surfaces as CORRUPT, never as wrong bytes in a
  // reconstruction or a repair copy.
  Status ReadFragment(sim::VirtualClock& clock, const ChunkKey& key,
                      std::span<uint8_t> out, bool* sparse = nullptr,
                      TenantId tenant = kTenantForeground);

  // Read the stored blob like ReadFragment — admitted, charged to the
  // device and verified whole — but copy only its `out.size()` bytes from
  // `offset` into `out`: what a pages-only miss ships.  The range must lie
  // inside the blob; a sparse blob zero-fills `out`.
  Status ReadRange(sim::VirtualClock& clock, const ChunkKey& key,
                   uint64_t offset, std::span<uint8_t> out,
                   bool* sparse = nullptr,
                   TenantId tenant = kTenantForeground);

  // Multi-chunk streamed write — the write-side run RPC.  One call is ONE
  // request at this benefactor (one header, one device queueing slot).
  // The client streams each item's messages via `send` (clone instructions
  // as kControl, dirty pages as kPayload; the first payload also carries
  // the run header): the NIC pipelines them in order while the device
  // serialises on `clock`, and only the first programmed chunk pays the
  // per-request write latency.  Each payload is admitted (AdmitTransfer)
  // before it is sent.  Each item writes the pages marked dirty into the
  // stored chunk, materialising it if absent; only dirty pages are charged
  // to the device — the write-optimisation path of Table VII.  An item
  // without a dirty set is a whole blob (an erasure fragment), shipped and
  // programmed in full as WriteFragment would.  If the benefactor dies
  // mid-run the whole run fails with UNAVAILABLE and the caller must treat
  // every item as unwritten on this benefactor.
  //
  // Checksums: an item's caller-computed CRC32C of the full image is
  // stored verbatim when the dirty set covers the whole chunk (and
  // ignored otherwise); a partial write first verifies the stored base
  // image (a mismatch fails the run with CORRUPT) and then computes the
  // CRC of the merged image — patched from the changed pages (Crc32cPatch)
  // while at most a quarter of the chunk is dirty, hashed whole beyond —
  // charging the checksum CPU cost of a whole-image hash either way, as
  // does a whole write without a caller CRC.  `stored_crc` returns the
  // CRC actually stored — the merged-image value on a partial write —
  // which is what the caller must hand the manager as the authoritative
  // checksum.
  Status WriteChunkRun(sim::VirtualClock& clock,
                       std::span<const ChunkWriteItem> items,
                       const ChunkRunSend& send,
                       TenantId tenant = kTenantForeground);

  // Write the pages marked in `dirty_pages` from the chunk image `data`
  // (data.size() == chunk_bytes): one WriteChunkRun item as its own
  // request, after the caller admitted and shipped the dirty pages.
  Status WritePages(sim::VirtualClock& clock, const ChunkKey& key,
                    const Bitmap& dirty_pages, std::span<const uint8_t> data,
                    const uint32_t* crc = nullptr,
                    uint32_t* stored_crc = nullptr,
                    TenantId tenant = kTenantForeground);

  // Store a whole blob — a fragment of ec_frag_bytes or a replica of
  // chunk_bytes, every byte dirty (the client's EC write path is
  // full-stripe, so there is no merge).  `crc` is the caller-computed
  // CRC32C of the blob, stored verbatim and checked by the first read
  // (a wrong one reads back CORRUPT); without one the benefactor computes
  // it, at its CPU cost.
  Status WriteFragment(sim::VirtualClock& clock, const ChunkKey& key,
                       std::span<const uint8_t> data,
                       const uint32_t* crc = nullptr,
                       TenantId tenant = kTenantForeground);

  // Scrub support: re-read the stored chunk off the device, recompute its
  // CRC32C (both charged to `clock`) and compare against the manager's
  // authoritative `expected_crc`.  A never-written chunk reports
  // `*sparse` and verifies trivially; a mismatch returns CORRUPT.  The
  // chunk bytes never cross the network — verification is benefactor-
  // local against the shipped expected value.  A blob whose bytes hashed
  // to its stored crc since they last changed is not re-hashed: it passes
  // exactly when that crc is the expected one.
  Status VerifyChunk(sim::VirtualClock& clock, const ChunkKey& key,
                     uint32_t expected_crc, bool* sparse = nullptr,
                     TenantId tenant = kTenantMaintenance);

  // Copy-on-write support: duplicate `from` under key `to` locally
  // (device read + write of the stored blob — a chunk or a fragment — no
  // network).  The clone shares the source's buffer until either changes.
  Status CloneChunk(sim::VirtualClock& clock, const ChunkKey& from,
                    const ChunkKey& to,
                    TenantId tenant = kTenantForeground);

  // Drop the chunk (refcount reached zero at the manager).
  Status DeleteChunk(const ChunkKey& key);

  // --- liveness / failure injection ---
  // Atomic: polled by the maintenance worker's heartbeat sweeps while
  // client threads report failures.
  bool alive() const { return alive_.load(std::memory_order_acquire); }
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }
  // Die after `n` more chunks have been read off the device — lets tests
  // crash a benefactor in the middle of a read run.  0 disarms.
  void KillAfterReads(uint64_t n) {
    kill_after_reads_.store(n, std::memory_order_relaxed);
  }
  // Die after `n` more chunks have been programmed — lets tests crash a
  // benefactor in the middle of a write run or flush.  0 disarms.
  void KillAfterWrites(uint64_t n) {
    kill_after_writes_.store(n, std::memory_order_relaxed);
  }
  // Silent-corruption injection: XOR `xor_mask` into byte `byte_offset` of
  // the stored chunk without updating its checksum — models an SSD bit
  // flip no layer observed.  No device traffic, no liveness change.
  Status CorruptChunk(const ChunkKey& key, uint64_t byte_offset,
                      uint8_t xor_mask);
  // Seeded background bit-rot model (the corruption twin of
  // KillAfterWrites): every `n` chunk programs on this benefactor flip one
  // random bit of one random stored chunk, deterministically from `seed`.
  // Recurring until disarmed with n = 0.
  void CorruptAfterWrites(uint64_t n, uint64_t seed);
  // Bits flipped by the bit-rot model so far.
  uint64_t bitrot_flips() const { return bitrot_flips_.value(); }

  sim::SsdDevice& ssd() { return node_.ssd(); }

  // Bytes actually written to / read from this benefactor's device by
  // store traffic (excludes unrelated users of the same SSD).
  uint64_t data_bytes_in() const { return data_bytes_in_.value(); }
  uint64_t data_bytes_out() const { return data_bytes_out_.value(); }
  // Read-plane requests served: every ReadChunk/ReadFragment and every
  // ReadChunkRun counts once — the "request header + queueing slot" unit
  // the run RPC amortises across a batch.
  uint64_t read_requests() const { return read_requests_.value(); }
  // Write-plane requests served: every WritePages/WriteFragment and every
  // WriteChunkRun counts once — the unit the write run RPC amortises
  // across a window.
  uint64_t write_requests() const { return write_requests_.value(); }
  // Scrub verification requests served (kept out of read_requests so the
  // request-amortisation accounting of the run RPCs stays undisturbed).
  uint64_t verify_requests() const { return verify_requests_.value(); }

  // Introspection for invariant tests: the exact chunk set stored here.
  bool HasChunk(const ChunkKey& key) const;
  std::vector<ChunkKey> StoredChunkKeys() const;
  // Invariant-test hook: CRC32C recomputed over the stored bytes of `key`
  // right now (no device or CPU charge).  False when the chunk is absent.
  bool StoredContentCrc(const ChunkKey& key, uint32_t* crc) const;
  // Recovery hook: the checksum RECORDED with the chunk at write time
  // (never recomputed — a replica whose write-time crc diverges from the
  // manager's authoritative one belongs to a different write generation,
  // which is exactly what cold-start reconciliation must detect; content
  // rot against a matching recorded crc stays the scrubber's business).
  // Returns false when the chunk is absent (reserved-but-sparse).
  bool StoredChunkCrc(const ChunkKey& key, bool* has_crc, uint32_t* crc) const;

 // QoS admission for one chunk-sized transfer: estimate the device
  // service time for `ssd_bytes`, ask the scheduler for a start floor on
  // this benefactor's SSD lane and this node's NIC lane (`wire_bytes` on
  // the wire), and advance `clock` to it.  No-op when qos is off.
  //
  // Callers that ship chunk data to this benefactor MUST admit before
  // booking the wire transfer: admission is the request's entry gate, and
  // bytes sent ahead of it would occupy the NIC in front of tenants the
  // scheduler is protecting.  WritePages/WriteFragment therefore do NOT
  // re-admit internally; WriteChunkRun admits each payload before asking
  // the client to send it, and the read RPCs admit themselves (their
  // payload crosses the wire after the device read, behind the admission
  // point).
  void AdmitTransfer(sim::VirtualClock& clock, TenantId tenant,
                     uint64_t ssd_bytes, bool is_write, uint64_t wire_bytes);

 private:
  struct StoredChunk {
    // The blob's `size` bytes, shared with copy-on-write clones and with
    // the read runs handing them to a sink.  Every reference is taken and
    // dropped under mutex_, so `data.use_count()` read under it is exact.
    std::shared_ptr<uint8_t[]> data;
    uint64_t size = 0;
    uint64_t ssd_offset = 0;  // position in the device address space
    // Checksum recorded at write time (never recomputed on rot — that is
    // the point: verification compares stored bytes against it).
    bool has_crc = false;
    uint32_t crc = 0;
    // The bytes hashed to `crc` since they last changed.  A passing check
    // sets it, and a program keeps it when it derives `crc` from the bytes
    // it stores (a hash, or a merge's patch); a caller's crc stored
    // verbatim, a clone and injected rot clear it.
    bool verified = false;

    // CRC32C of the bytes as they are now, hashed in place unless
    // `verified` already vouches for `crc`; a hash that matches `crc` sets
    // `verified`.  Call under mutex_.
    uint32_t ContentCrc();
    // Make `data` this blob's alone before its bytes change (under
    // mutex_): a shared buffer is left to its other holders, and the blob
    // takes a copy of it, or, when the caller overwrites every byte
    // (`keep` false), an unfilled one.
    void Own(bool keep);
  };

  // The one data read body: one request over `keys`, each stored blob
  // admitted, charged at its own size, verified and handed to `sink` as a
  // span of its shared buffer.  With `into` non-empty (a single key) the
  // blob's bytes from `offset` are copied into it under mutex_ instead;
  // `whole` asserts that `into` is exactly the blob's size.
  Status ReadRun(sim::VirtualClock& clock, std::span<const ChunkKey> keys,
                 const ChunkRunSink& sink, TenantId tenant,
                 std::span<uint8_t> into, uint64_t offset, bool whole);
  // ReadChunk/ReadFragment (`whole`, offset 0) and ReadRange: a read run
  // of `key` alone into `out`.
  Status ReadOne(sim::VirtualClock& clock, const ChunkKey& key,
                 uint64_t offset, std::span<uint8_t> out, bool whole,
                 bool* sparse, TenantId tenant);
  // The one data program body: materialise `key` as a blob of data.size()
  // bytes, merge the `dirty` pages of `data` into it (nullptr: the whole
  // blob, as for a fragment) after verifying a partial merge's base
  // image, record the checksum, and charge the checksum CPU and the device
  // program.  Only the first program with `first_in_run` set pays the
  // device's request latency; the flag is cleared once one is charged.
  Status Program(sim::VirtualClock& clock, const ChunkKey& key,
                 const Bitmap* dirty, std::span<const uint8_t> data,
                 const uint32_t* crc, uint32_t* stored_crc,
                 bool& first_in_run);
  // WritePages/WriteFragment: one request programming one blob.
  Status WriteOne(sim::VirtualClock& clock, const ChunkKey& key,
                  const Bitmap* dirty, std::span<const uint8_t> data,
                  const uint32_t* crc, uint32_t* stored_crc);

  // Assign a device offset for a newly materialised chunk.
  uint64_t AllocateOffset();
  Status EnsureAlive() const;
  // Tick the KillAfterReads countdown after a data chunk left the device.
  void MaybeKillAfterRead();
  // Tick the KillAfterWrites countdown after a chunk's pages were
  // programmed.
  void MaybeKillAfterWrite();
  // Tick the bit-rot countdown after a chunk's pages were programmed,
  // flipping a random stored bit when it fires.
  void MaybeCorruptAfterWrite();
  const int id_;
  net::Node& node_;
  const uint64_t contributed_bytes_;
  const StoreConfig config_;
  QosScheduler* qos_ = nullptr;  // store-owned; attached after construction

  mutable std::mutex mutex_;
  std::unordered_map<ChunkKey, StoredChunk, ChunkKeyHash> chunks_;
  // Space accounting is a lone atomic (CAS-bounded by the contribution):
  // reservations are taken on the manager's metadata hot paths (write
  // prepare COW, repair planning, fallocate) and read by every capacity-
  // aware placement decision and status report — none of which should
  // contend with the data-plane mutex_ below.  Byte-granular because
  // erasure fragments reserve chunk_bytes/ec_k each.
  std::atomic<uint64_t> reserved_bytes_{0};
  uint64_t next_offset_ = 0;
  std::vector<uint64_t> free_offsets_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> kill_after_reads_{0};
  std::atomic<uint64_t> kill_after_writes_{0};
  // Bit-rot model state (mutex_-guarded: firing picks a stored chunk).
  uint64_t corrupt_period_ = 0;     // 0 = disarmed
  uint64_t corrupt_countdown_ = 0;  // programs until the next flip
  uint64_t corrupt_rng_ = 0;        // deterministic splitmix64 walk
  Counter data_bytes_in_;
  Counter data_bytes_out_;
  Counter read_requests_;
  Counter write_requests_;
  Counter verify_requests_;  // scrub VerifyChunk calls served
  Counter bitrot_flips_;
};

}  // namespace nvm::store
