#include "store/benefactor.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"
#include "store/qos.hpp"

namespace nvm::store {

namespace {
// An unfilled blob buffer.  Its refcount lives in an allocation of its
// own, so the bytes take exactly their size from the allocator: with the
// count in the same block (std::make_shared_for_overwrite), a buffer a few
// bytes past 64 KiB made the `degraded` benchmark's set-up about 1.6 times
// slower (glibc 2.36 malloc, x86-64).
std::shared_ptr<uint8_t[]> NewBlob(uint64_t bytes) {
  return std::make_unique_for_overwrite<uint8_t[]>(bytes);
}
}  // namespace

Benefactor::Benefactor(int id, net::Node& node, uint64_t contributed_bytes,
                       const StoreConfig& config)
    : id_(id),
      node_(node),
      contributed_bytes_(contributed_bytes),
      config_(config) {
  NVM_CHECK(node.has_ssd(), "benefactor requires an SSD on node %d",
            node.id());
}

uint64_t Benefactor::bytes_used() const {
  return reserved_bytes_.load(std::memory_order_relaxed);
}

uint64_t Benefactor::bytes_free() const {
  return contributed_bytes_ - bytes_used();
}

size_t Benefactor::num_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.size();
}

Status Benefactor::EnsureAlive() const {
  if (!alive_) {
    return Unavailable("benefactor " + std::to_string(id_) + " is down");
  }
  return OkStatus();
}

void Benefactor::AdmitTransfer(sim::VirtualClock& clock, TenantId tenant,
                               uint64_t ssd_bytes, bool is_write,
                               uint64_t wire_bytes) {
  if (qos_ == nullptr || !qos_->enabled()) return;
  const sim::DeviceProfile& p = node_.ssd().profile();
  const int64_t service = sim::TransferNs(
      ssd_bytes, is_write ? p.write_bw_mbps : p.read_bw_mbps,
      is_write ? p.write_latency_ns : p.read_latency_ns);
  const int64_t start = qos_->AdmitChunk(id_, node_.id(), tenant, service,
                                         wire_bytes, clock.now());
  if (start > clock.now()) clock.AdvanceTo(start);
}

Status Benefactor::Reserve(const ChunkKey& key, uint64_t bytes) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  std::lock_guard<std::mutex> lock(reserve_mutex_);
  auto [it, fresh] = reserved_.try_emplace(key, bytes);
  if (!fresh) {
    return AlreadyExists("benefactor " + std::to_string(id_) + " holds " +
                         key.ToString());
  }
  // CAS loop bounded by the contribution: the byte count stays a lone
  // atomic that placement reads without a lock, and a loser of the
  // capacity check fails cleanly.
  uint64_t cur = reserved_bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + bytes > contributed_bytes_) {
      reserved_.erase(it);
      return OutOfSpace("benefactor " + std::to_string(id_) +
                        ": reservation exceeds contribution of " +
                        FormatBytes(contributed_bytes_));
    }
    if (reserved_bytes_.compare_exchange_weak(cur, cur + bytes,
                                              std::memory_order_relaxed)) {
      return OkStatus();
    }
  }
}

uint64_t Benefactor::AllocateOffset() {
  if (!free_offsets_.empty()) {
    const uint64_t off = free_offsets_.back();
    free_offsets_.pop_back();
    return off;
  }
  const uint64_t off = next_offset_;
  next_offset_ += config_.chunk_bytes;
  return off;
}

void Benefactor::MaybeKillAfterRead() {
  uint64_t n = kill_after_reads_.load(std::memory_order_relaxed);
  while (n > 0 &&
         !kill_after_reads_.compare_exchange_weak(n, n - 1,
                                                  std::memory_order_relaxed)) {
  }
  if (n == 1) alive_ = false;
}

void Benefactor::MaybeKillAfterWrite() {
  uint64_t n = kill_after_writes_.load(std::memory_order_relaxed);
  while (n > 0 &&
         !kill_after_writes_.compare_exchange_weak(
             n, n - 1, std::memory_order_relaxed)) {
  }
  if (n == 1) alive_ = false;
}

void Benefactor::CorruptAfterWrites(uint64_t n, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  corrupt_period_ = n;
  corrupt_countdown_ = n;
  corrupt_rng_ = seed;
}

void Benefactor::MaybeCorruptAfterWrite() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (corrupt_period_ == 0) return;
  if (--corrupt_countdown_ > 0) return;
  corrupt_countdown_ = corrupt_period_;
  if (chunks_.empty()) return;
  // Deterministic victim pick: walk the rng over the sorted key set so a
  // given seed flips the same bits regardless of hash-map iteration order.
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  auto next = [this] {
    corrupt_rng_ = Mix64(corrupt_rng_ + 0x9e3779b97f4a7c15ULL);
    return corrupt_rng_;
  };
  StoredChunk& victim = chunks_[keys[next() % keys.size()]];
  const uint64_t byte = next() % victim.size;
  victim.Own(/*keep=*/true);
  victim.data[byte] ^= static_cast<uint8_t>(1u << (next() % 8));
  victim.verified = false;
  bitrot_flips_.Add(1);
}

Status Benefactor::CorruptChunk(const ChunkKey& key, uint64_t byte_offset,
                                uint8_t xor_mask) {
  if (xor_mask == 0) {
    return InvalidArgument("CorruptChunk: empty mask");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return NotFound("no stored chunk " + key.ToString() + " to corrupt");
  }
  if (byte_offset >= it->second.size) {
    return InvalidArgument("CorruptChunk: offset past stored blob");
  }
  it->second.Own(/*keep=*/true);
  it->second.data[byte_offset] ^= xor_mask;
  it->second.verified = false;
  bitrot_flips_.Add(1);
  return OkStatus();
}

uint32_t Benefactor::StoredChunk::ContentCrc() {
  if (verified) return crc;
  const uint32_t actual = Crc32c(data.get(), size);
  verified = has_crc && actual == crc;
  return actual;
}

void Benefactor::StoredChunk::Own(bool keep) {
  if (data.use_count() == 1) return;
  std::shared_ptr<uint8_t[]> mine = NewBlob(size);
  if (keep) std::memcpy(mine.get(), data.get(), size);
  data = std::move(mine);
}

Status Benefactor::ReadChunk(sim::VirtualClock& clock, const ChunkKey& key,
                             std::span<uint8_t> out, bool* sparse,
                             TenantId tenant) {
  NVM_CHECK(out.size() == config_.chunk_bytes);
  return ReadOne(clock, key, /*offset=*/0, out, /*whole=*/true, sparse,
                 tenant);
}

Status Benefactor::ReadFragment(sim::VirtualClock& clock, const ChunkKey& key,
                                std::span<uint8_t> out, bool* sparse,
                                TenantId tenant) {
  return ReadOne(clock, key, /*offset=*/0, out, /*whole=*/true, sparse,
                 tenant);
}

Status Benefactor::ReadRange(sim::VirtualClock& clock, const ChunkKey& key,
                             uint64_t offset, std::span<uint8_t> out,
                             bool* sparse, TenantId tenant) {
  return ReadOne(clock, key, offset, out, /*whole=*/false, sparse, tenant);
}

Status Benefactor::ReadChunkRun(sim::VirtualClock& clock,
                                std::span<const ChunkKey> keys,
                                const ChunkRunSink& sink, TenantId tenant) {
  return ReadRun(clock, keys, sink, tenant, /*into=*/{}, /*offset=*/0,
                 /*whole=*/false);
}

Status Benefactor::ReadOne(sim::VirtualClock& clock, const ChunkKey& key,
                           uint64_t offset, std::span<uint8_t> out, bool whole,
                           bool* sparse, TenantId tenant) {
  if (sparse != nullptr) *sparse = false;
  return ReadRun(
      clock, {&key, 1},
      [&](const ChunkRunItem& item, std::span<const uint8_t>) -> Status {
        if (item.sparse) {
          std::memset(out.data(), 0, out.size());
          if (sparse != nullptr) *sparse = true;
        }
        return OkStatus();
      },
      tenant, out, offset, whole);
}

Status Benefactor::ReadRun(sim::VirtualClock& clock,
                           std::span<const ChunkKey> keys,
                           const ChunkRunSink& sink, TenantId tenant,
                           std::span<uint8_t> into, uint64_t offset,
                           bool whole) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  read_requests_.Add(1);
  // The buffer of the blob the sink was last handed.  It is released
  // under mutex_ (when the next blob is taken, or on the way out), which
  // keeps StoredChunk::data's use count exact under the lock.
  struct Held {
    explicit Held(std::mutex& m) : mutex(m) {}
    Held(const Held&) = delete;
    Held& operator=(const Held&) = delete;
    ~Held() {
      if (bytes == nullptr) return;
      std::lock_guard<std::mutex> lock(mutex);
      bytes.reset();
    }
    std::mutex& mutex;
    std::shared_ptr<const uint8_t[]> bytes;
  } held(mutex_);
  bool first_in_run = true;
  // The checksum engine pipelines with the device stream: blob i is
  // verified while blob i+1 streams off the device, so only the tail
  // verification extends the run (`clock` tracks the device timeline,
  // `verify_done_ns` the engine).
  int64_t verify_done_ns = clock.now();
  for (const ChunkKey& key : keys) {
    // A crash between blobs takes down the rest of the run: the caller
    // sees one UNAVAILABLE for the whole run and must discard whatever it
    // already received.
    NVM_RETURN_IF_ERROR(EnsureAlive());
    ChunkRunItem item;
    item.key = key;
    std::span<const uint8_t> blob;
    uint64_t bytes = 0;  // the stored blob's size, which every charge uses
    uint64_t ssd_offset = 0;
    bool stored = false;
    bool has_crc = false;
    bool corrupt = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = chunks_.find(key);
      if (it != chunks_.end()) {
        StoredChunk& chunk = it->second;
        stored = true;
        bytes = chunk.size;
        ssd_offset = chunk.ssd_offset;
        has_crc = chunk.has_crc;
        // The verdict is taken on the stored bytes, and nothing leaves a
        // blob that failed its check; the host hashes them only if they
        // changed since their last check.  A run then hands its sink the
        // very buffer it verified: a writer that comes later copies first.
        corrupt = has_crc && chunk.ContentCrc() != chunk.crc;
        if (!corrupt && into.empty()) {
          held.bytes = chunk.data;
          blob = {held.bytes.get(), bytes};
        } else if (!corrupt) {
          NVM_CHECK(whole ? into.size() == bytes
                          : offset + into.size() <= bytes,
                    "%s of blob %s", whole ? "size mismatch" : "range past end",
                    key.ToString().c_str());
          std::memcpy(into.data(), chunk.data.get() + offset, into.size());
          blob = into;
        }
      }
    }
    if (!stored) {
      // Reclaimed, or never placed here: the caller's location is stale.
      if (!Reserved(key)) {
        return NotFound("benefactor " + std::to_string(id_) + " holds no " +
                        key.ToString());
      }
      // Reserved-but-never-written: the stream carries only the "no such
      // chunk" marker, no device access (the backing file has a hole).
      item.sparse = true;
      item.ready_at = clock.now();
      NVM_RETURN_IF_ERROR(sink(item, {}));
      continue;
    }
    // The run occupies one device queueing slot: the first stored blob
    // pays the per-request read latency, the rest stream at bandwidth.
    // QoS admits blob by blob, so a throttled tenant's long run leaves
    // gaps other tenants backfill instead of one multi-millisecond hog.
    AdmitTransfer(clock, tenant, bytes, /*is_write=*/false, bytes);
    node_.ssd().ChargeRunRead(clock, ssd_offset, bytes, first_in_run);
    first_in_run = false;
    data_bytes_out_.Add(bytes);
    // Verify before the blob enters the reply stream: bit rot must never
    // reach a reader nor poison a reconstruction.  A mismatch aborts the
    // whole run (like a mid-run death, but with CORRUPT) once the
    // verification that caught it is paid for: the caller fails over to
    // another replica or to parity on that clock.  The whole blob's
    // checksum is charged on every read, whether or not the host hashed.
    if (has_crc) {
      verify_done_ns = std::max(verify_done_ns, clock.now()) +
                       config_.checksum_ns(bytes);
      if (corrupt) {
        clock.AdvanceTo(verify_done_ns);
        return Corrupt("benefactor " + std::to_string(id_) +
                       ": checksum mismatch on " + key.ToString());
      }
      item.ready_at = verify_done_ns;
    } else {
      item.ready_at = clock.now();
    }
    NVM_RETURN_IF_ERROR(sink(item, blob));
    MaybeKillAfterRead();
  }
  // The run itself is not complete until the last blob clears the engine.
  clock.AdvanceTo(verify_done_ns);
  return OkStatus();
}

Status Benefactor::VerifyChunk(sim::VirtualClock& clock, const ChunkKey& key,
                               uint32_t expected_crc, bool* sparse,
                               TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  verify_requests_.Add(1);
  if (sparse != nullptr) *sparse = false;
  uint64_t bytes = 0;
  uint64_t offset = 0;
  bool match = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      if (!Reserved(key)) {
        return NotFound("benefactor " + std::to_string(id_) + " holds no " +
                        key.ToString());
      }
      // Reserved-but-never-written: nothing stored, nothing to rot.
      if (sparse != nullptr) *sparse = true;
      return OkStatus();
    }
    bytes = it->second.size;
    offset = it->second.ssd_offset;
    match = it->second.ContentCrc() == expected_crc;
  }
  // The verification read hits the device like any other read, but the
  // bytes never leave the node: only the verdict crosses the network.
  // Charged for the stored blob's actual size — a full chunk for
  // replicated data, one fragment for erasure-coded data.
  AdmitTransfer(clock, tenant, bytes, /*is_write=*/false, /*wire_bytes=*/0);
  node_.ssd().ChargeRead(clock, offset, bytes);
  clock.Advance(config_.checksum_ns(bytes));
  if (!match) {
    return Corrupt("benefactor " + std::to_string(id_) +
                   ": scrub checksum mismatch on " + key.ToString());
  }
  return OkStatus();
}

// No admission in WritePages/WriteFragment: the caller admitted BEFORE
// shipping the bytes over the wire (see AdmitTransfer's contract).
Status Benefactor::WritePages(sim::VirtualClock& clock, const ChunkKey& key,
                              const Bitmap& dirty_pages,
                              std::span<const uint8_t> data,
                              const uint32_t* crc, uint32_t* stored_crc,
                              TenantId /*tenant*/) {
  NVM_CHECK(data.size() == config_.chunk_bytes);
  NVM_CHECK(dirty_pages.size() == config_.pages_per_chunk());
  return WriteOne(clock, key, &dirty_pages, data, crc, stored_crc);
}

Status Benefactor::WriteFragment(sim::VirtualClock& clock, const ChunkKey& key,
                                 std::span<const uint8_t> data,
                                 const uint32_t* crc, TenantId /*tenant*/) {
  NVM_CHECK(data.size() > 0 && data.size() <= config_.chunk_bytes);
  return WriteOne(clock, key, /*dirty=*/nullptr, data, crc,
                  /*stored_crc=*/nullptr);
}

Status Benefactor::WriteOne(sim::VirtualClock& clock, const ChunkKey& key,
                            const Bitmap* dirty, std::span<const uint8_t> data,
                            const uint32_t* crc, uint32_t* stored_crc) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  write_requests_.Add(1);
  bool first_in_run = true;
  return Program(clock, key, dirty, data, crc, stored_crc, first_in_run);
}

Status Benefactor::WriteChunkRun(sim::VirtualClock& clock,
                                 std::span<const ChunkWriteItem> items,
                                 const ChunkRunSend& send, TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  write_requests_.Add(1);
  const int64_t t0 = clock.now();
  bool first_in_run = true;
  bool first_payload = true;
  for (const ChunkWriteItem& item : items) {
    // A crash between chunks takes down the rest of the run: the caller
    // sees one UNAVAILABLE for the whole run and must treat every item as
    // unwritten on this replica.
    NVM_RETURN_IF_ERROR(EnsureAlive());
    if (item.dirty != nullptr) {
      NVM_CHECK(item.data.size() == config_.chunk_bytes);
      NVM_CHECK(item.dirty->size() == config_.pages_per_chunk());
    } else {
      NVM_CHECK(!item.data.empty() &&
                item.data.size() <= config_.chunk_bytes);
    }

    if (item.needs_clone) {
      // The clone instruction is its own control message (exactly as in
      // the per-chunk path); the local copy must complete before the
      // dirty pages can land on the fresh version.
      const int64_t instr_at =
          send(RunMsg::kControl, t0, config_.meta_request_bytes);
      clock.AdvanceTo(instr_at);
      NVM_RETURN_IF_ERROR(
          CloneChunk(clock, item.clone_from, item.key, tenant));
    }

    const uint64_t dirty_bytes = item.PayloadBytes(config_.page_bytes);
    // Dirty pages stream from the run's start (the client has them all in
    // hand at t0); a post-clone payload can only start once the clone has
    // been instructed and applied.  Each item is admitted before its
    // payload books the wire (AdmitTransfer's contract), so a throttled
    // writer's run yields the NIC and the device between items; the
    // first payload carries the run header.
    sim::VirtualClock gate(item.needs_clone ? clock.now() : t0);
    AdmitTransfer(gate, tenant, dirty_bytes, /*is_write=*/true,
                  dirty_bytes + (first_payload ? config_.meta_request_bytes
                                               : 0));
    first_payload = false;
    const int64_t arrive = send(RunMsg::kPayload, gate.now(), dirty_bytes);
    clock.AdvanceTo(arrive);

    // A pre-image mismatch aborts the whole run (the stream protocol has
    // no per-item status); the caller falls back to per-chunk writes,
    // where the corrupt replica is reported and the healthy ones land.
    NVM_RETURN_IF_ERROR(Program(clock, item.key, item.dirty, item.data,
                                &item.crc, item.stored_crc, first_in_run));
  }
  return OkStatus();
}

Status Benefactor::Program(sim::VirtualClock& clock, const ChunkKey& key,
                           const Bitmap* dirty, std::span<const uint8_t> data,
                           const uint32_t* crc, uint32_t* stored_crc,
                           bool& first_in_run) {
  const uint64_t blob_bytes = data.size();
  const uint64_t bytes =
      dirty == nullptr ? blob_bytes : dirty->PopCount() * config_.page_bytes;
  const bool whole = bytes == blob_bytes;
  uint64_t offset = 0;
  bool charge_crc = false;
  bool pre_verified = false;
  bool pre_corrupt = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      StoredChunk fresh;
      fresh.data = NewBlob(blob_bytes);
      fresh.size = blob_bytes;
      fresh.ssd_offset = AllocateOffset();
      if (!whole) {
        // The pages this program leaves unwritten read back as the sparse
        // zeros they were.
        for (size_t page = 0; page < dirty->size(); ++page) {
          if (dirty->Test(page)) continue;
          std::memset(fresh.data.get() + page * config_.page_bytes, 0,
                      config_.page_bytes);
        }
      }
      it = chunks_.emplace(key, std::move(fresh)).first;
    } else if (it->second.has_crc && bytes > 0 && !whole) {
      // Partial merge onto an existing image: verify the base first.
      // Recomputing the merged checksum over unverified clean pages would
      // launder bit rot into a fresh, matching checksum — the one state no
      // scrub could ever catch.
      pre_verified = true;
      pre_corrupt = it->second.ContentCrc() != it->second.crc;
    }
    StoredChunk& blob = it->second;
    NVM_CHECK(blob.size == blob_bytes, "blob size changed under %s",
              key.ToString().c_str());
    if (!pre_corrupt) {
      offset = blob.ssd_offset;
      // A clone or a read run may still hold the old bytes: they keep
      // them, and the merge gets a copy (a whole program needs none).
      if (bytes > 0) blob.Own(/*keep=*/!whole);
      // The base hashed to its checksum, so a merge of few pages derives
      // the merged image's from each dirty page's old and new bytes.  A
      // patch reads its page twice and shifts the change through the tail,
      // which costs about as much as hashing four pages (BM_Crc32cPatch
      // against BM_Crc32c), so past a quarter of the blob dirty one whole
      // hash is cheaper.
      const bool patch = pre_verified && 4 * bytes <= blob_bytes;
      if (dirty == nullptr) {
        std::memcpy(blob.data.get(), data.data(), blob_bytes);
      } else {
        dirty->ForEachSet([&](size_t page) {
          const uint64_t off = page * config_.page_bytes;
          if (patch) {
            blob.crc = Crc32cPatch(blob.crc, blob.data.get() + off,
                                   data.data() + off, config_.page_bytes,
                                   blob_bytes - off - config_.page_bytes);
          }
          std::memcpy(blob.data.get() + off, data.data() + off,
                      config_.page_bytes);
        });
      }
      if (bytes > 0) {
        if (patch) {
          // The patched checksum covers the merged image, which stays
          // verified; it is charged as the whole-image hash it replaces.
          charge_crc = true;
        } else if (whole && crc != nullptr) {
          // Full-image write: the caller already computed (and paid for)
          // the checksum of exactly these bytes — store it verbatim, for
          // the first read to check.
          blob.crc = *crc;
          blob.verified = false;
        } else {
          // A merge of many pages, a fresh or unchecksummed base, or no
          // caller crc: the checksum must cover the whole image, at the
          // benefactor's CPU cost.  It is hashed from the stored bytes, so
          // they stay verified.
          blob.crc = Crc32c(blob.data.get(), blob.size);
          blob.verified = true;
          charge_crc = true;
        }
        blob.has_crc = true;
      }
      if (stored_crc != nullptr && blob.has_crc) *stored_crc = blob.crc;
    }
  }
  if (pre_verified) clock.Advance(config_.checksum_ns(blob_bytes));
  if (pre_corrupt) {
    return Corrupt("benefactor " + std::to_string(id_) +
                   ": pre-image checksum mismatch merging into " +
                   key.ToString());
  }
  if (bytes == 0) return OkStatus();
  if (charge_crc) clock.Advance(config_.checksum_ns(blob_bytes));
  // Only the programmed bytes reach the device (the write optimisation of
  // Table VII), as one request per item; within a run only the first
  // programmed item pays the per-request write latency.
  node_.ssd().ChargeRunWrite(clock, offset, bytes, first_in_run);
  first_in_run = false;
  data_bytes_in_.Add(bytes);
  MaybeKillAfterWrite();
  MaybeCorruptAfterWrite();
  return OkStatus();
}

Status Benefactor::CloneChunk(sim::VirtualClock& clock, const ChunkKey& from,
                              const ChunkKey& to, TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  uint64_t src_offset = 0;
  uint64_t dst_offset = 0;
  uint64_t bytes = 0;  // 0 = sparse source, nothing to copy
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(from);
    if (it != chunks_.end()) {
      StoredChunk clone;
      clone.data = it->second.data;  // shared until either side changes
      clone.size = it->second.size;
      bytes = clone.size;
      clone.ssd_offset = AllocateOffset();
      // The clone inherits the source's checksum: a local copy of bytes
      // whose crc is already known needs no recompute (any rot in the
      // source propagates and is caught by the clone's verification,
      // which is why it starts unverified).
      clone.has_crc = it->second.has_crc;
      clone.crc = it->second.crc;
      src_offset = it->second.ssd_offset;
      dst_offset = clone.ssd_offset;
      chunks_.emplace(to, std::move(clone));
    }
    // Cloning a sparse (never-written) chunk needs no data movement: the
    // clone is sparse too.
  }
  if (bytes > 0) {
    // The copy moves the stored blob's own size: a whole chunk for a
    // replica, one fragment for erasure-coded data.
    AdmitTransfer(clock, tenant, bytes, /*is_write=*/false, /*wire_bytes=*/0);
    node_.ssd().ChargeRead(clock, src_offset, bytes);
    AdmitTransfer(clock, tenant, bytes, /*is_write=*/true, /*wire_bytes=*/0);
    node_.ssd().ChargeWrite(clock, dst_offset, bytes);
  }
  return OkStatus();
}

bool Benefactor::HasChunk(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.contains(key);
}

std::vector<ChunkKey> Benefactor::StoredChunkKeys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  return keys;
}

bool Benefactor::Reserved(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(reserve_mutex_);
  return reserved_.contains(key);
}

std::vector<Benefactor::Member> Benefactor::Members() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> reserve_lock(reserve_mutex_);
  std::vector<Member> members;
  members.reserve(reserved_.size() + chunks_.size());
  for (const auto& [key, bytes] : reserved_) {
    members.push_back({key, chunks_.contains(key), true});
  }
  for (const auto& [key, chunk] : chunks_) {
    if (!reserved_.contains(key)) members.push_back({key, true, false});
  }
  return members;
}

bool Benefactor::StoredContentCrc(const ChunkKey& key, uint32_t* crc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  *crc = Crc32c(it->second.data.get(), it->second.size);
  return true;
}

bool Benefactor::StoredChunkCrc(const ChunkKey& key, bool* has_crc,
                                uint32_t* crc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  *has_crc = it->second.has_crc;
  *crc = it->second.crc;
  return true;
}

Status Benefactor::DeleteChunk(const ChunkKey& key) {
  // Deletion is allowed even on a dead benefactor: the manager is cleaning
  // up its metadata and the data is already unreachable.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it != chunks_.end()) {
    free_offsets_.push_back(it->second.ssd_offset);
    chunks_.erase(it);
  }
  std::lock_guard<std::mutex> reserve_lock(reserve_mutex_);
  auto rit = reserved_.find(key);
  if (rit != reserved_.end()) {
    reserved_bytes_.fetch_sub(rit->second, std::memory_order_relaxed);
    reserved_.erase(rit);
  }
  return OkStatus();
}

}  // namespace nvm::store
