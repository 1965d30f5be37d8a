// Client-side chunk cache — the layer that bridges the granularity gap
// between byte-addressable accesses and the 256 KB-chunked aggregate store
// (paper §III-D).
//
//  * 64 MB LRU of whole chunks (configurable), split into power-of-two
//    lock shards so the node's worker threads do not serialise behind one
//    mutex (each shard has its own map, LRU list and lock; capacity is
//    enforced globally by evicting from the shard holding the oldest
//    entry, so single-threaded behaviour is still exact LRU),
//  * 4 KB page-granularity dirty tracking inside each chunk; a slot's
//    bytes count only where its `valid` bitmap says so (slots are not
//    zero-filled: a page is valid once it was fetched or written, and a
//    miss on a slot with no valid page lands the store's bytes in place),
//  * eviction flushes only the dirty pages (Table VII's write optimisation),
//  * contiguous runs of missing chunks are fetched with one batched
//    manager lookup and one streamed run per benefactor,
//  * a read that continues none of the file's entries starts a new one;
//    an entry is a stream once a read has continued it, or while it is
//    the file's previous read (so a random read that lands where an
//    older one-page read ended is not a stream),
//  * a single-chunk miss that continues a sequential stream fetches the
//    whole units holding its pages (a replica, or erasure fragments); any
//    other miss ships only its pages (the holder still reads and
//    verifies the whole unit),
//  * sequential-read detection triggers adaptive read-ahead: the window
//    ramps 1 -> 2 -> 4 ... up to readahead_max_chunks (deeper for
//    kWriteOnceReadMany) and each window is issued as one batched fetch
//    on a detached virtual clock so its cost overlaps the application
//    (that overlap is why the paper's Table III shows NVMalloc *faster*
//    than raw SSD access for streams),
//  * read-ahead follows feedback: a prefetched chunk that capacity
//    pressure evicts before any access halves the window of the stream
//    that issued it (once for all the read-ahead issued before that
//    shrink), and that stream's ramp stops there, so a stream reads only
//    as far ahead as the cache keeps its chunks (Drop and stream-once
//    evict-behind are not pressure and leave windows alone),
//  * lock order: a path holds at most one shard lock, except a flush
//    window, which takes its shards in index order; stream_mutex_ is
//    never taken with a shard lock held (eviction hands the wasted
//    prefetch to the stream table after releasing the victim's shard).
#pragma once

#include <cstdint>
#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "store/client.hpp"

namespace nvm::fuselite {

// Per-file access-pattern advice (paper §III-B: applications "could
// potentially use the memory partition for operations that exploit the
// inherent device strengths, e.g., by allocating write-once-read-many
// variables onto the NVM").
enum class AccessAdvice : uint8_t {
  kNormal,             // default policy
  kWriteOnceReadMany,  // deeper read-ahead: the data will be streamed often
  kStreamOnce,         // evict-behind: data is consumed exactly once
};

struct FuseliteConfig {
  uint64_t cache_bytes = 64_MiB;       // paper's FUSE cache size
  bool readahead = true;               // sequential prefetch
  bool dirty_page_writeback = true;    // false = flush whole chunks (ablation)
  int64_t per_op_software_ns = 2'000;  // request handling cost per cache op
  // The FUSE daemon is a per-node user-space service with a small worker
  // pool: chunk fetches issued by the node's processes serialise through
  // its lanes (the paper's numbers clearly show this bottleneck);
  // daemon_threads matches FUSE's default multithreading.
  int daemon_threads = 8;  // one per core, as FUSE spawns them
  // Dirty chunks evicted under pressure are written back on a background
  // (detached) clock, like the kernel's writeback threads: the evicting
  // process does not stall for the store write, though the devices and
  // NICs are still occupied.  Explicit Flush()/Sync() remain synchronous.
  bool async_writeback = true;
  // Number of lock shards (rounded up to a power of two; 1 = the old
  // single-mutex cache).  Capacity accounting stays global.
  size_t cache_shards = 16;
  // Adaptive read-ahead window cap, in chunks (kernel-style ramp
  // 1 -> 2 -> 4 ... up to this; kWriteOnceReadMany files get twice the
  // cap).  The fixed next-chunk prefetch of old is cache_shards=anything,
  // readahead_max_chunks=1.
  uint32_t readahead_max_chunks = 8;
};

// Traffic counters matching the columns of the paper's Tables IV and VII.
// Fields are atomics so concurrent readers and the background write-back
// path never race with `traffic()` observers; copies snapshot the values.
struct CacheTraffic {
  std::atomic<uint64_t> app_bytes_read{0};  // bytes the application requested
  std::atomic<uint64_t> app_bytes_written{0};
  std::atomic<uint64_t> fetched_chunks{0};     // misses served from the store
  std::atomic<uint64_t> prefetched_chunks{0};  // read-ahead fetches
  // Read-ahead chunks that capacity pressure evicted before any access.
  std::atomic<uint64_t> prefetch_wasted{0};
  std::atomic<uint64_t> hit_chunks{0};         // accesses served from cache
  std::atomic<uint64_t> flushed_pages{0};      // dirty pages written back
  std::atomic<uint64_t> flushed_chunks{0};     // chunk flush operations
  std::atomic<uint64_t> evictions{0};
  // Batched-fetch observability: batches issued and chunks they carried.
  std::atomic<uint64_t> fetch_batches{0};
  std::atomic<uint64_t> batched_chunks{0};
  // Batched write-back observability: flush windows that coalesced ≥2
  // dirty chunks, and the chunks they carried.
  std::atomic<uint64_t> flush_batches{0};
  std::atomic<uint64_t> flush_batched_chunks{0};
  // Dirty chunks discarded by Drop() after the best-effort write-back
  // failed (unreplicated benefactor loss).  The data loss was already
  // surfaced through Sync(); this makes the discard itself observable.
  std::atomic<uint64_t> dropped_dirty{0};

  CacheTraffic() = default;
  CacheTraffic(const CacheTraffic& o) { *this = o; }
  CacheTraffic& operator=(const CacheTraffic& o) {
    if (this != &o) {
      app_bytes_read = o.app_bytes_read.load();
      app_bytes_written = o.app_bytes_written.load();
      fetched_chunks = o.fetched_chunks.load();
      prefetched_chunks = o.prefetched_chunks.load();
      prefetch_wasted = o.prefetch_wasted.load();
      hit_chunks = o.hit_chunks.load();
      flushed_pages = o.flushed_pages.load();
      flushed_chunks = o.flushed_chunks.load();
      evictions = o.evictions.load();
      fetch_batches = o.fetch_batches.load();
      batched_chunks = o.batched_chunks.load();
      flush_batches = o.flush_batches.load();
      flush_batched_chunks = o.flush_batched_chunks.load();
      dropped_dirty = o.dropped_dirty.load();
    }
    return *this;
  }
};

class ChunkCache {
 public:
  ChunkCache(store::StoreClient& client, FuseliteConfig config);

  const FuseliteConfig& config() const { return config_; }
  uint64_t chunk_bytes() const { return client_.config().chunk_bytes; }
  uint64_t page_bytes() const { return client_.config().page_bytes; }
  uint64_t capacity_chunks() const { return capacity_chunks_; }
  size_t num_shards() const { return shards_.size(); }

  // Copy [offset, offset+out.size()) of the file into `out`.
  Status Read(sim::VirtualClock& clock, store::FileId file, uint64_t offset,
              std::span<uint8_t> out);

  // Copy `in` into the file at `offset`, write-back (dirty in cache).
  Status Write(sim::VirtualClock& clock, store::FileId file, uint64_t offset,
               std::span<const uint8_t> in);

  // Write back every dirty page of `file` (all files if kInvalidFileId).
  // Walks the shards in index order.
  Status Flush(sim::VirtualClock& clock,
               store::FileId file = store::kInvalidFileId);

  // Flush then drop all chunks of `file` (on ssdfree / close).
  Status Drop(sim::VirtualClock& clock, store::FileId file);

  const CacheTraffic& traffic() const { return traffic_; }
  void ResetTraffic() { traffic_ = CacheTraffic{}; }

  // Set the access-pattern policy for a file (ssdmalloc advice flag).
  void SetAdvice(store::FileId file, AccessAdvice advice);
  AccessAdvice advice(store::FileId file) const;
  size_t resident_chunks() const {
    return resident_.load(std::memory_order_relaxed);
  }
  // Resident chunks per shard, in shard order (distribution diagnostics).
  std::vector<size_t> ShardOccupancy() const;
  // Current read-ahead window (chunks) of the file's most recently used
  // sequential stream; 0 if the file has no tracked stream.
  uint32_t readahead_window(store::FileId file) const;
  sim::Resource& daemon(size_t lane = 0) { return *daemons_.at(lane); }

 private:
  struct SlotKey {
    store::FileId file;
    uint32_t index;
    bool operator==(const SlotKey&) const = default;
  };
  struct SlotKeyHash {
    size_t operator()(const SlotKey& k) const {
      return static_cast<size_t>(HashPair64(k.file, k.index));
    }
  };
  // LRU entries carry the touch tick so a shard's oldest entry (its list
  // tail) is known without a map lookup.
  using LruList = std::list<std::pair<SlotKey, uint64_t>>;
  struct Slot {
    // chunk_bytes, never zero-filled: only the `valid` pages mean anything.
    std::unique_ptr<uint8_t[]> data;
    Bitmap dirty;  // pages modified locally, pending write-back
    Bitmap valid;  // pages whose contents are known (fetched or written)
    int64_t ready_at = 0;  // virtual time the chunk finished arriving
    // First touch of a slot the foreground batch path just fetched is the
    // miss that paid for it, not a cache hit.
    bool fresh_fetch = false;
    // Prefetched but not yet touched: counts against the global read-ahead
    // budget, and evicted like this under capacity pressure, the fetch
    // was wasted and the issuing stream's window shrinks.
    bool ra_pending = false;
    LruList::iterator lru_it;
  };
  using SlotMap = std::unordered_map<SlotKey, Slot, SlotKeyHash>;
  struct Shard {
    mutable std::mutex mutex;
    SlotMap slots;
    LruList lru;  // front = most recent
    // Tick of lru.back(); ~0 when empty.  Read without the lock by the
    // global eviction policy to find the shard holding the oldest entry.
    std::atomic<uint64_t> oldest_tick{~0ULL};
  };

  Shard& shard_for(const SlotKey& key) const {
    return const_cast<Shard&>(
        *shards_[HashPair64(key.file, key.index) & shard_mask_]);
  }

  using Ship = store::StoreClient::Ship;

  // Find or create (without fetching) the slot for `key` in shard `sh`.
  // `lk` must hold sh.mutex; it may be released and reacquired to make
  // room, so previously returned Slot pointers are invalidated.
  // `*cached` says whether the slot was already resident before this
  // access (not created by it, nor just fetched for it by a foreground
  // batch): such an access is a hit if it then fetches nothing.
  StatusOr<Slot*> GetOrCreateSlot(std::unique_lock<std::mutex>& lk, Shard& sh,
                                  sim::VirtualClock& clock, const SlotKey& key,
                                  bool* cached);
  // Fetch from the store if any page in [first, last] is not yet valid:
  // StoreClient::ReadChunkPages over the still-invalid pages of the range,
  // shipping only those pages or the whole units that hold them (`ship`),
  // and filling only the invalid pages of what landed (dirty local pages
  // are never clobbered; a later miss in the chunk fetches again).  A
  // slot with no valid page takes the store's bytes in place; any other
  // goes through a staging buffer.  Pages about to be fully overwritten
  // need no fetch — that is how a page cache avoids read-modify-write on
  // full-page writes.  Returns whether the store was read.  Runs with the
  // slot's shard lock held; other shards stay available.
  StatusOr<bool> EnsureValidLocked(sim::VirtualClock& clock,
                                   const SlotKey& key, Slot& slot,
                                   size_t first_page, size_t last_page,
                                   Ship ship);
  // Write back the dirty slots among `indices` of one file as ONE batched
  // store write (StoreClient::WriteChunks): one metadata round-trip and
  // one streamed run per benefactor for the whole window.  Locks every
  // involved shard in ascending shard-index order (all other paths hold
  // at most one shard lock, so this cannot deadlock), re-finds the slots
  // (clean/evicted ones are skipped), and clears dirty bits — and counts
  // flushed traffic — only for chunks the store acknowledged.  Returns
  // the first per-chunk failure; those chunks stay dirty.
  Status FlushFileWindow(sim::VirtualClock& clock, store::FileId file,
                         std::span<const uint32_t> indices, bool background);
  // Re-schedule the store operation that ran on `clock` since `t0` onto
  // the per-node daemon pipeline (single service point).
  void SerializeOnDaemon(sim::VirtualClock& clock, int64_t t0);
  // Queue a `duration_ns`-long store operation that started at `t0` on a
  // daemon lane; returns its completion time.
  int64_t ScheduleOnDaemon(int64_t t0, int64_t duration_ns);
  // Reserve `count` residency slots in the global capacity, evicting the
  // globally-oldest entries (shard-aware LRU) until the reservation fits.
  // Must be called with NO shard lock held; the caller owns the
  // reservation and must fetch_sub what it does not insert.
  Status ReserveResidency(sim::VirtualClock& clock, size_t count);
  // Move the slot to the front of its shard's LRU (no allocation).
  void TouchLocked(Shard& sh, Slot& slot);
  // An empty slot: unfilled data, no dirty or valid page.
  Slot NewSlot() const;
  // The slot's chunk_bytes, as the store's reads and writes take them.
  std::span<uint8_t> Bytes(Slot& slot) const {
    return {slot.data.get(), chunk_bytes()};
  }
  // Insert `slot` as the shard's most recently used entry (`sh.mutex`
  // held; the caller owns the residency it takes).
  Slot& InsertLocked(Shard& sh, const SlotKey& key, Slot slot);
  // Remove a resident slot (`sh.mutex` held), releasing its residency and
  // any read-ahead budget it held; returns the next slot.
  SlotMap::iterator EraseLocked(Shard& sh, SlotMap::iterator it);
  // An access reached `slot` (`sh.mutex` held): a prefetch it held is
  // used, not pending.
  void TakePrefetchLocked(Slot& slot);
  // Batched fetch of up to `count` wholly-absent chunks starting at
  // `first`: one manager lookup round-trip, parallel transfers on
  // detached clocks, slots inserted ready_at their completion times.
  // `prefetch` selects the traffic counter and makes EOF misses silent.
  // Must be called with no shard lock held.
  Status FetchRun(sim::VirtualClock& clock, store::FileId file,
                  uint32_t first, uint32_t count, bool prefetch);
  // Length of the run of wholly-absent chunks starting at `first`,
  // scanning at most `max` chunks (shard peeks, no fetch).
  uint32_t AbsentRunLength(store::FileId file, uint32_t first, uint32_t max);

  // Sequential-stream bookkeeping result: the read-ahead batch to issue.
  struct PrefetchPlan {
    uint32_t start = 0;
    uint32_t count = 0;  // 0 = nothing to prefetch
    bool evict_behind = false;
  };
  // Whether a read at `pos` continues one of the file's streams (a
  // read-only peek; UpdateStreams does the bookkeeping).
  bool ContinuesStream(store::FileId file, uint64_t pos) const;
  // Update the file's stream detector with a read of [pos, pos+n) in
  // chunk `index`; returns the read-ahead plan (under stream_mutex_).
  PrefetchPlan UpdateStreams(store::FileId file, uint64_t pos, uint64_t n,
                             uint32_t index);
  // Capacity pressure evicted read-ahead chunk `index` of `file` before
  // any access: the stream whose issued read-ahead covered it halves its
  // window and caps its ramp there, once for all the read-ahead it issued
  // before that shrink.  Takes stream_mutex_; called with no shard lock
  // held.
  void ShrinkWindow(store::FileId file, uint32_t index);
  uint32_t ReadaheadCap(AccessAdvice advice) const;

  store::StoreClient& client_;
  FuseliteConfig config_;
  uint64_t capacity_chunks_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<sim::Resource>> daemons_;
  std::atomic<uint32_t> daemon_rr_{0};
  std::atomic<size_t> resident_{0};
  std::atomic<uint64_t> lru_tick_{0};
  // Prefetched chunks not yet consumed.  Read-ahead batches are clamped so
  // this stays under half the capacity — the kernel's "scale read-ahead to
  // memory pressure" rule, which is what keeps N concurrent streams from
  // evicting each other's windows before use.
  std::atomic<size_t> ra_pending_{0};

  // Sequential-read detector: like the kernel's, it tracks several
  // concurrent streams per file (multiple processes of one node stream
  // disjoint slices of the same mapped file).  It lives under its own
  // small lock so the read/write fast paths never serialise across
  // shards.
  static constexpr size_t kMaxStreams = 16;
  struct StreamState {
    uint64_t next_offset = 0;
    uint64_t last_use = 0;
    uint32_t window = 1;     // next read-ahead batch size (chunks)
    // Where the ramp stops: a wasted prefetch halves the window and pins
    // this to it for the rest of the stream's life.
    uint32_t max_window = UINT32_MAX;
    uint32_t ra_head = 0;    // first chunk not yet prefetched
    uint32_t ra_marker = 0;  // reaching this chunk triggers the next batch
    // Read-ahead below this chunk was issued before the last shrink, which
    // already answered its waste.
    uint32_t shrunk_below = 0;
    // A read has continued this entry.
    bool continued = false;
  };
  // The entry of a file's table that a read at `pos` continues (-1 if
  // none), and in `*stream` whether that entry is a stream: a read has
  // continued it already, or it is the file's previous read.  An entry
  // that an older read left and nothing continued is one read, not a
  // stream.
  static int FindContinued(const std::vector<StreamState>& streams,
                           uint64_t pos, bool* stream);
  mutable std::mutex stream_mutex_;
  std::unordered_map<store::FileId, std::vector<StreamState>> streams_;
  uint64_t stream_tick_ = 0;
  std::unordered_map<store::FileId, AccessAdvice> advice_;

  CacheTraffic traffic_;
};

}  // namespace nvm::fuselite
