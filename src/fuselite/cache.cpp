#include "fuselite/cache.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "common/log.hpp"

namespace nvm::fuselite {

namespace {
// Upper bound on one batched fetch, independent of cache size: keeps a
// single huge read from monopolising the daemon lanes and the NICs.
constexpr uint32_t kMaxBatchChunks = 32;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

ChunkCache::ChunkCache(store::StoreClient& client, FuseliteConfig config)
    : client_(client), config_(config) {
  capacity_chunks_ =
      std::max<uint64_t>(1, config_.cache_bytes / chunk_bytes());
  const size_t shards = RoundUpPow2(std::max<size_t>(1, config_.cache_shards));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  const int lanes = std::max(1, config_.daemon_threads);
  for (int i = 0; i < lanes; ++i) {
    daemons_.push_back(std::make_unique<sim::Resource>(
        "fuse-daemon" + std::to_string(i)));
  }
}

void ChunkCache::SetAdvice(store::FileId file, AccessAdvice advice) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (advice == AccessAdvice::kNormal) {
    advice_.erase(file);
  } else {
    advice_[file] = advice;
  }
}

AccessAdvice ChunkCache::advice(store::FileId file) const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = advice_.find(file);
  return it == advice_.end() ? AccessAdvice::kNormal : it->second;
}

std::vector<size_t> ChunkCache::ShardOccupancy() const {
  std::vector<size_t> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mutex);
    out.push_back(sh->slots.size());
  }
  return out;
}

uint32_t ChunkCache::readahead_window(store::FileId file) const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = streams_.find(file);
  if (it == streams_.end() || it->second.empty()) return 0;
  const StreamState* best = &it->second[0];
  for (const auto& s : it->second) {
    if (s.last_use > best->last_use) best = &s;
  }
  return best->window;
}

void ChunkCache::TouchLocked(Shard& sh, Slot& slot) {
  slot.lru_it->second = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sh.lru.splice(sh.lru.begin(), sh.lru, slot.lru_it);
  sh.oldest_tick.store(sh.lru.back().second, std::memory_order_relaxed);
}

ChunkCache::Slot ChunkCache::NewSlot() const {
  Slot slot;
  slot.data = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes());
  slot.dirty = Bitmap(chunk_bytes() / page_bytes());
  slot.valid = Bitmap(chunk_bytes() / page_bytes());
  return slot;
}

ChunkCache::Slot& ChunkCache::InsertLocked(Shard& sh, const SlotKey& key,
                                           Slot slot) {
  const uint64_t tick = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sh.lru.push_front({key, tick});
  auto [ins, ok] = sh.slots.emplace(key, std::move(slot));
  NVM_CHECK(ok);
  ins->second.lru_it = sh.lru.begin();
  sh.oldest_tick.store(sh.lru.back().second, std::memory_order_relaxed);
  return ins->second;
}

ChunkCache::SlotMap::iterator ChunkCache::EraseLocked(Shard& sh,
                                                      SlotMap::iterator it) {
  if (it->second.ra_pending) {
    ra_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  sh.lru.erase(it->second.lru_it);
  it = sh.slots.erase(it);
  sh.oldest_tick.store(sh.lru.empty() ? ~0ULL : sh.lru.back().second,
                       std::memory_order_relaxed);
  resident_.fetch_sub(1, std::memory_order_relaxed);
  return it;
}

int64_t ChunkCache::ScheduleOnDaemon(int64_t t0, int64_t duration_ns) {
  if (duration_ns <= 0) return t0;
  auto& lane = *daemons_[daemon_rr_.fetch_add(1, std::memory_order_relaxed) %
                         daemons_.size()];
  return lane.Schedule(t0, duration_ns) + duration_ns;
}

void ChunkCache::SerializeOnDaemon(sim::VirtualClock& clock, int64_t t0) {
  // The operation's device/network reservations stay where they were made;
  // the *caller* additionally queues on one of the daemon's worker lanes
  // for the operation's duration, which is what throttles concurrent
  // processes of one node.
  clock.AdvanceTo(ScheduleOnDaemon(t0, clock.now() - t0));
}

Status ChunkCache::FlushFileWindow(sim::VirtualClock& clock,
                                   store::FileId file,
                                   std::span<const uint32_t> indices,
                                   bool background) {
  if (indices.empty()) return OkStatus();
  // Lock every involved shard in ascending shard-index order.  Every other
  // code path holds at most one shard lock at a time, so this total order
  // cannot cycle.
  std::vector<size_t> shard_idx;
  shard_idx.reserve(indices.size());
  for (uint32_t index : indices) {
    shard_idx.push_back(HashPair64(file, index) & shard_mask_);
  }
  std::sort(shard_idx.begin(), shard_idx.end());
  shard_idx.erase(std::unique(shard_idx.begin(), shard_idx.end()),
                  shard_idx.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shard_idx.size());
  for (size_t si : shard_idx) locks.emplace_back(shards_[si]->mutex);

  // Re-find the slots (the caller peeked without holding all the locks):
  // clean and evicted ones are skipped.  `whole` is reserved up front so
  // the all-set bitmaps the ablation path points into never relocate.
  struct Entry {
    Slot* slot;
    size_t pages;  // pages submitted for this chunk
  };
  std::vector<Entry> entries;
  std::vector<store::StoreClient::ChunkWrite> writes;
  std::vector<Bitmap> whole;
  entries.reserve(indices.size());
  writes.reserve(indices.size());
  whole.reserve(indices.size());
  for (uint32_t index : indices) {
    const SlotKey key{file, index};
    Shard& sh = shard_for(key);
    auto it = sh.slots.find(key);
    if (it == sh.slots.end() || it->second.dirty.None()) continue;
    store::StoreClient::ChunkWrite w;
    w.index = index;
    if (config_.dirty_page_writeback) {
      w.dirty = &it->second.dirty;
    } else {
      // Ablation / Table VII "w/o optimisation": ship the whole chunk.
      whole.emplace_back(it->second.dirty.size());
      whole.back().SetAll();
      w.dirty = &whole.back();
    }
    w.image = Bytes(it->second);
    writes.push_back(w);
    entries.push_back({&it->second, w.dirty->PopCount()});
  }
  if (writes.empty()) return OkStatus();

  // Background (eviction-driven) write-back runs on a detached clock —
  // the modelled kernel-writeback thread — so the evicting process keeps
  // going while the devices absorb the write.
  sim::VirtualClock detached(clock.now());
  sim::VirtualClock& wclock =
      (background && config_.async_writeback) ? detached : clock;
  const int64_t t0 = wclock.now();
  // A failed batched prepare leaves every slot dirty and no traffic
  // counted — failed flushes must not inflate the flushed counters.
  NVM_RETURN_IF_ERROR(client_.WriteChunks(wclock, file, writes));

  Status first = OkStatus();
  uint64_t flushed = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    if (!writes[i].status.ok()) {
      // The store never acknowledged this chunk: the pages stay dirty
      // (the cache copy is still the only one) and nothing is counted.
      if (first.ok()) first = writes[i].status;
      continue;
    }
    ++traffic_.flushed_chunks;
    traffic_.flushed_pages += entries[i].pages;
    entries[i].slot->dirty.ClearAll();
    ++flushed;
  }
  if (flushed >= 2) {
    ++traffic_.flush_batches;
    traffic_.flush_batched_chunks += flushed;
  }
  if (&wclock == &clock) SerializeOnDaemon(wclock, t0);
  return first;
}

Status ChunkCache::ReserveResidency(sim::VirtualClock& clock, size_t count) {
  resident_.fetch_add(count, std::memory_order_relaxed);
  while (resident_.load(std::memory_order_relaxed) > capacity_chunks_) {
    // Evict from the shard whose LRU tail is globally oldest.  Under
    // concurrency the relaxed scan is a heuristic; single-threaded it
    // reproduces the old global LRU exactly.
    Shard* victim = nullptr;
    uint64_t best = ~0ULL;
    for (const auto& sh : shards_) {
      const uint64_t t = sh->oldest_tick.load(std::memory_order_relaxed);
      if (t < best) {
        best = t;
        victim = sh.get();
      }
    }
    if (victim == nullptr) break;  // nothing resident to evict
    store::FileId flush_file = store::kInvalidFileId;
    std::vector<uint32_t> flush_indices;
    bool wasted = false;
    SlotKey key{};
    {
      std::lock_guard<std::mutex> lock(victim->mutex);
      if (victim->lru.empty()) continue;  // raced with another evictor
      key = victim->lru.back().first;
      auto it = victim->slots.find(key);
      NVM_CHECK(it != victim->slots.end());
      if (it->second.dirty.None()) {
        // Clean victim: evict immediately.
        wasted = it->second.ra_pending;
        EraseLocked(*victim, it);
        ++traffic_.evictions;
      } else {
        // Dirty victim: coalesce it with the other dirty chunks of the
        // same file living in this shard into one write-back window, so
        // eviction pressure drains in batched runs instead of chunk-sized
        // writes.
        flush_file = key.file;
        flush_indices.push_back(key.index);
        for (const auto& [skey, slot] : victim->slots) {
          if (flush_indices.size() >= kMaxBatchChunks) break;
          if (skey.file != flush_file || skey.index == key.index) continue;
          if (slot.dirty.None()) continue;
          flush_indices.push_back(skey.index);
        }
      }
    }
    if (flush_indices.empty()) {
      // A read-ahead chunk evicted before any access was fetched for
      // nothing: its stream reads further ahead than this cache keeps.
      if (wasted) {
        ++traffic_.prefetch_wasted;
        ShrinkWindow(key.file, key.index);
      }
      continue;
    }
    // Write back outside the victim's lock (the window locks its shards
    // itself); the victim is clean on the next sweep and evicts then.  A
    // total write-back failure (no replicas reached) still wedges the
    // reservation — the dirty data has nowhere else to live — but a
    // degraded write that reached one replica is a success and no longer
    // blocks eviction.
    NVM_RETURN_IF_ERROR(FlushFileWindow(clock, flush_file, flush_indices,
                                        /*background=*/true));
  }
  return OkStatus();
}

void ChunkCache::TakePrefetchLocked(Slot& slot) {
  if (slot.ra_pending) {
    slot.ra_pending = false;
    ra_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
}

StatusOr<ChunkCache::Slot*> ChunkCache::GetOrCreateSlot(
    std::unique_lock<std::mutex>& lk, Shard& sh, sim::VirtualClock& clock,
    const SlotKey& key, bool* cached) {
  *cached = false;
  auto it = sh.slots.find(key);
  if (it != sh.slots.end()) {
    // If this chunk is still in flight from a prefetch or a batched
    // fetch, the reader waits for the remainder of the transfer.
    clock.AdvanceTo(it->second.ready_at);
    if (it->second.fresh_fetch) {
      it->second.fresh_fetch = false;  // the miss that paid for the fetch
    } else {
      *cached = true;
    }
    TakePrefetchLocked(it->second);
    TouchLocked(sh, it->second);
    return &it->second;
  }

  // Make room before inserting.  Eviction may target any shard (including
  // this one), so the shard lock must be dropped around it.
  lk.unlock();
  Status evicted = ReserveResidency(clock, 1);
  lk.lock();
  if (!evicted.ok()) {
    resident_.fetch_sub(1, std::memory_order_relaxed);
    return evicted;
  }
  it = sh.slots.find(key);
  if (it != sh.slots.end()) {
    // Another thread materialised the slot while the lock was dropped.
    resident_.fetch_sub(1, std::memory_order_relaxed);
    clock.AdvanceTo(it->second.ready_at);
    TakePrefetchLocked(it->second);
    TouchLocked(sh, it->second);
    return &it->second;
  }

  Slot slot = NewSlot();
  slot.ready_at = clock.now();
  return &InsertLocked(sh, key, std::move(slot));
}

StatusOr<bool> ChunkCache::EnsureValidLocked(sim::VirtualClock& clock,
                                             const SlotKey& key, Slot& slot,
                                             size_t first_page,
                                             size_t last_page, Ship ship) {
  // Ask only for the still-invalid pages of [first, last].
  while (first_page <= last_page && slot.valid.Test(first_page)) ++first_page;
  if (first_page > last_page) return false;
  while (slot.valid.Test(last_page)) --last_page;

  // The store returns at least those pages — only those, or the whole
  // replica or erasure fragments that hold them — and only the invalid
  // pages of what landed are filled (dirty local pages are never
  // clobbered).  A slot with no valid page has nothing to clobber, so the
  // pages land in place; otherwise they land in a staging buffer, which
  // needs no zeroing because only the landed pages are read back.
  const bool in_place = slot.valid.None();
  std::unique_ptr<uint8_t[]> staged;
  if (!in_place) {
    staged = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes());
  }
  const std::span<uint8_t> into =
      in_place ? Bytes(slot) : std::span<uint8_t>(staged.get(), chunk_bytes());
  const int64_t t0 = clock.now();
  NVM_ASSIGN_OR_RETURN(
      const store::StoreClient::PageRange got,
      client_.ReadChunkPages(clock, key.file, key.index, first_page, last_page,
                             into, ship));
  SerializeOnDaemon(clock, t0);
  ++traffic_.fetched_chunks;
  for (size_t p = got.first; p <= got.last; ++p) {
    if (slot.valid.Test(p)) continue;
    if (!in_place) {
      std::memcpy(slot.data.get() + p * page_bytes(),
                  staged.get() + p * page_bytes(), page_bytes());
    }
    slot.valid.Set(p);
  }
  slot.ready_at = std::max(slot.ready_at, clock.now());
  return true;
}

uint32_t ChunkCache::AbsentRunLength(store::FileId file, uint32_t first,
                                     uint32_t max) {
  uint32_t run = 0;
  while (run < max) {
    const SlotKey key{file, first + run};
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.slots.contains(key)) break;
    ++run;
  }
  return run;
}

Status ChunkCache::FetchRun(sim::VirtualClock& clock, store::FileId file,
                            uint32_t first, uint32_t count, bool prefetch) {
  count = static_cast<uint32_t>(std::min<uint64_t>(
      count, std::min<uint64_t>(capacity_chunks_, kMaxBatchChunks)));
  std::vector<uint32_t> absent;
  for (uint32_t i = 0; i < count; ++i) {
    const SlotKey key{file, first + i};
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (!sh.slots.contains(key)) absent.push_back(first + i);
  }
  if (absent.empty()) return OkStatus();

  // Read-ahead runs entirely on a detached clock: the application keeps
  // computing while the chunks are in flight and only pays the residual
  // wait on arrival (ready_at handling in GetOrCreateSlot).  A foreground
  // batch charges the single metadata lookup to the caller and detaches
  // only the data transfers, which the reader then drains chunk by chunk.
  sim::VirtualClock detached(clock.now());
  sim::VirtualClock& bclock = prefetch ? detached : clock;

  // Reserve residency up front so the batch's own inserts cannot evict
  // its not-yet-consumed members mid-flight.
  Status reserved = ReserveResidency(bclock, absent.size());
  if (!reserved.ok()) {
    resident_.fetch_sub(absent.size(), std::memory_order_relaxed);
    return prefetch ? OkStatus() : reserved;
  }

  std::vector<Slot> slots;
  slots.reserve(absent.size());
  std::vector<store::StoreClient::ChunkFetch> fetches(absent.size());
  for (size_t i = 0; i < absent.size(); ++i) {
    slots.push_back(NewSlot());
    fetches[i].index = absent[i];
    fetches[i].out = Bytes(slots[i]);
  }

  Status looked_up = client_.ReadChunks(bclock, file, fetches);
  if (!looked_up.ok()) {
    // Beyond EOF or store unavailable: leave the chunks absent.  A
    // foreground read recovers through the single-chunk path, which
    // reports the error with the usual context.
    resident_.fetch_sub(absent.size(), std::memory_order_relaxed);
    return OkStatus();
  }

  const int64_t t_base = bclock.now();
  uint64_t landed = 0;
  int64_t prev_done = t_base;
  // Consume completions in arrival order: the batched store path streams
  // chunks per benefactor, so array order and arrival order diverge.
  // Ordering by ready_at keeps the marginal daemon charge equal to each
  // chunk's true inter-arrival gap.
  std::vector<size_t> arrival(absent.size());
  for (size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  std::stable_sort(arrival.begin(), arrival.end(), [&](size_t a, size_t b) {
    return fetches[a].ready_at < fetches[b].ready_at;
  });
  for (size_t i : arrival) {
    if (!fetches[i].status.ok()) {
      resident_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    Slot& slot = slots[i];
    slot.valid.SetAll();
    // Charge a daemon lane only the chunk's marginal completion time
    // within the batch: the shared NICs already model the transfer
    // queueing, and billing each chunk for the whole time since batch
    // start would occupy the lanes quadratically in the batch size.
    const int64_t marginal = std::max<int64_t>(
        0, fetches[i].ready_at - prev_done);
    slot.ready_at =
        ScheduleOnDaemon(fetches[i].ready_at - marginal, marginal);
    prev_done = std::max(prev_done, fetches[i].ready_at);
    slot.fresh_fetch = !prefetch;
    slot.ra_pending = prefetch;
    const SlotKey key{file, absent[i]};
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.slots.contains(key)) {
      resident_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // raced with another fetcher; keep the existing copy
    }
    InsertLocked(sh, key, std::move(slot));
    if (prefetch) {
      ++traffic_.prefetched_chunks;
      ra_pending_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++traffic_.fetched_chunks;
    }
    ++landed;
  }
  if (landed > 0) {
    ++traffic_.fetch_batches;
    traffic_.batched_chunks += landed;
  }
  return OkStatus();
}

int ChunkCache::FindContinued(const std::vector<StreamState>& streams,
                              uint64_t pos, bool* stream) {
  uint64_t previous = 0;  // the file's previous read used this entry
  for (const StreamState& s : streams) {
    previous = std::max(previous, s.last_use);
  }
  // Several entries can end at `pos`; a stream among them wins.
  int found = -1;
  *stream = false;
  for (size_t i = 0; i < streams.size() && !*stream; ++i) {
    if (streams[i].next_offset != pos) continue;
    found = static_cast<int>(i);
    *stream = streams[i].continued || streams[i].last_use == previous;
  }
  return found;
}

bool ChunkCache::ContinuesStream(store::FileId file, uint64_t pos) const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = streams_.find(file);
  if (it == streams_.end()) return false;
  bool stream = false;
  FindContinued(it->second, pos, &stream);
  return stream;
}

void ChunkCache::ShrinkWindow(store::FileId file, uint32_t index) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = streams_.find(file);
  if (it == streams_.end()) return;
  for (StreamState& s : it->second) {
    const uint64_t consumer = s.next_offset / chunk_bytes();
    if (consumer <= index && index < s.ra_head) {
      if (index < s.shrunk_below) return;
      s.window = std::max(1u, s.window / 2);
      s.max_window = s.window;
      s.shrunk_below = s.ra_head;
      return;
    }
  }
}

ChunkCache::PrefetchPlan ChunkCache::UpdateStreams(store::FileId file,
                                                   uint64_t pos, uint64_t n,
                                                   uint32_t index) {
  PrefetchPlan plan;
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto adv = AccessAdvice::kNormal;
  if (auto ait = advice_.find(file); ait != advice_.end()) adv = ait->second;
  auto& streams = streams_[file];
  ++stream_tick_;
  // A read continuing where one of the file's entries ended advances it
  // and, if the entry is a stream, may trigger the next read-ahead batch.
  bool stream = false;
  if (const int at = FindContinued(streams, pos, &stream); at >= 0) {
    StreamState& s = streams[at];
    s.next_offset = pos + n;
    s.last_use = stream_tick_;
    s.continued = true;
    if (adv == AccessAdvice::kStreamOnce && index > 0 &&
        (pos + n) % chunk_bytes() == 0) {
      // The previous chunk has been fully consumed and will not be
      // touched again: drop it immediately (evict-behind).
      plan.evict_behind = true;
    }
    if (!stream || !config_.readahead) return plan;
    // Kernel-style ramp: each batch doubles the window up to the advice
    // cap, and reaching the start of the previously issued batch (the
    // marker) triggers the next one.  The ahead-limit keeps the pipeline
    // from running more than `cap` chunks past the consumer.
    const uint32_t cap = ReadaheadCap(adv);
    if (s.ra_head == 0 || index >= s.ra_marker) {
      // Scale the batch to the global read-ahead budget: speculative
      // chunks nobody has consumed yet may fill at most half the cache,
      // or concurrent streams evict each other's windows before use.
      // Every live stream always gets at least one chunk ahead (the old
      // fixed prefetch) — a stream starved to zero would fall back to
      // full-cost foreground misses, which is worse than over-budget.
      const size_t pending = ra_pending_.load(std::memory_order_relaxed);
      const size_t budget_total = std::max<size_t>(1, capacity_chunks_ / 2);
      const auto budget = static_cast<uint32_t>(
          pending < budget_total ? budget_total - pending : 0);
      const uint32_t allowed = std::max(1u, std::min(s.window, budget));
      const uint32_t start = std::max(s.ra_head, index + 1);
      const uint32_t end = std::min(start + allowed, index + 1 + cap);
      if (end > start) {
        plan.start = start;
        plan.count = end - start;
        s.ra_marker = start;
        s.ra_head = end;
        s.window = std::min({s.window * 2, cap, s.max_window});
      }
    }
    return plan;
  }
  // A new entry: remember it (replacing the least recently used slot when
  // the table is full) with a fresh 1-chunk read-ahead window.
  if (streams.size() < kMaxStreams) {
    streams.push_back({.next_offset = pos + n, .last_use = stream_tick_});
  } else {
    auto* lru = &streams[0];
    for (auto& s : streams) {
      if (s.last_use < lru->last_use) lru = &s;
    }
    *lru = {.next_offset = pos + n, .last_use = stream_tick_};
  }
  return plan;
}

uint32_t ChunkCache::ReadaheadCap(AccessAdvice advice) const {
  const uint32_t base = std::max<uint32_t>(1, config_.readahead_max_chunks);
  switch (advice) {
    case AccessAdvice::kWriteOnceReadMany:
      // The variable will be streamed repeatedly: run the pipeline twice
      // as deep.
      return base * 2;
    case AccessAdvice::kStreamOnce:
      // Evict-behind keeps the footprint tiny; a deep window would just
      // re-grow it, so stay one chunk ahead like the old fixed prefetch.
      return 1;
    default:
      return base;
  }
}

Status ChunkCache::Read(sim::VirtualClock& clock, store::FileId file,
                        uint64_t offset, std::span<uint8_t> out) {
  clock.Advance(config_.per_op_software_ns);
  traffic_.app_bytes_read += out.size();

  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const auto index = static_cast<uint32_t>(pos / chunk_bytes());
    const uint64_t within = pos % chunk_bytes();
    const uint64_t n =
        std::min<uint64_t>(chunk_bytes() - within, out.size() - done);
    const SlotKey key{file, index};

    // A cold read spanning several wholly-absent chunks fetches the run
    // with one metadata round-trip and overlapped transfers instead of a
    // lookup per chunk.
    const uint64_t span_chunks =
        (pos + (out.size() - done) + chunk_bytes() - 1) / chunk_bytes() -
        index;
    if (span_chunks >= 2) {
      const uint32_t max_run = static_cast<uint32_t>(std::min<uint64_t>(
          span_chunks, std::min<uint64_t>(capacity_chunks_, kMaxBatchChunks)));
      const uint32_t run = AbsentRunLength(file, index, max_run);
      if (run >= 2) {
        NVM_RETURN_IF_ERROR(
            FetchRun(clock, file, index, run, /*prefetch=*/false));
      }
    }

    // A miss that continues one of the file's streams fetches whole units
    // (the stream reads on); any other miss ships only its pages.
    const Ship ship =
        ContinuesStream(file, pos) ? Ship::kWholeUnits : Ship::kPages;
    Shard& sh = shard_for(key);
    std::unique_lock<std::mutex> lk(sh.mutex);
    bool cached = false;
    NVM_ASSIGN_OR_RETURN(Slot * slot,
                         GetOrCreateSlot(lk, sh, clock, key, &cached));
    NVM_ASSIGN_OR_RETURN(
        const bool fetched,
        EnsureValidLocked(clock, key, *slot, within / page_bytes(),
                          (within + n - 1) / page_bytes(), ship));
    if (cached && !fetched) ++traffic_.hit_chunks;
    std::memcpy(out.data() + done, slot->data.get() + within, n);
    lk.unlock();

    const PrefetchPlan plan = UpdateStreams(file, pos, n, index);
    if (plan.count > 0) {
      NVM_RETURN_IF_ERROR(
          FetchRun(clock, file, plan.start, plan.count, /*prefetch=*/true));
    }
    if (plan.evict_behind) {
      const SlotKey prev{file, index - 1};
      Shard& psh = shard_for(prev);
      std::lock_guard<std::mutex> plock(psh.mutex);
      auto pit = psh.slots.find(prev);
      if (pit != psh.slots.end() && pit->second.dirty.None()) {
        EraseLocked(psh, pit);
        ++traffic_.evictions;
      }
    }
    done += n;
  }
  return OkStatus();
}

Status ChunkCache::Write(sim::VirtualClock& clock, store::FileId file,
                         uint64_t offset, std::span<const uint8_t> in) {
  clock.Advance(config_.per_op_software_ns);
  traffic_.app_bytes_written += in.size();

  uint64_t done = 0;
  while (done < in.size()) {
    const uint64_t pos = offset + done;
    const auto index = static_cast<uint32_t>(pos / chunk_bytes());
    const uint64_t within = pos % chunk_bytes();
    const uint64_t n =
        std::min<uint64_t>(chunk_bytes() - within, in.size() - done);
    const SlotKey key{file, index};
    Shard& sh = shard_for(key);
    std::unique_lock<std::mutex> lk(sh.mutex);
    bool cached = false;
    NVM_ASSIGN_OR_RETURN(Slot * slot,
                         GetOrCreateSlot(lk, sh, clock, key, &cached));
    const size_t first_page = within / page_bytes();
    const size_t last_page = (within + n - 1) / page_bytes();
    bool fetched = false;
    if (!config_.dirty_page_writeback) {
      // Chunk-granular baseline (Table VII "w/o optimisation"): the dirty
      // unit is the whole chunk, so the whole chunk must be materialised
      // before any modification.
      NVM_ASSIGN_OR_RETURN(
          fetched, EnsureValidLocked(clock, key, *slot, 0,
                                     slot->valid.size() - 1,
                                     Ship::kWholeUnits));
    } else {
      // Partially covered head/tail pages need their old contents first
      // (read-modify-write); fully covered pages are written blind.  Both
      // ends come in one pages-only store call over [head, tail].
      const bool head =
          within % page_bytes() != 0 && !slot->valid.Test(first_page);
      const bool tail =
          (within + n) % page_bytes() != 0 && !slot->valid.Test(last_page);
      if (head || tail) {
        NVM_ASSIGN_OR_RETURN(
            fetched, EnsureValidLocked(clock, key, *slot,
                                       head ? first_page : last_page,
                                       tail ? last_page : first_page,
                                       Ship::kPages));
      }
    }
    if (cached && !fetched) ++traffic_.hit_chunks;
    std::memcpy(slot->data.get() + within, in.data() + done, n);
    for (size_t p = first_page; p <= last_page; ++p) {
      slot->dirty.Set(p);
      slot->valid.Set(p);
    }

    done += n;
  }
  return OkStatus();
}

Status ChunkCache::Flush(sim::VirtualClock& clock, store::FileId file) {
  // Snapshot the dirty set with short per-shard peeks, then write each
  // file's chunks back in batched windows.  std::map keeps the file order
  // (and with the sort below, the window contents) deterministic.
  std::map<store::FileId, std::vector<uint32_t>> dirty;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mutex);
    for (auto& [key, slot] : shp->slots) {
      if (file != store::kInvalidFileId && key.file != file) continue;
      if (slot.dirty.None()) continue;
      dirty[key.file].push_back(key.index);
    }
  }
  Status first = OkStatus();
  for (auto& [fid, indices] : dirty) {
    std::sort(indices.begin(), indices.end());
    for (size_t i = 0; i < indices.size(); i += kMaxBatchChunks) {
      const size_t n = std::min<size_t>(kMaxBatchChunks, indices.size() - i);
      Status s = FlushFileWindow(
          clock, fid, std::span<const uint32_t>(indices).subspan(i, n),
          /*background=*/false);
      if (first.ok() && !s.ok()) first = s;
    }
  }
  return first;
}

Status ChunkCache::Drop(sim::VirtualClock& clock, store::FileId file) {
  // Best-effort write-back of the file's dirty chunks, in batched windows.
  const Status flushed = Flush(clock, file);
  if (!flushed.ok()) {
    NVM_WLOG("write-back failed while dropping file %llu: %s",
             static_cast<unsigned long long>(file), flushed.message().c_str());
  }

  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mutex);
    for (auto it = shp->slots.begin(); it != shp->slots.end();) {
      if (it->first.file != file) {
        ++it;
        continue;
      }
      if (it->second.dirty.Any()) {
        // Drop destroys the slot either way (ssdfree / invalidate), and
        // Sync() is the durability barrier that already surfaced this
        // error.  Losing dirty data here is the documented consequence of
        // an unreplicated benefactor failure; wedging the drop would just
        // leak the slot.
        ++traffic_.dropped_dirty;
        NVM_WLOG("dropping dirty chunk %u of file %llu after failed "
                 "write-back",
                 it->first.index,
                 static_cast<unsigned long long>(it->first.file));
      }
      it = EraseLocked(*shp, it);
    }
  }
  std::lock_guard<std::mutex> lock(stream_mutex_);
  streams_.erase(file);
  return OkStatus();
}

}  // namespace nvm::fuselite
