#include "store/client.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "store/erasure.hpp"
#include "store/qos.hpp"

namespace nvm::store {

StoreClient::StoreClient(net::Cluster& cluster, Manager& manager,
                         int local_node, QosScheduler* qos)
    : cluster_(cluster),
      manager_(manager),
      local_node_(local_node),
      qos_(qos) {}

void StoreClient::ChargeMetaRoundTrip(sim::VirtualClock& clock) {
  const StoreConfig& cfg = manager_.config();
  meta_rtts_.Add(1);
  cluster_.network().Transfer(clock, local_node_, manager_.node_id(),
                              cfg.meta_request_bytes);
  cluster_.network().Transfer(clock, manager_.node_id(), local_node_,
                              cfg.meta_response_bytes);
  // Every manager contact also paces the background maintenance worker:
  // its heartbeat/scrub schedule follows foreground virtual time.
  manager_.MaintenanceTick(clock.now());
}

StatusOr<FileId> StoreClient::Create(sim::VirtualClock& clock,
                                     const std::string& name) {
  ChargeMetaRoundTrip(clock);
  return manager_.CreateFile(clock, name);
}

StatusOr<FileId> StoreClient::Open(sim::VirtualClock& clock,
                                   const std::string& name) {
  ChargeMetaRoundTrip(clock);
  return manager_.LookupFile(clock, name);
}

StatusOr<FileInfo> StoreClient::Stat(sim::VirtualClock& clock, FileId id) {
  ChargeMetaRoundTrip(clock);
  return manager_.Stat(clock, id);
}

Status StoreClient::Fallocate(sim::VirtualClock& clock, FileId id,
                              uint64_t size) {
  ChargeMetaRoundTrip(clock);
  return manager_.Fallocate(clock, id, size, local_node_);
}

Status StoreClient::Unlink(sim::VirtualClock& clock, FileId id) {
  ChargeMetaRoundTrip(clock);
  return manager_.Unlink(clock, id);
}

StatusOr<uint64_t> StoreClient::LinkFileChunks(sim::VirtualClock& clock,
                                               FileId dst, FileId src) {
  ChargeMetaRoundTrip(clock);
  return manager_.LinkFileChunks(clock, dst, src);
}

StatusOr<ReadLocation> StoreClient::LookupRead(sim::VirtualClock& clock,
                                               FileId id,
                                               uint32_t chunk_index,
                                               bool refresh) {
  const LocKey key{id, chunk_index};
  if (!refresh) {
    std::lock_guard<std::mutex> lock(loc_mutex_);
    auto it = loc_cache_.find(key);
    if (it != loc_cache_.end()) return it->second;
  }
  ChargeMetaRoundTrip(clock);
  NVM_ASSIGN_OR_RETURN(ReadLocation loc,
                       manager_.GetReadLocation(clock, id, chunk_index));
  std::lock_guard<std::mutex> lock(loc_mutex_);
  loc_cache_[key] = loc;
  return loc;
}

Status StoreClient::LookupReadMany(sim::VirtualClock& clock, FileId id,
                                   uint32_t first, uint32_t count) {
  if (count == 0) return OkStatus();
  bool all_cached = true;
  {
    std::lock_guard<std::mutex> lock(loc_mutex_);
    for (uint32_t i = 0; i < count; ++i) {
      if (!loc_cache_.contains(LocKey{id, first + i})) {
        all_cached = false;
        break;
      }
    }
  }
  if (all_cached) return OkStatus();
  ChargeMetaRoundTrip(clock);
  NVM_ASSIGN_OR_RETURN(std::vector<ReadLocation> locs,
                       manager_.GetReadLocations(clock, id, first, count));
  std::lock_guard<std::mutex> lock(loc_mutex_);
  for (uint32_t i = 0; i < locs.size(); ++i) {
    loc_cache_[LocKey{id, first + i}] = locs[i];
  }
  return OkStatus();
}

void StoreClient::InvalidateLocation(FileId id, uint32_t chunk_index) {
  std::lock_guard<std::mutex> lock(loc_mutex_);
  loc_cache_.erase(LocKey{id, chunk_index});
}

Status StoreClient::ReadChunk(sim::VirtualClock& clock, FileId id,
                              uint32_t chunk_index, std::span<uint8_t> out) {
  const int64_t t0 = clock.now();
  Status s = ReadChunkInner(clock, id, chunk_index, out);
  if (s.ok() && qos_ != nullptr) qos_->RecordRead(tenant_, clock.now() - t0);
  return s;
}

Status StoreClient::ReadChunkInner(sim::VirtualClock& clock, FileId id,
                                   uint32_t chunk_index,
                                   std::span<uint8_t> out) {
  const StoreConfig& cfg = manager_.config();
  NVM_CHECK(out.size() == cfg.chunk_bytes);

  for (int attempt = 0; attempt < 2; ++attempt) {
    // Second attempt forces a fresh manager lookup (the cached location
    // may be stale after a COW or a benefactor failure).
    NVM_ASSIGN_OR_RETURN(
        ReadLocation loc,
        LookupRead(clock, id, chunk_index, /*refresh=*/attempt > 0));

    if (loc.ec) {
      Status s = ReadStripe(clock, id, chunk_index, loc, out);
      if (s.ok()) return s;
      // Below k readable fragments on this resolution: quarantines and
      // MarkDeads already went to the manager, so a fresh lookup may see
      // a repaired stripe.
      InvalidateLocation(id, chunk_index);
      if (attempt > 0) return s;
      continue;
    }

    Status last = Unavailable("no replicas");
    for (int bid : loc.benefactors) {
      Benefactor* b = manager_.benefactor(bid);
      NVM_CHECK(b != nullptr);
      // Request message to the benefactor, then the chunk comes back.
      cluster_.network().Transfer(clock, local_node_, b->node_id(),
                                  cfg.meta_request_bytes);
      bool sparse = false;
      Status s = b->ReadChunk(clock, loc.key, out, &sparse, tenant_);
      if (s.ok()) {
        // A hole costs only the "no such chunk" reply, not a data
        // transfer.
        cluster_.network().Transfer(
            clock, b->node_id(), local_node_,
            sparse ? cfg.meta_response_bytes : cfg.chunk_bytes);
        if (!sparse) bytes_fetched_.Add(cfg.chunk_bytes);
        return OkStatus();
      }
      last = s;
      if (s.code() == ErrorCode::kUnavailable) {
        manager_.MarkDead(bid);
        NVM_WLOG("benefactor %d unavailable reading %s; trying next replica",
                 bid, loc.key.ToString().c_str());
      } else if (s.code() == ErrorCode::kCorrupt) {
        // The replica failed its checksum: treat it like a dead copy.
        // ReportCorrupt quarantines it at the manager (strips the replica,
        // queues a repair from a verified survivor); the cached location
        // now names a stripped replica, so drop it before the next read
        // resolves afresh.
        corrupt_failovers_.Add(1);
        manager_.ReportCorrupt(clock, loc.key, bid);
        InvalidateLocation(id, chunk_index);
        NVM_WLOG("benefactor %d served corrupt %s; trying next replica",
                 bid, loc.key.ToString().c_str());
      }
    }
    InvalidateLocation(id, chunk_index);
    if (attempt > 0) return last;
  }
  return Unavailable("no replicas");
}

Status StoreClient::ReadStripe(sim::VirtualClock& clock, FileId id,
                               uint32_t chunk_index, const ReadLocation& loc,
                               std::span<uint8_t> out) {
  const StoreConfig& cfg = manager_.config();
  const size_t k = cfg.ec_k;
  const size_t nf = cfg.ec_fragments();
  const uint64_t fb = cfg.ec_frag_bytes();
  if (loc.benefactors.size() != nf) {
    return Unavailable("erasure stripe lost");  // durably below k survivors
  }

  // Live positions in preference order: data fragments first (the
  // systematic fast path), parity fills in for holes and failures.
  std::vector<size_t> candidates;
  candidates.reserve(nf);
  for (size_t pos = 0; pos < nf; ++pos) {
    if (loc.benefactors[pos] >= 0) candidates.push_back(pos);
  }

  std::vector<std::vector<uint8_t>> frags(nf);
  size_t good = 0;
  size_t next = 0;
  bool saw_corrupt = false;
  Status last = Unavailable("fewer than k fragments readable");
  // Each round issues the (k - good) outstanding fetches in parallel —
  // clocks forked at the round start, joined at the max — and failures
  // discovered at the join pull the next candidates in a follow-up round.
  int64_t round_start = clock.now();
  while (good < k && next < candidates.size()) {
    int64_t join = round_start;
    const size_t want = std::min(candidates.size(), next + (k - good));
    const size_t begin = next;
    next = want;
    for (size_t c = begin; c < want; ++c) {
      const size_t pos = candidates[c];
      const int bid = loc.benefactors[pos];
      Benefactor* b = manager_.benefactor(bid);
      NVM_CHECK(b != nullptr);
      sim::VirtualClock frag_clock(round_start);
      cluster_.network().Transfer(frag_clock, local_node_, b->node_id(),
                                  cfg.meta_request_bytes);
      std::vector<uint8_t> buf(fb);
      bool sparse = false;
      Status s = b->ReadFragment(frag_clock, loc.key, buf, &sparse, tenant_);
      if (s.ok()) {
        // A hole costs only the "no such fragment" reply (it reads as
        // zeros — a never-written region of the stripe).
        cluster_.network().Transfer(
            frag_clock, b->node_id(), local_node_,
            sparse ? cfg.meta_response_bytes : fb);
        if (!sparse) bytes_fetched_.Add(fb);
        frags[pos] = std::move(buf);
        ++good;
      } else {
        last = s;
        if (s.code() == ErrorCode::kUnavailable) {
          manager_.MarkDead(bid);
          NVM_WLOG(
              "benefactor %d unavailable reading fragment %zu of %s; "
              "falling over to parity",
              bid, pos, loc.key.ToString().c_str());
        } else if (s.code() == ErrorCode::kCorrupt) {
          // The fragment failed its checksum: rot surfaces as CORRUPT,
          // never as wrong bytes in the assembled chunk.  Quarantine it
          // and reconstruct from the survivors.
          saw_corrupt = true;
          corrupt_failovers_.Add(1);
          manager_.ReportCorrupt(frag_clock, loc.key, bid);
          NVM_WLOG("benefactor %d served corrupt fragment %zu of %s; "
                   "falling over to parity",
                   bid, pos, loc.key.ToString().c_str());
        }
      }
      join = std::max(join, frag_clock.now());
    }
    clock.AdvanceTo(join);
    round_start = join;
  }
  if (saw_corrupt) {
    // The quarantine punched a hole this cached location still names.
    InvalidateLocation(id, chunk_index);
  }
  if (good < k) return last;

  bool data_complete = true;
  for (size_t pos = 0; pos < k; ++pos) {
    if (frags[pos].empty()) data_complete = false;
  }
  if (!data_complete) {
    // Degraded read: any k of the k+m fragments reconstruct the chunk.
    // The matrix solve is charged as one chunk through the encode engine.
    ec_degraded_reads_.Add(1);
    manager_.NoteEcDegradedRead();
    clock.Advance(cfg.ec_encode_ns(cfg.chunk_bytes));
    ErasureCodec codec(cfg.ec_k, cfg.ec_m);
    NVM_CHECK(codec.Reconstruct(frags),
              "k fragments must reconstruct the stripe");
  }
  ErasureCodec::Assemble(frags, cfg.ec_k, out);
  return OkStatus();
}

Status StoreClient::ReadRun(sim::VirtualClock& clock,
                            const BenefactorRun& run,
                            std::span<const ReadLocation> locs,
                            std::span<ChunkFetch> fetches) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(run.benefactor);
  NVM_CHECK(b != nullptr);
  run_rpcs_.Add(1);

  // One request header covers the whole run.
  cluster_.network().Transfer(clock, local_node_, b->node_id(),
                              cfg.meta_request_bytes);

  std::vector<ChunkKey> keys;
  keys.reserve(run.items.size());
  for (size_t idx : run.items) keys.push_back(locs[idx].key);

  // The reply is one stream: each chunk is pushed as soon as it leaves the
  // device and rides back-to-back behind its predecessor on the NICs.
  net::StreamTransfer reply(cluster_.network(), b->node_id(), local_node_);
  size_t next = 0;
  uint64_t data_bytes = 0;
  Status streamed = b->ReadChunkRun(
      clock, keys,
      [&](const ChunkRunItem& item, std::span<const uint8_t> data) -> Status {
        ChunkFetch& f = fetches[run.items[next]];
        ++next;
        if (item.sparse) {
          // A hole costs only the "no such chunk" marker in the stream.
          std::memset(f.out.data(), 0, f.out.size());
          f.ready_at = reply.Push(item.ready_at, cfg.meta_response_bytes);
        } else {
          NVM_CHECK(data.size() == f.out.size());
          std::memcpy(f.out.data(), data.data(), data.size());
          f.ready_at = reply.Push(item.ready_at, cfg.chunk_bytes);
          data_bytes += cfg.chunk_bytes;
        }
        f.status = OkStatus();
        return OkStatus();
      },
      tenant_);
  if (!streamed.ok()) return streamed;
  bytes_fetched_.Add(data_bytes);
  return OkStatus();
}

Status StoreClient::ReadChunks(sim::VirtualClock& clock, FileId id,
                               std::span<ChunkFetch> fetches) {
  const int64_t t_entry = clock.now();
  Status s = ReadChunksInner(clock, id, fetches);
  if (s.ok() && qos_ != nullptr) {
    for (const ChunkFetch& f : fetches) {
      if (f.status.ok()) qos_->RecordRead(tenant_, f.ready_at - t_entry);
    }
  }
  return s;
}

Status StoreClient::ReadChunksInner(sim::VirtualClock& clock, FileId id,
                                    std::span<ChunkFetch> fetches) {
  if (fetches.empty()) return OkStatus();
  const StoreConfig& cfg = manager_.config();
  uint32_t lo = fetches[0].index;
  uint32_t hi = fetches[0].index;
  for (const ChunkFetch& f : fetches) {
    lo = std::min(lo, f.index);
    hi = std::max(hi, f.index);
  }
  // One control-plane hop covers the whole span (present chunks included —
  // the extra locations just warm the cache).
  NVM_RETURN_IF_ERROR(LookupReadMany(clock, id, lo, hi - lo + 1));
  const int64_t t0 = clock.now();

  // Erasure stripes scatter a chunk across k+m benefactors, so there is no
  // primary holder to stream a run from: every chunk takes the per-chunk
  // stripe path on its own detached clock.
  if (cfg.ec()) {
    for (ChunkFetch& f : fetches) {
      // Each transfer branches off the post-lookup time: requests to
      // distinct benefactors overlap, and shared NICs/devices serialise
      // naturally through their modelled resources.  The location cache is
      // already warm, so ReadChunk issues no further lookups unless a
      // replica fails.
      sim::VirtualClock detached(t0);
      f.status = ReadChunkInner(detached, id, f.index, f.out);
      f.ready_at = detached.now();
    }
    return OkStatus();
  }

  // Resolve the batch from the (just warmed) location cache.  A fetch with
  // no cached location (beyond EOF) keeps the per-chunk path so it reports
  // the usual per-chunk error.
  std::vector<ReadLocation> locs(fetches.size());
  {
    std::lock_guard<std::mutex> lock(loc_mutex_);
    for (size_t i = 0; i < fetches.size(); ++i) {
      auto it = loc_cache_.find(LocKey{id, fetches[i].index});
      if (it != loc_cache_.end()) locs[i] = it->second;
    }
  }
  for (size_t i = 0; i < fetches.size(); ++i) {
    if (!locs[i].benefactors.empty()) continue;
    sim::VirtualClock detached(t0);
    fetches[i].status = ReadChunkInner(detached, id, fetches[i].index,
                                       fetches[i].out);
    fetches[i].ready_at = detached.now();
  }

  // One streamed run per benefactor, each on its own clock branched at the
  // post-lookup time, so runs against distinct benefactors overlap.
  for (const BenefactorRun& run : Manager::GroupByPrimaryBenefactor(locs)) {
    sim::VirtualClock run_clock(t0);
    Status s = ReadRun(run_clock, run, locs, fetches);
    if (s.ok()) continue;
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid-run (%zu chunks); discarding the run "
          "and falling back to per-chunk reads",
          run.benefactor, run.items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  Re-read every
    // chunk through the per-chunk path, which refreshes stale locations and
    // falls over to surviving replicas.
    for (size_t idx : run.items) {
      sim::VirtualClock fallback(t0);
      fetches[idx].status =
          ReadChunkInner(fallback, id, fetches[idx].index, fetches[idx].out);
      fetches[idx].ready_at = fallback.now();
    }
  }
  return OkStatus();
}

Status StoreClient::WriteReplica(sim::VirtualClock& clock,
                                 const WriteLocation& loc, int bid,
                                 const Bitmap& dirty_pages,
                                 std::span<const uint8_t> chunk_image,
                                 const uint32_t* crc, uint32_t* stored_crc) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(bid);
  NVM_CHECK(b != nullptr);
  if (loc.needs_clone) {
    // COW: instruct the benefactor to clone locally before the write.
    cluster_.network().Transfer(clock, local_node_, b->node_id(),
                                cfg.meta_request_bytes);
    NVM_RETURN_IF_ERROR(
        b->CloneChunk(clock, loc.clone_from, loc.key, tenant_));
  }
  // Ship only the dirty pages — admission first: the scheduler gates the
  // request before its bytes occupy the benefactor's NIC.
  const uint64_t dirty_bytes = dirty_pages.PopCount() * cfg.page_bytes;
  b->AdmitTransfer(clock, tenant_, dirty_bytes, /*is_write=*/true,
                   dirty_bytes + cfg.meta_request_bytes);
  cluster_.network().Transfer(clock, local_node_, b->node_id(),
                              dirty_bytes + cfg.meta_request_bytes);
  NVM_RETURN_IF_ERROR(b->WritePages(clock, loc.key, dirty_pages,
                                    chunk_image, crc, stored_crc, tenant_));
  cluster_.network().Transfer(clock, b->node_id(), local_node_,
                              cfg.meta_response_bytes);
  return OkStatus();
}

Status StoreClient::WriteChunkPages(sim::VirtualClock& clock, FileId id,
                                    uint32_t chunk_index,
                                    const Bitmap& dirty_pages,
                                    std::span<const uint8_t> chunk_image) {
  ChunkWrite w{chunk_index, &dirty_pages, chunk_image};
  NVM_RETURN_IF_ERROR(WriteChunks(clock, id, {&w, 1}));
  return w.status;
}

Status StoreClient::WriteStripe(sim::VirtualClock& clock, FileId id,
                                uint32_t chunk_index, const Bitmap& dirty_pages,
                                std::span<const uint8_t> chunk_image) {
  const StoreConfig& cfg = manager_.config();
  const size_t k = cfg.ec_k;
  const size_t nf = cfg.ec_fragments();
  const uint64_t fb = cfg.ec_frag_bytes();

  // Full-stripe discipline: fragments are rewritten whole, so a partial-
  // dirty flush first reads the chunk's current bytes (degraded-capable)
  // and overlays the dirty pages — the classic erasure read-modify-write
  // penalty, paid serially on the writer's clock.
  std::vector<uint8_t> merged;
  std::span<const uint8_t> full = chunk_image;
  if (dirty_pages.PopCount() < cfg.pages_per_chunk()) {
    merged.resize(cfg.chunk_bytes);
    NVM_RETURN_IF_ERROR(ReadChunkInner(clock, id, chunk_index, merged));
    dirty_pages.ForEachSet([&](size_t p) {
      std::memcpy(merged.data() + p * cfg.page_bytes,
                  chunk_image.data() + p * cfg.page_bytes, cfg.page_bytes);
    });
    full = merged;
  }

  // Encode k data + m parity fragments (the matrix math is real; the CPU
  // cost is one chunk through the encode engine) and checksum the full
  // image plus each fragment — the positional checksums are what degraded
  // reads and repair verify survivors against.
  ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  std::vector<std::vector<uint8_t>> frags = codec.Encode(full);
  clock.Advance(cfg.ec_encode_ns(cfg.chunk_bytes));
  const bool with_crc = cfg.integrity();
  uint32_t crc = 0;
  std::vector<uint32_t> frag_crcs;
  if (with_crc) {
    crc = Crc32c(full.data(), full.size());
    frag_crcs.reserve(nf);
    for (const std::vector<uint8_t>& f : frags) {
      frag_crcs.push_back(Crc32c(f.data(), f.size()));
    }
    clock.Advance(cfg.checksum_ns(cfg.chunk_bytes) +
                  cfg.checksum_ns(nf * fb));
  }

  ChargeMetaRoundTrip(clock);
  NVM_ASSIGN_OR_RETURN(WriteLocation loc,
                       manager_.PrepareWrite(clock, id, chunk_index));
  NVM_CHECK(loc.ec, "erasure-mode store prepared a replicate write");
  NVM_CHECK(loc.benefactors.size() == nf);

  // Each live fragment is written on its own clock forked at the post-
  // prepare time; the writer joins at the max, so a stripe write costs
  // max(fragment times), not their sum.
  const int64_t t0 = clock.now();
  int64_t done = t0;
  size_t good = 0;
  uint64_t parity_bytes = 0;
  Status last = Unavailable("no fragments written");
  for (size_t pos = 0; pos < nf; ++pos) {
    const int bid = loc.benefactors[pos];
    if (bid < 0) continue;  // hole: already the repair queue's business
    Benefactor* b = manager_.benefactor(bid);
    NVM_CHECK(b != nullptr);
    sim::VirtualClock frag_clock(t0);
    b->AdmitTransfer(frag_clock, tenant_, fb, /*is_write=*/true,
                     fb + cfg.meta_request_bytes);
    cluster_.network().Transfer(frag_clock, local_node_, b->node_id(),
                                fb + cfg.meta_request_bytes);
    Status s = b->WriteFragment(frag_clock, loc.key, frags[pos],
                                with_crc ? &frag_crcs[pos] : nullptr,
                                tenant_);
    if (s.ok()) {
      cluster_.network().Transfer(frag_clock, b->node_id(), local_node_,
                                  cfg.meta_response_bytes);
      ++good;
      bytes_flushed_.Add(fb);
      if (pos >= k) parity_bytes += fb;
      done = std::max(done, frag_clock.now());
    } else {
      last = s;
      if (s.code() == ErrorCode::kUnavailable) {
        manager_.MarkDead(bid);
        NVM_WLOG("benefactor %d unavailable writing fragment %zu of %s; "
                 "continuing with surviving fragments",
                 bid, pos, loc.key.ToString().c_str());
      }
    }
  }
  clock.AdvanceTo(done);

  // A stripe that reached at least k fragments is reconstructible: commit
  // its checksums.  Below k the write failed — the completion records no
  // checksum, so recovery rolls the uncommitted stripe back rather than
  // ever assembling mixed-generation fragments.
  const bool committed = good >= k;
  manager_.CompleteWrite(
      clock, loc.key, with_crc && committed ? &crc : nullptr,
      with_crc && committed ? std::span<const uint32_t>(frag_crcs)
                            : std::span<const uint32_t>());
  if (!committed) {
    InvalidateLocation(id, chunk_index);
    return last;
  }
  manager_.NoteEcParityBytes(parity_bytes);
  if (good < nf) {
    degraded_writes_.Add(1);
    manager_.ReportDegraded(loc.key, clock.now());
  }
  {
    std::lock_guard<std::mutex> lock(loc_mutex_);
    loc_cache_[LocKey{id, chunk_index}] =
        ReadLocation{loc.key, loc.benefactors, /*ec=*/true};
  }
  return OkStatus();
}

Status StoreClient::WriteRun(sim::VirtualClock& clock,
                             const BenefactorRun& run,
                             std::span<const WriteLocation> locs,
                             std::span<const ChunkWrite> writes,
                             std::span<const size_t> active,
                             std::span<const uint32_t> crcs,
                             std::span<uint32_t> stored_crcs) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(run.benefactor);
  NVM_CHECK(b != nullptr);
  write_run_rpcs_.Add(1);

  std::vector<ChunkWriteItem> items;
  items.reserve(run.items.size());
  for (size_t j : run.items) {
    const ChunkWrite& w = writes[active[j]];
    ChunkWriteItem item;
    item.key = locs[j].key;
    item.dirty = w.dirty;
    item.data = w.image;
    item.needs_clone = locs[j].needs_clone;
    item.clone_from = locs[j].clone_from;
    if (!crcs.empty()) {
      item.has_crc = true;
      item.crc = crcs[j];
      item.stored_crc = stored_crcs.empty() ? nullptr : &stored_crcs[j];
    }
    items.push_back(item);
  }

  // The request is one stream: the first payload also carries the run
  // header (which is what makes a run of one byte-identical to the
  // WriteReplica message); clone instructions ride as their own control
  // messages, exactly as in WriteReplica.
  net::StreamTransfer stream(cluster_.network(), local_node_, b->node_id());
  bool header_sent = false;
  const ChunkRunSend send = [&](RunMsg kind, int64_t earliest,
                                uint64_t bytes) -> int64_t {
    if (kind == RunMsg::kPayload && !header_sent) {
      header_sent = true;
      bytes += cfg.meta_request_bytes;
    }
    return stream.Push(earliest, bytes);
  };
  NVM_RETURN_IF_ERROR(b->WriteChunkRun(clock, items, send, tenant_));
  // One response acknowledges the whole run.
  cluster_.network().Transfer(clock, b->node_id(), local_node_,
                              cfg.meta_response_bytes);
  return OkStatus();
}

Status StoreClient::WriteChunks(sim::VirtualClock& clock, FileId id,
                                std::span<ChunkWrite> writes) {
  const int64_t t_entry = clock.now();
  Status s = WriteChunksInner(clock, id, writes);
  if (s.ok() && qos_ != nullptr) {
    for (const ChunkWrite& w : writes) {
      if (w.status.ok() && w.dirty != nullptr && !w.dirty->None()) {
        qos_->RecordWrite(tenant_, w.ready_at - t_entry);
      }
    }
  }
  return s;
}

Status StoreClient::WriteChunksInner(sim::VirtualClock& clock, FileId id,
                                     std::span<ChunkWrite> writes) {
  if (writes.empty()) return OkStatus();
  const StoreConfig& cfg = manager_.config();

  // Clean entries are done before they start.
  std::vector<size_t> active;
  active.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    NVM_CHECK(writes[i].dirty != nullptr);
    NVM_CHECK(writes[i].image.size() == cfg.chunk_bytes);
    writes[i].status = OkStatus();
    writes[i].ready_at = clock.now();
    if (!writes[i].dirty->None()) active.push_back(i);
  }
  if (active.empty()) return OkStatus();

  // Erasure-mode writes are full-stripe fan-outs with no per-benefactor
  // run to stream: each chunk goes through the stripe path serially.
  if (cfg.ec()) {
    for (size_t i : active) {
      ChunkWrite& w = writes[i];
      w.status = WriteStripe(clock, id, w.index, *w.dirty, w.image);
      w.ready_at = clock.now();
    }
    return OkStatus();
  }

  // Flush-time checksums for the whole window, charged to the writer before
  // the batched metadata round-trip.
  const bool with_crc = cfg.integrity();
  std::vector<uint32_t> crcs(with_crc ? active.size() : 0, 0);
  if (with_crc) {
    for (size_t j = 0; j < active.size(); ++j) {
      crcs[j] = Crc32c(writes[active[j]].image.data(), cfg.chunk_bytes);
    }
    clock.Advance(cfg.checksum_ns(active.size() * cfg.chunk_bytes));
  }

  // One metadata round-trip COW-resolves the whole window.
  ChargeMetaRoundTrip(clock);
  std::vector<uint32_t> indices;
  indices.reserve(active.size());
  for (size_t i : active) indices.push_back(writes[i].index);
  auto prepared = manager_.PrepareWriteBatch(clock, id, indices);
  if (!prepared.ok()) {
    for (size_t i : active) writes[i].status = prepared.status();
    return prepared.status();
  }
  const std::vector<WriteLocation>& locs = *prepared;  // parallel to active
  const int64_t t0 = clock.now();

  // Per-item replica outcomes across all runs.
  std::vector<size_t> ok_replicas(active.size(), 0);
  std::vector<char> corrupt_replica(active.size(), 0);
  std::vector<Status> last_err(active.size(), OkStatus());
  std::vector<int64_t> done(active.size(), t0);
  // Authoritative checksums to record at CompleteWrites: seeded with the
  // client's full-image values, overwritten per item by the CRC the first
  // successful replica actually stored (a partial-dirty merge can
  // legitimately differ from the client image when clean pages were never
  // faulted in).
  std::vector<uint32_t> authority(crcs.begin(), crcs.end());

  // One streamed run per benefactor — every replica holder gets its own
  // run — each on a clock forked at the post-prepare time, so runs (and
  // with them the replicas of each chunk) overlap.
  for (const BenefactorRun& run : Manager::GroupByBenefactor(locs)) {
    sim::VirtualClock run_clock(t0);
    std::vector<uint32_t> run_stored(crcs.begin(), crcs.end());
    Status s = WriteRun(run_clock, run, locs, writes, active, crcs,
                        run_stored);
    if (s.ok()) {
      for (size_t j : run.items) {
        if (with_crc && ok_replicas[j] == 0) authority[j] = run_stored[j];
        ++ok_replicas[j];
        bytes_flushed_.Add(writes[active[j]].dirty->PopCount() *
                           cfg.page_bytes);
        done[j] = std::max(done[j], run_clock.now());
      }
      continue;
    }
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid write run (%zu chunks); discarding the "
          "run and retrying per chunk",
          run.benefactor, run.items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  Retry every
    // item per chunk against the same benefactor (its other replicas are
    // covered by their own runs); a dead benefactor fails fast here.
    for (size_t j : run.items) {
      const ChunkWrite& w = writes[active[j]];
      sim::VirtualClock fallback(t0);
      uint32_t replica_stored = with_crc ? crcs[j] : 0;
      Status rs = WriteReplica(fallback, locs[j], run.benefactor, *w.dirty,
                               w.image, with_crc ? &crcs[j] : nullptr,
                               with_crc ? &replica_stored : nullptr);
      if (rs.ok()) {
        if (with_crc && ok_replicas[j] == 0) authority[j] = replica_stored;
        ++ok_replicas[j];
        bytes_flushed_.Add(w.dirty->PopCount() * cfg.page_bytes);
        done[j] = std::max(done[j], fallback.now());
      } else {
        if (rs.code() == ErrorCode::kUnavailable) {
          manager_.MarkDead(run.benefactor);
        } else if (rs.code() == ErrorCode::kCorrupt) {
          // Rotted base image refused the merge: quarantine this replica
          // (repair rebuilds it from one that took the write).
          corrupt_replica[j] = true;
          manager_.ReportCorrupt(fallback, locs[j].key, run.benefactor);
        }
        last_err[j] = rs;
      }
    }
  }

  // Every replica attempt is over: close the prepared window in one lock
  // pass (lifts the repair fences, moves the epochs) before reporting any
  // degraded chunks to the repair queue.  Checksums are recorded only for
  // chunks that reached at least one replica.
  std::vector<char> wrote(active.size(), 0);
  for (size_t j = 0; j < active.size(); ++j) {
    wrote[j] = ok_replicas[j] > 0 ? 1 : 0;
  }
  manager_.CompleteWrites(clock, locs, authority, wrote);

  // Per-chunk verdicts, location-cache updates, and the caller's join.
  int64_t joined = t0;
  for (size_t j = 0; j < active.size(); ++j) {
    ChunkWrite& w = writes[active[j]];
    const WriteLocation& loc = locs[j];
    if (ok_replicas[j] == 0) {
      w.status = last_err[j].ok() ? Unavailable("no replicas") : last_err[j];
      InvalidateLocation(id, w.index);
    } else {
      if (ok_replicas[j] < loc.benefactors.size()) {
        degraded_writes_.Add(1);
        // Degraded at the time this chunk's surviving writes completed.
        manager_.ReportDegraded(loc.key, done[j]);
      }
      if (corrupt_replica[j]) {
        // A quarantined (deleted) replica is still in this list: force the
        // next read through a fresh lookup instead of sparse zeros.
        InvalidateLocation(id, w.index);
      } else {
        std::lock_guard<std::mutex> lock(loc_mutex_);
        loc_cache_[LocKey{id, w.index}] =
            ReadLocation{loc.key, loc.benefactors};
      }
    }
    w.ready_at = done[j];
    joined = std::max(joined, done[j]);
  }
  clock.AdvanceTo(joined);
  return OkStatus();
}

void StoreClient::ResetCounters() {
  bytes_fetched_.Reset();
  bytes_flushed_.Reset();
  meta_rtts_.Reset();
  run_rpcs_.Reset();
  write_run_rpcs_.Reset();
  degraded_writes_.Reset();
  corrupt_failovers_.Reset();
  ec_degraded_reads_.Reset();
}

}  // namespace nvm::store
