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
  bool saw_corrupt = false;
  Status last = Unavailable("fewer than k fragments readable");
  // Each round issues the (k - good) outstanding fetches in parallel and
  // failures discovered at its join pull the next candidates into a
  // follow-up round.
  const size_t good = sim::ForkJoinRounds(
      clock, k, candidates.size(),
      [&](sim::VirtualClock& frag_clock, size_t c) {
        const size_t pos = candidates[c];
        const int bid = loc.benefactors[pos];
        Benefactor* b = manager_.benefactor(bid);
        NVM_CHECK(b != nullptr);
        cluster_.network().Transfer(frag_clock, local_node_, b->node_id(),
                                    cfg.meta_request_bytes);
        std::vector<uint8_t> buf(fb);
        bool sparse = false;
        Status s = b->ReadFragment(frag_clock, loc.key, buf, &sparse, tenant_);
        if (s.ok()) {
          // A hole costs only the "no such fragment" reply (it reads as
          // zeros — a never-written region of the stripe).
          cluster_.network().Transfer(frag_clock, b->node_id(), local_node_,
                                      sparse ? cfg.meta_response_bytes : fb);
          if (!sparse) bytes_fetched_.Add(fb);
          frags[pos] = std::move(buf);
          return true;
        }
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
        return false;
      });
  if (saw_corrupt) {
    // The quarantine punched a hole this cached location still names.
    InvalidateLocation(id, chunk_index);
  }
  if (good < k) return last;

  bool data_complete = true;
  for (size_t pos = 0; pos < k; ++pos) {
    if (frags[pos].empty()) data_complete = false;
  }
  if (data_complete) {
    ErasureCodec::Assemble(frags, cfg.ec_k, out);
  } else {
    clock.Advance(DecodeStripe(frags, out));
  }
  return OkStatus();
}

int64_t StoreClient::DecodeStripe(std::vector<std::vector<uint8_t>>& frags,
                                  std::span<uint8_t> out) {
  // Degraded read: any k of the k+m fragments reconstruct the chunk.  The
  // matrix solve is charged as one chunk through the encode engine.
  const StoreConfig& cfg = manager_.config();
  ec_degraded_reads_.Add(1);
  manager_.NoteEcDegradedRead();
  ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  NVM_CHECK(codec.Reconstruct(frags),
            "k fragments must reconstruct the stripe");
  ErasureCodec::Assemble(frags, cfg.ec_k, out);
  return cfg.ec_encode_ns(cfg.chunk_bytes);
}

Status StoreClient::ReadRun(sim::VirtualClock& clock, int benefactor,
                            std::span<const ChunkKey> keys,
                            std::span<const std::span<uint8_t>> outs,
                            std::span<int64_t> ready_at) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(benefactor);
  NVM_CHECK(b != nullptr);
  run_rpcs_.Add(1);

  // One request header covers the whole run.
  cluster_.network().Transfer(clock, local_node_, b->node_id(),
                              cfg.meta_request_bytes);

  // The reply is one stream: each blob is pushed as soon as it leaves the
  // device and rides back-to-back behind its predecessor on the NICs.
  net::StreamTransfer reply(cluster_.network(), b->node_id(), local_node_);
  size_t next = 0;
  uint64_t data_bytes = 0;
  NVM_RETURN_IF_ERROR(b->ReadChunkRun(
      clock, keys,
      [&](const ChunkRunItem& item, std::span<const uint8_t> data) -> Status {
        const std::span<uint8_t> out = outs[next];
        if (item.sparse) {
          // A hole costs only the "no such chunk" marker in the stream.
          std::memset(out.data(), 0, out.size());
          ready_at[next] = reply.Push(item.ready_at, cfg.meta_response_bytes);
        } else {
          NVM_CHECK(data.size() == out.size());
          std::memcpy(out.data(), data.data(), data.size());
          ready_at[next] = reply.Push(item.ready_at, out.size());
          data_bytes += out.size();
        }
        ++next;
        return OkStatus();
      },
      tenant_));
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

  // Resolve the batch from the (just warmed) location cache and group the
  // members each chunk needs by benefactor.
  std::vector<ReadLocation> locs(fetches.size());
  {
    std::lock_guard<std::mutex> lock(loc_mutex_);
    for (size_t i = 0; i < fetches.size(); ++i) {
      auto it = loc_cache_.find(LocKey{id, fetches[i].index});
      if (it != loc_cache_.end()) locs[i] = it->second;
    }
  }
  const std::vector<BenefactorRun> runs =
      manager_.GroupByPrimaryBenefactor(locs);

  // A fetch no run covers (no cached location beyond EOF, or a lost chunk)
  // keeps the per-chunk path so it reports the usual per-chunk error.
  std::vector<char> covered(fetches.size(), 0);
  for (const BenefactorRun& run : runs) {
    for (const RunMember& m : run.items) covered[m.loc] = 1;
  }
  for (size_t i = 0; i < fetches.size(); ++i) {
    if (covered[i] != 0) continue;
    sim::VirtualClock detached(t0);
    fetches[i].status = ReadChunkInner(detached, id, fetches[i].index,
                                       fetches[i].out);
    fetches[i].ready_at = detached.now();
  }

  // Where each member lands: a replica fills the chunk's buffer; the code
  // is systematic, so data fragment p is the p-th slice of the chunk, and
  // a parity fragment lands in a side buffer for the decode.
  const uint64_t fb = cfg.ec() ? cfg.ec_frag_bytes() : 0;
  std::vector<std::vector<std::vector<uint8_t>>> parity(fetches.size());
  const auto dest = [&](const RunMember& m) -> std::span<uint8_t> {
    const std::span<uint8_t> out = fetches[m.loc].out;
    if (!locs[m.loc].ec) return out;
    if (m.member < cfg.ec_k) return out.subspan(m.member * fb, fb);
    std::vector<std::vector<uint8_t>>& side = parity[m.loc];
    side.resize(cfg.ec_m);
    side[m.member - cfg.ec_k].resize(fb);
    return side[m.member - cfg.ec_k];
  };

  // One streamed run per benefactor, each on its own clock branched at the
  // post-lookup time, so runs against distinct benefactors overlap.
  std::vector<char> fell_back(fetches.size(), 0);
  std::vector<int64_t> arrived(fetches.size(), t0);
  for (const BenefactorRun& run : runs) {
    // Members of chunks that already fell back are not requested again.
    std::vector<RunMember> items;
    std::vector<ChunkKey> keys;
    std::vector<std::span<uint8_t>> outs;
    for (const RunMember& m : run.items) {
      if (fell_back[m.loc] != 0) continue;
      items.push_back(m);
      keys.push_back(locs[m.loc].key);
      outs.push_back(dest(m));
    }
    if (items.empty()) continue;
    std::vector<int64_t> ready(items.size(), t0);
    sim::VirtualClock run_clock(t0);
    Status s = ReadRun(run_clock, run.benefactor, keys, outs, ready);
    if (s.ok()) {
      for (size_t r = 0; r < items.size(); ++r) {
        arrived[items[r].loc] = std::max(arrived[items[r].loc], ready[r]);
      }
      continue;
    }
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid-run (%zu members); discarding the run "
          "and falling back to per-chunk reads",
          run.benefactor, items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  Re-read every
    // chunk it touched through the per-chunk path, which refreshes stale
    // locations and falls over to surviving replicas or to parity.
    for (const RunMember& m : items) {
      if (fell_back[m.loc] != 0) continue;
      fell_back[m.loc] = 1;
      ChunkFetch& f = fetches[m.loc];
      sim::VirtualClock fallback(t0);
      f.status = ReadChunkInner(fallback, id, f.index, f.out);
      f.ready_at = fallback.now();
    }
  }

  // A chunk is ready when its last member arrived; a stripe that read
  // parity (a data position is a hole) decodes first.
  for (size_t i = 0; i < fetches.size(); ++i) {
    if (covered[i] == 0 || fell_back[i] != 0) continue;
    ChunkFetch& f = fetches[i];
    f.status = OkStatus();
    f.ready_at = arrived[i];
    if (parity[i].empty()) continue;
    std::vector<std::vector<uint8_t>> frags(cfg.ec_fragments());
    for (uint32_t pos = 0; pos < cfg.ec_k; ++pos) {
      if (locs[i].benefactors[pos] < 0) continue;
      const auto slice = f.out.subspan(pos * fb, fb);
      frags[pos].assign(slice.begin(), slice.end());
    }
    for (uint32_t p = 0; p < cfg.ec_m; ++p) {
      frags[cfg.ec_k + p] = std::move(parity[i][p]);
    }
    f.ready_at += DecodeStripe(frags, f.out);
  }
  return OkStatus();
}

Status StoreClient::WriteMember(sim::VirtualClock& clock, int bid,
                                const ChunkWriteItem& item) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(bid);
  NVM_CHECK(b != nullptr);
  if (item.needs_clone) {
    // COW: instruct the benefactor to clone locally before the write.
    cluster_.network().Transfer(clock, local_node_, b->node_id(),
                                cfg.meta_request_bytes);
    NVM_RETURN_IF_ERROR(
        b->CloneChunk(clock, item.clone_from, item.key, tenant_));
  }
  // Ship only the payload — admission first: the scheduler gates the
  // request before its bytes occupy the benefactor's NIC.
  const uint64_t bytes = item.PayloadBytes(cfg.page_bytes);
  b->AdmitTransfer(clock, tenant_, bytes, /*is_write=*/true,
                   bytes + cfg.meta_request_bytes);
  cluster_.network().Transfer(clock, local_node_, b->node_id(),
                              bytes + cfg.meta_request_bytes);
  NVM_RETURN_IF_ERROR(
      item.dirty == nullptr
          ? b->WriteFragment(clock, item.key, item.data, &item.crc, tenant_)
          : b->WritePages(clock, item.key, *item.dirty, item.data, &item.crc,
                          item.stored_crc, tenant_));
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

Status StoreClient::WriteRun(sim::VirtualClock& clock, int benefactor,
                             std::span<const ChunkWriteItem> items) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(benefactor);
  NVM_CHECK(b != nullptr);
  write_run_rpcs_.Add(1);

  // The request is one stream: the first payload also carries the run
  // header (which is what makes a run of one byte-identical to the
  // WriteMember message); clone instructions ride as their own control
  // messages, exactly as in WriteMember.
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

std::vector<std::vector<std::vector<uint8_t>>> StoreClient::EncodeStripes(
    sim::VirtualClock& clock, FileId id, std::span<ChunkWrite> writes,
    std::vector<size_t>& active, std::vector<uint32_t>& crcs,
    std::vector<std::vector<uint32_t>>& frag_crcs) {
  const StoreConfig& cfg = manager_.config();

  // The read-modify-write bases: one batch over the partial-dirty chunks,
  // joined before any stripe is encoded.
  std::vector<size_t> partial;  // positions in `active`
  for (size_t j = 0; j < active.size(); ++j) {
    if (writes[active[j]].dirty->PopCount() < cfg.pages_per_chunk()) {
      partial.push_back(j);
    }
  }
  std::vector<std::vector<uint8_t>> merged(partial.size());
  std::vector<ChunkFetch> bases(partial.size());
  for (size_t b = 0; b < partial.size(); ++b) {
    merged[b].resize(cfg.chunk_bytes);
    bases[b].index = writes[active[partial[b]]].index;
    bases[b].out = merged[b];
  }
  std::vector<std::span<const uint8_t>> full(active.size());
  for (size_t j = 0; j < active.size(); ++j) full[j] = writes[active[j]].image;
  if (!bases.empty()) {
    const Status looked_up = ReadChunksInner(clock, id, bases);
    int64_t joined = clock.now();
    for (const ChunkFetch& f : bases) joined = std::max(joined, f.ready_at);
    clock.AdvanceTo(joined);
    for (size_t b = 0; b < partial.size(); ++b) {
      ChunkWrite& w = writes[active[partial[b]]];
      const Status& s = looked_up.ok() ? bases[b].status : looked_up;
      if (!s.ok()) {
        w.status = s;
        w.ready_at = clock.now();
        continue;
      }
      w.dirty->ForEachSet([&](size_t p) {
        std::memcpy(merged[b].data() + p * cfg.page_bytes,
                    w.image.data() + p * cfg.page_bytes, cfg.page_bytes);
      });
      full[partial[b]] = merged[b];
    }
    // A chunk whose base could not be read is not written.
    size_t kept = 0;
    for (size_t j = 0; j < active.size(); ++j) {
      if (!writes[active[j]].status.ok()) continue;
      full[kept] = full[j];
      active[kept++] = active[j];
    }
    active.resize(kept);
    full.resize(kept);
  }

  // Encode k data + m parity fragments per stripe (the matrix math is real;
  // the CPU cost is one chunk per stripe through the encode engine) and
  // checksum each full image plus each fragment — the positional checksums
  // are what degraded reads and repair verify survivors against.
  const ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  std::vector<std::vector<std::vector<uint8_t>>> frags(active.size());
  crcs.assign(active.size(), 0);
  frag_crcs.assign(active.size(), {});
  for (size_t j = 0; j < active.size(); ++j) {
    frags[j] = codec.Encode(full[j]);
    crcs[j] = Crc32c(full[j].data(), full[j].size());
    for (const std::vector<uint8_t>& f : frags[j]) {
      frag_crcs[j].push_back(Crc32c(f.data(), f.size()));
    }
  }
  const uint64_t bytes = active.size() * cfg.chunk_bytes;
  const uint64_t frag_bytes =
      active.size() * cfg.ec_fragments() * cfg.ec_frag_bytes();
  clock.Advance(cfg.ec_encode_ns(bytes));
  clock.Advance(cfg.checksum_ns(bytes) + cfg.checksum_ns(frag_bytes));
  return frags;
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

  // Flush-time checksums for the whole window, charged to the writer before
  // the batched metadata round-trip; an erasure window encodes its stripes
  // first (and reads its read-modify-write bases before that).
  std::vector<uint32_t> crcs;
  std::vector<std::vector<std::vector<uint8_t>>> frags;  // [item][position]
  std::vector<std::vector<uint32_t>> frag_crcs;
  if (cfg.ec()) {
    frags = EncodeStripes(clock, id, writes, active, crcs, frag_crcs);
    if (active.empty()) return OkStatus();
  } else {
    crcs.resize(active.size());
    for (size_t j = 0; j < active.size(); ++j) {
      crcs[j] = Crc32c(writes[active[j]].image.data(), cfg.chunk_bytes);
    }
    clock.Advance(cfg.checksum_ns(active.size() * cfg.chunk_bytes));
  }

  // One metadata round-trip COW-resolves the whole window.  A window of
  // one takes the per-chunk manager calls, which charge exactly what the
  // batch calls of one do; they survive because the repository
  // benchmark's traced build wraps them (fold them in when it changes).
  ChargeMetaRoundTrip(clock);
  std::vector<WriteLocation> locs;  // parallel to active
  Status prepared = OkStatus();
  if (active.size() == 1) {
    auto loc = manager_.PrepareWrite(clock, id, writes[active[0]].index);
    if (loc.ok()) locs.push_back(*std::move(loc));
    prepared = loc.status();
  } else {
    std::vector<uint32_t> indices;
    indices.reserve(active.size());
    for (size_t i : active) indices.push_back(writes[i].index);
    auto batch = manager_.PrepareWriteBatch(clock, id, indices);
    if (batch.ok()) locs = *std::move(batch);
    prepared = batch.status();
  }
  if (!prepared.ok()) {
    for (size_t i : active) writes[i].status = prepared;
    return prepared;
  }
  for (size_t j = 0; j < frag_crcs.size(); ++j) {
    locs[j].frag_crcs = std::move(frag_crcs[j]);
  }
  const int64_t t0 = clock.now();

  // Per-item member outcomes across all runs.
  std::vector<size_t> ok_members(active.size(), 0);
  std::vector<char> corrupt_member(active.size(), 0);
  std::vector<Status> last_err(active.size(), OkStatus());
  std::vector<int64_t> done(active.size(), t0);
  std::vector<uint64_t> parity_bytes(active.size(), 0);
  // Authoritative checksums to record at the completion: seeded with the
  // client's full-image values, overwritten per replicated item by the CRC
  // the first successful replica actually stored (a partial-dirty merge
  // can legitimately differ from the client image when clean pages were
  // never faulted in).
  std::vector<uint32_t> authority(crcs.begin(), crcs.end());

  // The write-run item of one member: a replica gets the chunk's dirty
  // pages (and reports the CRC it stored into `stored`), a stripe position
  // its whole fragment with the fragment's checksum.
  const auto member_item = [&](const RunMember& m, uint32_t* stored) {
    const size_t j = m.loc;
    ChunkWriteItem item;
    item.key = locs[j].key;
    item.needs_clone = locs[j].needs_clone;
    item.clone_from = locs[j].clone_from;
    if (locs[j].ec) {
      item.data = frags[j][m.member];
      item.crc = locs[j].frag_crcs[m.member];
    } else {
      item.dirty = writes[active[j]].dirty;
      item.data = writes[active[j]].image;
      item.crc = crcs[j];
      *stored = crcs[j];
      item.stored_crc = stored;
    }
    return item;
  };
  const auto landed = [&](const RunMember& m, const ChunkWriteItem& item,
                          int64_t at) {
    const size_t j = m.loc;
    if (item.stored_crc != nullptr && ok_members[j] == 0) {
      authority[j] = *item.stored_crc;
    }
    ++ok_members[j];
    const uint64_t bytes = item.PayloadBytes(cfg.page_bytes);
    bytes_flushed_.Add(bytes);
    if (locs[j].ec && m.member >= cfg.ec_k) parity_bytes[j] += bytes;
    done[j] = std::max(done[j], at);
  };

  // One streamed run per benefactor — every member holder gets its own run
  // — each on a clock forked at the post-prepare time, so runs (and with
  // them the members of each chunk) overlap.
  for (const BenefactorRun& run : manager_.GroupByBenefactor(locs)) {
    std::vector<uint32_t> stored(run.items.size(), 0);
    std::vector<ChunkWriteItem> items;
    items.reserve(run.items.size());
    for (size_t r = 0; r < run.items.size(); ++r) {
      items.push_back(member_item(run.items[r], &stored[r]));
    }
    sim::VirtualClock run_clock(t0);
    Status s = WriteRun(run_clock, run.benefactor, items);
    if (s.ok()) {
      for (size_t r = 0; r < items.size(); ++r) {
        landed(run.items[r], items[r], run_clock.now());
      }
      continue;
    }
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid write run (%zu members); discarding the "
          "run and retrying per member",
          run.benefactor, run.items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  Retry every
    // item per member against the same benefactor (the chunk's other
    // members are covered by their own runs); a dead benefactor fails fast
    // here.
    for (size_t r = 0; r < items.size(); ++r) {
      const size_t j = run.items[r].loc;
      if (items[r].stored_crc != nullptr) stored[r] = crcs[j];
      sim::VirtualClock fallback(t0);
      Status ms = WriteMember(fallback, run.benefactor, items[r]);
      if (ms.ok()) {
        landed(run.items[r], items[r], fallback.now());
        continue;
      }
      if (ms.code() == ErrorCode::kUnavailable) {
        manager_.MarkDead(run.benefactor);
      } else if (ms.code() == ErrorCode::kCorrupt) {
        // Rotted base image refused the merge: quarantine this replica
        // (repair rebuilds it from one that took the write).
        corrupt_member[j] = 1;
        manager_.ReportCorrupt(fallback, locs[j].key, run.benefactor);
      }
      last_err[j] = ms;
    }
  }

  // Every member attempt is over.  A chunk commits when `need` members
  // took the write — any replica, or k fragments of a stripe; below that
  // the completion records no checksum (recovery rolls an uncommitted
  // stripe back rather than ever assembling mixed-generation fragments).
  const size_t need = cfg.ec() ? cfg.ec_k : 1;
  std::vector<char> committed(active.size(), 0);
  int64_t joined = t0;
  for (size_t j = 0; j < active.size(); ++j) {
    committed[j] = ok_members[j] >= need ? 1 : 0;
    joined = std::max(joined, done[j]);
  }
  // A stripe commits at its completion record, so an erasure window joins
  // its fragment writes before it closes.
  if (cfg.ec()) clock.AdvanceTo(joined);
  // Close the prepared window in one lock pass (lifts the repair fences,
  // moves the epochs) before reporting any degraded chunks to the repair
  // queue.
  if (locs.size() == 1) {
    manager_.CompleteWrite(clock, locs[0].key,
                           committed[0] != 0 ? &authority[0] : nullptr,
                           locs[0].frag_crcs);
  } else {
    manager_.CompleteWrites(clock, locs, authority, committed);
  }
  const int64_t completed = clock.now();

  // Per-chunk verdicts, location-cache updates, and the caller's join.
  uint64_t parity_total = 0;
  for (size_t j = 0; j < active.size(); ++j) {
    ChunkWrite& w = writes[active[j]];
    const WriteLocation& loc = locs[j];
    w.ready_at = cfg.ec() ? completed : done[j];
    if (committed[j] == 0) {
      w.status = !last_err[j].ok() ? last_err[j]
                 : loc.ec          ? Unavailable("erasure stripe lost")
                                   : Unavailable("no replicas");
      InvalidateLocation(id, w.index);
      continue;
    }
    parity_total += parity_bytes[j];
    if (ok_members[j] < loc.benefactors.size()) {
      degraded_writes_.Add(1);
      // Degraded at the time this chunk's surviving writes completed.
      manager_.ReportDegraded(loc.key, done[j]);
    }
    if (corrupt_member[j] != 0) {
      // A quarantined (deleted) replica is still in this list: force the
      // next read through a fresh lookup instead of sparse zeros.
      InvalidateLocation(id, w.index);
    } else {
      std::lock_guard<std::mutex> lock(loc_mutex_);
      loc_cache_[LocKey{id, w.index}] =
          ReadLocation{loc.key, loc.benefactors, loc.ec};
    }
  }
  if (parity_total > 0) manager_.NoteEcParityBytes(parity_total);
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
