#include "store/client.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
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
  const size_t last_page = manager_.config().pages_per_chunk() - 1;
  return ReadChunkPages(clock, id, chunk_index, 0, last_page, out).status();
}

StatusOr<StoreClient::PageRange> StoreClient::ReadChunkPages(
    sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
    size_t first_page, size_t last_page, std::span<uint8_t> out, Ship ship) {
  const int64_t t0 = clock.now();
  StatusOr<PageRange> got = ReadChunkInner(clock, id, chunk_index, first_page,
                                           last_page, out, ship);
  if (got.ok() && qos_ != nullptr) qos_->RecordRead(tenant_, clock.now() - t0);
  return got;
}

StatusOr<StoreClient::PageRange> StoreClient::ReadChunkInner(
    sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
    size_t first_page, size_t last_page, std::span<uint8_t> out, Ship ship) {
  const StoreConfig& cfg = manager_.config();
  NVM_CHECK(out.size() == cfg.chunk_bytes);
  NVM_CHECK(first_page <= last_page && last_page < cfg.pages_per_chunk());
  for (int attempt = 0;; ++attempt) {
    // Second attempt forces a fresh manager lookup (the cached location
    // may name members reclaimed since, or a dead benefactor).
    NVM_ASSIGN_OR_RETURN(
        ReadLocation loc,
        LookupRead(clock, id, chunk_index, /*refresh=*/attempt > 0));
    StatusOr<PageRange> got = ReadMembers(clock, id, chunk_index, loc,
                                          first_page, last_page, out, ship);
    if (got.ok()) return got;
    // Below `need` readable members on this resolution: the MarkDeads and
    // quarantines already went to the manager, so a fresh lookup may see
    // a repaired chunk.
    InvalidateLocation(id, chunk_index);
    if (attempt > 0) return got;
  }
}

StatusOr<StoreClient::PageRange> StoreClient::ReadMembers(
    sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
    const ReadLocation& loc, size_t first_page, size_t last_page,
    std::span<uint8_t> out, Ship ship) {
  const StoreConfig& cfg = manager_.config();
  const Manager::Redundancy& code = manager_.code();
  const std::vector<int>& list = loc.benefactors;
  const uint64_t mb = code.member_bytes;

  // Each member with a slice holds the member_bytes of the chunk image at
  // slice * member_bytes (the code is systematic), so the pages live in
  // slices [lo, hi].
  const size_t slice_pages = mb / cfg.page_bytes;
  const size_t lo = first_page / slice_pages;
  const size_t hi = last_page / slice_pages;
  const auto covers = [&](size_t member) {
    const int slice = code.Slice(member);
    return slice >= 0 && static_cast<size_t>(slice) >= lo &&
           static_cast<size_t>(slice) <= hi;
  };
  struct Pick {
    size_t member = 0;
    uint64_t sent = 0;  // what the member put on the wire
    bool landed = false;
  };
  // Listed members in preference order: the first holder of each covering
  // slice (a slice's holders follow one another in the list), then every
  // other one, in list order.
  std::vector<Pick> picks;
  picks.reserve(list.size());
  size_t covering = 0;
  int last_slice = -1;  // held by the last covering pick
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] < 0) continue;
    if (covers(i) && code.Slice(i) != last_slice) {
      last_slice = code.Slice(i);
      picks.insert(picks.begin() + static_cast<ptrdiff_t>(covering++), Pick{i});
    } else {
      picks.push_back(Pick{i});
    }
  }
  // The first round fetches the covering members; a covering slice
  // nobody holds means a decode, so then it fetches any `need`, whole.
  const bool hole = covering < hi - lo + 1;
  const size_t first_round = hole ? code.need : covering;
  const bool pages_only = ship == Ship::kPages && !hole;

  // Members with a slice land in `out` in place, the others in side
  // buffers for the decode.
  std::vector<std::vector<uint8_t>> frags;
  size_t landed_slices = 0;  // covering slices in hand
  bool stale = false;  // a member was corrupt or gone: drop the location
  Status last = Unavailable("chunk lost");  // until a member is tried
  const auto fetch = [&](sim::VirtualClock& at, size_t c) {
    Pick& pick = picks[c];
    const int bid = list[pick.member];
    const int slice = code.Slice(pick.member);
    Benefactor* b = manager_.benefactor(bid);
    NVM_CHECK(b != nullptr);
    cluster_.network().Transfer(at, local_node_, b->node_id(),
                                cfg.meta_request_bytes);
    if (slice < 0) {
      frags.resize(list.size());
      frags[pick.member].resize(mb);
    }
    const std::span<uint8_t> dst =
        slice >= 0 ? out.subspan(static_cast<size_t>(slice) * mb, mb)
                   : std::span<uint8_t>(frags[pick.member]);
    bool sparse = false;
    Status s;
    if (pages_only && code.need == 1 && slice >= 0) {
      // A replica's holder copies out only the pages it ships.  A stripe's
      // covering fragment lands whole, for a decode top-up to use, and so
      // does a parity member, which only a decode reads.
      const uint64_t from = first_page * cfg.page_bytes;
      s = b->ReadRange(
          at, loc.key, from,
          dst.subspan(from, (last_page - first_page + 1) * cfg.page_bytes),
          &sparse, tenant_);
    } else {
      s = mb == cfg.chunk_bytes
              ? b->ReadChunk(at, loc.key, dst, &sparse, tenant_)
              : b->ReadFragment(at, loc.key, dst, &sparse, tenant_);
    }
    if (s.ok()) {
      // A hole costs only the "no such chunk" reply (it reads as zeros —
      // a never-written chunk or region of a stripe).  Pages-only, a
      // covering member ships just its share of [first, last].
      uint64_t bytes = sparse ? 0 : mb;
      if (bytes > 0 && pages_only && covers(pick.member)) {
        const auto at_slice = static_cast<size_t>(slice);
        const size_t from = std::max(first_page, at_slice * slice_pages);
        const size_t to = std::min(last_page, (at_slice + 1) * slice_pages - 1);
        bytes = (to - from + 1) * cfg.page_bytes;
      }
      cluster_.network().Transfer(at, b->node_id(), local_node_,
                                  sparse ? cfg.meta_response_bytes : bytes);
      bytes_fetched_.Add(bytes);
      pick.sent = bytes;
      pick.landed = true;
      if (covers(pick.member)) ++landed_slices;
      return true;
    }
    if (slice < 0) frags[pick.member].clear();
    last = s;
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(bid);
      NVM_WLOG("benefactor %d unavailable reading member %zu of %s; "
               "trying the next member",
               bid, pick.member, loc.key.ToString().c_str());
    } else if (s.code() == ErrorCode::kNotFound) {
      // Reclaimed since this location was resolved: a quarantine, or a
      // version a checkpoint release freed.
      stale = true;
    } else if (s.code() == ErrorCode::kCorrupt) {
      // The member failed its checksum: rot surfaces as CORRUPT, never as
      // wrong bytes.  ReportCorrupt quarantines it at the manager (strips
      // it, queues a repair from verified survivors); the cached location
      // still names it, so it is dropped below.
      stale = true;
      corrupt_failovers_.Add(1);
      manager_.ReportCorrupt(at, loc.key, bid);
      NVM_WLOG("benefactor %d served corrupt member %zu of %s; "
               "trying the next member",
               bid, pick.member, loc.key.ToString().c_str());
    }
    return false;
  };
  // Each round issues its outstanding fetches in parallel; failures seen
  // at a join pull the next members into a follow-up round, until `need`
  // are in hand — or, for a replica, until one lands.
  const size_t tried = std::min(first_round, picks.size());
  size_t good = sim::ForkJoinRounds(clock, first_round, tried, fetch);
  if (good < first_round) {
    good += sim::ForkJoinRounds(
        clock, code.need - good, picks.size() - tried,
        [&](sim::VirtualClock& at, size_t c) { return fetch(at, tried + c); });
  }
  if (stale) InvalidateLocation(id, chunk_index);

  // Served when every covering slice landed: from its first holder, or
  // (a replica) from the next one that answered.
  if (landed_slices == hi - lo + 1) {
    return pages_only ? PageRange{first_page, last_page}
                      : PageRange{lo * slice_pages, (hi + 1) * slice_pages - 1};
  }
  if (good < code.need) return last;

  // A covering slice was lost: decode.  The decode needs whole members, so
  // a covering holder that shipped only pages still holds the member it
  // verified and sends the rest (a request and the wire, no device read).
  for (size_t c = 0; c < covering; ++c) {
    if (picks[c].sent == 0 || picks[c].sent == mb) continue;
    const Benefactor* b = manager_.benefactor(list[picks[c].member]);
    cluster_.network().Transfer(clock, local_node_, b->node_id(),
                                cfg.meta_request_bytes);
    cluster_.network().Transfer(clock, b->node_id(), local_node_,
                                mb - picks[c].sent);
    bytes_fetched_.Add(mb - picks[c].sent);
  }
  // The members that landed in place join the side buffers.
  frags.resize(list.size());
  for (const Pick& p : picks) {
    const int slice = code.Slice(p.member);
    if (!p.landed || slice < 0) continue;
    const auto part = out.subspan(static_cast<size_t>(slice) * mb, mb);
    frags[p.member].assign(part.begin(), part.end());
  }
  clock.Advance(DecodeStripe(frags, out));
  return PageRange{0, cfg.pages_per_chunk() - 1};
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
  const size_t last_page = cfg.pages_per_chunk() - 1;
  const auto read_alone = [&](ChunkFetch& f) {
    sim::VirtualClock alone(t0);
    f.status = ReadChunkInner(alone, id, f.index, 0, last_page, f.out,
                              Ship::kWholeUnits)
                   .status();
    f.ready_at = alone.now();
  };
  std::vector<char> covered(fetches.size(), 0);
  for (const BenefactorRun& run : runs) {
    for (const RunMember& m : run.items) covered[m.loc] = 1;
  }
  for (size_t i = 0; i < fetches.size(); ++i) {
    if (covered[i] == 0) read_alone(fetches[i]);
  }

  // Where each member lands: the slice it holds of the chunk's buffer (a
  // replica all of it, data fragment p the p-th slice — the code is
  // systematic), or a side buffer for the decode (parity).
  const Manager::Redundancy& code = manager_.code();
  const uint64_t mb = code.member_bytes;
  std::vector<std::vector<std::vector<uint8_t>>> side(fetches.size());
  const auto dest = [&](const RunMember& m) -> std::span<uint8_t> {
    const int slice = code.Slice(m.member);
    if (slice >= 0) {
      return fetches[m.loc].out.subspan(static_cast<size_t>(slice) * mb, mb);
    }
    side[m.loc].resize(locs[m.loc].benefactors.size());
    side[m.loc][m.member].resize(mb);
    return side[m.loc][m.member];
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
      read_alone(fetches[m.loc]);
    }
  }

  // A chunk is ready when its last member arrived; a stripe that read
  // parity (a data position is a hole) decodes first, from every listed
  // member with a slice — all of them were read, they lead the list.
  for (size_t i = 0; i < fetches.size(); ++i) {
    if (covered[i] == 0 || fell_back[i] != 0) continue;
    ChunkFetch& f = fetches[i];
    f.status = OkStatus();
    f.ready_at = arrived[i];
    if (side[i].empty()) continue;
    std::vector<std::vector<uint8_t>>& frags = side[i];
    for (size_t pos = 0; pos < frags.size(); ++pos) {
      const int slice = code.Slice(pos);
      if (slice < 0 || locs[i].benefactors[pos] < 0) continue;
      const auto part = f.out.subspan(static_cast<size_t>(slice) * mb, mb);
      frags[pos].assign(part.begin(), part.end());
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
  // The batch fills each base whole or fails it, so none is zero-filled.
  std::vector<std::unique_ptr<uint8_t[]>> merged(partial.size());
  std::vector<ChunkFetch> bases(partial.size());
  for (size_t b = 0; b < partial.size(); ++b) {
    merged[b] = std::make_unique_for_overwrite<uint8_t[]>(cfg.chunk_bytes);
    bases[b].index = writes[active[partial[b]]].index;
    bases[b].out = {merged[b].get(), cfg.chunk_bytes};
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
        std::memcpy(merged[b].get() + p * cfg.page_bytes,
                    w.image.data() + p * cfg.page_bytes, cfg.page_bytes);
      });
      full[partial[b]] = bases[b].out;
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
  // are what degraded reads and repair verify survivors against.  The code
  // is systematic, so the image is its k data fragments end to end and its
  // checksum combines theirs; both hashes are still charged below.
  const ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  std::vector<std::vector<std::vector<uint8_t>>> frags(active.size());
  crcs.assign(active.size(), 0);
  frag_crcs.assign(active.size(), {});
  for (size_t j = 0; j < active.size(); ++j) {
    frags[j] = codec.Encode(full[j]);
    for (const std::vector<uint8_t>& f : frags[j]) {
      frag_crcs[j].push_back(Crc32c(f.data(), f.size()));
    }
    crcs[j] = frag_crcs[j][0];
    for (uint32_t p = 1; p < cfg.ec_k; ++p) {
      crcs[j] = Crc32cCombine(crcs[j], frag_crcs[j][p], frags[j][p].size());
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
    // Every image is charged, but only a whole one is hashed: a partial
    // item's checksum is the one its holder merges (its `crc` is ignored).
    crcs.resize(active.size());
    for (size_t j = 0; j < active.size(); ++j) {
      const ChunkWrite& w = writes[active[j]];
      if (w.dirty->PopCount() == cfg.pages_per_chunk()) {
        crcs[j] = Crc32c(w.image.data(), cfg.chunk_bytes);
      }
    }
    clock.Advance(cfg.checksum_ns(active.size() * cfg.chunk_bytes));
  }

  // One metadata round-trip COW-resolves the whole window.  A window of
  // one takes the per-chunk manager calls, which are the batch calls of
  // one; they survive because the repository benchmark's traced build
  // wraps them (fold them in when it changes).
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
  std::vector<Status> last_err(active.size(), OkStatus());
  std::vector<int64_t> done(active.size(), t0);
  std::vector<uint64_t> parity_bytes(active.size(), 0);
  // Authoritative checksums to record at the completion: seeded with the
  // client's full-image values, overwritten per replicated item by the CRC
  // the first successful replica actually stored (a partial-dirty merge
  // can legitimately differ from the client image when clean pages were
  // never faulted in, which is why the client never hashes that image).
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
    if (cfg.ec()) {
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
    if (manager_.code().Slice(m.member) < 0) parity_bytes[j] += bytes;
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
        // (repair rebuilds it from one that took the write); a read off
        // the location cached below finds it gone and fails over.
        manager_.ReportCorrupt(fallback, locs[j].key, run.benefactor);
      }
      last_err[j] = ms;
    }
  }

  // Every member attempt is over.  A chunk commits when `need` members
  // took the write — any replica, or k fragments of a stripe; below that
  // the completion records no checksum (recovery rolls an uncommitted
  // stripe back rather than ever assembling mixed-generation fragments).
  const size_t need = manager_.code().need;
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
                 : cfg.ec()        ? Unavailable("erasure stripe lost")
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
    std::lock_guard<std::mutex> lock(loc_mutex_);
    loc_cache_[LocKey{id, w.index}] = ReadLocation{loc.key, loc.benefactors};
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
