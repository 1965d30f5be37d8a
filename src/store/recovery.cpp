// Crash-consistent manager metadata: checkpoint serialisation, WAL replay
// and cold-start reconciliation (Manager::Checkpoint / Manager::Recover).
//
// The correctness frame is simple because of two disciplines enforced at
// the mutation sites in manager.cpp, repair.cpp and scrub.cpp:
//
//  * log-before-publish — every durable mutation appends its WAL record
//    under the mutex that orders the mutation, BEFORE any in-memory or
//    benefactor-side effect, so the durable history is always a prefix of
//    what the in-memory manager did;
//  * checkpoint-under-every-lock — Checkpoint serialises while holding
//    ns_mu_ (shared), every file mutex (shared, FileId order) and every
//    shard mutex (ascending), the same locks the appends happen under, so
//    every record with seq <= covered_seq is fully reflected in the blob
//    and every record after it postdates the serialisation instant.
//    Replay therefore needs no idempotency: it applies each record exactly
//    once to a state that has never seen it.
//
// What the log deliberately does NOT carry — space reservations, write
// fences, repair epochs, in-flight repair targets, scrub cursors — is
// either volatile by design or recomputed here from the benefactor
// inventories, which survive a manager crash by construction (they are
// other machines).
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "store/manager.hpp"

namespace nvm::store {

// --- checkpoint write path ---

std::string Manager::EncodeCheckpointLocked() const {
  // Deterministic blob: files sorted by id, chunks sorted by key, so two
  // checkpoints of the same state are byte-identical regardless of shard
  // count or hash iteration order.
  std::string out;
  wire::PutU64(out, next_file_id_);
  wire::PutU64(out, static_cast<uint64_t>(stripe_cursor_));

  std::vector<FileId> fids;
  fids.reserve(files_.size());
  for (const auto& [fid, meta] : files_) fids.push_back(fid);
  std::sort(fids.begin(), fids.end());
  wire::PutU32(out, static_cast<uint32_t>(fids.size()));
  for (FileId fid : fids) {
    const FileMeta& meta = *files_.at(fid);
    wire::PutU64(out, fid);
    wire::PutString(out, meta.name);
    wire::PutU64(out, meta.size);
    wire::PutU64(out, static_cast<uint64_t>(meta.stripe_cursor));
    wire::PutU32(out, static_cast<uint32_t>(meta.chunks.size()));
    // Slots serialise as keys only: decode re-wires them to the single
    // handle per key below (and recomputes refcounts from the wiring).
    for (const std::shared_ptr<ChunkHandle>& h : meta.chunks) {
      wire::PutKey(out, h->key);
    }
  }

  std::vector<const ChunkHandle*> handles;
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) handles.push_back(h.get());
  }
  std::sort(handles.begin(), handles.end(),
            [](const ChunkHandle* a, const ChunkHandle* b) {
              return a->key < b->key;
            });
  wire::PutU32(out, static_cast<uint32_t>(handles.size()));
  for (const ChunkHandle* h : handles) {
    wire::PutKey(out, h->key);
    wire::PutU8(out, h->has_crc ? 1 : 0);
    wire::PutU32(out, h->crc);
    wire::PutU32(out, static_cast<uint32_t>(h->frag_crcs.size()));
    for (uint32_t crc : h->frag_crcs) wire::PutU32(out, crc);
    wire::PutReplicas(out, *h->replicas.load(std::memory_order_acquire));
  }
  return out;
}

void Manager::Checkpoint(sim::VirtualClock& clock) {
  if (wal_ == nullptr) return;
  // Serialisation CPU is one metadata op on lane 0 (charged before any
  // lock, like every other op's service charge).
  ChargeOp(clock, 0);
  std::string blob;
  uint64_t covered = 0;
  {
    // The full lock set, in the global order ns -> file (FileId order) ->
    // shard (ascending).  Shared where readers suffice: resolves keep
    // running, only mutations wait out the serialisation instant.
    std::shared_lock<std::shared_mutex> ns(ns_mu_);
    std::vector<std::shared_ptr<FileMeta>> metas;
    {
      std::vector<FileId> fids;
      fids.reserve(files_.size());
      for (const auto& [fid, meta] : files_) fids.push_back(fid);
      std::sort(fids.begin(), fids.end());
      metas.reserve(fids.size());
      for (FileId fid : fids) metas.push_back(files_.at(fid));
    }
    std::vector<std::shared_lock<std::shared_mutex>> flocks;
    flocks.reserve(metas.size());
    for (const auto& meta : metas) flocks.emplace_back(meta->mu);
    std::vector<std::unique_lock<std::mutex>> slocks;
    slocks.reserve(meta_shards_);
    for (MetaShard& shard : shards_) slocks.emplace_back(shard.mu);
    // Captured with every append-ordering lock held: no record <= covered
    // is half-applied, no record > covered is reflected in the blob.
    covered = wal_->last_seq();
    blob = EncodeCheckpointLocked();
  }
  // The device write happens outside the metadata locks — only the
  // serialisation instant stops the world, not the SSD transfer.
  wal_->WriteCheckpoint(clock, std::move(blob), covered);
}

// --- checkpoint read path ---

bool Manager::DecodeCheckpoint(const std::string& blob) {
  wire::Reader r(blob.data(), blob.size());
  next_file_id_ = r.U64();
  stripe_cursor_ = static_cast<size_t>(r.U64());

  const uint32_t nfiles = r.U32();
  struct PendingFile {
    FileId id = kInvalidFileId;
    std::shared_ptr<FileMeta> meta;
    std::vector<ChunkKey> slots;
  };
  std::vector<PendingFile> pending;
  pending.reserve(nfiles);
  for (uint32_t f = 0; f < nfiles && r.ok; ++f) {
    PendingFile pf;
    pf.id = r.U64();
    pf.meta = std::make_shared<FileMeta>();
    pf.meta->name = r.Str();
    pf.meta->size = r.U64();
    pf.meta->stripe_cursor = static_cast<size_t>(r.U64());
    const uint32_t nslots = r.U32();
    if (!r.ok || nslots > r.n) return false;  // each slot is >= 1 byte
    pf.slots.reserve(nslots);
    for (uint32_t s = 0; s < nslots && r.ok; ++s) pf.slots.push_back(r.Key());
    pending.push_back(std::move(pf));
  }

  const uint32_t nchunks = r.U32();
  if (!r.ok || nchunks > r.n) return false;
  for (uint32_t c = 0; c < nchunks && r.ok; ++c) {
    const ChunkKey key = r.Key();
    const bool has_crc = r.U8() != 0;
    const uint32_t crc = r.U32();
    const uint32_t nfrag = r.U32();
    if (!r.ok || nfrag > r.n) return false;
    std::vector<uint32_t> frag_crcs;
    frag_crcs.reserve(nfrag);
    for (uint32_t fc = 0; fc < nfrag && r.ok; ++fc) frag_crcs.push_back(r.U32());
    std::vector<int> replicas = r.Replicas();
    if (!r.ok) break;
    auto h = std::make_shared<ChunkHandle>(key);
    h->has_crc = has_crc;
    h->crc = crc;
    h->frag_crcs = std::move(frag_crcs);
    PublishReplicasLocked(*h, std::move(replicas));
    if (!shards_[shard_of(key)].chunks.emplace(key, std::move(h)).second) {
      return false;  // duplicate key: malformed
    }
  }
  if (!r.ok || r.n != 0) return false;

  // Wire file slots to the (single) handle per key, recomputing refcounts.
  for (PendingFile& pf : pending) {
    pf.meta->chunks.reserve(pf.slots.size());
    for (const ChunkKey& key : pf.slots) {
      MetaShard& shard = shards_[shard_of(key)];
      auto it = shard.chunks.find(key);
      if (it == shard.chunks.end()) return false;  // dangling slot
      ++it->second->refcount;
      pf.meta->chunks.push_back(it->second);
    }
    names_[pf.meta->name] = pf.id;
    files_[pf.id] = std::move(pf.meta);
  }
  return true;
}

// --- WAL replay ---

void Manager::ApplyWalRecord(const WalRecord& rec) {
  // Fresh manager, single-threaded recovery: no locks, no idempotency
  // (see the file header).  Records referencing state a torn earlier
  // record never produced cannot occur — the torn tail cuts the log at
  // the first bad record — but each case still guards its lookups so a
  // hand-corrupted log degrades to skipped records, not a crash.
  const size_t n = num_benefactors();
  switch (rec.type) {
    case WalRecordType::kCreateFile: {
      auto meta = std::make_shared<FileMeta>();
      meta->name = rec.name;
      meta->stripe_cursor = stripe_cursor_;
      if (n > 0) stripe_cursor_ = (stripe_cursor_ + 1) % n;
      names_[rec.name] = rec.file_id;
      files_[rec.file_id] = std::move(meta);
      if (rec.file_id >= next_file_id_) next_file_id_ = rec.file_id + 1;
      break;
    }
    case WalRecordType::kExtend: {
      auto fit = files_.find(rec.file_id);
      if (fit == files_.end()) break;
      FileMeta& meta = *fit->second;
      for (const WalPlacement& p : rec.placements) {
        auto h = std::make_shared<ChunkHandle>(p.key);
        h->refcount = 1;
        PublishReplicasLocked(*h, p.replicas);
        shards_[shard_of(p.key)].chunks.emplace(p.key, h);
        meta.chunks.push_back(std::move(h));
        if (n > 0) meta.stripe_cursor = (meta.stripe_cursor + 1) % n;
      }
      meta.size = rec.size;
      break;
    }
    case WalRecordType::kCowSwap: {
      auto fit = files_.find(rec.file_id);
      if (fit == files_.end()) break;
      FileMeta& meta = *fit->second;
      if (rec.slot >= meta.chunks.size()) break;
      auto h = std::make_shared<ChunkHandle>(rec.key);
      h->refcount = 1;  // recomputed wholesale in reconciliation anyway
      PublishReplicasLocked(*h, rec.replicas);
      shards_[shard_of(rec.key)].chunks.emplace(rec.key, h);
      meta.chunks[rec.slot] = std::move(h);
      break;
    }
    case WalRecordType::kComplete: {
      for (const WalCompletion& c : rec.completions) {
        MetaShard& shard = shards_[shard_of(c.key)];
        auto it = shard.chunks.find(c.key);
        if (it == shard.chunks.end()) continue;
        it->second->has_crc = c.has_crc;
        it->second->crc = c.crc;
        if (c.has_crc) {
          it->second->frag_crcs = c.frag_crcs;
        } else {
          it->second->frag_crcs.clear();
        }
      }
      break;
    }
    case WalRecordType::kReplicas: {
      MetaShard& shard = shards_[shard_of(rec.key)];
      auto it = shard.chunks.find(rec.key);
      if (it == shard.chunks.end()) break;
      PublishReplicasLocked(*it->second, rec.replicas);
      break;
    }
    case WalRecordType::kUnlink: {
      // Metadata only: the unreferenced handles fall out of the refcount
      // recompute, and their benefactor-side data (if the crash beat the
      // live deletions) falls to the orphan sweep.
      auto fit = files_.find(rec.file_id);
      if (fit == files_.end()) break;
      names_.erase(fit->second->name);
      files_.erase(fit);
      break;
    }
    case WalRecordType::kLink: {
      auto dit = files_.find(rec.file_id);
      auto sit = files_.find(rec.src_file);
      if (dit == files_.end() || sit == files_.end()) break;
      FileMeta& dst = *dit->second;
      FileMeta& src = *sit->second;
      // Snapshot first: self-links must not walk a growing vector.
      const std::vector<std::shared_ptr<ChunkHandle>> linked = src.chunks;
      const uint64_t link_offset = dst.chunks.size() * config_.chunk_bytes;
      dst.chunks.insert(dst.chunks.end(), linked.begin(), linked.end());
      dst.size = link_offset + src.size;
      break;
    }
  }
}

// --- reconciliation against benefactor inventories ---

void Manager::ReconcileWithBenefactors(sim::VirtualClock& clock,
                                       RecoveryReport* report) {
  const std::vector<Benefactor*> bens = SnapshotBenefactors();

  // Refcounts are not logged: recompute them from the file slots (the one
  // source of truth for reachability) and drop handles nothing references
  // — those are unlink leftovers, gone on purpose, not lost data.  The
  // same walk builds the slot reverse-index the COW rollback needs.
  struct SlotRef {
    FileId file = kInvalidFileId;
    size_t slot = 0;
  };
  std::unordered_map<ChunkKey, std::vector<SlotRef>, ChunkKeyHash> slot_refs;
  for (MetaShard& shard : shards_) {
    for (auto& [key, h] : shard.chunks) h->refcount = 0;
  }
  {
    std::vector<FileId> fids;
    fids.reserve(files_.size());
    for (const auto& [fid, meta] : files_) fids.push_back(fid);
    std::sort(fids.begin(), fids.end());
    for (FileId fid : fids) {
      const FileMeta& meta = *files_.at(fid);
      for (size_t s = 0; s < meta.chunks.size(); ++s) {
        ++meta.chunks[s]->refcount;
        slot_refs[meta.chunks[s]->key].push_back(SlotRef{fid, s});
      }
    }
  }
  for (MetaShard& shard : shards_) {
    std::erase_if(shard.chunks,
                  [](const auto& kv) { return kv.second->refcount == 0; });
  }

  // Per-chunk reconciliation, keys sorted so the decision sequence (and
  // its virtual-time trace) is deterministic.
  std::vector<ChunkKey> keys;
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());

  auto mark_lost = [&](ChunkHandle& h) {
    PublishReplicasLocked(h, {});
    lost_chunks_.Add(1);
    ++report->chunks_lost;
  };

  // Roll a COW-pending slot back to the previous version — the chunk reads
  // its old bytes, never zeros.  A missing previous handle means the swap's
  // record survived but its predecessor's history did not (checkpointed
  // away after an unlink raced in) — then the truth is loss.
  auto rollback_cow = [&](const ChunkKey& key, ChunkHandle& h,
                          MetaShard& shard) {
    ChunkKey prev = key;
    --prev.version;
    MetaShard& pshard = shards_[shard_of(prev)];
    auto pit = pshard.chunks.find(prev);
    if (pit != pshard.chunks.end()) {
      for (const SlotRef& ref : slot_refs[key]) {
        files_.at(ref.file)->chunks[ref.slot] = pit->second;
        ++pit->second->refcount;
      }
      shard.chunks.erase(key);
      ++report->cow_rolled_back;
    } else {
      mark_lost(h);
    }
  };

  for (const ChunkKey& key : keys) {
    MetaShard& shard = shards_[shard_of(key)];
    auto hit = shard.chunks.find(key);
    if (hit == shard.chunks.end()) continue;  // erased by a COW rollback
    ChunkHandle& h = *hit->second;
    const std::vector<int> list = *h.replicas.load(std::memory_order_acquire);

    if (list.empty()) {
      // Durably lost before the crash: still lost.
      lost_chunks_.Add(1);
      ++report->chunks_lost;
      continue;
    }
    // A chunk naming a dead holder is the repair path's business, exactly
    // as it would be had the manager never crashed: reconciliation must
    // not guess about data it cannot see.  (The post-restart heartbeat or
    // scrub strips the dead replica and re-replicates from a survivor.)
    bool any_dead = false;
    for (int bid : list) {
      if (bid < 0 || static_cast<size_t>(bid) >= bens.size() ||
          !bens[static_cast<size_t>(bid)]->alive()) {
        any_dead = true;
      }
    }
    if (any_dead) continue;

    // Every listed holder is alive: its member state and write-time
    // {has_crc, crc} record are visible, so conflicts are decidable now.
    struct Member {
      bool written = false;   // a blob is stored
      bool reserved = false;  // reserved, never written: reads as zeros
      bool has_crc = false;
      uint32_t crc = 0;
    };
    std::vector<Member> members(list.size());
    bool any_data = false;
    for (size_t pos = 0; pos < list.size(); ++pos) {
      const Benefactor& b = *bens[static_cast<size_t>(list[pos])];
      Member& m = members[pos];
      m.written = b.StoredChunkCrc(key, &m.has_crc, &m.crc);
      m.reserved = !m.written && b.Reserved(key);
      any_data |= m.written;
    }

    if (!h.has_crc && !any_data) {
      if (key.version > 0) {
        // COW-pending: the durable slot points at a fresh version whose
        // data (clone or write) never landed anywhere.
        rollback_cow(key, h, shard);
        continue;
      }
      // Never-written v0 chunk: sparse everywhere is its normal state.
      continue;
    }

    if (code_.positional && !h.has_crc) {
      // An erasure stripe commits at its completion record: unlike a
      // replica, one fragment cannot certify the full image, and the
      // fragments of a torn stripe can straddle write generations —
      // assembling them would splice bytes.  Roll the slot back to the
      // previous version; a torn v0 stripe reclaims what landed and reads
      // as the zeros the uncompleted write left behind (the inventory
      // sweep below re-reserves the listed members).
      if (key.version > 0) {
        rollback_cow(key, h, shard);
      } else {
        for (size_t pos = 0; pos < list.size(); ++pos) {
          if (members[pos].written) {
            (void)bens[static_cast<size_t>(list[pos])]->DeleteChunk(key);
          }
        }
      }
      continue;
    }

    // The authority rule, one for both codes.  The durable checksum stands
    // while any member still stores its position's checksum.  Otherwise a
    // write completed on the benefactors but its completion record died
    // with the crash, and the members' agreed new generation is adopted:
    // for replicas, every holder stores one checksum; for a stripe, every
    // position stores a fragment that matches none of the durable
    // checksums (one fragment cannot certify the image), and the image's
    // checksum combines from the k data fragments'.  With no agreement the
    // durable checksum stands and the sift below decides.
    bool stands = false;
    for (size_t pos = 0; pos < list.size(); ++pos) {
      const Member& m = members[pos];
      const uint32_t* want = MemberCrc(h, pos, list.size());
      stands |= m.written && m.has_crc && want != nullptr && m.crc == *want;
    }
    if (!stands) {
      std::vector<uint32_t> fresh;  // per position, or the replicas' one
      bool agreed = !code_.positional || h.frag_crcs.size() == list.size();
      for (const Member& m : members) {
        if (!m.written || !m.has_crc) {
          agreed &= !code_.positional;  // a stripe needs every position
        } else if (code_.positional || fresh.empty()) {
          fresh.push_back(m.crc);
        } else {
          agreed &= m.crc == fresh.front();
        }
      }
      if (agreed && !fresh.empty()) {
        if (code_.positional) {
          h.crc = 0;
          for (size_t c = 0; c < code_.need; ++c) {
            h.crc = Crc32cCombine(h.crc, fresh[c], code_.member_bytes);
          }
          h.frag_crcs = std::move(fresh);
        } else {
          h.has_crc = true;
          h.crc = fresh.front();
        }
        ++report->crc_adopted;
      }
    }

    // The member sift, shared by both codes: keep a member that stores the
    // checksum wanted for its position, or is reserved where the wanted
    // bytes are zeros; drop the rest — a member with no record is gone —
    // leaving a hole in a stripe or closing up a replica list, and mark
    // the chunk lost below `need`.
    if (MemberCrc(h, 0, list.size()) == nullptr) continue;  // undecidable
    std::vector<int> keep = list;
    const std::vector<int> dropped = code_.Drop(keep, [&](int, size_t pos) {
      const Member& m = members[pos];
      const uint32_t want = *MemberCrc(h, pos, list.size());
      // Benefactors record a crc with every programmed byte, so only a
      // blob materialised by a program of no pages lacks one; the sift
      // leaves it be.
      if (m.written ? !m.has_crc || m.crc == want
                    : m.reserved && want == code_.zero_crc) {
        return false;
      }
      if (m.written) {
        // Wrong-generation bytes: reclaim them so nothing ever serves them.
        // A member that diverged from the chunk's authority is a
        // correlated-loss source: the placement engine must not pick it as
        // a repair target for this very chunk (placement_avoid_suspected).
        // A stripe's repair re-encodes the hole from verified survivors.
        (void)bens[static_cast<size_t>(list[pos])]->DeleteChunk(key);
        if (std::find(h.tainted.begin(), h.tainted.end(), list[pos]) ==
            h.tainted.end()) {
          h.tainted.push_back(list[pos]);
        }
      }
      ++report->replicas_dropped;
      return true;
    });
    if (code_.Lost(keep)) {
      mark_lost(h);
    } else if (!dropped.empty()) {
      PublishReplicasLocked(h, std::move(keep));
    }
  }

  // What the log does not carry settles through the scrubber's inventory
  // sweep over the reconciled metadata: one round-trip per benefactor,
  // members no list names any more (unlink leftovers, abandoned COW
  // clones, rolled-back fresh versions) reclaimed, and listed members
  // without a reservation re-reserved.  A fresh manager has no other
  // thread and no repair in flight.
  const ScrubResult swept = SweepInventoriesLocked(clock);
  report->orphans_deleted = swept.orphans_deleted;
  report->reservation_fixes = swept.reservation_fixes;

  report->files_recovered = files_.size();
  for (const MetaShard& shard : shards_) {
    report->chunks_recovered += shard.chunks.size();
  }
}

RecoveryReport Manager::Recover(sim::VirtualClock& clock) {
  RecoveryReport report;
  if (wal_ == nullptr) return report;
  NVM_CHECK(files_.empty() && next_file_id_ == 1,
            "Recover requires a fresh manager");

  WalStore::Replay replay = wal_->ReadForRecovery(clock);
  report.used_checkpoint = replay.used_checkpoint;
  report.checkpoint_seq = replay.covered_seq;
  // Reopen() ran first and already truncated any torn tail, so the replay
  // itself reads clean — the truncation memory is the real signal.
  report.torn_tail = replay.torn_tail || wal_->last_reopen_truncated();
  if (replay.used_checkpoint) {
    // The slot CRC already validated the bytes: a blob that fails to
    // decode is an encoder/decoder bug, not torn media.
    NVM_CHECK(DecodeCheckpoint(replay.checkpoint),
              "checkpoint blob failed to decode");
  }
  for (const WalRecord& rec : replay.records) {
    ApplyWalRecord(rec);
    ++report.records_replayed;
  }
  ReconcileWithBenefactors(clock, &report);
  return report;
}

}  // namespace nvm::store
