// The manager's scrubbers: the metadata reconciliation pass (ScrubOnce)
// and the inventory sweep it shares with recovery, the incremental
// checksum sweep (VerifyScrub), and the reader-reported quarantine
// (ReportCorrupt).
#include <algorithm>
#include <unordered_map>

#include "store/manager.hpp"

namespace nvm::store {

Manager::ScrubResult Manager::ScrubOnce(sim::VirtualClock& clock) {
  // Per-file metadata scan cost, charged before any shard lock is taken
  // (the lock graph stays acyclic: ns_mu_ is never held across shard
  // acquisitions, and the charges land on the files' own lanes).
  std::vector<FileId> fids;
  {
    std::shared_lock<std::shared_mutex> lock(ns_mu_);
    fids.reserve(files_.size());
    for (const auto& [fid, meta] : files_) fids.push_back(fid);
  }
  std::sort(fids.begin(), fids.end());
  for (FileId fid : fids) ChargeOp(clock, FileLane(fid));

  ScrubResult result;
  {
    // Stop-the-world metadata pass: every shard mutex held, in ascending
    // order.  Reservations only move under some shard mutex, so the
    // inventory comparison is race-free.
    std::vector<std::unique_lock<std::mutex>> held;
    held.reserve(meta_shards_);
    for (MetaShard& shard : shards_) held.emplace_back(shard.mu);
    if (wal_ != nullptr) wal_->TriggerPoint(CrashPoint::kMidScrub);
    result = SweepInventoriesLocked(clock);
  }
  // Re-find degraded chunks the report path missed.
  result.under_replicated = CollectUnderReplicated();
  return result;
}

Manager::ScrubResult Manager::SweepInventoriesLocked(sim::VirtualClock& clock) {
  ScrubResult result;
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  // The authoritative member lists, straight from the shard chunk tables
  // (every live chunk has exactly one handle there), and how many members
  // each benefactor must hold.  In-flight repair targets hold members the
  // lists do not name yet; their commit settles them.
  std::unordered_map<ChunkKey, std::shared_ptr<const std::vector<int>>,
                     ChunkKeyHash>
      lists;
  std::vector<uint64_t> listed(bens.size(), 0);
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) {
      auto list = h->replicas.load(std::memory_order_acquire);
      for (int bid : *list) {
        if (bid >= 0) ++listed[static_cast<size_t>(bid)];
      }
      lists.try_emplace(key, std::move(list));
    }
  }
  const auto lists_on = [&](const ChunkKey& key, int bid) {
    auto it = lists.find(key);
    return it != lists.end() && std::find(it->second->begin(),
                                          it->second->end(),
                                          bid) != it->second->end();
  };
  const auto targeted = [&](const ChunkKey& key, int bid) {
    const auto& open = shards_[shard_of(key)].repair_targets;
    auto it = open.find(key);
    return it != open.end() && std::find(it->second.begin(), it->second.end(),
                                         bid) != it->second.end();
  };
  for (size_t i = 0; i < bens.size(); ++i) {
    Benefactor* b = bens[i];
    const int bid = static_cast<int>(i);
    // One metadata round-trip fetches the benefactor's member inventory.
    ChargeOp(clock, i % meta_shards_);
    cluster_.network().Transfer(clock, manager_node_, b->node_id(),
                                config_.meta_request_bytes);
    cluster_.network().Transfer(clock, b->node_id(), manager_node_,
                                config_.meta_response_bytes);
    // Dead benefactors are the repair path's business, not the sweep's.
    if (!b->alive()) continue;
    const uint64_t used = b->bytes_used();
    uint64_t held = 0;  // listed members here that hold their reservation
    for (const Benefactor::Member& m : b->Members()) {
      if (lists_on(m.key, bid)) {
        held += m.reserved;
      } else if (!targeted(m.key, bid)) {
        // Orphan: a member no list names — the leavings of an unlink
        // against a then-dead benefactor, an abandoned repair copy or COW
        // clone, a version recovery rolled back, or a leaked reservation.
        // No reader ever consults it; reclaim it.
        (void)b->DeleteChunk(m.key);
        result.orphans_deleted += m.written;
      }
    }
    // Fixes count in chunk slots, rounded up per benefactor.
    result.reservation_fixes +=
        CeilDiv(used - b->bytes_used(), config_.chunk_bytes);
    // A listed member with no reservation here is re-reserved: a list
    // names it, so it reads as its blob or as sparse zeros.
    uint64_t restored = 0;
    for (auto it = lists.begin(); held < listed[i] && it != lists.end(); ++it) {
      if (lists_on(it->first, bid) &&
          b->Reserve(it->first, code_.member_bytes).ok()) {
        restored += code_.member_bytes;
        ++held;
      }
    }
    result.reservation_fixes += CeilDiv(restored, config_.chunk_bytes);
  }
  return result;
}

Manager::VerifyResult Manager::VerifyScrub(sim::VirtualClock& clock,
                                           uint64_t max_bytes) {
  VerifyResult result;
  if (max_bytes == 0) return result;
  // One sweep at a time: verify_mu_ guards the inter-shard cursor and is
  // ordered strictly before the shard mutexes.
  std::lock_guard<std::mutex> sweep(verify_mu_);
  const size_t start_lane = verify_shard_ % meta_shards_;

  struct Candidate {
    ChunkKey key;
    std::vector<int> replicas;
    std::vector<uint32_t> want;  // checksum each member must store
    uint64_t epoch = 0;
  };

  // Phase 1 (shard mutexes, one at a time) — snapshot the next cursor
  // batch: placed chunks with a recorded checksum and no write in flight,
  // shards in index order and sorted keys within each shard, until the
  // byte budget is covered (at least one chunk always makes the batch so
  // tiny budgets still progress).
  std::vector<Candidate> batch;
  ChargeOp(clock, start_lane);  // batch lookup cost
  {
    uint64_t planned = 0;
    bool stopped = false;
    for (size_t s = verify_shard_; s < meta_shards_ && !stopped; ++s) {
      MetaShard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      std::vector<ChunkKey> keys;
      keys.reserve(shard.chunks.size());
      for (const auto& [key, h] : shard.chunks) keys.push_back(key);
      std::sort(keys.begin(), keys.end());
      for (const ChunkKey& key : keys) {
        if (shard.verify_cursor.has_value() && key <= *shard.verify_cursor) {
          continue;  // at or before the cursor: already covered this lap
        }
        const ChunkHandle& h = *shard.chunks.at(key);
        auto list = h.replicas.load(std::memory_order_acquire);
        if (list->empty()) continue;  // lost: nothing to read
        if (shard.inflight_writers.contains(key)) continue;  // in flux
        // Never written (or a stripe without positional checksums):
        // nothing to rot.
        if (MemberCrc(h, 0, list->size()) == nullptr) continue;
        const uint64_t cost = code_.member_bytes * Redundancy::Listed(*list);
        if (!batch.empty() && planned + cost > max_bytes) {
          stopped = true;
          break;
        }
        planned += cost;
        Candidate c;
        c.key = key;
        c.replicas = *list;
        // Each EC fragment verifies against ITS positional checksum; a
        // replica against the full-image one.
        for (size_t i = 0; i < list->size(); ++i) {
          c.want.push_back(*MemberCrc(h, i, list->size()));
        }
        c.epoch = h.repair_epoch;
        batch.push_back(std::move(c));
        shard.verify_cursor = key;
      }
      if (stopped) {
        verify_shard_ = s;  // resume this shard at its cursor
      } else {
        shard.verify_cursor.reset();  // shard fully covered this lap
      }
    }
    if (!stopped) {
      result.wrapped = true;  // covered the tail of the keyspace
      verify_shard_ = 0;
    }
  }

  // Phase 2 (no shard mutex) — verify every alive replica benefactor-
  // locally: one request/verdict round-trip each; the chunk bytes never
  // leave the benefactor's node.
  struct Mismatch {
    size_t cand;
    int bid;
  };
  std::vector<Mismatch> mismatches;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Candidate& c = batch[i];
    ++result.chunks_checked;
    for (size_t ri = 0; ri < c.replicas.size(); ++ri) {
      const int bid = c.replicas[ri];
      if (bid < 0) continue;  // EC hole: repair's business
      Benefactor* b = BenefactorAt(bid);
      if (b == nullptr || !b->alive()) continue;  // repair's business
      const uint32_t want = c.want[ri];
      const uint64_t stored_bytes = code_.member_bytes;
      cluster_.network().Transfer(clock, manager_node_, b->node_id(),
                                  config_.meta_request_bytes);
      bool sparse = false;
      Status s = b->VerifyChunk(clock, c.key, want, &sparse);
      cluster_.network().Transfer(clock, b->node_id(), manager_node_,
                                  config_.meta_response_bytes);
      const bool corrupt = s.code() == ErrorCode::kCorrupt;
      if (corrupt || (s.ok() && !sparse)) result.bytes_checked += stored_bytes;
      // Quarantined: rot; a member the holder no longer has; or a sparse
      // one, which reads as zeros, unless the chunk really is all zeros.
      // Unavailable: died between phases — the heartbeat/repair path owns
      // dead replicas.
      if (corrupt || s.code() == ErrorCode::kNotFound ||
          (s.ok() && sparse && want != code_.zero_crc)) {
        mismatches.push_back({i, bid});
      }
    }
  }

  // Phase 3 (shard mutex per mismatch) — quarantine confirmed mismatches,
  // dropping any whose chunk was rewritten or repaired while the
  // verification ran (their verdicts describe bytes that no longer exist).
  if (!mismatches.empty()) {
    ChargeOp(clock, start_lane);
    // Our own quarantines bump the epoch by one each; account for them so
    // a chunk with several corrupt replicas sheds all of them in one pass.
    std::unordered_map<ChunkKey, uint64_t, ChunkKeyHash> own_bumps;
    for (const Mismatch& m : mismatches) {
      const Candidate& c = batch[m.cand];
      MetaShard& shard = shards_[shard_of(c.key)];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto hit = shard.chunks.find(c.key);
      const uint64_t epoch =
          hit == shard.chunks.end() ? 0 : hit->second->repair_epoch;
      if (hit == shard.chunks.end() ||
          epoch != c.epoch + own_bumps[c.key] ||
          shard.inflight_writers.contains(c.key)) {
        ++result.skipped;
        continue;
      }
      if (QuarantineReplicaLocked(clock, shard, c.key, m.bid)) {
        ++own_bumps[c.key];
        ++result.corrupt_found;
        // Requeue only when a repair can still help: the chunk is not
        // lost (a surviving replica, or k fragments to reconstruct from).
        auto now = hit->second->replicas.load(std::memory_order_acquire);
        if (!code_.Lost(*now)) result.quarantined.push_back(c.key);
      } else {
        ++result.skipped;
      }
    }
  }
  return result;
}

void Manager::ReportCorrupt(sim::VirtualClock& clock, const ChunkKey& key,
                            int bid) {
  bool degraded = false;
  {
    MetaShard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (QuarantineReplicaLocked(clock, shard, key, bid)) {
      auto it = shard.chunks.find(key);
      if (it != shard.chunks.end()) {
        const ChunkHandle& h = *it->second;
        degraded = !code_.Lost(*h.replicas.load(std::memory_order_acquire));
      }
    }
  }
  // Queue a repair only when the chunk is not lost: a surviving replica
  // or k fragments can seed it.
  if (degraded) ReportDegraded(key, clock.now());
}

}  // namespace nvm::store
