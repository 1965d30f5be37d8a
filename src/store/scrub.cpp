// The manager's scrubbers: the metadata reconciliation pass (ScrubOnce),
// the incremental checksum sweep (VerifyScrub), and the reader-reported
// quarantine (ReportCorrupt).
#include <algorithm>
#include <unordered_map>

#include "store/manager.hpp"

namespace nvm::store {

Manager::ScrubResult Manager::ScrubOnce(sim::VirtualClock& clock) {
  ScrubResult result;
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

  // Stop-the-world metadata pass: every shard mutex held, in ascending
  // order.  Reservations only move under some shard mutex, so the drift
  // comparison below is race-free.
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(meta_shards_);
  for (MetaShard& shard : shards_) held.emplace_back(shard.mu);

  // Pass 1 — the authoritative replica map, straight from the shard chunk
  // tables (every live chunk has exactly one handle there).
  std::unordered_map<ChunkKey, std::shared_ptr<const std::vector<int>>,
                     ChunkKeyHash>
      lists;
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) {
      lists.try_emplace(key, h->replicas.load(std::memory_order_acquire));
    }
  }
  // Pass 2 — reconcile each alive benefactor against the map.  Dead ones
  // are the repair path's business, not the scrubber's.
  if (wal_ != nullptr) wal_->TriggerPoint(CrashPoint::kMidScrub);
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  for (size_t i = 0; i < bens.size(); ++i) {
    Benefactor* b = bens[i];
    // One metadata round-trip fetches the benefactor's stored-chunk set.
    ChargeOp(clock, i % meta_shards_);
    cluster_.network().Transfer(clock, manager_node_, b->node_id(),
                                config_.meta_request_bytes);
    cluster_.network().Transfer(clock, b->node_id(), manager_node_,
                                config_.meta_response_bytes);
    if (!b->alive()) continue;
    // Expected reservation in BYTES: one member's worth per list naming
    // this benefactor (a full chunk per replica, a fragment per stripe).
    uint64_t expected = 0;
    for (const auto& [key, list] : lists) {
      if (std::find(list->begin(), list->end(), static_cast<int>(i)) !=
          list->end()) {
        expected += code_.member_bytes;
      }
    }
    // In-flight repair targets hold reservations (and possibly data) the
    // replica lists do not name yet; their commit will settle them.
    for (const MetaShard& shard : shards_) {
      for (const auto& [key, targets] : shard.repair_targets) {
        for (const MetaShard::RepairTarget& t : targets) {
          if (t.bid == static_cast<int>(i)) expected += t.bytes;
        }
      }
    }
    for (const ChunkKey& key : b->StoredChunkKeys()) {
      auto it = lists.find(key);
      const bool reachable =
          it != lists.end() &&
          std::find(it->second->begin(), it->second->end(),
                    static_cast<int>(i)) != it->second->end();
      if (!reachable &&
          !IsRepairTargetLocked(shards_[shard_of(key)], key,
                                static_cast<int>(i))) {
        // Orphan: stored but absent from the replica list — the leavings
        // of an unlink against a then-dead benefactor or an abandoned
        // repair copy.  No reader ever consults it; reclaim the space.
        (void)b->DeleteChunk(key);
        ++result.orphans_deleted;
      }
    }
    // Reservation drift: reserved bytes must equal the bytes the metadata
    // places here plus the in-flight repair targets.  Fixes are reported
    // in chunk-slot units (rounded up) for continuity with the historic
    // counter.
    const uint64_t reserved = b->bytes_used();
    if (reserved > expected) {
      b->ReleaseBytes(reserved - expected);
      result.reservation_fixes +=
          CeilDiv(reserved - expected, config_.chunk_bytes);
    } else if (reserved < expected) {
      (void)b->ReserveBytes(expected - reserved);
      result.reservation_fixes +=
          CeilDiv(expected - reserved, config_.chunk_bytes);
    }
  }
  // Pass 3 — re-find degraded chunks the report path missed, by the same
  // rule as CollectUnderReplicated.
  for (const auto& [key, list] : lists) {
    if (!code_.Lost(*list) && code_.Degraded(*list, bens)) {
      result.under_replicated.push_back(key);
    }
  }
  // Sorted so the requeue order does not depend on shard count or hash
  // iteration order.
  std::sort(result.under_replicated.begin(), result.under_replicated.end());
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
      if (s.code() == ErrorCode::kCorrupt) {
        result.bytes_checked += stored_bytes;
        mismatches.push_back({i, bid});
      } else if (s.ok()) {
        if (sparse) {
          // A replica with no stored bytes reads as zeros: that is silent
          // corruption too unless the chunk really is all zeros.
          if (want != code_.zero_crc) mismatches.push_back({i, bid});
        } else {
          result.bytes_checked += stored_bytes;
        }
      }
      // Unavailable: died between phases — the heartbeat/repair path owns
      // dead replicas.
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
