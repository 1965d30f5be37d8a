// The manager's repair engine: plan/execute/commit, quarantine, the
// synchronous RepairReplication driver, and Decommission.  One member mover
// (ExecuteRepairPlan) moves replicas and stripe fragments for both repair
// and drain.
#include <algorithm>

#include "common/log.hpp"
#include "store/erasure.hpp"
#include "store/manager.hpp"

namespace nvm::store {

std::vector<int> Manager::ExcludeMembers(std::span<const int> list,
                                         std::vector<PlacementCandidate>& cands,
                                         int leaving) const {
  std::vector<int> nodes;
  for (int bid : list) {
    if (bid < 0) continue;
    PlacementCandidate& c = cands[static_cast<size_t>(bid)];
    c.excluded = true;
    if (code_.spread && bid != leaving) nodes.push_back(c.node);
  }
  return nodes;
}

void Manager::UndoRepairTargetLocked(MetaShard& shard, const ChunkKey& key,
                                     int bid, uint64_t bytes) {
  Benefactor* b = BenefactorAt(bid);
  if (b == nullptr) return;
  auto it = shard.chunks.find(key);
  if (it != shard.chunks.end()) {
    auto current = it->second->replicas.load(std::memory_order_acquire);
    if (std::find(current->begin(), current->end(), bid) != current->end()) {
      // A racing repair picked the same target and already committed it:
      // the data and one reservation belong to the published replica list.
      // Only this plan's duplicate reservation comes back.
      b->ReleaseBytes(bytes);
      return;
    }
  }
  (void)b->DeleteChunk(key);  // drop any partially copied data
  b->ReleaseBytes(bytes);
}

template <typename Gone>
std::vector<int> Manager::StripMembersLocked(sim::VirtualClock& clock,
                                             ChunkHandle& h, Gone gone,
                                             uint64_t* lost) {
  const std::vector<int> before = *h.replicas.load(std::memory_order_acquire);
  std::vector<int> list = before;
  std::vector<int> reclaimed = code_.Drop(list, gone);
  if (reclaimed.empty()) return list;
  // Below `need` no verified source or reconstruction exists: the strip
  // that crosses the threshold reclaims the survivors too and counts the
  // loss (repairs never run below `need`, so it crosses at most once).
  const bool crossed = code_.LoseBelowNeed(before, list, reclaimed);
  // Log the stripped list BEFORE touching any member's data.  The reverse
  // order is unrecoverable: a crash in between would leave a durable list
  // still naming reclaimed members, and recovery — finding no data there
  // (or a quarantined, possibly wrong-byte image gone) — could pick a
  // corrupt replica's stored checksum as truth or fail chunks that have a
  // healthy survivor.
  WalRecord rec;
  rec.type = WalRecordType::kReplicas;
  rec.key = h.key;
  rec.replicas = list;
  LogAppend(clock, std::move(rec));
  for (int bid : reclaimed) {
    Benefactor* b = BenefactorAt(bid);
    b->ReleaseBytes(code_.member_bytes);
    (void)b->DeleteChunk(h.key);
  }
  if (crossed) {
    lost_chunks_.Add(1);
    if (lost != nullptr) ++*lost;
  }
  // Readers stop trying the dropped ids from here on.
  PublishReplicasLocked(h, list);
  return list;
}

bool Manager::QuarantineReplicaLocked(sim::VirtualClock& clock,
                                      MetaShard& shard, const ChunkKey& key,
                                      int bid) {
  auto it = shard.chunks.find(key);
  if (it == shard.chunks.end()) return false;  // freed meanwhile
  ChunkHandle& h = *it->second;
  auto current = h.replicas.load(std::memory_order_acquire);
  if (std::find(current->begin(), current->end(), bid) == current->end()) {
    return false;  // already quarantined or replaced
  }
  corrupt_detected_.Add(1);
  h.corrupt_pending = true;
  // Correlated-loss memory: this device just served wrong bytes for this
  // chunk — the placement engine must not pick it as a repair target for
  // the same chunk (placement_avoid_suspected).
  if (std::find(h.tainted.begin(), h.tainted.end(), bid) ==
      h.tainted.end()) {
    h.tainted.push_back(bid);
  }
  // The copy is untrustworthy: strip it so no reader or repair ever
  // consults it again.  A stripe's slot goes to -1 (positions are stable —
  // a repair re-fills the hole in place); a replica list closes up.  A
  // quarantine that drops the chunk below `need` loses it.
  StripMembersLocked(
      clock, h, [bid](int id, size_t) { return id == bid; }, nullptr);
  // Any repair copy in flight may have read the quarantined replica: move
  // the epoch so its commit fails and retries against the verified list.
  ++h.repair_epoch;
  return true;
}

bool Manager::IsRepairTargetLocked(const MetaShard& shard, const ChunkKey& key,
                                   int bid) const {
  auto it = shard.repair_targets.find(key);
  if (it == shard.repair_targets.end()) return false;
  return std::any_of(
      it->second.begin(), it->second.end(),
      [bid](const MetaShard::RepairTarget& t) { return t.bid == bid; });
}

std::vector<ChunkKey> Manager::CollectUnderReplicated() const {
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  std::vector<ChunkKey> keys;
  for (const MetaShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, h] : shard.chunks) {
      auto list = h->replicas.load(std::memory_order_acquire);
      if (!code_.Lost(*list) && code_.Degraded(*list, bens)) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<ChunkKey> Manager::ChunksWithReplicasOn(int id) const {
  std::vector<ChunkKey> keys;
  for (const MetaShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, h] : shard.chunks) {
      auto list = h->replicas.load(std::memory_order_acquire);
      if (std::find(list->begin(), list->end(), id) != list->end()) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Manager::RepairPlan> Manager::PlanRepairs(
    sim::VirtualClock& clock, std::span<const ChunkKey> keys,
    uint64_t* lost) {
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  // Reliability signal for target placement, snapshotted once per call
  // and BEFORE any shard mutex (hook_mu_ is never taken under one).
  std::vector<char> suspected;
  if (config_.placement_avoid_suspected) suspected = SuspectedBenefactors();
  std::unordered_set<ChunkKey, ChunkKeyHash> seen;
  std::vector<RepairPlan> plans;
  for (const ChunkKey& key : keys) {
    if (!seen.insert(key).second) continue;  // each key planned at most once
    MetaShard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto hit = shard.chunks.find(key);
    if (hit == shard.chunks.end()) continue;  // freed since reported
    ChunkHandle& h = *hit->second;
    // Strip the dead members: in a stripe they become holes in place
    // (their fragment died with the device), a replica list closes up.
    const std::vector<int> members = StripMembersLocked(
        clock, h,
        [&](int bid, size_t) {
          return !bens[static_cast<size_t>(bid)]->alive();
        },
        lost);
    if (code_.Lost(members)) continue;
    const size_t live = Redundancy::Listed(members);
    if (live >= code_.width) continue;  // healthy after stripping (stale)

    // Target placement through the shared engine: least-loaded alive
    // benefactors that hold no member (ties broken by id for determinism),
    // off every survivor's node when the code spreads — a single node
    // failure must never take out two fragments of one stripe.  With
    // placement_avoid_suspected on, benefactors missing heartbeats are
    // HARD-excluded (re-protection must not bet on a flapping node) and so
    // are the chunk's correlated-loss sources (h.tainted — the devices
    // that corrupted or diverged on these very bytes).  The reservations
    // race planners on other shards only through the benefactors'
    // CAS-bounded counters — a loser simply plans incomplete and requeues.
    std::vector<PlacementCandidate> cands = BuildPlacementCandidates(
        bens, suspected.empty() ? nullptr : &suspected);
    std::vector<int> used_nodes = ExcludeMembers(members, cands);
    if (config_.placement_avoid_suspected) {
      for (int bid : h.tainted) {
        if (static_cast<size_t>(bid) < cands.size()) {
          cands[static_cast<size_t>(bid)].excluded = true;
        }
      }
    }
    PlacementRequest req;
    req.order = PlacementRequest::Order::kLeastLoaded;
    req.avoid_suspected = config_.placement_avoid_suspected;
    req.exclude_suspected = config_.placement_avoid_suspected;
    req.wear_weight = config_.placement_wear_weight;
    req.exclude_nodes = &used_nodes;

    RepairPlan plan;
    plan.key = key;
    plan.survivors = members;
    plan.epoch = h.repair_epoch;
    const size_t want = code_.width - live;
    plan.targets =
        code_.Reserve(bens, RankPlacement(cands, req), want, used_nodes);
    // Each target fills the next free position — a stripe's hole, in
    // position order, or past the end of a replica list — and stores the
    // checksum recorded for that position, snapshot now.
    for (uint32_t pos = 0; plan.target_positions.size() < plan.targets.size();
         ++pos) {
      if (pos < members.size() && members[pos] >= 0) continue;
      plan.target_positions.push_back(pos);
      if (const uint32_t* crc = MemberCrc(h, pos, members.size())) {
        plan.target_crcs.push_back(*crc);
      }
    }
    // Register the targets so the scrubber leaves the in-flight copies
    // alone; CommitRepair deregisters them.
    if (!plan.targets.empty()) {
      std::vector<MetaShard::RepairTarget>& open = shard.repair_targets[key];
      for (int bid : plan.targets) open.push_back({bid, code_.member_bytes});
    }
    plan.incomplete = plan.targets.size() < want;
    plans.push_back(std::move(plan));
  }
  return plans;
}

Manager::RepairOutcome Manager::ExecuteRepairPlan(sim::VirtualClock& clock,
                                                  const RepairPlan& plan) {
  RepairOutcome out;
  out.plan = plan;
  if (plan.targets.empty()) return out;
  const std::vector<int>& list = plan.survivors;
  const auto live = [&](int bid) {
    Benefactor* b = BenefactorAt(bid);
    return b != nullptr && b->alive();
  };
  // Fetch `bid`'s member into `buf` on `at`.  A member that fails its own
  // read verification is quarantined at commit; any failure lets the
  // next source in.
  const auto fetch = [&](sim::VirtualClock& at, int bid,
                         std::vector<uint8_t>& buf, bool* sparse) {
    buf.resize(code_.member_bytes);
    const Status s = BenefactorAt(bid)->ReadFragment(at, plan.key, buf, sparse,
                                                     kTenantMaintenance);
    if (s.code() == ErrorCode::kCorrupt) out.corrupt_sources.push_back(bid);
    if (!s.ok()) buf.clear();
    return s.ok();
  };
  // The live members' positions (a holder already known dead is skipped
  // before any fetch is issued).  `copies` hold the very bytes the targets
  // need: the holder a drain replaces (listed at its target's position)
  // first, then, when every member is the whole chunk, each survivor in
  // list order.  `others` hold the rest.
  std::vector<uint32_t> copies;
  std::vector<uint32_t> others;
  for (uint32_t pos : plan.target_positions) {
    if (pos < list.size() && list[pos] >= 0 && live(list[pos])) {
      copies.push_back(pos);
    }
  }
  for (uint32_t pos = 0; pos < list.size(); ++pos) {
    if (list[pos] < 0 || !live(list[pos]) ||
        std::find(copies.begin(), copies.end(), pos) != copies.end()) {
      continue;
    }
    (code_.positional ? others : copies).push_back(pos);
  }

  // Copy: off the first copy source whose read verifies.
  std::vector<uint8_t> blob;
  bool has_data = false;
  int src = -1;
  for (uint32_t pos : copies) {
    bool sparse = false;
    if (!fetch(clock, list[pos], blob, &sparse)) continue;
    src = list[pos];
    has_data = !sparse;
    break;
  }

  // Rebuild: no copy verified, so `need` verified members are fetched to
  // the manager's node in rounds — the client's degraded-read rule — then
  // decoded, and the missing ones re-encoded.  The stripe is never read in
  // full off one device (the repair-traffic saving the MTTR bench
  // measures).
  std::vector<std::vector<uint8_t>> members;
  if (src < 0) {
    members.resize(code_.width);
    const size_t good = sim::ForkJoinRounds(
        clock, code_.need, others.size(), [&](sim::VirtualClock& at, size_t i) {
          const uint32_t pos = others[i];
          bool sparse = false;
          if (!fetch(at, list[pos], members[pos], &sparse)) return false;
          if (!sparse) {  // a sparse member reads back as zeros
            cluster_.network().Transfer(at, BenefactorAt(list[pos])->node_id(),
                                        manager_node_, code_.member_bytes);
            has_data = true;
          }
          return true;
        });
    if (good < code_.need) {
      out.failed = plan.targets;
      return out;
    }
    if (has_data) {
      // Decode + re-encode cost is modelled; the parity math is real, so
      // the rebuilt members are byte-exact.
      clock.Advance(config_.ec_encode_ns(config_.chunk_bytes));
      ErasureCodec codec(static_cast<uint32_t>(code_.need),
                         static_cast<uint32_t>(code_.width - code_.need));
      NVM_CHECK(codec.Reconstruct(members),
                "need verified members failed to reconstruct");
    }
  }

  // Every target forks from here: admitted before the wire (a repair storm
  // queues behind the scheduler, not in front of it), shipped from the
  // copy source or the manager, and written whole with the checksum its
  // position carries.  Sparse bytes need no move: the reservation alone
  // makes the member (it reads back as zeros, like its sources).
  const int from = src >= 0 ? BenefactorAt(src)->node_id() : manager_node_;
  const int64_t start = clock.now();
  int64_t done = start;
  for (size_t i = 0; i < plan.targets.size(); ++i) {
    const int bid = plan.targets[i];
    Benefactor* b = BenefactorAt(bid);
    bool ok = live(bid);
    sim::VirtualClock copy(start);
    if (ok && has_data) {
      b->AdmitTransfer(copy, kTenantMaintenance, code_.member_bytes,
                       /*is_write=*/true, code_.member_bytes);
      cluster_.network().Transfer(copy, from, b->node_id(), code_.member_bytes);
      const std::vector<uint8_t>& member =
          src >= 0 ? blob : members[plan.target_positions[i]];
      const uint32_t* crc =
          plan.target_crcs.empty() ? nullptr : &plan.target_crcs[i];
      ok = b->WriteFragment(copy, plan.key, member, crc, kTenantMaintenance)
               .ok();
    }
    done = std::max(done, copy.now());
    (ok ? out.written : out.failed).push_back(bid);
  }
  clock.AdvanceTo(done);
  return out;
}

uint64_t Manager::CommitRepair(sim::VirtualClock& clock,
                               const RepairOutcome& outcome, bool* requeue) {
  if (requeue != nullptr) *requeue = false;
  if (wal_ != nullptr) wal_->TriggerPoint(CrashPoint::kMidRepairCommit);
  const RepairPlan& plan = outcome.plan;
  const uint64_t res_bytes = code_.member_bytes;
  MetaShard& shard = shards_[shard_of(plan.key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  // The targets' fate is decided here: they stop being scrub-exempt.
  auto rt = shard.repair_targets.find(plan.key);
  if (rt != shard.repair_targets.end()) {
    for (int bid : plan.targets) {
      auto pos = std::find_if(
          rt->second.begin(), rt->second.end(),
          [bid](const MetaShard::RepairTarget& t) { return t.bid == bid; });
      if (pos != rt->second.end()) rt->second.erase(pos);
    }
    if (rt->second.empty()) shard.repair_targets.erase(rt);
  }
  auto undo_all = [&] {
    for (int bid : outcome.written) {
      UndoRepairTargetLocked(shard, plan.key, bid, res_bytes);
    }
    for (int bid : outcome.failed) {
      UndoRepairTargetLocked(shard, plan.key, bid, res_bytes);
    }
  };
  // Freed while the copy ran?  Nothing references the chunk any more.
  auto hit = shard.chunks.find(plan.key);
  if (hit == shard.chunks.end()) {
    undo_all();
    return 0;
  }
  ChunkHandle& h = *hit->second;
  // Rewritten (epoch moved), concurrently re-placed (list changed), or a
  // prepared write still in flight (its bytes could land on a survivor
  // after our read and never reach the targets)?  The bytes we moved are
  // stale — retry from scratch.
  const std::vector<int> current =
      *h.replicas.load(std::memory_order_acquire);
  if (h.repair_epoch != plan.epoch || current != plan.survivors ||
      shard.inflight_writers.contains(plan.key)) {
    undo_all();
    if (requeue != nullptr) *requeue = true;
    return 0;
  }
  // Survivors stay first: the primary keeps holding every written byte, so
  // reads served off it never observe the copy-window gap.  (EC: written
  // fragments slot back into their stable positions instead.)
  std::vector<int> fresh = plan.survivors;
  uint64_t recreated = 0;
  for (int bid : outcome.written) {
    Benefactor* b = BenefactorAt(bid);
    if (b != nullptr && b->alive()) {
      if (code_.positional) {
        const auto at = static_cast<size_t>(
            std::find(plan.targets.begin(), plan.targets.end(), bid) -
            plan.targets.begin());
        NVM_CHECK(at < plan.target_positions.size(),
                  "EC repair wrote an unplanned target");
        const uint32_t pos = plan.target_positions[at];
        NVM_CHECK(fresh[pos] == -1, "EC repair filling an occupied slot");
        fresh[pos] = bid;
        ec_fragments_repaired_.Add(1);
      } else {
        fresh.push_back(bid);
      }
      ++recreated;
    } else {
      // Died after the copy landed.
      UndoRepairTargetLocked(shard, plan.key, bid, res_bytes);
    }
  }
  for (int bid : outcome.failed) {
    UndoRepairTargetLocked(shard, plan.key, bid, res_bytes);
  }
  if (fresh != plan.survivors) {
    // Log the committed list before publishing it (log-before-publish).
    // An unchanged list (every target died/failed) appends nothing.
    WalRecord rec;
    rec.type = WalRecordType::kReplicas;
    rec.key = plan.key;
    rec.replicas = fresh;
    LogAppend(clock, std::move(rec));
  }
  PublishReplicasLocked(h, std::move(fresh));
  // Survivors caught serving corrupt bytes during the copy are stripped
  // now, under the same commit (the epoch check above guarantees no write
  // refreshed them in between); the shortened list needs another round.
  bool stripped = false;
  for (int bid : outcome.corrupt_sources) {
    if (QuarantineReplicaLocked(clock, shard, plan.key, bid)) stripped = true;
  }
  if (stripped && requeue != nullptr) *requeue = true;
  // A chunk quarantined earlier counts as healed once `width` verified
  // members are listed again.
  if (h.corrupt_pending &&
      code_.Healed(*h.replicas.load(std::memory_order_acquire))) {
    h.corrupt_pending = false;
    corrupt_repaired_.Add(1);
  }
  // Short of the plan (no readable survivor, or targets died mid-copy):
  // hand the key back so the caller retries promptly instead of waiting
  // for the next heartbeat declaration or scrub pass to rediscover it.
  if (requeue != nullptr && recreated < plan.targets.size()) *requeue = true;
  return recreated;
}

StatusOr<uint64_t> Manager::RepairReplication(sim::VirtualClock& clock,
                                              uint64_t* lost) {
  if (lost != nullptr) *lost = 0;
  // Synchronous, unthrottled driver over the plan/execute/commit engine —
  // no shard mutex is ever held across a data transfer.  A commit that
  // loses to a concurrent write or a mid-copy death asks for a requeue;
  // retry those keys a bounded number of rounds so a single unlucky race
  // does not leave the chunk degraded until the next sweep.
  std::vector<ChunkKey> keys = CollectUnderReplicated();
  uint64_t recreated = 0;
  for (int round = 0; round < 3 && !keys.empty(); ++round) {
    uint64_t lost_now = 0;
    std::vector<RepairPlan> plans = PlanRepairs(clock, keys, &lost_now);
    if (lost != nullptr) *lost += lost_now;
    std::vector<ChunkKey> retry;
    for (const RepairPlan& plan : plans) {
      RepairOutcome out = ExecuteRepairPlan(clock, plan);
      bool requeue = false;
      recreated += CommitRepair(clock, out, &requeue);
      if (requeue) retry.push_back(plan.key);
    }
    keys = std::move(retry);
  }
  return recreated;
}

StatusOr<uint64_t> Manager::Decommission(sim::VirtualClock& clock, int id) {
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  if (id < 0 || static_cast<size_t>(id) >= bens.size()) {
    return NotFound("benefactor " + std::to_string(id));
  }
  Benefactor* leaving = bens[static_cast<size_t>(id)];
  if (!leaving->alive()) {
    return FailedPrecondition("cannot drain a dead benefactor");
  }

  // Reliability signal for the placement engine, snapshotted before the
  // shard locks (hook_mu_ is never taken under a shard mutex).
  std::vector<char> suspected;
  if (config_.placement_avoid_suspected) suspected = SuspectedBenefactors();

  // Rare, operator-driven: hold every shard mutex for the duration so the
  // placement rewrite is atomic against the whole metadata plane.
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(meta_shards_);
  for (MetaShard& shard : shards_) held.emplace_back(shard.mu);

  // Each chunk has exactly one handle; visit them in key order so the
  // migration sequence (and its virtual-time trace) is deterministic.
  std::vector<ChunkHandle*> handles;
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) handles.push_back(h.get());
  }
  std::sort(handles.begin(), handles.end(),
            [](const ChunkHandle* a, const ChunkHandle* b) {
              return a->key < b->key;
            });

  uint64_t migrated = 0;
  for (ChunkHandle* h : handles) {
    const std::vector<int> current =
        *h->replicas.load(std::memory_order_acquire);
    auto pos = std::find(current.begin(), current.end(), id);
    if (pos == current.end()) continue;
    const auto member = static_cast<uint32_t>(pos - current.begin());
    // Destination through the shared placement engine: rotation order
    // from the benefactor after the leaving one, every holder excluded,
    // and for a spreading code no node hosting another member (the
    // failure-domain spread survives the migration).  The first ranked
    // benefactor that can reserve the member wins.
    std::vector<PlacementCandidate> cands = BuildPlacementCandidates(
        bens, suspected.empty() ? nullptr : &suspected);
    std::vector<int> used_nodes = ExcludeMembers(current, cands, id);
    PlacementRequest req;
    req.order = PlacementRequest::Order::kRotation;
    req.start = (static_cast<size_t>(id) + 1) % bens.size();
    req.avoid_suspected = config_.placement_avoid_suspected;
    req.wear_weight = config_.placement_wear_weight;
    req.exclude_nodes = &used_nodes;
    const std::vector<int> picked =
        code_.Reserve(bens, RankPlacement(cands, req), 1, used_nodes);
    if (picked.empty()) {
      return OutOfSpace("no destination for chunk " + h->key.ToString());
    }
    const int dst = picked.front();
    Benefactor* to = bens[static_cast<size_t>(dst)];
    // The member moves through the repair mover, as a plan whose one
    // target replaces the leaving holder: copied off it when its bytes
    // verify, else off another replica or rebuilt from `need` others.
    RepairPlan plan;
    plan.key = h->key;
    plan.survivors = current;
    plan.targets = {dst};
    plan.target_positions = {member};
    if (const uint32_t* crc = MemberCrc(*h, member, current.size())) {
      plan.target_crcs = {*crc};
    }
    const RepairOutcome out = ExecuteRepairPlan(clock, plan);
    const bool moved = !out.written.empty();
    if (moved) {
      std::vector<int> rewritten = current;
      rewritten[member] = dst;
      // Log the rewritten placement BEFORE dropping the leaving replica's
      // copy: a crash in between then recovers to the new list (the copy
      // on dst is already in place), never to a list naming deleted data.
      WalRecord rec;
      rec.type = WalRecordType::kReplicas;
      rec.key = h->key;
      rec.replicas = rewritten;
      LogAppend(clock, std::move(rec));
      (void)leaving->DeleteChunk(h->key);
      leaving->ReleaseBytes(code_.member_bytes);
      PublishReplicasLocked(*h, std::move(rewritten));
      ++migrated;
    }
    // Rot met on the way counts like a reader's report: the leaving
    // holder's left with it, any other member is quarantined (the scrub
    // requeues the chunk's repair).
    MetaShard& shard = shards_[shard_of(h->key)];
    for (int bid : out.corrupt_sources) {
      if (moved && bid == id) {
        corrupt_detected_.Add(1);
      } else {
        (void)QuarantineReplicaLocked(clock, shard, h->key, bid);
      }
    }
    if (!moved) {
      // No verified source is left (or the destination died): the drain
      // stops with the benefactor still in service.
      (void)to->DeleteChunk(h->key);
      to->ReleaseBytes(code_.member_bytes);
      const std::string what = "cannot move chunk " + h->key.ToString() +
                               " off benefactor " + std::to_string(id);
      return out.corrupt_sources.empty() ? Unavailable(what) : Corrupt(what);
    }
  }
  leaving->Kill();  // retired: no longer schedulable
  return migrated;
}

}  // namespace nvm::store
