#include "store/manager.hpp"

#include <algorithm>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "store/erasure.hpp"
#include "store/maintenance.hpp"

namespace nvm::store {

std::vector<BenefactorRun> Manager::GroupByPrimaryBenefactor(
    std::span<const ReadLocation> locs) {
  std::vector<BenefactorRun> runs;
  std::unordered_map<int, size_t> run_of;  // benefactor id -> index in runs
  for (size_t i = 0; i < locs.size(); ++i) {
    if (locs[i].benefactors.empty()) continue;
    // Erasure-coded chunks never join run RPCs: every read touches k
    // devices, so there is no single-benefactor run to coalesce into.
    if (locs[i].ec) continue;
    const int primary = locs[i].benefactors.front();
    auto [it, fresh] = run_of.try_emplace(primary, runs.size());
    if (fresh) runs.push_back(BenefactorRun{primary, {}});
    runs[it->second].items.push_back(i);
  }
  return runs;
}

std::vector<BenefactorRun> Manager::GroupByBenefactor(
    std::span<const WriteLocation> locs) {
  std::vector<BenefactorRun> runs;
  std::unordered_map<int, size_t> run_of;  // benefactor id -> index in runs
  for (size_t i = 0; i < locs.size(); ++i) {
    if (locs[i].ec) continue;  // EC chunks go through the per-chunk path
    for (int b : locs[i].benefactors) {
      auto [it, fresh] = run_of.try_emplace(b, runs.size());
      if (fresh) runs.push_back(BenefactorRun{b, {}});
      runs[it->second].items.push_back(i);
    }
  }
  return runs;
}

Manager::Manager(net::Cluster& cluster, int manager_node, StoreConfig config,
                 WalStore* wal)
    : cluster_(cluster),
      manager_node_(manager_node),
      config_(config),
      replicated_(MakeCode(config, false)),
      erasure_(config.ec() ? MakeCode(config, true) : Redundancy{}),
      meta_shards_(config.meta_shards),
      wal_(wal),
      shards_(meta_shards_) {
  NVM_CHECK(config_.chunk_bytes % config_.page_bytes == 0);
  NVM_CHECK(config_.replication >= 1);
  NVM_CHECK(config_.meta_shards >= 1, "meta_shards must be at least 1");
  services_.reserve(meta_shards_);
  for (size_t i = 0; i < meta_shards_; ++i) {
    // Keep the historic resource name when unsharded so single-shard
    // virtual-time traces stay byte-identical to the pre-shard store.
    services_.push_back(std::make_unique<sim::Resource>(
        meta_shards_ == 1 ? std::string("manager")
                          : "manager[" + std::to_string(i) + "]"));
  }
}

Manager::Redundancy Manager::MakeCode(const StoreConfig& config, bool ec) {
  Redundancy code;
  if (ec) {
    // Fragments must be page-aligned slices: chunk_bytes = k * frag_bytes
    // with frag_bytes a whole number of pages.
    NVM_CHECK(config.ec_k >= 1 && config.ec_k + config.ec_m <= 256,
              "erasure geometry must satisfy 1 <= k and k+m <= 256");
    NVM_CHECK(config.chunk_bytes % (config.ec_k * config.page_bytes) == 0,
              "chunk_bytes must divide into ec_k page-aligned fragments");
    NVM_CHECK(config.ec_encode_bw_gbps > 0.0,
              "ec_encode_bw_gbps must be positive");
    code.width = config.ec_fragments();
    code.need = config.ec_k;
    code.member_bytes = config.ec_frag_bytes();
    code.positional = true;
    code.spread = true;
  } else {
    code.width = static_cast<size_t>(config.replication);
    code.need = 1;
    code.member_bytes = config.chunk_bytes;
  }
  // The zero image's checksum, chained over one zero page.  A member-sized
  // temporary here can grow peak RSS: freeing it raises glibc's dynamic
  // mmap threshold for the rest of the run.
  static constexpr uint8_t kZeros[4096] = {};
  for (uint64_t at = 0; at < code.member_bytes; at += sizeof(kZeros)) {
    const uint64_t n =
        std::min<uint64_t>(sizeof(kZeros), code.member_bytes - at);
    code.zero_crc = Crc32c(kZeros, n, code.zero_crc);
  }
  return code;
}

std::vector<int> Manager::Redundancy::Reserve(
    const std::vector<Benefactor*>& bens, const std::vector<int>& ranked,
    size_t n, std::vector<int>& used_nodes) const {
  std::vector<int> picked;
  for (int bid : ranked) {
    if (picked.size() == n) break;
    const int node = bens[static_cast<size_t>(bid)]->node_id();
    const bool spread_node = spread && node >= 0;
    if (spread_node && std::find(used_nodes.begin(), used_nodes.end(),
                                 node) != used_nodes.end()) {
      continue;
    }
    if (!bens[static_cast<size_t>(bid)]->ReserveBytes(member_bytes).ok()) {
      continue;
    }
    picked.push_back(bid);
    if (spread_node) used_nodes.push_back(node);
  }
  return picked;
}

std::vector<int> Manager::ExcludeMembers(
    const Redundancy& code, std::span<const int> list,
    std::vector<PlacementCandidate>& cands, int leaving) const {
  std::vector<int> nodes;
  for (int bid : list) {
    if (bid < 0) continue;
    PlacementCandidate& c = cands[static_cast<size_t>(bid)];
    c.excluded = true;
    if (code.spread && bid != leaving) nodes.push_back(c.node);
  }
  return nodes;
}

int Manager::RegisterBenefactor(Benefactor* benefactor) {
  std::unique_lock<std::shared_mutex> lock(reg_mu_);
  benefactors_.push_back(benefactor);
  return static_cast<int>(benefactors_.size() - 1);
}

Benefactor* Manager::BenefactorAt(int id) const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  if (id < 0 || static_cast<size_t>(id) >= benefactors_.size()) return nullptr;
  return benefactors_[static_cast<size_t>(id)];
}

Benefactor* Manager::benefactor(int id) { return BenefactorAt(id); }

size_t Manager::num_benefactors() const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  return benefactors_.size();
}

std::vector<Benefactor*> Manager::SnapshotBenefactors() const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  return benefactors_;
}

std::vector<int> Manager::AliveBenefactors() const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  std::vector<int> alive;
  for (size_t i = 0; i < benefactors_.size(); ++i) {
    if (benefactors_[i]->alive()) alive.push_back(static_cast<int>(i));
  }
  return alive;
}

void Manager::MarkDead(int id) {
  // Kill() is atomic on the benefactor; the registry itself is unchanged.
  Benefactor* b = BenefactorAt(id);
  if (b != nullptr) b->Kill();
}

size_t Manager::CheckLiveness(sim::VirtualClock& clock,
                              std::vector<char>* alive_out) {
  std::vector<Benefactor*> bens = SnapshotBenefactors();
  if (alive_out != nullptr) alive_out->assign(bens.size(), 0);
  const int64_t start = clock.now();
  int64_t done = start;
  size_t alive = 0;
  for (size_t i = 0; i < bens.size(); ++i) {
    Benefactor* b = bens[i];
    // Each ping runs on its own forked clock: the manager CPU still
    // serialises the sends (the per-lane services are shared resource
    // timelines, striped over the shard lanes), but the round-trips
    // overlap in flight instead of queueing end-to-end.
    sim::VirtualClock ping(start);
    ChargeOp(ping, i % meta_shards_);
    cluster_.network().Transfer(ping, manager_node_, b->node_id(),
                                config_.meta_request_bytes);
    cluster_.network().Transfer(ping, b->node_id(), manager_node_,
                                config_.meta_response_bytes);
    done = std::max(done, ping.now());
    if (b->alive()) {
      ++alive;
      if (alive_out != nullptr) (*alive_out)[i] = 1;
    }
  }
  clock.AdvanceTo(done);  // the sweep completes when the last reply lands
  return alive;
}

std::shared_ptr<Manager::FileMeta> Manager::FindFile(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(ns_mu_);
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : it->second;
}

void Manager::PublishReplicasLocked(ChunkHandle& h,
                                    std::vector<int> replicas) {
  h.replicas.store(
      std::make_shared<const std::vector<int>>(std::move(replicas)),
      std::memory_order_release);
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
  // A stripe's slot goes to -1 (positions are stable — a repair re-fills
  // the hole in place); a replica list closes up.
  const Redundancy& code = CodeOf(h.ec);
  std::vector<int> rest = *current;
  code.Drop(rest, [bid](int id, size_t) { return id == bid; });
  // Log the shortened list BEFORE destroying the quarantined replica's
  // data.  The reverse order is unrecoverable: a crash in between would
  // leave a durable list still naming bid, and recovery — finding no data
  // there and a quarantined (possibly wrong-byte) image gone — could pick
  // the corrupt replica's stored checksum as truth or fail chunks that
  // have a healthy survivor.
  WalRecord rec;
  rec.type = WalRecordType::kReplicas;
  rec.key = key;
  rec.replicas = rest;
  LogAppend(clock, std::move(rec));
  // The copy is untrustworthy: drop its data and space immediately so no
  // reader or repair ever consults it again.
  Benefactor* b = BenefactorAt(bid);
  (void)b->DeleteChunk(key);
  b->ReleaseBytes(code.member_bytes);
  if (code.Lost(rest) && !code.Lost(*current)) {
    // This quarantine dropped the chunk below `need`: no verified source
    // or reconstruction exists any more — it is lost, not degraded.
    // Counted once, on the crossing: repairs never run below `need`.
    lost_chunks_.Add(1);
  }
  PublishReplicasLocked(h, std::move(rest));
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

void Manager::CompleteWriteLocked(MetaShard& shard, const ChunkKey& key,
                                  const uint32_t* crc,
                                  std::span<const uint32_t> frag_crcs) {
  auto it = shard.inflight_writers.find(key);
  NVM_CHECK(it != shard.inflight_writers.end(), "unmatched CompleteWrite");
  if (--it->second == 0) shard.inflight_writers.erase(it);
  // The write's bytes (if any landed) postdate every repair copy taken
  // while it was in flight: move the epoch so such a commit fails.
  auto cit = shard.chunks.find(key);
  if (cit != shard.chunks.end()) {
    ChunkHandle& h = *cit->second;
    ++h.repair_epoch;
    // The flush-time checksum becomes authoritative for the new contents.
    // A completion without one (raw benefactor write, failed flush) leaves
    // the contents unknown: drop any stale entry rather than let a later
    // repair stamp the old checksum onto fresh bytes.
    if (crc != nullptr) {
      h.has_crc = true;
      h.crc = *crc;
      // Per-fragment checksums travel with the full-image one (EC writes
      // always pass both; frag repair verifies fragments against these).
      h.frag_crcs.assign(frag_crcs.begin(), frag_crcs.end());
      // Fresh verified bytes landed everywhere the list names: the
      // correlated-loss memory described the overwritten contents.
      h.tainted.clear();
    } else {
      h.has_crc = false;
      h.frag_crcs.clear();
    }
  }
}

void Manager::CompleteWrite(sim::VirtualClock& clock, const ChunkKey& key,
                            const uint32_t* crc,
                            std::span<const uint32_t> frag_crcs) {
  MetaShard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (wal_ != nullptr) {
    auto cit = shard.chunks.find(key);
    if (cit != shard.chunks.end()) {
      const ChunkHandle& h = *cit->second;
      // Log-before-publish: the erase of a stale checksum is as durable a
      // transition as a new one — without it, recovery would stamp the old
      // checksum onto bytes a failed flush left in an unknown state.
      if (crc != nullptr || h.has_crc) {
        WalRecord rec;
        rec.type = WalRecordType::kComplete;
        WalCompletion done{key, crc != nullptr, crc != nullptr ? *crc : 0};
        if (crc != nullptr) {
          done.frag_crcs.assign(frag_crcs.begin(), frag_crcs.end());
        }
        rec.completions.push_back(std::move(done));
        LogAppend(clock, std::move(rec));
      }
    }
  }
  CompleteWriteLocked(shard, key, crc, frag_crcs);
}

void Manager::CompleteWrites(sim::VirtualClock& clock,
                             std::span<const WriteLocation> locs,
                             std::span<const uint32_t> crcs,
                             std::span<const char> ok) {
  if (wal_ != nullptr) wal_->TriggerPoint(CrashPoint::kMidBatch);
  // Lock the whole involved shard set up front, in ascending index order
  // (the ChunkCache flush-window discipline), so the window completes in
  // one pass no matter how its chunks hash across shards.
  std::vector<size_t> shard_of_loc;
  shard_of_loc.reserve(locs.size());
  for (const WriteLocation& loc : locs) {
    shard_of_loc.push_back(shard_of(loc.key));
  }
  std::vector<size_t> order = shard_of_loc;
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(order.size());
  for (size_t s : order) held.emplace_back(shards_[s].mu);
  if (wal_ != nullptr) {
    // One batched record for the whole window, appended with every
    // involved shard locked and BEFORE any in-memory mutation: only the
    // durable checksum transitions (set or erase) make the record —
    // completions that change nothing durable (sparse, crc-less over
    // crc-less) are skipped, so a no-checksum window appends nothing.
    WalRecord rec;
    rec.type = WalRecordType::kComplete;
    for (size_t i = 0; i < locs.size(); ++i) {
      const uint32_t* crc =
          !crcs.empty() && (ok.empty() || ok[i] != 0) ? &crcs[i] : nullptr;
      auto cit = shards_[shard_of_loc[i]].chunks.find(locs[i].key);
      if (cit == shards_[shard_of_loc[i]].chunks.end()) continue;
      if (crc == nullptr && !cit->second->has_crc) continue;
      rec.completions.push_back(WalCompletion{
          locs[i].key, crc != nullptr, crc != nullptr ? *crc : 0});
    }
    if (!rec.completions.empty()) LogAppend(clock, std::move(rec));
  }
  for (size_t i = 0; i < locs.size(); ++i) {
    const uint32_t* crc =
        !crcs.empty() && (ok.empty() || ok[i] != 0) ? &crcs[i] : nullptr;
    CompleteWriteLocked(shards_[shard_of_loc[i]], locs[i].key, crc);
  }
}

std::vector<ChunkKey> Manager::CollectUnderReplicated() const {
  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  std::vector<ChunkKey> keys;
  for (const MetaShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, h] : shard.chunks) {
      auto list = h->replicas.load(std::memory_order_acquire);
      const Redundancy& code = CodeOf(h->ec);
      if (!code.Lost(*list) && code.Degraded(*list, bens)) {
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
    const Redundancy& code = CodeOf(h.ec);
    const std::vector<int> recorded =
        *h.replicas.load(std::memory_order_acquire);
    // Strip the dead members: in a stripe they become holes in place
    // (their fragment died with the device), a replica list closes up.
    std::vector<int> members = recorded;
    const std::vector<int> dead = code.Drop(members, [&](int bid, size_t) {
      return !bens[static_cast<size_t>(bid)]->alive();
    });
    if (!dead.empty()) {
      // Log the stripped list before touching any benefactor state, so a
      // crash mid-strip recovers to the truth rather than a list still
      // naming reclaimed members; then reclaim the dead members' space
      // bookkeeping and publish — readers stop trying dead ids while the
      // copy runs.
      WalRecord rec;
      rec.type = WalRecordType::kReplicas;
      rec.key = key;
      rec.replicas = members;
      LogAppend(clock, std::move(rec));
      for (int bid : dead) {
        Benefactor* b = bens[static_cast<size_t>(bid)];
        b->ReleaseBytes(code.member_bytes);
        (void)b->DeleteChunk(key);
      }
      PublishReplicasLocked(h, members);
    }
    if (code.Lost(members)) {
      // Below `need` no verified source or reconstruction exists.  Count
      // the loss only when THIS strip crossed the threshold (repairs never
      // run below `need`, so the crossing happens at most once).
      if (!code.Lost(recorded)) {
        lost_chunks_.Add(1);
        if (lost != nullptr) ++*lost;
      }
      continue;
    }
    const size_t live = Redundancy::Listed(members);
    if (live >= code.width) continue;  // healthy after stripping (stale)

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
    std::vector<int> used_nodes = ExcludeMembers(code, members, cands);
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
    plan.ec = h.ec;
    plan.survivors = members;
    plan.epoch = h.repair_epoch;
    // Snapshot the authoritative checksums: the copy must be verified
    // against them before any target receives the bytes.
    plan.has_crc = h.has_crc;
    plan.crc = h.crc;
    plan.frag_crcs = h.frag_crcs;
    const size_t want = code.width - live;
    plan.targets =
        code.Reserve(bens, RankPlacement(cands, req), want, used_nodes);
    if (code.positional) {
      // Each target re-fills the next hole, in position order.
      for (uint32_t pos = 0; pos < members.size(); ++pos) {
        if (plan.target_positions.size() == plan.targets.size()) break;
        if (members[pos] < 0) plan.target_positions.push_back(pos);
      }
    }
    // Register the targets so the scrubber leaves the in-flight copies
    // alone; CommitRepair deregisters them.
    if (!plan.targets.empty()) {
      std::vector<MetaShard::RepairTarget>& open = shard.repair_targets[key];
      for (int bid : plan.targets) open.push_back({bid, code.member_bytes});
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
  if (plan.ec) {
    // Fragment repair: fetch k VERIFIED surviving fragments to the
    // manager's node, decode + re-encode, then write each missing
    // fragment to its reserved target.  The stripe is never read in full
    // off one device — that is the repair-traffic saving the MTTR bench
    // measures (k fragments + the rebuilt ones vs one full replica copy).
    const uint32_t k = config_.ec_k;
    const uint32_t nf = config_.ec_fragments();
    const uint64_t fb = config_.ec_frag_bytes();
    NVM_CHECK(plan.survivors.size() == nf,
              "EC repair plan with malformed fragment map");
    std::vector<std::vector<uint8_t>> frags(nf);
    const int64_t start = clock.now();
    int64_t fetched = start;
    size_t good = 0;
    bool any_data = false;
    for (uint32_t pos = 0; pos < nf && good < k; ++pos) {
      const int bid = plan.survivors[pos];
      if (bid < 0) continue;
      Benefactor* b = BenefactorAt(bid);
      if (b == nullptr || !b->alive()) continue;
      // Fetches fork from the plan start and join at the max: the k reads
      // overlap in flight; a fallback read past a corrupt fragment simply
      // joins later.
      sim::VirtualClock fetch(start);
      std::vector<uint8_t> buf(fb);
      bool sparse = false;
      Status s = b->ReadFragment(fetch, plan.key, buf, &sparse,
                                 kTenantMaintenance);
      if (s.code() == ErrorCode::kCorrupt) {
        // The survivor failed its own read verification: quarantine at
        // commit, try the next fragment.
        out.corrupt_sources.push_back(bid);
        fetched = std::max(fetched, fetch.now());
        continue;
      }
      if (!s.ok()) continue;
      if (!sparse && plan.has_crc && plan.frag_crcs.size() == nf &&
          !config_.verify_reads) {
        // With verify_reads off the benefactor served unchecked bytes —
        // verify here against the authoritative per-fragment checksum.
        fetch.Advance(config_.checksum_ns(fb));
        if (Crc32c(buf.data(), buf.size()) != plan.frag_crcs[pos]) {
          out.corrupt_sources.push_back(bid);
          fetched = std::max(fetched, fetch.now());
          continue;
        }
      }
      if (!sparse) {
        cluster_.network().Transfer(fetch, b->node_id(), manager_node_, fb);
        any_data = true;
      }
      frags[pos] = std::move(buf);  // sparse reads back as zeros
      ++good;
      fetched = std::max(fetched, fetch.now());
    }
    clock.AdvanceTo(fetched);
    if (good < k) {
      out.failed = plan.targets;
      return out;
    }
    if (any_data) {
      // Decode + re-encode cost is modelled; the parity math is real, so
      // the rebuilt fragments are byte-exact.
      clock.Advance(config_.ec_encode_ns(config_.chunk_bytes));
      ErasureCodec codec(k, config_.ec_m);
      NVM_CHECK(codec.Reconstruct(frags),
                "k verified fragments failed to reconstruct");
    }
    const int64_t rebuilt = clock.now();
    int64_t done = rebuilt;
    for (size_t i = 0; i < plan.targets.size(); ++i) {
      const int bid = plan.targets[i];
      const uint32_t pos = plan.target_positions[i];
      Benefactor* b = BenefactorAt(bid);
      bool ok = b != nullptr && b->alive();
      sim::VirtualClock copy(rebuilt);
      if (ok && any_data) {
        b->AdmitTransfer(copy, kTenantMaintenance, fb, /*is_write=*/true, fb);
        cluster_.network().Transfer(copy, manager_node_, b->node_id(), fb);
        const uint32_t* crc = plan.has_crc && plan.frag_crcs.size() == nf
                                  ? &plan.frag_crcs[pos]
                                  : nullptr;
        ok = b->WriteFragment(copy, plan.key, frags[pos], crc,
                              kTenantMaintenance)
                 .ok();
      }
      // An all-sparse stripe has no bytes to move: the reservation alone
      // makes the fragment (it reads back as zeros, like the survivors).
      done = std::max(done, copy.now());
      (ok ? out.written : out.failed).push_back(bid);
    }
    clock.AdvanceTo(done);
    return out;
  }
  std::vector<uint8_t> buf(config_.chunk_bytes);
  // Read from the first survivor still answering whose bytes VERIFY (one
  // may have died — or rotted — since the plan was made).  Re-replication
  // must never seed targets from an unverified replica while a verified
  // one may exist.
  bool sparse = false;
  int src = -1;
  for (int bid : plan.survivors) {
    Benefactor* b = BenefactorAt(bid);
    if (b == nullptr) continue;
    Status s = b->ReadChunk(clock, plan.key, buf, &sparse,
                            kTenantMaintenance);
    if (s.code() == ErrorCode::kCorrupt) {
      // The survivor failed its own read verification: quarantine at
      // commit, try the next one.
      out.corrupt_sources.push_back(bid);
      continue;
    }
    if (!s.ok()) continue;
    if (!sparse && plan.has_crc && !config_.verify_reads) {
      // With verify_reads off the benefactor served unchecked bytes —
      // verify here against the authoritative checksum (and charge the
      // CPU; with verify_reads on the read already did both).
      clock.Advance(config_.checksum_ns(config_.chunk_bytes));
      if (Crc32c(buf.data(), buf.size()) != plan.crc) {
        out.corrupt_sources.push_back(bid);
        continue;
      }
    }
    src = bid;
    break;
  }
  if (src < 0) {
    out.failed = plan.targets;
    return out;
  }
  Bitmap all_pages(config_.pages_per_chunk());
  all_pages.SetAll();
  // Target copies fan out in parallel: fork a clock per target, join max.
  const int64_t start = clock.now();
  int64_t done = start;
  for (int bid : plan.targets) {
    Benefactor* b = BenefactorAt(bid);
    bool ok = b != nullptr && b->alive();
    sim::VirtualClock copy(start);
    if (ok && !sparse) {
      // Benefactor-to-benefactor move; the manager never touches the data.
      // The verified source bytes carry the authoritative checksum, so the
      // target stores it without recomputing.  Admit before the wire so a
      // repair storm queues behind the scheduler, not in front of it.
      b->AdmitTransfer(copy, kTenantMaintenance, config_.chunk_bytes,
                       /*is_write=*/true, config_.chunk_bytes);
      cluster_.network().Transfer(copy, BenefactorAt(src)->node_id(),
                                  b->node_id(), config_.chunk_bytes);
      ok = b->WritePages(copy, plan.key, all_pages, buf,
                         plan.has_crc ? &plan.crc : nullptr,
                         /*stored_crc=*/nullptr, kTenantMaintenance)
               .ok();
    }
    // A sparse chunk has no bytes to move: the reservation alone makes the
    // replica (it reads back as zeros, exactly like the survivors).
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
  const Redundancy& code = CodeOf(plan.ec);
  const uint64_t res_bytes = code.member_bytes;
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
      if (code.positional) {
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
      code.Healed(*h.replicas.load(std::memory_order_acquire))) {
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
  std::unordered_map<ChunkKey, const ChunkHandle*, ChunkKeyHash> placed;
  std::unordered_map<ChunkKey, std::shared_ptr<const std::vector<int>>,
                     ChunkKeyHash>
      lists;
  for (const MetaShard& shard : shards_) {
    for (const auto& [key, h] : shard.chunks) {
      placed.try_emplace(key, h.get());
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
        expected += CodeOf(placed.at(key)->ec).member_bytes;
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
    const Redundancy& code = CodeOf(placed.at(key)->ec);
    if (!code.Lost(*list) && code.Degraded(*list, bens)) {
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
  if (!config_.scrub_verify || max_bytes == 0) return result;
  // One sweep at a time: verify_mu_ guards the inter-shard cursor and is
  // ordered strictly before the shard mutexes.
  std::lock_guard<std::mutex> sweep(verify_mu_);
  const size_t start_lane = verify_shard_ % meta_shards_;

  struct Candidate {
    ChunkKey key;
    std::vector<int> replicas;
    std::vector<uint32_t> want;  // checksum each member must store
    uint64_t epoch = 0;
    const Redundancy* code = nullptr;
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
        const Redundancy& code = CodeOf(h.ec);
        const uint64_t cost = code.member_bytes * Redundancy::Listed(*list);
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
        c.code = &code;
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
      const uint64_t stored_bytes = c.code->member_bytes;
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
          if (want != c.code->zero_crc) mismatches.push_back({i, bid});
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
        if (!c.code->Lost(*now)) result.quarantined.push_back(c.key);
      } else {
        ++result.skipped;
      }
    }
  }
  return result;
}

void Manager::AttachMaintenance(MaintenanceService* service) {
  // Exclusive: detaching blocks until every hook call already holding the
  // shared lock has returned, so ~MaintenanceService cannot destroy the
  // service under a client thread mid-call.
  std::unique_lock<std::shared_mutex> lock(hook_mu_);
  maintenance_ = service;
}

void Manager::ReportDegraded(const ChunkKey& key, int64_t now_ns) {
  std::shared_lock<std::shared_mutex> lock(hook_mu_);
  if (maintenance_ != nullptr) maintenance_->ReportDegraded(key, now_ns);
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
        degraded =
            !CodeOf(h.ec).Lost(*h.replicas.load(std::memory_order_acquire));
      }
    }
  }
  // Queue a repair only when the chunk is not lost: a surviving replica
  // or k fragments can seed it.
  if (degraded) ReportDegraded(key, clock.now());
}

bool Manager::LookupChecksum(const ChunkKey& key, uint32_t* crc) const {
  const MetaShard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.chunks.find(key);
  if (it == shard.chunks.end() || !it->second->has_crc) return false;
  *crc = it->second->crc;
  return true;
}

void Manager::MaintenanceTick(int64_t now_ns) {
  std::shared_lock<std::shared_mutex> lock(hook_mu_);
  if (maintenance_ != nullptr) maintenance_->Tick(now_ns);
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
  std::vector<uint8_t> blob;
  Bitmap all_pages(config_.pages_per_chunk());
  all_pages.SetAll();

  for (ChunkHandle* h : handles) {
    const std::vector<int> current =
        *h->replicas.load(std::memory_order_acquire);
    auto pos = std::find(current.begin(), current.end(), id);
    if (pos == current.end()) continue;
    const size_t member = static_cast<size_t>(pos - current.begin());
    const bool ec = h->ec;
    const Redundancy& code = CodeOf(ec);
    const uint64_t move_bytes = code.member_bytes;
    // Destination through the shared placement engine: rotation order
    // from the benefactor after the leaving one, every holder excluded,
    // and for a spreading code no node hosting another member (the
    // failure-domain spread survives the migration).  The first ranked
    // benefactor that can reserve the member wins.
    std::vector<PlacementCandidate> cands = BuildPlacementCandidates(
        bens, suspected.empty() ? nullptr : &suspected);
    std::vector<int> used_nodes = ExcludeMembers(code, current, cands, id);
    PlacementRequest req;
    req.order = PlacementRequest::Order::kRotation;
    req.start = (static_cast<size_t>(id) + 1) % bens.size();
    req.avoid_suspected = config_.placement_avoid_suspected;
    req.wear_weight = config_.placement_wear_weight;
    req.exclude_nodes = &used_nodes;
    const std::vector<int> picked =
        code.Reserve(bens, RankPlacement(cands, req), 1, used_nodes);
    if (picked.empty()) {
      return OutOfSpace("no destination for chunk " + h->key.ToString());
    }
    const int dst = picked.front();
    // Move the member benefactor-to-benefactor (read + network hop +
    // write), like the paper's re-configuration path would; a replica and
    // a fragment differ only in the blob's size and checksum.
    Benefactor* to = bens[static_cast<size_t>(dst)];
    bool sparse = false;
    blob.resize(move_bytes);
    NVM_RETURN_IF_ERROR(
        ec ? leaving->ReadFragment(clock, h->key, blob, &sparse,
                                   kTenantMaintenance)
           : leaving->ReadChunk(clock, h->key, blob, &sparse,
                                kTenantMaintenance));
    if (!sparse) {
      to->AdmitTransfer(clock, kTenantMaintenance, move_bytes,
                        /*is_write=*/true, move_bytes);
      cluster_.network().Transfer(clock, leaving->node_id(), to->node_id(),
                                  move_bytes);
      // The migrated bytes keep their authoritative checksum.
      const uint32_t* crc = MemberCrc(*h, member, current.size());
      NVM_RETURN_IF_ERROR(
          ec ? to->WriteFragment(clock, h->key, blob, crc, kTenantMaintenance)
             : to->WritePages(clock, h->key, all_pages, blob, crc,
                              /*stored_crc=*/nullptr, kTenantMaintenance));
    }
    std::vector<int> rewritten = current;
    rewritten[member] = dst;
    // Log the rewritten placement BEFORE dropping the leaving replica's
    // copy: a crash in between then recovers to the new list (the copy on
    // dst is already in place), never to a list naming deleted data.
    WalRecord rec;
    rec.type = WalRecordType::kReplicas;
    rec.key = h->key;
    rec.replicas = rewritten;
    LogAppend(clock, std::move(rec));
    (void)leaving->DeleteChunk(h->key);
    leaving->ReleaseBytes(move_bytes);
    PublishReplicasLocked(*h, std::move(rewritten));
    ++migrated;
  }
  leaving->Kill();  // retired: no longer schedulable
  return migrated;
}

StatusOr<FileId> Manager::CreateFile(sim::VirtualClock& clock,
                                     const std::string& name) {
  ChargeOp(clock, NameLane(name));
  std::unique_lock<std::shared_mutex> lock(ns_mu_);
  if (names_.contains(name)) {
    return AlreadyExists("file '" + name + "' already exists");
  }
  const FileId id = next_file_id_++;
  // Log under ns_mu_ exclusive, before the maps change: namespace records
  // are totally ordered by the namespace lock.
  WalRecord rec;
  rec.type = WalRecordType::kCreateFile;
  rec.file_id = id;
  rec.name = name;
  LogAppend(clock, std::move(rec));
  names_[name] = id;
  auto meta = std::make_shared<FileMeta>();
  meta->name = name;
  meta->stripe_cursor = stripe_cursor_;
  // Stagger striping start points so many small files still spread load.
  const size_t n = num_benefactors();
  if (n > 0) stripe_cursor_ = (stripe_cursor_ + 1) % n;
  files_[id] = std::move(meta);
  return id;
}

StatusOr<FileId> Manager::LookupFile(sim::VirtualClock& clock,
                                     const std::string& name) {
  ChargeOp(clock, NameLane(name));
  std::shared_lock<std::shared_mutex> lock(ns_mu_);
  auto it = names_.find(name);
  if (it == names_.end()) return NotFound("no file named '" + name + "'");
  return it->second;
}

StatusOr<FileInfo> Manager::Stat(sim::VirtualClock& clock, FileId id) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta = FindFile(id);
  if (meta == nullptr) return NotFound("file id " + std::to_string(id));
  std::shared_lock<std::shared_mutex> lock(meta->mu);
  FileInfo info;
  info.id = id;
  info.name = meta->name;
  info.size = meta->size;
  info.num_chunks = meta->chunks.size();
  return info;
}

void Manager::UnrefChunkLocked(MetaShard& shard, ChunkHandle& h) {
  NVM_CHECK(h.refcount > 0, "unref of untracked chunk");
  if (--h.refcount == 0) {
    auto list = h.replicas.load(std::memory_order_acquire);
    const uint64_t member_bytes = CodeOf(h.ec).member_bytes;
    for (int bid : *list) {
      if (bid < 0) continue;  // EC hole: nothing stored, nothing reserved
      Benefactor* b = BenefactorAt(bid);
      (void)b->DeleteChunk(h.key);
      b->ReleaseBytes(member_bytes);
    }
    // The handle (and with it epoch/checksum/corruption state) dies here;
    // an open write fence or reserved repair target survives in the shard
    // side maps until its CompleteWrite / CommitRepair settles it.
    shard.chunks.erase(h.key);
  }
}

Status Manager::Unlink(sim::VirtualClock& clock, FileId id) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta;
  {
    std::unique_lock<std::shared_mutex> lock(ns_mu_);
    auto it = files_.find(id);
    if (it == files_.end()) return NotFound("file id " + std::to_string(id));
    meta = it->second;
    // Log before the namespace mutation AND before any chunk data is
    // dropped below: if the crash lands on this very append, recovery
    // keeps the file but may find unreferenced data already gone — chunks
    // surface as lost, never as wrong bytes.
    WalRecord rec;
    rec.type = WalRecordType::kUnlink;
    rec.file_id = id;
    LogAppend(clock, std::move(rec));
    names_.erase(meta->name);
    files_.erase(it);
  }
  std::unique_lock<std::shared_mutex> flock(meta->mu);
  for (const std::shared_ptr<ChunkHandle>& h : meta->chunks) {
    MetaShard& shard = shards_[shard_of(h->key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    UnrefChunkLocked(shard, *h);
  }
  // Late resolvers still holding the meta see an empty file (OutOfRange),
  // never a freed chunk.
  meta->chunks.clear();
  return OkStatus();
}

std::vector<char> Manager::SuspectedBenefactors() const {
  std::shared_lock<std::shared_mutex> lock(hook_mu_);
  if (maintenance_ == nullptr) return {};
  return maintenance_->SuspectedSnapshot();
}

std::vector<PlacementCandidate> Manager::BuildPlacementCandidates(
    const std::vector<Benefactor*>& bens,
    const std::vector<char>* suspected) const {
  const bool want_wear = config_.placement_wear_weight > 0.0;
  std::vector<PlacementCandidate> cands(bens.size());
  for (size_t i = 0; i < bens.size(); ++i) {
    Benefactor* b = bens[i];
    PlacementCandidate& c = cands[i];
    c.bid = static_cast<int>(i);
    c.alive = b->alive();
    c.bytes_free = b->bytes_free();
    c.node = b->node_id();
    if (suspected != nullptr && i < suspected->size()) {
      c.suspected = (*suspected)[i] != 0;
    }
    // The wear read is gated on the knob so the knob-off store never
    // consults the device's erase accounting.
    if (want_wear) c.wear = b->ssd().wear_fraction();
  }
  return cands;
}

Status Manager::Fallocate(sim::VirtualClock& clock, FileId id,
                          uint64_t size, int client_node) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> file = FindFile(id);
  if (file == nullptr) return NotFound("file id " + std::to_string(id));
  // Reliability signal for the placement engine, snapshotted before the
  // file lock (hook_mu_ is never taken under a file or shard mutex).
  std::vector<char> suspected;
  if (config_.placement_avoid_suspected) suspected = SuspectedBenefactors();
  std::unique_lock<std::shared_mutex> flock(file->mu);
  FileMeta& meta = *file;

  if (!meta.redundancy_decided) {
    // The file's redundancy mode is fixed at its first Fallocate from the
    // store-wide config: a file never mixes replicated and erasure-coded
    // chunks.  Erasure is journaled BEFORE any kExtend of the file so
    // replay rebuilds positional fragment maps, not replica lists; the
    // default (replicate) appends nothing — knob-off WAL streams stay
    // byte-identical.
    meta.redundancy_decided = true;
    meta.ec = config_.ec();
    if (meta.ec && wal_ != nullptr) {
      WalRecord rec;
      rec.type = WalRecordType::kRedundancy;
      rec.file_id = id;
      rec.mode = static_cast<uint8_t>(RedundancyMode::kErasure);
      LogAppend(clock, std::move(rec));
    }
  }

  const std::vector<Benefactor*> bens = SnapshotBenefactors();
  const uint64_t want_chunks = CeilDiv(size, config_.chunk_bytes);
  const size_t n = bens.size();
  if (want_chunks > meta.chunks.size() && n == 0) {
    return Unavailable("no benefactors registered");
  }
  // The whole extension logs as ONE kExtend record, appended while the
  // file mutex is still held (below): resolves of the new slots need that
  // mutex, so nothing observes the placements before their record exists.
  std::vector<WalPlacement> wal_placements;
  while (meta.chunks.size() < want_chunks) {
    // First choice per the stripe policy; the engine then ranks the
    // remaining alive benefactors (rotation order, suspected-last and
    // least-worn-first under the placement knobs) and the try-reserve
    // walk places replicas on consecutive distinct eligible ones.
    ChunkKey key;
    key.origin_file = id;
    key.index = static_cast<uint32_t>(meta.chunks.size());
    key.version = 0;
    // The candidate snapshot, reservations (and any rollback) and the
    // chunk insert all happen under the chunk's shard mutex: the
    // scrubber's drift reconciliation and Decommission hold every shard
    // mutex, so neither can observe a reservation without its chunk, nor
    // retire a benefactor between the alive() check and publication.
    MetaShard& shard = shards_[shard_of(key)];
    std::unique_lock<std::mutex> slock(shard.mu);
    const std::vector<PlacementCandidate> cands = BuildPlacementCandidates(
        bens, suspected.empty() ? nullptr : &suspected);
    const Redundancy& code = CodeOf(meta.ec);
    const size_t start =
        ChooseStripeStart(cands, config_.stripe_policy, meta.stripe_cursor,
                          client_node, code.member_bytes);
    PlacementRequest req;
    req.order = PlacementRequest::Order::kRotation;
    req.start = start;
    // Soft avoidance only: a suspected benefactor ranks last but stays
    // eligible — allocation must not fail just because a node flaps.
    req.avoid_suspected = config_.placement_avoid_suspected;
    req.wear_weight = config_.placement_wear_weight;
    // A spreading code (erasure stripes) spreads HARD over node-level
    // failure domains: no two fragments of one stripe may share a node (a
    // node failure must cost at most one fragment), enforced here even
    // under capacity pressure — a stripe that cannot spread fails, it
    // never silently co-locates.
    std::vector<int> used_nodes;
    std::vector<int> replicas =
        code.Reserve(bens, RankPlacement(cands, req), code.width, used_nodes);
    if (replicas.size() < code.width) {
      // Roll back partial placement.
      for (int bid : replicas) {
        bens[static_cast<size_t>(bid)]->ReleaseBytes(code.member_bytes);
      }
      // The chunks placed by EARLIER loop iterations stay (they are live
      // in the file already): log them with the unchanged logical size so
      // the durable image matches what the caller can now read.
      if (wal_ != nullptr && !wal_placements.empty()) {
        WalRecord rec;
        rec.type = WalRecordType::kExtend;
        rec.file_id = id;
        rec.size = meta.size;
        rec.placements = std::move(wal_placements);
        LogAppend(clock, std::move(rec));
      }
      // Nothing alive at all is unavailability, not exhaustion — the old
      // silent stripe-cursor fallback reported it as out-of-space.
      bool any_alive = false;
      for (const PlacementCandidate& c : cands) any_alive |= c.alive;
      if (!any_alive) {
        return Unavailable("no alive benefactor for chunk " +
                           std::to_string(meta.chunks.size()) + " of '" +
                           meta.name + "'");
      }
      if (code.spread) {
        // The spread constraint could not be met (too few distinct alive
        // failure domains with a fragment of space): unavailability, not
        // exhaustion — adding capacity to an existing domain won't help.
        return Unavailable(
            "erasure stripe needs " + std::to_string(code.width) +
            " distinct failure domains for chunk " +
            std::to_string(meta.chunks.size()) + " of '" + meta.name + "'");
      }
      return OutOfSpace("aggregate store out of space at chunk " +
                        std::to_string(meta.chunks.size()) + " of '" +
                        meta.name + "'");
    }
    meta.stripe_cursor = (meta.stripe_cursor + 1) % n;
    auto h = std::make_shared<ChunkHandle>(key);
    h->refcount = 1;
    h->ec = meta.ec;
    if (wal_ != nullptr) {
      wal_placements.push_back(WalPlacement{
          key.index, key, replicas});
    }
    PublishReplicasLocked(*h, std::move(replicas));
    NVM_CHECK(shard.chunks.emplace(key, h).second,
              "fallocate key collision");
    slock.unlock();
    meta.chunks.push_back(std::move(h));
  }
  if (wal_ != nullptr &&
      (!wal_placements.empty() || size > meta.size)) {
    WalRecord rec;
    rec.type = WalRecordType::kExtend;
    rec.file_id = id;
    rec.size = std::max(meta.size, size);
    rec.placements = std::move(wal_placements);
    LogAppend(clock, std::move(rec));
  }
  meta.size = std::max(meta.size, size);
  return OkStatus();
}

StatusOr<ReadLocation> Manager::GetReadLocation(sim::VirtualClock& clock,
                                                FileId id,
                                                uint32_t chunk_index) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta = FindFile(id);
  if (meta == nullptr) return NotFound("file id " + std::to_string(id));
  // The fast path: a shared file lock plus one atomic snapshot load — no
  // shard mutex.
  std::shared_lock<std::shared_mutex> lock(meta->mu);
  if (chunk_index >= meta->chunks.size()) {
    return OutOfRange("chunk " + std::to_string(chunk_index) +
                      " beyond EOF of '" + meta->name + "'");
  }
  const ChunkHandle& h = *meta->chunks[chunk_index];
  return ReadLocation{h.key, *h.replicas.load(std::memory_order_acquire),
                      h.ec};
}

StatusOr<std::vector<ReadLocation>> Manager::GetReadLocations(
    sim::VirtualClock& clock, FileId id, uint32_t first, uint32_t count) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta = FindFile(id);
  if (meta == nullptr) return NotFound("file id " + std::to_string(id));
  std::shared_lock<std::shared_mutex> lock(meta->mu);
  const auto& chunks = meta->chunks;
  if (first >= chunks.size()) {
    return OutOfRange("chunk " + std::to_string(first) + " beyond EOF of '" +
                      meta->name + "'");
  }
  const auto n =
      static_cast<uint32_t>(std::min<uint64_t>(count, chunks.size() - first));
  std::vector<ReadLocation> locs;
  locs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const ChunkHandle& h = *chunks[first + i];
    locs.push_back(ReadLocation{
        h.key, *h.replicas.load(std::memory_order_acquire), h.ec});
  }
  return locs;
}

StatusOr<WriteLocation> Manager::PrepareWriteSlot(
    sim::VirtualClock& clock, FileId id, FileMeta& meta, uint32_t chunk_index,
    const std::vector<char>* suspected) {
  if (chunk_index >= meta.chunks.size()) {
    return OutOfRange("chunk " + std::to_string(chunk_index) +
                      " beyond EOF of '" + meta.name + "'");
  }
  std::shared_ptr<ChunkHandle>& slot = meta.chunks[chunk_index];
  // The COW outcome (version+1) may hash to a different shard than the
  // current version: lock both up front, ascending, so the refcount check
  // and the fresh-handle insert happen under one consistent lock set.
  ChunkKey fresh_key = slot->key;
  ++fresh_key.version;
  const size_t so = shard_of(slot->key);
  const size_t sf = shard_of(fresh_key);
  std::unique_lock<std::mutex> first(shards_[std::min(so, sf)].mu);
  std::unique_lock<std::mutex> second;
  if (so != sf) {
    second = std::unique_lock<std::mutex>(shards_[std::max(so, sf)].mu);
  }
  MetaShard& old_shard = shards_[so];
  MetaShard& fresh_shard = shards_[sf];
  ChunkHandle& h = *slot;

  WriteLocation loc;
  if (h.refcount == 1) {
    // Sole owner: write in place.  Bump the repair epoch — a repair copy
    // planned before this write would publish stale bytes, and the moved
    // epoch makes its commit fail and retry.  The writer count fences off
    // repair commits until CompleteWrite: the data lands outside the
    // shard mutex, so until then any repair copy may be missing it.
    ++h.repair_epoch;
    ++old_shard.inflight_writers[h.key];
    loc.key = h.key;
    loc.benefactors = *h.replicas.load(std::memory_order_acquire);
    loc.ec = h.ec;
    return loc;
  }

  // Shared with a checkpoint: copy-on-write.  The live file always carries
  // the highest version for its slot, so version+1 is fresh.
  NVM_CHECK(!fresh_shard.chunks.contains(fresh_key), "COW version collision");

  // The clone stays on the same benefactors (local device copy, no
  // network); reserve space for the new version on every replica, rolling
  // back if one runs out mid-way so a failed COW leaks nothing.
  auto replicas = h.replicas.load(std::memory_order_acquire);
  // With placement_avoid_suspected on, the fresh version drops dead or
  // suspected inherited holders, keeping at least one: a dead holder
  // would otherwise fail the whole prepare on its reservation, and a
  // suspected one would take the only fresh bytes onto a flapping node.
  // Only holders of the old version are eligible (the clone is a local
  // device copy), so the list can shrink but never gain members; the
  // shortened list is ordinary tracked under-replication the scrubber
  // re-queues for repair.  Knob off: the inherited immutable snapshot is
  // reused verbatim.
  const Redundancy& code = CodeOf(h.ec);
  std::shared_ptr<const std::vector<int>> fresh_list = replicas;
  if (config_.placement_avoid_suspected && !code.positional) {
    // Compact codes only: an EC fragment map is positional, so the fresh
    // version inherits it verbatim (a dead or suspected holder is the
    // repair engine's business — dropping it would punch a hole).
    std::vector<int> keep;
    keep.reserve(replicas->size());
    for (int bid : *replicas) {
      Benefactor* b = BenefactorAt(bid);
      if (b == nullptr || !b->alive()) continue;
      if (suspected != nullptr &&
          static_cast<size_t>(bid) < suspected->size() &&
          (*suspected)[static_cast<size_t>(bid)] != 0) {
        continue;
      }
      keep.push_back(bid);
    }
    if (!keep.empty() && keep.size() != replicas->size()) {
      fresh_list = std::make_shared<const std::vector<int>>(std::move(keep));
    }
  }
  const uint64_t member_bytes = code.member_bytes;
  size_t reserved = 0;
  for (int bid : *fresh_list) {
    Status s = bid < 0 ? OkStatus()  // EC hole: nothing to reserve
                       : BenefactorAt(bid)->ReserveBytes(member_bytes);
    if (!s.ok()) {
      for (size_t r = 0; r < reserved; ++r) {
        const int rb = (*fresh_list)[r];
        if (rb >= 0) BenefactorAt(rb)->ReleaseBytes(member_bytes);
      }
      return s;
    }
    ++reserved;
  }
  // Log the swap before any of it becomes visible (the reservations above
  // are benefactor-side state recovery reconciles wholesale).  After a
  // crash the durable slot points at the fresh version; if its data never
  // landed anywhere, recovery rolls the slot back to `old_key` — the
  // chunk reads old bytes or new bytes, never a mix, never zeros.
  WalRecord rec;
  rec.type = WalRecordType::kCowSwap;
  rec.file_id = id;
  rec.slot = chunk_index;
  rec.old_key = h.key;
  rec.key = fresh_key;
  rec.replicas = *fresh_list;
  LogAppend(clock, std::move(rec));
  --h.refcount;  // live file drops its reference to the shared version
  auto nh = std::make_shared<ChunkHandle>(fresh_key);
  nh->refcount = 1;
  nh->repair_epoch = 1;  // the COW write targets the fresh version
  nh->ec = h.ec;
  // The fresh version shares the (immutable) replica snapshot — or, when
  // the placement engine dropped holders, its filtered copy.
  nh->replicas.store(fresh_list, std::memory_order_release);
  fresh_shard.inflight_writers[fresh_key] = 1;  // fenced until write lands
  fresh_shard.chunks.emplace(fresh_key, nh);

  // Erasure stripes are always rewritten whole (full-stripe writes), so
  // the fresh version never merges over cloned bytes — and an uncompleted
  // stripe rolls back at recovery instead of reading a cloned base.
  loc.needs_clone = !h.ec;
  loc.clone_from = h.key;
  loc.key = fresh_key;
  loc.benefactors = *fresh_list;
  loc.ec = h.ec;
  slot = std::move(nh);
  return loc;
}

StatusOr<WriteLocation> Manager::PrepareWrite(sim::VirtualClock& clock,
                                              FileId id,
                                              uint32_t chunk_index) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta = FindFile(id);
  if (meta == nullptr) return NotFound("file id " + std::to_string(id));
  // Suspicion snapshot before any file/shard lock (see Fallocate).
  std::vector<char> suspected;
  if (config_.placement_avoid_suspected) suspected = SuspectedBenefactors();
  std::unique_lock<std::shared_mutex> lock(meta->mu);
  return PrepareWriteSlot(clock, id, *meta, chunk_index,
                          suspected.empty() ? nullptr : &suspected);
}

StatusOr<std::vector<WriteLocation>> Manager::PrepareWriteBatch(
    sim::VirtualClock& clock, FileId id, std::span<const uint32_t> indices) {
  ChargeOp(clock, FileLane(id));
  std::shared_ptr<FileMeta> meta = FindFile(id);
  if (meta == nullptr) return NotFound("file id " + std::to_string(id));
  // Suspicion snapshot before any file/shard lock (see Fallocate); one
  // snapshot covers the whole window.
  std::vector<char> suspected;
  if (config_.placement_avoid_suspected) suspected = SuspectedBenefactors();
  std::unique_lock<std::shared_mutex> lock(meta->mu);
  std::vector<WriteLocation> locs;
  locs.reserve(indices.size());
  for (uint32_t index : indices) {
    auto loc = PrepareWriteSlot(clock, id, *meta, index,
                                suspected.empty() ? nullptr : &suspected);
    if (!loc.ok()) {
      // The caller gets an error and will never complete the window:
      // close the writes already opened so they don't fence repairs of
      // those chunks forever.  These closures log nothing — no byte
      // moved, so the durable checksum (if any) still matches the stored
      // contents; only the volatile fence and epoch need settling.
      for (const WriteLocation& opened : locs) {
        MetaShard& shard = shards_[shard_of(opened.key)];
        std::lock_guard<std::mutex> slock(shard.mu);
        CompleteWriteLocked(shard, opened.key);
      }
      return loc.status();
    }
    locs.push_back(*std::move(loc));
  }
  return locs;
}

StatusOr<uint64_t> Manager::LinkFileChunks(sim::VirtualClock& clock,
                                           FileId dst, FileId src) {
  ChargeOp(clock, FileLane(dst));
  std::shared_ptr<FileMeta> dmeta = FindFile(dst);
  std::shared_ptr<FileMeta> smeta = FindFile(src);
  if (dmeta == nullptr) return NotFound("dst file " + std::to_string(dst));
  if (smeta == nullptr) return NotFound("src file " + std::to_string(src));
  // Two files lock in FileId order (deadlock-free against a concurrent
  // link the other way); self-link takes the one lock once and snapshots
  // the chunk list up front so appending never walks a growing vector.
  std::unique_lock<std::shared_mutex> dlock;
  std::unique_lock<std::shared_mutex> slock;
  if (dmeta == smeta) {
    dlock = std::unique_lock<std::shared_mutex>(dmeta->mu);
  } else if (dst < src) {
    dlock = std::unique_lock<std::shared_mutex>(dmeta->mu);
    slock = std::unique_lock<std::shared_mutex>(smeta->mu);
  } else {
    slock = std::unique_lock<std::shared_mutex>(smeta->mu);
    dlock = std::unique_lock<std::shared_mutex>(dmeta->mu);
  }
  const std::vector<std::shared_ptr<ChunkHandle>> linked = smeta->chunks;
  const uint64_t src_size = smeta->size;
  // Linked chunks land at the next chunk boundary of dst.
  const uint64_t link_offset = dmeta->chunks.size() * config_.chunk_bytes;
  // Log under both file mutexes, before any refcount moves: replay
  // re-reads src's chunk list at the same point of the record order, so
  // it reconstructs exactly this link.
  WalRecord rec;
  rec.type = WalRecordType::kLink;
  rec.file_id = dst;
  rec.src_file = src;
  LogAppend(clock, std::move(rec));
  for (const std::shared_ptr<ChunkHandle>& h : linked) {
    MetaShard& shard = shards_[shard_of(h->key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++h->refcount;
    dmeta->chunks.push_back(h);
  }
  dmeta->size = link_offset + src_size;
  return link_offset;
}

uint32_t Manager::ChunkRefcount(const ChunkKey& key) const {
  const MetaShard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.chunks.find(key);
  return it == shard.chunks.end() ? 0 : it->second->refcount;
}

uint64_t Manager::num_files() const {
  std::shared_lock<std::shared_mutex> lock(ns_mu_);
  return files_.size();
}

}  // namespace nvm::store
