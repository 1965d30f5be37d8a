#include "store/manager.hpp"

#include <algorithm>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "store/maintenance.hpp"

namespace nvm::store {

namespace {

// Group the first `need(loc)` listed members of every location by holder
// (all of them when `need` returns the list length).
template <typename Loc, typename Need>
std::vector<BenefactorRun> GroupMembers(std::span<const Loc> locs,
                                        Need need) {
  std::vector<BenefactorRun> runs;
  std::unordered_map<int, size_t> run_of;  // benefactor id -> index in runs
  for (size_t i = 0; i < locs.size(); ++i) {
    const std::vector<int>& list = locs[i].benefactors;
    size_t left = need(locs[i]);
    for (uint32_t pos = 0; pos < list.size() && left > 0; ++pos) {
      if (list[pos] < 0) continue;  // a stripe hole
      auto [it, fresh] = run_of.try_emplace(list[pos], runs.size());
      if (fresh) runs.push_back(BenefactorRun{list[pos], {}});
      runs[it->second].items.push_back(RunMember{i, pos});
      --left;
    }
  }
  return runs;
}

}  // namespace

std::vector<BenefactorRun> Manager::GroupByPrimaryBenefactor(
    std::span<const ReadLocation> locs) const {
  return GroupMembers(locs, [this](const ReadLocation& loc) -> size_t {
    return code_.Lost(loc.benefactors) ? 0 : code_.need;
  });
}

std::vector<BenefactorRun> Manager::GroupByBenefactor(
    std::span<const WriteLocation> locs) const {
  return GroupMembers(locs, [](const WriteLocation& loc) {
    return loc.benefactors.size();
  });
}

Manager::Manager(net::Cluster& cluster, int manager_node, StoreConfig config,
                 WalStore* wal)
    : cluster_(cluster),
      manager_node_(manager_node),
      config_(config),
      code_(MakeCode(config)),
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

Manager::Redundancy Manager::MakeCode(const StoreConfig& config) {
  Redundancy code;
  if (config.ec()) {
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
    const std::vector<Benefactor*>& bens, const ChunkKey& key,
    const std::vector<int>& ranked, size_t n,
    std::vector<int>& used_nodes) const {
  std::vector<int> picked;
  for (int bid : ranked) {
    if (picked.size() == n) break;
    const int node = bens[static_cast<size_t>(bid)]->node_id();
    const bool spread_node = spread && node >= 0;
    if (spread_node && std::find(used_nodes.begin(), used_nodes.end(),
                                 node) != used_nodes.end()) {
      continue;
    }
    if (!bens[static_cast<size_t>(bid)]->Reserve(key, member_bytes).ok()) {
      continue;
    }
    picked.push_back(bid);
    if (spread_node) used_nodes.push_back(node);
  }
  return picked;
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
  WriteLocation loc;
  loc.key = key;
  loc.frag_crcs.assign(frag_crcs.begin(), frag_crcs.end());
  CompleteWrites(clock, {&loc, 1},
                 crc != nullptr ? std::span<const uint32_t>(crc, 1)
                                : std::span<const uint32_t>());
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
      WalCompletion done{locs[i].key, crc != nullptr,
                         crc != nullptr ? *crc : 0};
      if (crc != nullptr) done.frag_crcs = locs[i].frag_crcs;
      rec.completions.push_back(std::move(done));
    }
    if (!rec.completions.empty()) LogAppend(clock, std::move(rec));
  }
  for (size_t i = 0; i < locs.size(); ++i) {
    const uint32_t* crc =
        !crcs.empty() && (ok.empty() || ok[i] != 0) ? &crcs[i] : nullptr;
    CompleteWriteLocked(shards_[shard_of_loc[i]], locs[i].key, crc,
                        locs[i].frag_crcs);
  }
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
    for (int bid : *list) {
      if (bid < 0) continue;  // EC hole: nothing stored, nothing reserved
      (void)BenefactorAt(bid)->DeleteChunk(h.key);
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
  const auto log_extend = [&](uint64_t logical_size) {
    WalRecord rec;
    rec.type = WalRecordType::kExtend;
    rec.file_id = id;
    rec.size = logical_size;
    rec.placements = std::move(wal_placements);
    LogAppend(clock, std::move(rec));
  };
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
    // scrubber's inventory sweep and Decommission hold every shard
    // mutex, so neither can observe a reservation without its chunk, nor
    // retire a benefactor between the alive() check and publication.
    MetaShard& shard = shards_[shard_of(key)];
    std::unique_lock<std::mutex> slock(shard.mu);
    const std::vector<PlacementCandidate> cands = BuildPlacementCandidates(
        bens, suspected.empty() ? nullptr : &suspected);
    const size_t start =
        ChooseStripeStart(cands, config_.stripe_policy, meta.stripe_cursor,
                          client_node, code_.member_bytes);
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
    std::vector<int> replicas = code_.Reserve(
        bens, key, RankPlacement(cands, req), code_.width, used_nodes);
    if (replicas.size() < code_.width) {
      // Roll back partial placement.
      for (int bid : replicas) {
        (void)bens[static_cast<size_t>(bid)]->DeleteChunk(key);
      }
      // The chunks placed by EARLIER loop iterations stay (they are live
      // in the file already): log them with the unchanged logical size so
      // the durable image matches what the caller can now read.
      if (!wal_placements.empty()) log_extend(meta.size);
      // Nothing alive at all is unavailability, not exhaustion — the old
      // silent stripe-cursor fallback reported it as out-of-space.
      bool any_alive = false;
      for (const PlacementCandidate& c : cands) any_alive |= c.alive;
      if (!any_alive) {
        return Unavailable("no alive benefactor for chunk " +
                           std::to_string(meta.chunks.size()) + " of '" +
                           meta.name + "'");
      }
      if (code_.spread) {
        // The spread constraint could not be met (too few distinct alive
        // failure domains with a fragment of space): unavailability, not
        // exhaustion — adding capacity to an existing domain won't help.
        return Unavailable(
            "erasure stripe needs " + std::to_string(code_.width) +
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
  if (wal_ != nullptr && (!wal_placements.empty() || size > meta.size)) {
    log_extend(std::max(meta.size, size));
  }
  meta.size = std::max(meta.size, size);
  return OkStatus();
}

StatusOr<ReadLocation> Manager::GetReadLocation(sim::VirtualClock& clock,
                                                FileId id,
                                                uint32_t chunk_index) {
  NVM_ASSIGN_OR_RETURN(std::vector<ReadLocation> locs,
                       GetReadLocations(clock, id, chunk_index, 1));
  return std::move(locs.front());
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
        h.key, *h.replicas.load(std::memory_order_acquire)});
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
  std::shared_ptr<const std::vector<int>> fresh_list = replicas;
  if (config_.placement_avoid_suspected && !code_.positional) {
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
  size_t reserved = 0;
  for (int bid : *fresh_list) {
    Status s = bid < 0 ? OkStatus()  // EC hole: nothing to reserve
                       : BenefactorAt(bid)->Reserve(fresh_key,
                                                    code_.member_bytes);
    if (!s.ok()) {
      for (size_t r = 0; r < reserved; ++r) {
        const int rb = (*fresh_list)[r];
        if (rb >= 0) (void)BenefactorAt(rb)->DeleteChunk(fresh_key);
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
  // The fresh version shares the (immutable) replica snapshot — or, when
  // the placement engine dropped holders, its filtered copy.
  nh->replicas.store(fresh_list, std::memory_order_release);
  fresh_shard.inflight_writers[fresh_key] = 1;  // fenced until write lands
  fresh_shard.chunks.emplace(fresh_key, nh);

  // Erasure stripes are always rewritten whole (full-stripe writes), so
  // the fresh version never merges over cloned bytes — and an uncompleted
  // stripe rolls back at recovery instead of reading a cloned base.
  loc.needs_clone = !config_.ec();
  loc.clone_from = h.key;
  loc.key = fresh_key;
  loc.benefactors = *fresh_list;
  slot = std::move(nh);
  return loc;
}

StatusOr<WriteLocation> Manager::PrepareWrite(sim::VirtualClock& clock,
                                              FileId id,
                                              uint32_t chunk_index) {
  NVM_ASSIGN_OR_RETURN(std::vector<WriteLocation> locs,
                       PrepareWriteBatch(clock, id, {&chunk_index, 1}));
  return std::move(locs.front());
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
