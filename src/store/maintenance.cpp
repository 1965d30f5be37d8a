#include "store/maintenance.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace nvm::store {

namespace {
constexpr int64_t kMsToNs = 1'000'000;
// Keys pulled from the queue per repair batch: large enough to amortise
// the plan/commit lock passes, small enough that the duty-cycle throttle
// interleaves repair with foreground traffic at chunk granularity.
constexpr size_t kRepairBatch = 8;
}  // namespace

MaintenanceService::MaintenanceService(Manager& manager)
    : manager_(manager),
      heartbeat_period_ns_(manager.config().heartbeat_period_ms * kMsToNs),
      heartbeat_misses_(manager.config().heartbeat_misses),
      bw_fraction_(manager.config().repair_bw_fraction),
      qos_on_(manager.config().qos),
      scrub_period_ns_(manager.config().scrub_period_ms * kMsToNs),
      // Checkpointing needs a WAL to write into; a wal-less manager (or a
      // zero period) disables the loop entirely.
      checkpoint_period_ns_(
          manager.wal() != nullptr
              ? manager.config().checkpoint_period_ms * kMsToNs
              : 0),
      queues_(manager.meta_shards()),
      next_heartbeat_ns_(heartbeat_period_ns_),
      next_scrub_ns_(scrub_period_ns_),
      next_checkpoint_ns_(checkpoint_period_ns_ > 0
                              ? checkpoint_period_ns_
                              : std::numeric_limits<int64_t>::max()),
      suspect_slots_(manager.num_benefactors()),
      suspect_counts_(
          std::make_unique<std::atomic<uint32_t>[]>(suspect_slots_)),
      worker_("maintenance") {
  NVM_CHECK(heartbeat_period_ns_ > 0, "heartbeat_period_ms must be positive");
  NVM_CHECK(heartbeat_misses_ >= 1, "heartbeat_misses must be >= 1");
  NVM_CHECK(bw_fraction_ > 0.0 && bw_fraction_ <= 1.0,
            "repair_bw_fraction must be in (0, 1]");
  NVM_CHECK(scrub_period_ns_ > 0, "scrub_period_ms must be positive");
  NVM_CHECK(checkpoint_period_ns_ >= 0,
            "checkpoint_period_ms must not be negative");
  next_due_.store(std::min({next_heartbeat_ns_, next_scrub_ns_,
                            next_checkpoint_ns_}),
                  std::memory_order_relaxed);
  manager_.AttachMaintenance(this);
}

MaintenanceService::~MaintenanceService() {
  // The detach takes the manager's hook lock exclusively, so it blocks
  // until every client thread already inside ReportDegraded/Tick has
  // returned — after it, no new call can reach this object.
  manager_.AttachMaintenance(nullptr);
  // worker_'s destructor runs any still-pending tasks and joins; every
  // other member outlives it (declaration order), so in-flight tasks stay
  // safe.
}

bool MaintenanceService::KickLocked() {
  if (kicked_) return false;
  kicked_ = true;
  return true;
}

bool MaintenanceService::Enqueue(const ChunkKey& key, int64_t now_ns) {
  QueueShard& q =
      queues_[static_cast<size_t>(ChunkKeyHash{}(key)) % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.queued.insert(key).second) return false;  // already waiting
    q.queue.push_back(Pending{key, now_ns});
    // Bumped before the lock drops: RepairBatch decrements under this same
    // lock right after popping, so the add is ordered before any drain of
    // this entry and the unsigned counter can never transiently underflow.
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  enqueued_.Add(1);
  return true;
}

void MaintenanceService::ReportDegraded(const ChunkKey& key, int64_t now_ns) {
  reports_.Add(1);
  // The enqueue takes only the key's queue-shard lock; mu_ comes after
  // (never nested) for the schedule target and the kick token.  The
  // catch-up loop's final re-check runs under mu_ too, so the enqueue
  // above is visible to it — the kick handoff cannot lose this report.
  Enqueue(key, now_ns);
  bool post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_ns_ = std::max(target_ns_, now_ns);
    post = KickLocked();
  }
  if (post) worker_.Post([this](sim::VirtualClock& c) { CatchUp(c); });
}

void MaintenanceService::Tick(int64_t now_ns) {
  // Fast path: nothing due yet — one relaxed load per metadata RTT.
  if (now_ns < next_due_.load(std::memory_order_relaxed)) return;
  bool post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_ns_ = std::max(target_ns_, now_ns);
    post = KickLocked();
  }
  if (post) worker_.Post([this](sim::VirtualClock& c) { CatchUp(c); });
}

void MaintenanceService::RunUntil(int64_t deadline_ns) {
  bool post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_ns_ = std::max(target_ns_, deadline_ns);
    post = KickLocked();
  }
  if (post) worker_.Post([this](sim::VirtualClock& c) { CatchUp(c); });
  // A catch-up task re-posts itself while still marked busy whenever work
  // remains, so one Drain() observes the whole chain.
  worker_.Drain();
}

bool MaintenanceService::QueueEmpty() const {
  return queue_depth_.load(std::memory_order_relaxed) == 0;
}

std::vector<char> MaintenanceService::SuspectedSnapshot() const {
  std::vector<char> suspected(suspect_slots_, 0);
  for (size_t i = 0; i < suspect_slots_; ++i) {
    if (suspect_counts_[i].load(std::memory_order_relaxed) > 0) {
      suspected[i] = 1;
    }
  }
  return suspected;
}

void MaintenanceService::CatchUp(sim::VirtualClock& clock) {
  // Bounds how far a loop's schedule may fall behind the worker's own
  // clock.  An event whose cost exceeds its period (a 25ms scrub on a
  // 20ms cadence) accumulates replay backlog faster than it drains; with
  // unbounded replay every foreground Tick chases an ever-receding
  // schedule and the worker's virtual clock runs away exponentially.
  // Dropping only the slots beyond the window keeps moderate backlogs —
  // a repair burst's duty-cycle idle, a congested sweep — replaying at
  // exact fixed rate, which the failure-detector timing tests rely on,
  // while capping the per-catch-up work for a genuinely overrunning
  // loop (the schedule then stays within the window of the clock, so
  // each drain round is bounded instead of compounding).
  constexpr int64_t kMaxBacklogPeriods = 16;
  const auto reschedule = [&clock](int64_t& next, int64_t period) {
    next += period;
    const int64_t floor = clock.now() - kMaxBacklogPeriods * period;
    if (next < floor) next = floor;
  };
  for (;;) {
    // Queued repairs run first — a failure report outranks the schedule.
    if (queue_depth_.load(std::memory_order_relaxed) > 0) {
      RepairBatch(clock);
      continue;
    }
    int64_t target;
    {
      std::lock_guard<std::mutex> lock(mu_);
      target = target_ns_;
    }
    const int64_t due =
        std::min({next_heartbeat_ns_, next_scrub_ns_, next_checkpoint_ns_});
    if (due > target) break;  // schedule has caught up to foreground time
    clock.AdvanceTo(due);
    // Ties resolve heartbeat > scrub > checkpoint: liveness first, the
    // checkpoint last so it serialises the state the others just settled.
    if (next_heartbeat_ns_ == due) {
      HeartbeatSweep(clock);
      reschedule(next_heartbeat_ns_, heartbeat_period_ns_);
    } else if (next_scrub_ns_ == due) {
      ScrubPass(clock);
      reschedule(next_scrub_ns_, scrub_period_ns_);
    } else {
      CheckpointPass(clock);
      reschedule(next_checkpoint_ns_, checkpoint_period_ns_);
    }
  }
  next_due_.store(std::min({next_heartbeat_ns_, next_scrub_ns_,
                            next_checkpoint_ns_}),
                  std::memory_order_relaxed);
  bool again;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check under the lock: a report may have slipped in after the
    // loop's last look.  Either we run again or we hand the kick token
    // back — never both, so wakeups cannot be lost.  (A reporter bumps
    // queue_depth_ before taking mu_, so any enqueue that found the token
    // still held is visible to this load.)
    again = queue_depth_.load(std::memory_order_relaxed) > 0 ||
            std::min({next_heartbeat_ns_, next_scrub_ns_,
                      next_checkpoint_ns_}) <= target_ns_;
    if (!again) kicked_ = false;
  }
  if (again) worker_.Post([this](sim::VirtualClock& c) { CatchUp(c); });
}

void MaintenanceService::RepairBatch(sim::VirtualClock& clock) {
  // Drain round-robin across the queue shards from the worker's cursor,
  // FIFO within each shard — with one shard this is exactly the historic
  // single-FIFO pop, and with many no shard can starve the others.
  std::vector<ChunkKey> keys;
  int64_t report_floor = 0;
  for (size_t scanned = 0;
       scanned < queues_.size() && keys.size() < kRepairBatch; ++scanned) {
    QueueShard& q = queues_[(drain_cursor_ + scanned) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    while (!q.queue.empty() && keys.size() < kRepairBatch) {
      Pending p = std::move(q.queue.front());
      q.queue.pop_front();
      q.queued.erase(p.key);
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      report_floor = std::max(report_floor, p.reported_ns);
      keys.push_back(p.key);
    }
  }
  drain_cursor_ = (drain_cursor_ + 1) % queues_.size();
  if (keys.empty()) return;
  // Repair cannot begin before the failure was reported.
  clock.AdvanceTo(report_floor);
  batches_.Add(1);

  std::vector<Manager::RepairPlan> plans = manager_.PlanRepairs(clock, keys);
  const int64_t busy_start = clock.now();
  for (const Manager::RepairPlan& plan : plans) {
    if (plan.incomplete) capacity_misses_.Add(1);
    Manager::RepairOutcome out = manager_.ExecuteRepairPlan(clock, plan);
    bool requeue = false;
    recreated_.Add(manager_.CommitRepair(clock, out, &requeue));
    if (requeue) {
      // The chunk changed under the copy (or the copy fell short of the
      // plan); try again with fresh bytes.
      requeued_.Add(1);
      Enqueue(plan.key, clock.now());
    }
  }
  const int64_t busy = clock.now() - busy_start;
  repair_busy_ns_.fetch_add(busy, std::memory_order_relaxed);
  IdleAfter(clock, busy);
  if (queue_depth_.load(std::memory_order_relaxed) == 0) {
    converged_ns_.store(clock.now(), std::memory_order_relaxed);
  }
}

void MaintenanceService::HeartbeatSweep(sim::VirtualClock& clock) {
  std::vector<char> alive;
  manager_.CheckLiveness(clock, &alive);
  sweeps_.Add(1);
  if (missed_.size() < alive.size()) missed_.resize(alive.size(), 0);
  for (size_t i = 0; i < alive.size(); ++i) {
    if (alive[i]) {
      // A revived benefactor must miss the full threshold again before it
      // is re-declared — flapping cannot amplify into repair storms.
      missed_[i] = 0;
      if (i < suspect_slots_) {
        suspect_counts_[i].store(0, std::memory_order_relaxed);
      }
      continue;
    }
    ++missed_[i];
    if (i < suspect_slots_) {
      suspect_counts_[i].store(static_cast<uint32_t>(missed_[i]),
                               std::memory_order_relaxed);
    }
    if (missed_[i] == 1) suspected_.Add(1);
    if (missed_[i] == heartbeat_misses_) {
      // Suspicion confirmed: everything that held a replica there is now
      // under-replicated.
      declared_dead_.Add(1);
      std::vector<ChunkKey> degraded =
          manager_.ChunksWithReplicasOn(static_cast<int>(i));
      for (const ChunkKey& key : degraded) Enqueue(key, clock.now());
    }
  }
}

void MaintenanceService::ScrubPass(sim::VirtualClock& clock) {
  Manager::ScrubResult result = manager_.ScrubOnce(clock);
  scrub_passes_.Add(1);
  scrub_orphans_.Add(result.orphans_deleted);
  scrub_res_fixes_.Add(result.reservation_fixes);

  // Incremental checksum verification (a zero budget skips it), bounded
  // per pass and throttled like repair: the verification reads keep
  // devices busy, so the worker idles afterwards and foreground traffic
  // backfills the gap.
  const int64_t busy_start = clock.now();
  const Manager::VerifyResult verified =
      manager_.VerifyScrub(clock, manager_.config().scrub_verify_bytes);
  scrub_chunks_verified_.Add(verified.chunks_checked);
  scrub_bytes_verified_.Add(verified.bytes_checked);
  IdleAfter(clock, clock.now() - busy_start);

  for (const ChunkKey& key : result.under_replicated) {
    // Chunks the report path missed (e.g. a benefactor died between
    // flushes, with no write around to notice).
    if (Enqueue(key, clock.now())) scrub_requeued_.Add(1);
  }
  for (const ChunkKey& key : verified.quarantined) {
    // Quarantined bit rot with a verified survivor: re-replicate.
    if (Enqueue(key, clock.now())) scrub_requeued_.Add(1);
  }
}

void MaintenanceService::IdleAfter(sim::VirtualClock& clock, int64_t busy) {
  // The idle shows up as gaps in the device and NIC timelines, which
  // foreground requests backfill — so at f=0.1, maintenance consumes at
  // most ~10% of any resource over time.  With QoS on the idle is skipped
  // and only tenant admission paces maintenance — which lets a burst
  // booked before any foreground traffic through (qos_on_).
  if (bw_fraction_ < 1.0 && busy > 0 && !qos_on_) {
    const auto idle = static_cast<int64_t>(
        static_cast<double>(busy) * (1.0 - bw_fraction_) / bw_fraction_);
    clock.Advance(idle);
    throttle_idle_ns_.fetch_add(idle, std::memory_order_relaxed);
  }
}

void MaintenanceService::CheckpointPass(sim::VirtualClock& clock) {
  // Serialise the metadata plane into the WAL's checkpoint store.  The
  // charge (metadata op + log-device write) lands on the worker's clock:
  // metadata durability is background work with a virtual-time cost, the
  // same accounting frame as repair and scrub.
  manager_.Checkpoint(clock);
  checkpoints_.Add(1);
}

MaintenanceStats MaintenanceService::stats() const {
  MaintenanceStats s;
  s.heartbeat_sweeps = sweeps_.value();
  s.benefactors_suspected = suspected_.value();
  s.benefactors_declared_dead = declared_dead_.value();
  s.degraded_reports = reports_.value();
  s.repairs_enqueued = enqueued_.value();
  s.repair_batches = batches_.value();
  s.replicas_recreated = recreated_.value();
  s.repairs_requeued = requeued_.value();
  s.repair_capacity_misses = capacity_misses_.value();
  s.lost_chunks = manager_.lost_chunks();
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.repair_busy_ns = repair_busy_ns_.load(std::memory_order_relaxed);
  s.throttle_idle_ns = throttle_idle_ns_.load(std::memory_order_relaxed);
  s.converged_at_ns = converged_ns_.load(std::memory_order_relaxed);
  s.scrub_passes = scrub_passes_.value();
  s.scrub_orphans_deleted = scrub_orphans_.value();
  s.scrub_reservation_fixes = scrub_res_fixes_.value();
  s.scrub_requeued = scrub_requeued_.value();
  s.checkpoints = checkpoints_.value();
  s.scrub_chunks_verified = scrub_chunks_verified_.value();
  s.scrub_bytes_verified = scrub_bytes_verified_.value();
  s.corrupt_chunks_detected = manager_.corrupt_detected();
  s.corrupt_chunks_repaired = manager_.corrupt_repaired();
  s.clock_ns = worker_.now_ns();
  return s;
}

}  // namespace nvm::store
